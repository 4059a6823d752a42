"""Golden sha256 digests of the shipped reports.

Every ``qtau verify`` suite but ``bethe`` is run at seeds 0, 1 and 2
with the default config, and once more at seed 7 with two trials and
the signed Q list -3/7, 2, -1, 1, in both report formats; ``qtau kostka
--cutoff d`` output is rebuilt for d <= 6, and run through the CLI at
d = 7 and 8 (the desk weight cap); the c-tilde matrices are pinned for
d <= 8.
A change to the arithmetic that alters any byte of these reports fails
here, so an exact-value refactor can show that it kept every report
identical.  The bethe report prints floats, so only its check names,
tags and verdicts are pinned.
A deliberate change to a report updates its digest in the same commit.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from qtau.cli import main
from qtau.qboson_model import c_tilde_matrix
from qtau.suites import SuiteConfig, emit_report, run_suite
from qtau.symfunc import kostka_tables, kostka_tables_json

SEEDS = (0, 1, 2)

# (json, text) digest of each report, keyed by (suite, seed)
SUITE_DIGESTS = {
    ("giambelli", 0): (
        "c98a67e97a48bff4eb7b6ec39c3af1f04d0a030f1967986bec4622635f56d94c",
        "4ab0b97bbf0b6af9f64527f9f8d90c70658508f4872e3b970333ff338bbcee6d"),
    ("giambelli", 1): (
        "3a9d0c55a0713de2cb2154369db4dd15c740505a2ae2278c3bc4cfd96f67bb00",
        "13982aae51d0c49fd4d96807ad1ad8f16e6ea36e3dad08ac1018c0acab4ebb4d"),
    ("giambelli", 2): (
        "372332fea3037233a87d70399f6c65649140df743a2172042d72c09d6b79e755",
        "6293390fa551b6664d92c2486f45ecbfc0997627b932d45a6fa1129d9e65acf4"),
    ("hl-cauchy", 0): (
        "5752aa3d552fe30cce6d8d36b4306ea1420fead389b78b53d9b6e8c7727235ab",
        "4e933261761acbb49bf041267da6343b191eb47205499bf3ad4532b28b9645bd"),
    ("hl-cauchy", 1): (
        "84be4f690434b4bc9252adf65353fb296fd40894ff7210649ebfa5cd1326d997",
        "4e933261761acbb49bf041267da6343b191eb47205499bf3ad4532b28b9645bd"),
    ("hl-cauchy", 2): (
        "2ad920e0314d8b1fab30c1cb6ba915bf3838909d51602a677644876aae649d47",
        "4e933261761acbb49bf041267da6343b191eb47205499bf3ad4532b28b9645bd"),
    ("kostka", 0): (
        "636c724370bf82e9d442d9fbcb77523c930dea1ca0d68cf1c06f67b301e0661d",
        "c729959320234384778614d1d85318129f55708647b77a7790f3984b296ca42d"),
    ("kostka", 1): (
        "7fd09bdb4a7159246df93d124c8535522d8e75415d1b743a1c6f04fb904831cb",
        "c729959320234384778614d1d85318129f55708647b77a7790f3984b296ca42d"),
    ("kostka", 2): (
        "eb66f7fa10e1af9124bb0ac57e0965108dde8ab22e53d905290aa7188affb826",
        "c729959320234384778614d1d85318129f55708647b77a7790f3984b296ca42d"),
    ("matrix-integral", 0): (
        "426bfd70a4a7ef45214ffc7135e019eb4f7a15061972e5a0ace75866cfff3e5b",
        "4015ac3457414fd26c45f72f2252b4a48a4af6af9bd2b46d89df27bf9580a3ad"),
    ("matrix-integral", 1): (
        "f43dab06e324ce28626be3cc14393c481e9b34b73072395167a707c92616e144",
        "4015ac3457414fd26c45f72f2252b4a48a4af6af9bd2b46d89df27bf9580a3ad"),
    ("matrix-integral", 2): (
        "eee5a39969b57a4771e15028ac0281ad826435f4db4ee626a93935e19ddece13",
        "4015ac3457414fd26c45f72f2252b4a48a4af6af9bd2b46d89df27bf9580a3ad"),
    ("oracle-cross", 0): (
        "c93e1c2699fdad066bde544ebb394c558dcf0514c8491b64ed6292551ac75b42",
        "832ec44806d7b54c84afd7fd3de9db1306ed385212ff108b4e88a1bdafff1c24"),
    ("oracle-cross", 1): (
        "6575a2719ca49ca0ab5852b7ed966e27c6250087ffa42f7fa399aa2f06ffec77",
        "832ec44806d7b54c84afd7fd3de9db1306ed385212ff108b4e88a1bdafff1c24"),
    ("oracle-cross", 2): (
        "90764415bf866ae70b4ad2cb579aa6186e36df45cb1943d5694fb56c77b8e960",
        "832ec44806d7b54c84afd7fd3de9db1306ed385212ff108b4e88a1bdafff1c24"),
    ("phase-corr", 0): (
        "97300b2833b23e333f291dcb23c18fcc9cab9eb0c054d0789295e54d53bcd614",
        "7f9ad0325300a6836a177f72bfbb651f14a7eba68c1b5f2b440c2052ee803ed3"),
    ("phase-corr", 1): (
        "ac0335b01c3a996ac55fc24299257c3207f4b98d92355a8cf25840cf8e92c451",
        "7f9ad0325300a6836a177f72bfbb651f14a7eba68c1b5f2b440c2052ee803ed3"),
    ("phase-corr", 2): (
        "e4de00a3b187441b6cde886791b44235521a6d05a06edcb93b7ad5090e1f6a11",
        "7f9ad0325300a6836a177f72bfbb651f14a7eba68c1b5f2b440c2052ee803ed3"),
    ("phase-scalar", 0): (
        "c0f4d96be27eccd4739dd42bb3a05c0aa35e569a4184db8b218605e8da2535c4",
        "73bb7064679e7008553e1e34cf7a16c9d6cac41b6549d7b16eace0d9577e064a"),
    ("phase-scalar", 1): (
        "8e7c3e3544a272f3ba017f6a4b7d032f87ef50a3804ad94232165f42280abddb",
        "73bb7064679e7008553e1e34cf7a16c9d6cac41b6549d7b16eace0d9577e064a"),
    ("phase-scalar", 2): (
        "66285ebb36fa2efe66464d9c874dee8d0364522ddb01b74d403c8fea468cd8f4",
        "73bb7064679e7008553e1e34cf7a16c9d6cac41b6549d7b16eace0d9577e064a"),
    ("qboson-modes", 0): (
        "92fb79674796157362a3fbc7739c2d88c24593a07045c21e341e885de16cd023",
        "5afe2ad2b5eefd66a3047e429889b8a511a297da6f9829db7d89e10aaf660c67"),
    ("qboson-modes", 1): (
        "ee3384653ce3f3a5ef3ac92c956d29a2aae08897b3c58b67f57c7f076e9466c9",
        "5afe2ad2b5eefd66a3047e429889b8a511a297da6f9829db7d89e10aaf660c67"),
    ("qboson-modes", 2): (
        "d0b01cb024631f4cfb5938f90a0f4adda3be273c5c4c77893b4b8b7a408cf359",
        "5afe2ad2b5eefd66a3047e429889b8a511a297da6f9829db7d89e10aaf660c67"),
    ("supersym", 0): (
        "41e77f2fc33e5722bfb85ee902dc553023ab794eab065a9d8175291f8f2fdcaf",
        "d1dcbfe6a2b87bce674067b5c7cfdb86efff64884f7b57d6028ad809c03e28ae"),
    ("supersym", 1): (
        "e4457f813a8a1927c97ad03a6d2072e88e4b8d428ad5a108f2da94197e7af2e4",
        "f1982a003eda7b046dc9f00440a090930df9fcdf1ae7d23675cd434da414f693"),
    ("supersym", 2): (
        "1ee9be56dca36508c3be43487ed6110d1b95a0ae79dcdf6a79ae8babe4f8e35f",
        "26938b44af685a9a5b975fcc1cfdede310ec7c12b0b1f4b962f28562b43a5529"),
}

# (json, text) digest of each report at seed 7, trials 2 and a signed Q
# list: Q below 0, above 1 and at +-1
SIGNED_Q = (Fraction(-3, 7), Fraction(2), Fraction(-1), Fraction(1))
SIGNED_Q_DIGESTS = {
    "giambelli": (
        "b2e32580096bb9f360f7fb7a161727f63558173a1318e528c9882feee43b697c",
        "1430706ed08e58b1375bc719225da36484806ce617795d2794f50568a25dab38"),
    "hl-cauchy": (
        "53069ea9209fed94f4480b2d988f3edae23a4c61d3131dbc352101756f6306fe",
        "2032f9498d163015ae771fc25b08ce08b1d1aa0efac6c3e51500767550961326"),
    "kostka": (
        "a7188ad4ddd483b1ecb34ee4e1cccaf2d0399214ab949dfcceb733c4e056f5c1",
        "c729959320234384778614d1d85318129f55708647b77a7790f3984b296ca42d"),
    "matrix-integral": (
        "5096e87147e0364e7fb1b452675d99cb2317056938f5e49bdd2e3ec1f9774ff9",
        "4015ac3457414fd26c45f72f2252b4a48a4af6af9bd2b46d89df27bf9580a3ad"),
    "oracle-cross": (
        "3d522fc2f04d91cea71166ef10ed6b3e6a5daabbfb83e235daa5aa6ce65e31b4",
        "4339723b212d1660b551d03035363665cd130741bb0f7e60ceedc85ded07b2eb"),
    "phase-corr": (
        "57c0797d6b93280833b7b4da624803ef39311d51023db73e567d7b4f1f154f85",
        "ebdb22a7f351117c8881603aa8cbed3f3a2bd3d40225df5743664be81c41a662"),
    "phase-scalar": (
        "4f7504c3954aa4556c58d215a3424525c14a3a3341afb1b4d95fca62ec67a1a5",
        "f14abb8bedd72c25ef56b3dc95f3d0d63a483271aa720df1f296b3e53fa5d1fc"),
    "qboson-modes": (
        "6a18bd4d67fc2e9379447b8efd7fa523c0907affd984a113624269cc451b0500",
        "9822449fa895d7036faed6293cafab4e9b1c7efbf7dfc250b5cda73052ab8f69"),
    "supersym": (
        "57531a68058b2449230f621c66fb8474c9a52a3444437ec388d4b84de5873bf3",
        "caabeba0a7ff26041a49541a557428aa2bb87a5b0efbbbd3d0dde8b0f6c33eff"),
}

# sha256 of the JSON text `qtau kostka --cutoff d` prints
KOSTKA_DIGESTS = [
    "eb46c366d8e205679a4b8bbc50c2808ac32a835b7ba7a992e228545f6b4603ef",
    "536b47fb2205875cb8010bc21dd42135d1db71c60e4a9a00a0e2003ee327de1c",
    "d16bc5408f26719109bfe5487368770f095761c917331912c5ba2a7a3584e173",
    "315c7e24c45c46549d8775928192c064ea7735b6644d43d2bf435315ee8568be",
    "bb8002464c6ea121a7ea514a7ded21128125156b6e0074e7178a4ab6fa5c6761",
    "b571c9fec04e0306d7970d2d1cffb9270fa5a66f2d0fb93fb5f2f103c79c35f0",
    "b5eecb72b81ed7231ca82b9d7cef3c1a82fbfbc60d70509e8b565e97bdf614d2",
]

# ``qtau kostka --cutoff d`` for d = 7 and 8
KOSTKA_CLI_DIGESTS = {
    7: "af1c700acf33469445f0eb184b211bb05edc60788651326b50bd50273d00c1b2",
    8: "743016f00a0d2487319d53d0baf27bc4014ecf9f11922e971a185bbc954ae86e",
}

# json.dumps of the rows of c_tilde_matrix(d), each entry as to_list()
C_TILDE_DIGESTS = [
    "fa6193df8caef09f0207842c35ed8f41d7a777c8db282a2ce907eaecf8b51582",
    "62cb50261abde2a59f496e44858f0c8853efd6caecabd2f94ce524ab99516734",
    "50b38bff5229a973063feb2742e33dc1d49be10b393fefd213af91ca558f9af5",
    "3d7be722e6e19e26cdd8e31b2aa2b812ea3067728868bfc5569e1dcf4fff2b3f",
    "5d9881841750b88346480739d11f56cb3ed44a767d19d3d682cfd7849143d88e",
    "0db151df9df439399769ca9b350e4332ffdbe3a92edce4358471f99936e07007",
    "07a3474388e565fcc0a973401dfcfb7562f3cf7b10268fbd236d9d6d7d26d805",
    "0502d3be29bf9ba3b9a9c1f690918f145425d574af922f95f234b25e2f47f7b6",
    "6bd1435e12da2e604fe4970357bc3923dcab5b919b1953cb274427815547fd2d",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted({s for s, _ in SUITE_DIGESTS}))
def test_verify_report_digest(suite):
    for seed in SEEDS:
        report = run_suite(SuiteConfig(suite=suite, seed=seed))
        digests = (_sha(emit_report(report, "json")),
                   _sha(emit_report(report, "text")))
        assert digests == SUITE_DIGESTS[suite, seed], seed


@pytest.mark.parametrize("suite", sorted(SIGNED_Q_DIGESTS))
def test_verify_report_digest_at_signed_q(suite):
    report = run_suite(SuiteConfig(suite=suite, seed=7, trials=2,
                                   q_values=SIGNED_Q))
    assert (_sha(emit_report(report, "json")),
            _sha(emit_report(report, "text"))) == SIGNED_Q_DIGESTS[suite]


# bethe prints floats, so its report is pinned by verdict, not by digest
BETHE_CHECKS = [
    ("bethe-roots-of-unity", "bethe-equations/N1", True),
    ("bethe-phase-residuals", "bethe-equations/residuals", True),
    ("bethe-consistency-product", "bethe-equations/product-relation", True),
    ("bethe-qboson-continuation", "bethe-equations/deformed", True),
    ("bethe-qboson-q0-match", "bethe-equations/Q-to-0", True),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_bethe_report_verdicts(seed):
    report = run_suite(SuiteConfig(suite="bethe", seed=seed))
    assert [(c.name, c.paper_ref, c.passed)
            for c in report.checks] == BETHE_CHECKS


@pytest.mark.parametrize("d", range(len(KOSTKA_DIGESTS)))
def test_kostka_json_digest(d):
    text = json.dumps(kostka_tables_json(kostka_tables(d)), indent=2) + "\n"
    assert _sha(text) == KOSTKA_DIGESTS[d]


@pytest.mark.parametrize("d", sorted(KOSTKA_CLI_DIGESTS))
def test_kostka_cli_digest_at_the_weight_cap(capsys, d):
    assert main(["kostka", "--cutoff", str(d)]) == 0
    assert _sha(capsys.readouterr().out) == KOSTKA_CLI_DIGESTS[d]


@pytest.mark.parametrize("d", range(len(C_TILDE_DIGESTS)))
def test_c_tilde_digest(d):
    rows = [[p.to_list() for p in row] for row in c_tilde_matrix(d)]
    assert _sha(json.dumps(rows)) == C_TILDE_DIGESTS[d]
