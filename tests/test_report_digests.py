"""Golden sha256 digests of the shipped reports.

Every ``qtau verify`` suite but ``bethe`` (whose report prints floats)
is run at seed 0 with the default config, in both report formats, and
``qtau kostka --cutoff d`` output is rebuilt for d <= 6.  A change to the
arithmetic that alters any byte of these reports fails here, so an
exact-value refactor can show that it kept every report identical.
A deliberate change to a report updates its digest in the same commit.
"""

import hashlib
import json

import pytest

from qtau.suites import SuiteConfig, emit_report, run_suite
from qtau.symfunc import kostka_tables, kostka_tables_json

SUITE_DIGESTS = {
    "giambelli": (
        "c98a67e97a48bff4eb7b6ec39c3af1f04d0a030f1967986bec4622635f56d94c",
        "4ab0b97bbf0b6af9f64527f9f8d90c70658508f4872e3b970333ff338bbcee6d"),
    "hl-cauchy": (
        "5752aa3d552fe30cce6d8d36b4306ea1420fead389b78b53d9b6e8c7727235ab",
        "4e933261761acbb49bf041267da6343b191eb47205499bf3ad4532b28b9645bd"),
    "kostka": (
        "636c724370bf82e9d442d9fbcb77523c930dea1ca0d68cf1c06f67b301e0661d",
        "c729959320234384778614d1d85318129f55708647b77a7790f3984b296ca42d"),
    "matrix-integral": (
        "426bfd70a4a7ef45214ffc7135e019eb4f7a15061972e5a0ace75866cfff3e5b",
        "4015ac3457414fd26c45f72f2252b4a48a4af6af9bd2b46d89df27bf9580a3ad"),
    "oracle-cross": (
        "c93e1c2699fdad066bde544ebb394c558dcf0514c8491b64ed6292551ac75b42",
        "832ec44806d7b54c84afd7fd3de9db1306ed385212ff108b4e88a1bdafff1c24"),
    "phase-corr": (
        "97300b2833b23e333f291dcb23c18fcc9cab9eb0c054d0789295e54d53bcd614",
        "7f9ad0325300a6836a177f72bfbb651f14a7eba68c1b5f2b440c2052ee803ed3"),
    "phase-scalar": (
        "8eddf68e04c26c97d3990aabd5069c2a0813e7ac4c256e9a2099b61bd503db0f",
        "45091f12081e1cc42d42dfb04f4bdd4135e6cb8eaeac61fc0ff725d0d87fefdf"),
    "qboson-modes": (
        "92fb79674796157362a3fbc7739c2d88c24593a07045c21e341e885de16cd023",
        "5afe2ad2b5eefd66a3047e429889b8a511a297da6f9829db7d89e10aaf660c67"),
    "supersym": (
        "41e77f2fc33e5722bfb85ee902dc553023ab794eab065a9d8175291f8f2fdcaf",
        "d1dcbfe6a2b87bce674067b5c7cfdb86efff64884f7b57d6028ad809c03e28ae"),
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_verify_report_digest(suite):
    report = run_suite(SuiteConfig(suite=suite, seed=0))
    digests = (_sha(emit_report(report, "json")),
               _sha(emit_report(report, "text")))
    assert digests == SUITE_DIGESTS[suite]


@pytest.mark.parametrize("d", range(len(KOSTKA_DIGESTS)))
def test_kostka_json_digest(d):
    text = json.dumps(kostka_tables_json(kostka_tables(d)), indent=2) + "\n"
    assert _sha(text) == KOSTKA_DIGESTS[d]
