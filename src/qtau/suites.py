"""Named verification suites behind the `qtau verify` subcommand.

Each suite bundles the identity checks of one module family into a
deterministic, seeded run that produces a Report.  Checks carry a short
identity tag (the `paper_ref` report field) naming the fact being
exercised, so a report is readable on its own.

Determinism matters more than coverage breadth here: the same seed and
config must reproduce the same report byte for byte, so all sampling
goes through one seeded generator, all rationals are formatted with
format_rational, and floats are printed with a fixed format.

Each suite is a generator of CheckResults.  A sampled check draws every
sample it needs through `_draws` before any route runs, and only then
folds its trials with `all(...)`.  The short-circuit skips route
evaluations after the first failing trial but never a draw, so a failure
leaves every later check on the same points as a passing run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .algebra_core import (QPoly, TruncatedSeries, _exact, box_minors,
                           format_rational, h_from_times)
from .partitions import b_lambda, enumerate_in_box, partitions_of, weight
from .phase_model import (BoxSpec, correlation_Am, correlation_Am_power_column,
                          correlation_skew, factorization_report,
                          giambelli_check, matrix_integral_constant_term,
                          scalar_product, schur_pair_sum_miwa)
from .qboson_model import (MODES, QBosonSpec, c_tilde_matrix,
                           mode_agreement_report, scalar_product_q)
from .symfunc import (cauchy_kernel_series, hall_littlewood_ints, hl_series,
                      kostka_tables, q_coeff_ints, q_coeff_list,
                      supersymmetric_times, vandermonde, xy_names)
from .miwa import from_points, twist
from . import bethe as bethe_mod
from . import fock_oracle as oracle

DEFAULT_Q_VALUES = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5))


def desk_caps() -> Tuple[int, int, int]:
    """(N, M, degree) ceilings; QTAU_MAX_SIZE raises all three."""
    raw = os.environ.get("QTAU_MAX_SIZE")
    if raw:
        try:
            v = int(raw)
        except ValueError:
            raise ValueError(
                f"QTAU_MAX_SIZE must be an integer, got {raw!r}") from None
        return (max(4, v), max(6, v), max(8, v))
    return (4, 6, 8)


def check_caps(n: int = 1, m: int = 0, degree: int = 0) -> None:
    """Reject sizes outside N >= 1, M >= 0, degree >= 0 and the desk caps."""
    cap_n, cap_m, cap_d = desk_caps()
    if n > cap_n or m > cap_m or degree > cap_d:
        raise ValueError(
            f"size exceeds the desk-scale caps (N<={cap_n}, M<={cap_m}, "
            f"D<={cap_d}); set QTAU_MAX_SIZE to override")
    if n < 1 or m < 0 or degree < 0:
        raise ValueError("need N >= 1, M >= 0 and degree >= 0")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    q_values: Tuple[Fraction, ...] = DEFAULT_Q_VALUES
    seed: int = 0
    trials: int = 5

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        qs = tuple(map(_exact, self.q_values))
        if not qs:
            raise ValueError("need at least one Q value")
        for i, q in enumerate(qs):
            if q in qs[:i]:
                raise ValueError(f"Q value {format_rational(q)} is repeated")
        object.__setattr__(self, "q_values", qs)


@dataclass(frozen=True)
class CheckResult:
    name: str
    paper_ref: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Report:
    suite: str
    seed: int
    checks: Tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


# a fixed pool of positive rationals; positivity keeps determinant
# denominators away from zero in the deformed checks
_POOL = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 10)})


def _draws(rng: random.Random, shapes: Sequence[Tuple[int, ...]]
           ) -> List[Tuple[List[Fraction], ...]]:
    """One tuple of point lists per entry of `shapes`, all drawn up front."""
    return [tuple(rng.sample(_POOL, n) for n in shape) for shape in shapes]


def _fmt_points(points: Sequence[Fraction]) -> str:
    return ",".join(format_rational(p) for p in points)


# ---------------------------------------------------------------------------
# phase-scalar
# ---------------------------------------------------------------------------


def _suite_phase_scalar(cfg: SuiteConfig, rng: random.Random):
    for n in range(1, 4):
        for m in range(1, 5):
            box = BoxSpec(n, m)
            ok = all(scalar_product(xs, ys, box, mode="det")
                     == scalar_product(xs, ys, box, mode="schur_sum")
                     for xs, ys in _draws(rng, [(n, n)] * cfg.trials))
            yield CheckResult(
                f"scalar-det-vs-sum-N{n}-M{m}", "det-kernel/box-schur-sum",
                ok, f"{cfg.trials} random point pairs")
    box = BoxSpec(2, 2)
    xs, ys = [Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 4)]
    ok = all(scalar_product(a, b, box, mode="det")
             == scalar_product(a, b, box, mode="schur_sum")
             for a, b in ((xs, ys), (ys, xs)))
    yield CheckResult(
        "scalar-det-at-repeated-points", "det-kernel/coincident-points",
        ok, "det = schur-sum at x = (1/2, 1/2), y = (1/3, 1/4) and swapped")


# ---------------------------------------------------------------------------
# phase-corr
# ---------------------------------------------------------------------------


def _suite_phase_corr(cfg: SuiteConfig, rng: random.Random):
    box = BoxSpec(2, 3)
    for site in range(box.m + 1):
        ok = all(correlation_Am(xs, ys, site, box, mode="det")
                 == correlation_Am(xs, ys, site, box, mode="skew_sum")
                 == oracle.oracle_pairing("phase", box, xs, ys, insertion=site)
                 for xs, ys in _draws(rng, [(2, 1)] * cfg.trials))
        yield CheckResult(
            f"corr-Am-three-routes-m{site}", "one-point-function/det-vs-sum",
            ok, f"det = skew-sum = oracle, {cfg.trials} point sets")

    [(xs, ys)] = _draws(rng, [(2, 2)])
    empty = correlation_skew((), (), xs, ys, box)
    base = scalar_product(xs, ys, box, mode="det")
    yield CheckResult(
        "corr-skew-empty-equals-scalar", "skew-expansion/vacuum-case",
        empty == base, "A with empty shapes reduces to the scalar product")

    # the product form is a genuine infinite-volume statement; at desk
    # scale it fails, and the suite pins the measured outcome
    measured = [bool(factorization_report(lam1, lam2, xs, ys, box)["equal"])
                for lam1, lam2 in (((1,), (2,)), ((2, 1), (1, 1)), ((), ()))]
    yield CheckResult(
        "corr-skew-factorization-measured", "skew-factorization/finite-size",
        measured == [False, False, True],
        f"norm*skew-sum product form equal flags {measured} "
        "for shapes (1)|(2), (21)|(11), empty|empty")

    xs0 = [Fraction(2), Fraction(3)]
    ys0 = [Fraction(5)]
    true0 = correlation_Am(xs0, ys0, 0, box, mode="det")
    pc0 = correlation_Am_power_column(xs0, ys0, 0, box)
    yield CheckResult(
        "corr-power-column-variant-measured", "one-point-function/variant",
        pc0 != true0,
        "power-column determinant is a distinct quantity: "
        f"{format_rational(pc0)} vs {format_rational(true0)} at a pinned "
        "point")


# ---------------------------------------------------------------------------
# hl-cauchy
# ---------------------------------------------------------------------------


def _suite_hl_cauchy(cfg: SuiteConfig, rng: random.Random):
    for n, m in ((1, 3), (2, 2), (2, 3), (3, 2)):
        names = xy_names(n, n)
        for q in cfg.q_values:
            total = TruncatedSeries.zero(names, 2 * m)
            for lam in enumerate_in_box(n, m):
                if weight(lam) > m:
                    continue
                bl = b_lambda(lam)(q)
                px = hl_series(lam, names, 2 * m, q, positions=range(n))
                py = hl_series(lam, names, 2 * m, q,
                               positions=range(n, 2 * n))
                total = total + bl * px * py
            kernel = cauchy_kernel_series(n, n, 2 * m, q=q)
            ok = kernel.agrees_through(total, 2 * m)
            yield CheckResult(
                f"hl-cauchy-window-N{n}-M{m}-Q{format_rational(q)}",
                "cauchy-hl/graded-window", ok,
                f"box sum = kernel through diagonal degree {m}")


# ---------------------------------------------------------------------------
# qboson-modes
# ---------------------------------------------------------------------------


def _suite_qboson_modes(cfg: SuiteConfig, rng: random.Random):
    for n, m in ((1, 2), (2, 2), (2, 3)):
        for q in cfg.q_values:
            spec = QBosonSpec(BoxSpec(n, m), q)
            [(xs, ys)] = _draws(rng, [(n, n)])
            rep = mode_agreement_report(xs, ys, spec)
            graded = rep["graded_equal_hl"]
            exact = rep["exact_equal_hl"]
            exact_tags = ",".join(
                mode for mode, flag in sorted(exact.items()) if not flag)
            undefined = ",".join(mode for mode in MODES if mode not in graded)
            agree = (f"every mode but {undefined} (undefined) agrees"
                     if undefined else "all four modes agree")
            yield CheckResult(
                f"qmode-graded-window-N{n}-M{m}-Q{format_rational(q)}",
                "q-inner/graded-window",
                all(graded.values()),
                f"{agree} through degree "
                f"{rep['graded_window']}; full-sum disagreements "
                f"(measured, expected): [{exact_tags}]")
        spec0 = QBosonSpec(BoxSpec(n, m), Fraction(0))
        [(xs, ys)] = _draws(rng, [(n, n)])
        base = scalar_product(xs, ys, BoxSpec(n, m), mode="det")
        ok = all(
            scalar_product_q(xs, ys, spec0, mode) == base for mode in MODES)
        yield CheckResult(
            f"qmode-q0-reduction-N{n}-M{m}", "q-inner/Q-to-0",
            ok, "every mode reproduces the undeformed determinant at Q=0")

    spec1 = QBosonSpec(BoxSpec(2, 2), Fraction(1))
    [(xs, ys)] = _draws(rng, [(2, 2)])
    collapse = scalar_product_q(xs, ys, spec1, mode="hl_sum")
    yield CheckResult(
        "qmode-q1-collapse", "q-inner/Q-to-1",
        collapse == 1, "hl_sum at Q=1 collapses to 1 (all norms vanish)")

    spec = QBosonSpec(BoxSpec(2, 3), Fraction(1, 3))
    [(xs, ys)] = _draws(rng, [(2, 2)])
    sym = (scalar_product_q(xs, ys, spec, "hl_sum")
           == scalar_product_q(list(reversed(xs)), ys, spec, "hl_sum")
           == scalar_product_q(xs, list(reversed(ys)), spec, "hl_sum"))
    yield CheckResult(
        "qmode-permutation-symmetry", "q-inner/symmetry",
        sym, "pairing is symmetric in each point set")

    q = Fraction(2, 7)
    ok = all(vandermonde([q * y for y in ys])
             == q ** (len(ys) * (len(ys) - 1) // 2) * vandermonde(ys)
             for (ys,) in _draws(rng, [(1,), (2,), (3,)]))
    yield CheckResult(
        "vandermonde-scaling", "det-quotient/prefactor",
        ok, "Delta(Qy) = Q^(N(N-1)/2) Delta(y) for N=1, N=2, N=3")


# ---------------------------------------------------------------------------
# kostka
# ---------------------------------------------------------------------------


def _ssyt_count(lam: Tuple[int, ...], mu: Tuple[int, ...]) -> int:
    """Brute-force count of semistandard tableaux of shape lam, content mu."""
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    remaining = list(mu)
    grid = [[0] * row_len for row_len in lam]

    def rec(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        total = 0
        for v in range(lo, len(mu) + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                grid[r][c] = v
                total += rec(k + 1)
                remaining[v - 1] += 1
        return total

    return rec(0)


def _suite_kostka(cfg: SuiteConfig, rng: random.Random):
    for d in range(0, 7):
        # kostka_tables checks K * K_inv = identity before it returns
        try:
            tables = kostka_tables(d)
        except ArithmeticError:
            tables = None
        inverse = CheckResult(
            f"kostka-inverse-d{d}", "kostka-foulkes/inverse",
            tables is not None,
            "K * K_inv = identity, exact polynomial arithmetic")
        if tables is None:
            yield inverse
            continue
        order = tables.order
        size = len(order)
        unitri = all(
            tables.K[i][i] == 1
            and all(tables.K[i][j].is_zero() for j in range(i))
            for i in range(size))
        yield CheckResult(
            f"kostka-unitriangular-d{d}", "kostka-foulkes/unitriangular",
            unitri, f"{size} partitions of {d}")
        yield inverse

        if d <= 5:
            yield CheckResult(
                f"kostka-classical-d{d}", "kostka-foulkes/Q-to-1",
                all(tables.K[i][j](Fraction(1)) == _ssyt_count(lam, mu)
                    for i, lam in enumerate(order)
                    for j, mu in enumerate(order)),
                "K(1) equals the brute-force tableau count")
    for d in range(0, 7):
        try:
            c_tilde_matrix(d)
            ok = True
        except ArithmeticError:
            ok = False
        yield CheckResult(
            f"kostka-ctilde-identity-d{d}", "schur-coefficient-matrix/inverse",
            ok, "c-tilde passes diag(b) and cleared-inverse identities")

    t2 = kostka_tables(2)
    i = t2.order.index((2,))
    j = t2.order.index((1, 1))
    yield CheckResult(
        "kostka-example-weight2", "kostka-foulkes/example",
        t2.K[i][j] == QPoly.gen(), "K_(2),(11)(Q) = Q")


# ---------------------------------------------------------------------------
# supersym
# ---------------------------------------------------------------------------


def _suite_supersym(cfg: SuiteConfig, rng: random.Random):
    top = 6
    q_pool = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7),
              Fraction(5, 9), Fraction(1, 6)]
    draws = _draws(rng, [(3,)] * max(cfg.trials, 10))
    for trial, (ys,) in enumerate(draws):
        q = q_pool[trial % len(q_pool)]
        big = q_coeff_list(ys, q, top)
        hook = h_from_times(
            supersymmetric_times(ys, [-q * y for y in ys], top), top)
        twisted = h_from_times(twist(from_points(ys, top), q), top)
        # every s_lam, |lam| <= top, reads only c_0..c_top, and s_(k) = c_k
        ok = big == hook == twisted
        yield CheckResult(
            f"supersym-identification-trial{trial}",
            "deformed-schur/hook-schur",
            ok,
            f"all |lam| <= {top} at y=({_fmt_points(ys)}), "
            f"Q={format_rational(q)}")


# ---------------------------------------------------------------------------
# giambelli
# ---------------------------------------------------------------------------


def _suite_giambelli(cfg: SuiteConfig, rng: random.Random):
    shapes = [lam for d in range(0, 9) for lam in partitions_of(d)]
    for trial, (ys,) in enumerate(_draws(rng, [(3,)] * cfg.trials)):
        yield CheckResult(
            f"giambelli-trial{trial}", "tau-coefficients/hook-minors",
            giambelli_check(ys, shapes),
            f"{len(shapes)} shapes at y=({_fmt_points(ys)})")


# ---------------------------------------------------------------------------
# oracle-cross
# ---------------------------------------------------------------------------


def _suite_oracle_cross(cfg: SuiteConfig, rng: random.Random):
    for n in range(1, 4):
        for m in range(1, 4):
            box = BoxSpec(n, m)
            ok = all(oracle.oracle_pairing("phase", box, xs, ys)
                     == scalar_product(xs, ys, box, mode="det")
                     == scalar_product(xs, ys, box, mode="schur_sum")
                     for xs, ys in _draws(rng, [(n, n)] * cfg.trials))
            yield CheckResult(
                f"oracle-scalar-N{n}-M{m}", "oracle/scalar-product",
                ok, f"{cfg.trials} random point pairs, both formula modes")

    box = BoxSpec(3, 3)
    [(us,)] = _draws(rng, [(3,)])
    coeffs = oracle.bethe_state("phase", box, us)
    ys = [u * u for u in us]
    schur, scale = box_minors(*q_coeff_ints(ys, 0, box.m + box.n), box.n,
                              box.m)
    ok = all(c * scale == schur[lam] for lam, c in coeffs.items())
    yield CheckResult(
        "oracle-bethe-coefficients", "bethe-state/schur-coefficients",
        ok, "creation-string coefficients are the Schur values")

    box = BoxSpec(2, 3)
    draws = _draws(rng, [(2, 1)] * (box.m + 1))
    ok = all(oracle.oracle_pairing("phase", box, xs, ys, insertion=site)
             == correlation_Am(xs, ys, site, box, mode="det")
             for site, (xs, ys) in enumerate(draws))
    yield CheckResult(
        "oracle-correlation-insertion", "oracle/one-point-function",
        ok, "creation insertion against the determinant route, all sites")

    for q in cfg.q_values:
        specs = [QBosonSpec(BoxSpec(n, m), q)
                 for n, m in ((1, 3), (2, 2), (2, 3))]
        draws = _draws(rng, [(spec.box.n,) * 2 for spec in specs])
        ok = all(oracle.oracle_pairing("qboson", spec, xs, ys)
                 == scalar_product_q(xs, ys, spec, mode="hl_sum")
                 for spec, (xs, ys) in zip(specs, draws))
        # the report digests pin this name and text
        yield CheckResult(
            f"oracle-qboson-normalized-Q{format_rational(q)}",
            "oracle/deformed-pairing", ok,
            "normalized pairing equals the Hall-Littlewood sum")

    q = Fraction(1, 3)
    spec = QBosonSpec(BoxSpec(2, 3), q)
    [(us,)] = _draws(rng, [(2,)])
    coeffs = oracle.bethe_state("qboson", spec, us)
    V, L, B = hall_littlewood_ints([u * u for u in us], q)
    ok = all(c * L ** weight(lam) * B == b_lambda(lam)(q) * V(lam)
             for lam, c in coeffs.items())
    yield CheckResult(
        "oracle-qboson-string-law", "bethe-state/hl-coefficients",
        ok, "deformed string coefficients are b_lam(Q) * P_lam(y;Q) "
        "(recorded proportionality)")

    [((y1, y2),)] = _draws(rng, [(2,)])
    comm_ok = (oracle.commutation_check("phase", BoxSpec(3, 2), y1, y2)
               and oracle.commutation_check(
                   "qboson", QBosonSpec(BoxSpec(3, 2), Fraction(1, 4)),
                   y1, y2))
    yield CheckResult(
        "oracle-commutation", "string-operators/commutativity",
        comm_ok, "[B(y1), B(y2)] = 0 on the truncated basis, both models")

    # the oracle's own guard raises when a block leaves its sector
    try:
        oracle.build_monodromy("phase", BoxSpec(2, 2), Fraction(1, 2))
        grading_ok = True
    except AssertionError:
        grading_ok = False
    yield CheckResult(
        "oracle-grading-structure", "monodromy/particle-grading",
        grading_ok, "b raises, c lowers, a and d preserve the sector")


# ---------------------------------------------------------------------------
# matrix-integral
# ---------------------------------------------------------------------------


def _suite_matrix_integral(cfg: SuiteConfig, rng: random.Random):
    cutoff = 6
    den_pool = [2, 3, 5, 7, 4, 9, 8, 6]
    t = [Fraction(rng.choice((-1, 1)), den_pool[k % len(den_pool)])
         for k in range(cutoff)]
    tp = [Fraction(rng.choice((-1, 1)), den_pool[(k + 3) % len(den_pool)])
          for k in range(cutoff)]
    for n in (1, 2):
        target = schur_pair_sum_miwa(n, t, tp, cutoff)
        plus = matrix_integral_constant_term(n, t, tp, cutoff,
                                             sign_convention="plus")
        minus = matrix_integral_constant_term(n, t, tp, cutoff,
                                              sign_convention="minus")
        yield CheckResult(
            f"integral-constant-term-N{n}", "matrix-integral/constant-term",
            plus == target,
            f"plus convention matches the row-bounded Schur pair sum "
            f"at cutoff {cutoff}")
        yield CheckResult(
            f"integral-convention-unique-N{n}",
            "matrix-integral/sign-convention",
            minus != target,
            "minus convention is measurably different (recorded)")


# ---------------------------------------------------------------------------
# bethe
# ---------------------------------------------------------------------------


def _suite_bethe(cfg: SuiteConfig, rng: random.Random):
    import math

    ok = not any(
        abs(bethe_mod.solve_phase(1, m, [2]).roots[0]
            - complex(math.cos(2 * math.pi * 2 / (m + 1)),
                      math.sin(2 * math.pi * 2 / (m + 1)))) > 1e-12
        for m in range(0, 5))
    yield CheckResult(
        "bethe-roots-of-unity", "bethe-equations/N1",
        ok, "single-particle roots are exact (M+1)-th roots of unity")

    sols = [bethe_mod.solve_phase(n, m, list(range(n)))
            for n in range(1, 4) for m in range(0, 5)]
    worst = max(0.0, *(br.residual for br in sols))
    mods_ok = not any(abs(abs(z) - 1) > 1e-12 for br in sols for z in br.roots)
    yield CheckResult(
        "bethe-phase-residuals", "bethe-equations/residuals",
        worst < 1e-10 and mods_ok,
        f"worst residual {worst:.3e}; all roots on the unit circle")

    br = bethe_mod.solve_phase(3, 4, [0, 1, 2])
    lhs = math.prod(z ** (3 + 4) for z in br.roots)
    rhs = math.prod(br.roots) ** 2
    yield CheckResult(
        "bethe-consistency-product", "bethe-equations/product-relation",
        abs(lhs - rhs) < 1e-10,
        "product of all equations closes to the aggregate relation")

    sizes = ((2, 2), (2, 4), (3, 3))
    residuals = []
    for n, m in sizes:
        try:
            residuals.append(bethe_mod.solve_qboson_continued(
                n, m, 0.3, list(range(n))).residual)
        except ArithmeticError:  # some stage missed TARGET_RESIDUAL
            pass
    yield CheckResult(
        "bethe-qboson-continuation", "bethe-equations/deformed",
        len(residuals) == len(sizes), f"Q: 0 -> 0.3 in steps of 0.05, worst residual "
        f"{max(0.0, *residuals):.3e}")

    ph = bethe_mod.solve_phase(2, 3, [0, 1])
    qb = bethe_mod.solve_qboson(2, 3, 0.0, ph)
    drift = max(abs(a - b) for a, b in zip(ph.roots, qb.roots))
    yield CheckResult(
        "bethe-qboson-q0-match", "bethe-equations/Q-to-0",
        drift < 1e-12, f"solver fixed point at Q=0, drift {drift:.3e}")


SUITES: Dict[str, Callable[[SuiteConfig, random.Random],
                           Iterator[CheckResult]]]
SUITES = {
    "phase-scalar": _suite_phase_scalar,
    "phase-corr": _suite_phase_corr,
    "hl-cauchy": _suite_hl_cauchy,
    "qboson-modes": _suite_qboson_modes,
    "kostka": _suite_kostka,
    "supersym": _suite_supersym,
    "giambelli": _suite_giambelli,
    "oracle-cross": _suite_oracle_cross,
    "matrix-integral": _suite_matrix_integral,
    "bethe": _suite_bethe,
}


def run_suite(config: SuiteConfig) -> Report:
    if config.suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {config.suite!r} (known: {known})")
    rng = random.Random(config.seed)
    checks = tuple(SUITES[config.suite](config, rng))
    return Report(suite=config.suite, seed=config.seed, checks=checks)


def emit_report(report: Report, fmt: str = "json") -> str:
    import json

    if fmt == "json":
        payload = {
            "suite": report.suite,
            "seed": report.seed,
            "checks": [
                {
                    "name": c.name,
                    "paper_ref": c.paper_ref,
                    "pass": c.passed,
                    "detail": c.detail,
                }
                for c in report.checks
            ],
            "all_pass": report.all_pass,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "text":
        if not report.checks:
            return f"suite {report.suite}: no checks\n"
        w_name = max(len(c.name) for c in report.checks)
        w_ref = max(len(c.paper_ref) for c in report.checks)
        lines = []
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<{w_name}}  {c.paper_ref:<{w_ref}}  {status}  "
                f"{c.detail}")
        lines.append(
            f"suite {report.suite}: "
            + ("all checks passed" if report.all_pass else "FAILURES"))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
