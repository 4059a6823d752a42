"""Seeded inputs for the benchmark workloads (standard library only).

The parent process builds every input here and hands it to the worker as
JSON, so the program under test receives only the generated inputs.
Rationals travel as "p/q" strings.

Which cells of the (N, M) grid each query kind visits is fixed; the seed
picks the points, the deformation values, the insertion sites, the
quantum numbers and the order.  That keeps the cost mix of a pass, and
therefore its latency percentiles, the same from seed to seed while the
inputs themselves change.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence

# the desk caps of the CLI: N <= 4, M <= 6
GRID = [(n, m) for n in range(1, 5) for m in range(1, 7)]
# hl_sum at N=4 and M >= 4 costs 0.4-0.8 s per call and qscalar calls it
# twice, so those cells stay on the cheaper kinds only
HL_GRID = [cell for cell in GRID if not (cell[0] == 4 and cell[1] >= 4)]
BETHE_CELLS = [(1, 3), (2, 2), (2, 4), (2, 6), (3, 3), (3, 5), (4, 4), (4, 6)]
# every cell whose cold q-boson oracle plus hl_sum stays under ~0.3 s
FRESH_GRID = [(n, m) for n, mmax in ((1, 6), (2, 6), (3, 5), (4, 3))
              for m in range(1, mmax + 1)]
EDGE_CELL = (3, 2)

# the positive pool the verify suites sample from
POOL = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 10)})
# the CLI examples' deformation values, as in the default SuiteConfig
Q_SET = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5))
EDGE_Q = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
# signed, magnitudes on both sides of 1, heights in a narrow band so that
# the cost of a rebuild depends little on which value a cell draws
FRESH_Q = sorted({s * Fraction(p, q) for p in range(5, 10)
                  for q in range(5, 10) if p != q and gcd(p, q) == 1
                  for s in (1, -1)})

Query = Dict[str, object]


def _fmt(values: Sequence[Fraction]) -> List[str]:
    return [str(v) for v in values]


def _query(kind: str, n: int, m: int, xs, ys, q: Optional[Fraction] = None,
           site: Optional[int] = None, qn: Optional[List[int]] = None,
           edge: str = "") -> Query:
    return {"kind": kind, "n": n, "m": m, "x": _fmt(xs), "y": _fmt(ys),
            "q": None if q is None else str(q), "site": site, "qn": qn,
            "edge": edge}


def _pair(rng: random.Random, kind: str, n: int, m: int,
          q: Optional[Fraction] = None, edge: str = "") -> Query:
    xs, ys = rng.sample(POOL, n), rng.sample(POOL, n)
    if edge == "repeated":
        xs[1] = xs[0]
    elif edge == "zero":
        xs[0] = ys[0] = Fraction(0)
    return _query(kind, n, m, xs, ys, q=q, edge=edge)


def _corr(rng: random.Random, n: int, m: int, edge: str = "") -> Query:
    xs, ys = rng.sample(POOL, n), rng.sample(POOL, n - 1)
    if edge == "repeated":
        xs[1] = xs[0]
    elif edge == "zero":
        xs[0] = Fraction(0)
        if ys:
            ys[0] = Fraction(0)
    return _query("corr", n, m, xs, ys, site=rng.randrange(m + 1),
                  edge=edge)


def _bethe(rng: random.Random, n: int, m: int, q: Fraction,
           edge: str = "") -> Query:
    qn = sorted(rng.sample(range(n + m + 1), n))
    return _query("bethe", n, m, [], [], q=q, qn=qn, edge=edge)


def query_warm(seed: int, passes: int) -> List[List[Query]]:
    """Pass lists of single-value queries mirroring the CLI subcommands.

    Each (kind, cell) keeps one Q for the whole run, so the memo tables
    a warm-up over the first list fills serve every later list; points,
    sites and quantum numbers are drawn afresh for each list.
    """
    rng = random.Random(seed)
    q_of = {(kind, cell): rng.choice(Q_SET)
            for kind in ("qscalar", "oracle-qboson") for cell in HL_GRID}
    q_of.update({("bethe", cell): rng.choice(Q_SET) for cell in BETHE_CELLS})
    return [_warm_pass(rng, q_of) for _ in range(passes)]


def _warm_pass(rng: random.Random, q_of) -> List[Query]:
    out: List[Query] = []
    for n, m in GRID:
        out.append(_pair(rng, "scalar", n, m))
        out.append(_corr(rng, n, m))
        out.append(_pair(rng, "oracle-phase", n, m))
    for n, m in HL_GRID:
        for kind in ("qscalar", "oracle-qboson"):
            out.append(_pair(rng, kind, n, m, q=q_of[kind, (n, m)]))
    for n, m in BETHE_CELLS:
        out.append(_bethe(rng, n, m, q_of["bethe", (n, m)]))
    out.extend(_edges(rng, q_of))
    rng.shuffle(out)
    return out


def oracle_fresh_q(seed: int, passes: int) -> List[List[Query]]:
    """Pass lists of oracle-vs-hl_sum pairings, no Q twice in one list.

    Every list runs in its own interpreter, so each of its queries
    rebuilds the oracle's Q-keyed blocks.
    """
    rng = random.Random(seed)
    return [_fresh_pass(rng) for _ in range(passes)]


def _fresh_pass(rng: random.Random) -> List[Query]:
    qs = iter(rng.sample(FRESH_Q, len(FRESH_GRID) + 2))
    out = [_pair(rng, "oracle-qboson", n, m, q=next(qs))
           for n, m in FRESH_GRID]
    n, m = EDGE_CELL
    out.append(_pair(rng, "oracle-qboson", n, m, q=next(qs), edge="repeated"))
    out.append(_pair(rng, "oracle-qboson", n, m, q=next(qs), edge="zero"))
    for q in EDGE_Q:
        out.append(_pair(rng, "oracle-qboson", n, m, q=q, edge=f"q={q}"))
    rng.shuffle(out)
    return out


def _edges(rng: random.Random, q_of) -> List[Query]:
    """The fixed edge share: a repeated point, a zero point, Q in EDGE_Q."""
    n, m = EDGE_CELL
    out: List[Query] = []
    for edge in ("repeated", "zero"):
        out.append(_pair(rng, "scalar", n, m, edge=edge))
        out.append(_corr(rng, n, m, edge=edge))
        out.append(_pair(rng, "oracle-phase", n, m, edge=edge))
        for kind in ("qscalar", "oracle-qboson"):
            out.append(_pair(rng, kind, n, m, q=q_of[kind, EDGE_CELL],
                             edge=edge))
    for q in EDGE_Q:
        out.append(_pair(rng, "qscalar", n, m, q=q, edge=f"q={q}"))
        out.append(_pair(rng, "oracle-qboson", n, m, q=q, edge=f"q={q}"))
        out.append(_bethe(rng, 2, 3, q, edge=f"q={q}"))
    return out


GENERATORS = {"query-warm": query_warm, "oracle-fresh-q": oracle_fresh_q}
