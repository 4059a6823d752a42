"""Occupation-basis ground truth for the lattice pairings.

Everything here is brute force on purpose: string operators act on
explicit occupation vectors one site at a time, and pairings are read
off as the vacuum coefficient of the result.  No determinant formula,
symmetric function, or normalization claim enters — which is what makes
the module usable as an arbiter for all of them.

Site k carries the local matrix [[x^{-1/2}, phi_k+], [phi_k, x^{1/2}]]
and the monodromy is the product over sites 0..M.  Rescaling each factor
by u = x^{1/2} and gauging the upper auxiliary component by u turns it
into diag(1, x) [[1, R_k], [L_k, 1]], with R_k and L_k the site's raise
and lower tables.  The creation string B(y) = y^{M/2} B-block(y) is the
first component of this transfer of (0, v) at x = y.  The annihilation
string C(x) = x^{M/2} C-block(1/x), once each factor is multiplied by x,
is the second component of the transfer of (v, 0) through
diag(x, 1) [[1, R_k], [L_k, 1]].  Every power of x and y is an integer,
so zero is an ordinary point and no square root is ever adjoined.

Site 0 is bare: it raises and lowers with coefficient 1 in both
models, and only sites 1..M carry the deformation.  This loses nothing.
The transfer applies site 0 first.  B(y) starts from (0, v), so at
site 0 it can only raise; C(x) starts from (v, 0), so there it can only
lower.  Every path of a vacuum pairing therefore takes site 0 from 0 up
to its occupancy n_0 and back down.  Lowering coefficients 1 - Q^k at
site 0 would only multiply each top-sector channel by [n_0]!(Q), so the
bare site gives the Hall-Littlewood normalization directly, with no
division.  The phase model is then the q-boson model at Q = 0, site
for site: the site tables depend on Q alone, and the pairing is
defined at every Q, Q = 1 and Q = -1 included.

The arithmetic is exact and still brute force, but it runs on Python
ints.  For Q = a/b every site element is an int numerator over one table
denominator b^(N+2), enough for the raise elements 1 - Q^{k+1} with
k <= N+1 on the bound-(N+1) basis.  A vector is a dict of int numerators
over one positive denominator: each site step multiplies by ints and
the denominator grows by the table denominator times that of the step's
two scalars.  At the end of each string step the kept component is
reduced by one gcd, so every string returns its vector in lowest terms,
and values become Fractions only where they leave the module.  This
code shares no arithmetic helper with the formula side.

One truncation subtlety is load-bearing.  A number-preserving block
applied to a top-sector state may pass through one extra particle in
transit (raise, then lower): the D block on sector N raises into sector
N+1 at one site and lowers back at a later one.  ``build_monodromy``
therefore reads its site tables on the basis with particle bound N+1;
the prefix analysis of auxiliary paths shows one extra sector is
exactly enough, so every block it returns lies in the bound-N basis.
The strings need no extra sector.  Each site maps (w1, w2) to
(w1 + R w2, L w1 + w2) up to the diagonal, so in the transfer of (0, v),
v in sector s, the upper component lies in sector s+1 and the lower one
in sector s at every site, and B(y) returns the upper one.  C(x) on
(v, 0) keeps the upper component in s and the lower in s-1 the same
way.  A B string ends at sector <= N, the pairing's grading, so
``_strings`` walks every B and C string on the bound-N basis only, and
a raise that would leave it trips the guard instead of being dropped.

Everything but the N+2 raise numerators is independent of Q and built
once per particle bound and M.  The bases are graded by particle
number, so the bound-N basis is a prefix of the bound-(N+1) one and
each sector's partitions are converted to occupations once.  A state is
coded as one int with its occupancies as digits in base bound+2, so a
site's raise or lower is an addition to the code and one dict lookup.
A site step reads a state's target from this layout and a deformed
raise its element from the numerator at its occupancy, so a new Q adds
N+2 ints and no per-state table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Optional, Sequence, Tuple

from .algebra_core import ONE, ZERO
from .partitions import (Partition, _check_site, enumerate_in_box,
                         occupation_from_partition)
from .phase_model import BoxSpec
from .qboson_model import QBosonSpec

MODELS = ("phase", "qboson")

Occupation = Tuple[int, ...]
# sparse: basis index -> nonzero int numerator over a shared denominator
Vector = Dict[int, int]


@dataclass(frozen=True)
class SectorBasis:
    """All occupation states with at most n particles on sites 0..m.

    States are graded by particle number; within a sector the order is
    the box enumeration of partitions, translated through
    occupation_from_partition, so indexes line up with every partition
    sum in the formula modules.
    """

    states: Tuple[Occupation, ...]
    offsets: Tuple[int, ...]

    def sector_indices(self, s: int) -> range:
        return range(self.offsets[s], self.offsets[s + 1])


@lru_cache(maxsize=None)
def sector_basis(n: int, m: int) -> SectorBasis:
    """The bound-n basis on sites 0..m, built as the bound-(n-1) basis,
    which is its prefix, followed by sector n, so each sector's
    partitions pass through occupation_from_partition once."""
    if n < 0 or m < 0:
        raise ValueError("basis parameters must be nonnegative")
    prefix = sector_basis(n - 1, m) if n else SectorBasis((), (0,))
    states = prefix.states + tuple(occupation_from_partition(lam, n, m)
                                   for lam in enumerate_in_box(n, m))
    return SectorBasis(states=states,
                       offsets=prefix.offsets + (len(states),))


@dataclass(frozen=True)
class SectorOperator:
    """One graded block: a matrix from the source sector to the target."""

    source: int
    target: int
    matrix: Tuple[Tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Monodromy:
    """The four graded blocks of T(x): a, d preserve particle number,
    b raises by one, c lowers by one."""

    a: Tuple[SectorOperator, ...]
    b: Tuple[SectorOperator, ...]
    c: Tuple[SectorOperator, ...]
    d: Tuple[SectorOperator, ...]


def _rational(value) -> Fraction:
    """An exact point as a Fraction; a float raises TypeError."""
    if isinstance(value, float):
        raise TypeError(f"the oracle takes exact points, not the float "
                        f"{value!r}")
    return Fraction(value)


def _resolve(model: str, spec) -> Tuple[int, int, Fraction]:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if isinstance(spec, QBosonSpec):
        if model == "phase" and spec.q != 0:
            raise ValueError("the phase model carries no deformation")
        return spec.box.n, spec.box.m, spec.q
    if isinstance(spec, BoxSpec):
        if model == "qboson":
            raise ValueError("qboson model needs a QBosonSpec carrying Q")
        return spec.n, spec.m, ZERO
    raise TypeError("spec must be a BoxSpec or QBosonSpec")


# sentinel for a raise that would leave the layout's basis; the sector
# argument of the module doc says it can never receive a nonzero vector
_FORBIDDEN = -1


@lru_cache(maxsize=None)
def _site_layout(bound: int, m: int):
    """Per-site (raise targets, occupancies, lower targets) on the
    bound-`bound` basis: everything in the site tables but their values.

    The strings read bound N, and only ``build_monodromy`` reads N+1.
    Each state is coded as the int sum_k occ_k (bound+2)^k.  No occupancy
    exceeds bound+1 even after a raise, so the raise and lower targets at
    site k are the states coded code +- (bound+2)^k, one dict lookup each.
    A raise target is _FORBIDDEN where it leaves the basis, and a lower
    target is None where the site is empty.  None of it depends on Q, so
    it is built once per (bound, m).
    """
    base = bound + 2
    columns = tuple(zip(*sector_basis(bound, m).states))
    codes = [0] * len(columns[0])
    for site, occupancies in enumerate(columns):
        step = base ** site
        codes = [code + k * step for code, k in zip(codes, occupancies)]
    index = {code: i for i, code in enumerate(codes)}
    layout = []
    for site, occupancies in enumerate(columns):
        step = base ** site
        raises = tuple(index.get(code + step, _FORBIDDEN) for code in codes)
        lowers = tuple(index[code - step] if k else None
                       for code, k in zip(codes, occupancies))
        layout.append((raises, occupancies, lowers))
    return tuple(layout)


@lru_cache(maxsize=None)
def _symbolic_blocks(n: int, q: Fraction) -> Tuple[Tuple[int, ...], int]:
    """The n+2 raise numerators of a deformed site and their denominator
    den = b**(n+2) for Q = a/b.

    Raising occupancy k at a deformed site is the combined (1-Q)^{1/2} b+
    element 1 - Q^{k+1}, with numerator den - a^{k+1} b^{n+1-k}; k <= n+1
    on the bound-(n+1) basis.  Lowering is 1 and site 0 is bare (see the
    module doc), so those elements are den / den.  The numerators are the
    monodromy's only Q-dependent data; the phase model reads them at Q = 0.
    They serve both bounds, because a state's occupancy, not its index,
    picks its numerator.
    """
    a, b = q.numerator, q.denominator
    den = b ** (n + 2)
    return tuple(den - a ** (k + 1) * b ** (n + 1 - k)
                 for k in range(n + 2)), den


def _half_step(targets, occupancies, coeffs, den: int, vec: Vector,
               base: Vector, scale: int) -> Vector:
    """scale * (den * base + table(vec)) on int numerators.

    The table sends state i to targets[i] with element
    coeffs[occupancies[i]] / den, or with den / den when coeffs is None:
    the bare tables, every lowering and site 0's raise, read no
    coefficient.  The scale rides on the products, sden = scale * den for
    base and bare terms and value * coeff * scale for a deformed one, so
    no pass rescales the result.  The inputs hold no zero and a zero
    numerator adds no term, so an entry drops only where an addition
    cancels, and the result holds no zero either.
    """
    if not scale:
        return {}
    sden = scale * den
    out = {i: sden * value for i, value in base.items()}
    for i, value in vec.items():
        dst = targets[i]
        if dst is None:
            continue
        if dst == _FORBIDDEN:
            raise AssertionError("operator escaped the layout's basis")
        if coeffs is None:
            term = value * sden
        else:
            coeff = coeffs[occupancies[i]]
            if not coeff:
                continue
            term = value * coeff * scale
        if dst in out:
            term += out[dst]
            if not term:
                del out[dst]
                continue
        out[dst] = term
    return out


def _transfer(tables, alpha: Fraction, beta: Fraction, w1: Vector,
              w2: Vector) -> Tuple[Vector, Vector, int]:
    """Apply diag(alpha, beta) [[1, R_k], [L_k, 1]] for k = 0..M in turn,
    from tables = (layout, deformed numerators, den); R_k reads the
    deformed numerators for k >= 1, and R_0 and every L_k are bare.

    w1 and w2 are int numerators over one denominator, and so are the
    two returned vectors; the third value is the factor by which that
    denominator grew: d * den per site, with alpha, beta written over
    their common denominator d.  A raise out of the layout's basis
    raises AssertionError.
    """
    layout, deformed, den = tables
    d = lcm(alpha.denominator, beta.denominator)
    ka = alpha.numerator * (d // alpha.denominator)
    kb = beta.numerator * (d // beta.denominator)
    for site, (raises, occupancies, lowers) in enumerate(layout):
        w1, w2 = (_half_step(raises, occupancies, deformed if site else None,
                             den, w2, w1, ka),
                  _half_step(lowers, occupancies, None, den, w1, w2, kb))
    return w1, w2, (d * den) ** len(layout)


def _reduced(vec: Vector, den: int, basis: SectorBasis,
             sector: int) -> Tuple[Vector, int]:
    """vec / den in lowest terms, after checking that it lies in the
    given sector."""
    span = basis.sector_indices(sector)
    if any(i not in span for i in vec):
        raise AssertionError("result is not pure in particle number")
    g = gcd(den, *vec.values())
    return {i: value // g for i, value in vec.items()}, den // g


def _tables(model: str, spec, extra: int = 0):
    """(N, M, basis, tables) on the bound-(N + extra) basis, with tables =
    (layout, deformed numerators, den) as ``_transfer`` reads them."""
    n, m, q = _resolve(model, spec)
    return (n, m, sector_basis(n + extra, m),
            (_site_layout(n + extra, m), *_symbolic_blocks(n, q)))


def _strings(tables, basis: SectorBasis, vec: Vector, den: int, sector: int,
             ys: Sequence[Fraction] = (),
             xs: Sequence[Fraction] = ()) -> Tuple[Vector, int]:
    """B(y) for each y in ys, then C(x) for each x in xs, on vec / den in
    `sector`.  B(y) v is the first component of the transfer of (0, v) at
    (1, y), and C(x) v the second component of the transfer of (v, 0) at
    (x, 1): each step starts from v in one component and reads the other."""
    for alpha, beta, read, shift in ([(ONE, y, 0, 1) for y in ys]
                                     + [(x, ONE, 1, -1) for x in xs]):
        sector += shift
        start = (vec, {}) if read else ({}, vec)
        *out, grown = _transfer(tables, alpha, beta, *start)
        vec, den = _reduced(out[read], den * grown, basis, sector)
    return vec, den


def build_monodromy(model: str, spec, u) -> Monodromy:
    """Evaluate the four blocks of T(x) at the point x = u**2.

    The transfer at (1, x) gives the gauged blocks A', B', C', D' from
    unit vectors; undoing the gauge and the rescaling by u makes
    A = A', B = u B', C = C'/u and D = D', each times u^-(M+1).
    """
    u = _rational(u)
    if u == 0:
        raise ValueError("u = 0")
    # the D block on sector N passes through sector N+1
    n, m, ext, tables = _tables(model, spec, 1)
    x, scale = u * u, ONE / u ** (m + 1)

    def block(start: int, read: int, shift: int, factor: Fraction):
        ops = []
        for s in range(max(0, -shift), n + 1 - max(0, shift)):
            columns = []
            for j in ext.sector_indices(s):
                unit = ({j: 1}, {}) if start == 0 else ({}, {j: 1})
                out = _transfer(tables, ONE, x, *unit)
                columns.append(_reduced(out[read], out[2], ext, s + shift))
            matrix = tuple(tuple(Fraction(col.get(i, 0), den) * factor
                                 for col, den in columns)
                           for i in ext.sector_indices(s + shift))
            ops.append(SectorOperator(source=s, target=s + shift,
                                      matrix=matrix))
        return tuple(ops)

    return Monodromy(a=block(0, 0, 0, scale), b=block(1, 0, 1, u * scale),
                     c=block(0, 1, -1, scale / u), d=block(1, 1, 0, scale))


def bethe_state(model: str, spec, roots: Sequence) -> Dict[Partition, Fraction]:
    """lam -> <lam| prod_j B(y_j) |0> over the len(roots)-particle sector.

    Keys run in the box enumeration order of that sector.  Roots are
    u-values: the j-th physical rapidity is y_j = roots[j]**2, so that
    callers fixing u keep every intermediate quantity rational.
    """
    n, m, basis, tables = _tables(model, spec)
    ys = [_rational(u) ** 2 for u in roots]
    if len(ys) > n:
        raise ValueError("more roots than the particle bound")
    vec, den = _strings(tables, basis, {0: 1}, 1, 0, ys)
    lo = basis.offsets[len(ys)]
    return {lam: Fraction(vec.get(lo + i, 0), den)
            for i, lam in enumerate(enumerate_in_box(len(ys), m))}


def oracle_pairing(model: str, spec, xs: Sequence, ys: Sequence,
                   insertion: Optional[int] = None) -> Fraction:
    """<0| prod C(x) prod B(y) [phi+_m] |0>, assembled by brute force.

    xs and ys are physical points (powers of x and y appear, never
    their square roots).  An integer `insertion` adds one creation
    operator at that site, acting on the vacuum end of the product, and
    the gradings must then satisfy |y| = |x| - 1.
    """
    n, m, basis, tables = _tables(model, spec)
    xs, ys = [_rational(x) for x in xs], [_rational(y) for y in ys]
    if insertion is not None:
        _check_site(insertion)
    expected = len(ys) + (1 if insertion is not None else 0)
    if len(xs) != expected:
        raise ValueError("grading mismatch between x, y and the insertion")
    if expected > n:
        raise ValueError("pairing exceeds the basis particle bound")
    vec, den = {0: 1}, 1
    if insertion is not None:
        if not 0 <= insertion <= m:
            raise ValueError("insertion site out of range")
        layout, deformed, den = tables
        raises, occupancies, _ = layout[insertion]
        # the site's raise on the vacuum, read as the transfer reads it
        vec, den = _reduced(_half_step(raises, occupancies,
                                       deformed if insertion else None,
                                       den, vec, {}, 1), den, basis, 1)
    vec, den = _strings(tables, basis, vec, den, expected - len(ys), ys, xs)
    return Fraction(vec.get(0, 0), den)


def commutation_check(model: str, spec, y1, y2) -> bool:
    """True iff B(y1) B(y2) = B(y2) B(y1) on each state of sectors 0..N-2.

    Both strings return vectors in lowest terms over a positive
    denominator, so equal vectors compare equal.
    """
    n, m, basis, tables = _tables(model, spec)
    y1, y2 = _rational(y1), _rational(y2)
    for s in range(n - 1):
        for j in basis.sector_indices(s):
            if (_strings(tables, basis, {j: 1}, 1, s, (y2, y1))
                    != _strings(tables, basis, {j: 1}, 1, s, (y1, y2))):
                return False
    return True
