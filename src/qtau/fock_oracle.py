"""Occupation-basis ground truth for the lattice pairings.

Everything here is brute force on purpose: monodromy entries are built
by multiplying 2x2 operator matrices site by site, states are explicit
occupation vectors, and pairings are read off as the vacuum coefficient
of an explicitly assembled vector.  No determinant formula, symmetric
function, or normalization claim enters — which is what makes the
module usable as an arbiter for all of them.

Spectral parameters are handled through the substitution x = u^2.  The
local matrix [[x^{-1/2}, phi+], [phi, x^{1/2}]], rescaled by u, becomes
[[1, u phi+], [u phi, u^2]], so the product over sites is polynomial in
u and the physical monodromy is u^{-(M+1)} times it.  Off-diagonal
blocks pick up an odd power of u on every auxiliary transition, hence
carry odd powers only; combined with the y^{M/2} (resp. x^{M/2})
prefactor this turns the creation string B(y) = y^{M/2} B-block and the
annihilation string C(x) = x^{M/2} C-block(1/x) into matrices whose
entries are honest polynomials in the physical variable.  That is the
whole trick: exact arithmetic without ever adjoining a square root.

One truncation subtlety is load-bearing.  A number-preserving block
applied to a top-sector state may pass through one extra particle in
transit (raise, then lower).  Operators are therefore assembled on a
basis with particle bound N+1 and restricted to the bound-N basis on
return; the prefix analysis of auxiliary paths shows one extra sector
is exactly enough, so the restriction is lossless for every returned
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra_core import ONE, ZERO, QPoly
from .partitions import (Partition, enumerate_in_box,
                         occupation_from_partition, qfactorial)
from .phase_model import BoxSpec
from .qboson_model import QBosonSpec
from .symfunc import as_points

MODELS = ("phase", "qboson")

Occupation = Tuple[int, ...]


@dataclass(frozen=True)
class SectorBasis:
    """All occupation states with at most n particles on sites 0..m.

    States are graded by particle number; within a sector the order is
    the box enumeration of partitions, translated through
    occupation_from_partition, so indexes line up with every partition
    sum in the formula modules.
    """

    m: int
    n: int
    states: Tuple[Occupation, ...]
    offsets: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def sector_indices(self, s: int) -> range:
        return range(self.offsets[s], self.offsets[s + 1])

    def sector_states(self, s: int) -> Tuple[Occupation, ...]:
        return self.states[self.offsets[s]:self.offsets[s + 1]]


@lru_cache(maxsize=None)
def sector_basis(n: int, m: int) -> SectorBasis:
    if n < 0 or m < 0:
        raise ValueError("basis parameters must be nonnegative")
    states: List[Occupation] = []
    offsets = [0]
    for s in range(n + 1):
        for lam in enumerate_in_box(s, m):
            states.append(occupation_from_partition(lam, s, m))
        offsets.append(len(states))
    return SectorBasis(m=m, n=n, states=tuple(states), offsets=tuple(offsets))


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


def _raise_coeff(model: str, q: Fraction, site: int, occ: int) -> Fraction:
    """Matrix element for adding a particle at `site` on occupancy `occ`.

    The deformed operators are the combined (1-Q)^{1/2} b+ ones, whose
    elements are rational in Q; the bare site distinguishes itself by
    carrying the deformation on the lowering side instead.
    """
    if model == "phase" or site == 0:
        return ONE
    return ONE - q ** (occ + 1)


def _lower_coeff(model: str, q: Fraction, site: int, occ: int) -> Fraction:
    """Matrix element for removing a particle (occ >= 1)."""
    if model == "phase" or site != 0:
        return ONE
    return ONE - q ** occ


_U = QPoly((0, 1))
_U2 = QPoly((0, 0, 1))

# sentinel for a raise that would leave even the extended basis; the
# auxiliary-path analysis says it can never receive a nonzero vector
_FORBIDDEN = -1


def _site_maps(model: str, q: Fraction, basis: SectorBasis):
    """Per-site raise/lower tables: state index -> (target index, coeff)."""
    index = {occ: i for i, occ in enumerate(basis.states)}
    raises = []
    lowers = []
    for site in range(basis.m + 1):
        rmap: List[Optional[Tuple[int, Fraction]]] = []
        lmap: List[Optional[Tuple[int, Fraction]]] = []
        for occ in basis.states:
            raised = occ[:site] + (occ[site] + 1,) + occ[site + 1:]
            if sum(raised) > basis.n:
                rmap.append((_FORBIDDEN, ONE))
            else:
                rmap.append((index[raised],
                             _raise_coeff(model, q, site, occ[site])))
            if occ[site] == 0:
                lmap.append(None)
            else:
                lowered = occ[:site] + (occ[site] - 1,) + occ[site + 1:]
                lmap.append((index[lowered],
                             _lower_coeff(model, q, site, occ[site])))
        raises.append(rmap)
        lowers.append(lmap)
    return raises, lowers


def _apply_map(mapping, vec: Dict[int, QPoly]) -> Dict[int, QPoly]:
    out: Dict[int, QPoly] = {}
    for i, poly in vec.items():
        entry = mapping[i]
        if entry is None:
            continue
        dst, coeff = entry
        if coeff == 0:
            continue
        if dst == _FORBIDDEN:
            raise AssertionError("operator escaped the extended basis")
        term = poly * coeff
        out[dst] = out[dst] + term if dst in out else term
    return out


def _shift(vec: Dict[int, QPoly], power: QPoly) -> Dict[int, QPoly]:
    return {i: p * power for i, p in vec.items()}


def _merge(a: Dict[int, QPoly], b: Dict[int, QPoly]) -> Dict[int, QPoly]:
    out = dict(a)
    for i, p in b.items():
        out[i] = out[i] + p if i in out else p
    return out


@lru_cache(maxsize=None)
def _symbolic_blocks(model: str, n: int, m: int, q: Fraction):
    """Rescaled monodromy blocks as QPoly-in-u matrices, per source sector.

    Returns {"A": {s: rows}, ...} where rows are indexed by the target
    sector's partition enumeration.  Row/column layouts agree between
    the bound-n and bound-(n+1) bases because sectors enumerate
    identically, so the restriction is a plain slice.
    """
    ext = sector_basis(n + 1, m)
    raises, lowers = _site_maps(model, q, ext)

    def transfer(w1: Dict[int, QPoly], w2: Dict[int, QPoly]):
        for site in range(m + 1):
            new_w1 = _merge(w1, _shift(_apply_map(raises[site], w2), _U))
            new_w2 = _merge(_shift(_apply_map(lowers[site], w1), _U),
                            _shift(w2, _U2))
            w1, w2 = new_w1, new_w2
        return w1, w2

    def sector_column(vec: Dict[int, QPoly], target: int, parity: int):
        if target < 0 or target > n + 1:
            if vec:
                raise AssertionError("component outside the graded range")
            return None
        lo, hi = ext.offsets[target], ext.offsets[target + 1]
        column = [QPoly.zero()] * (hi - lo)
        for i, poly in vec.items():
            if poly.is_zero():
                continue
            if not lo <= i < hi:
                raise AssertionError("block is not pure in particle number")
            for k, c in enumerate(poly.coeffs):
                if c != 0 and k % 2 != parity:
                    raise AssertionError("u-parity violated in a block")
            column[i - lo] = poly
        return column

    collected: Dict[str, Dict[int, list]] = {k: {} for k in "ABCD"}
    for s in range(n + 1):
        cols = {k: [] for k in "ABCD"}
        for j in ext.sector_indices(s):
            one = {j: QPoly.one()}
            w1, w2 = transfer(dict(one), {})
            cols["A"].append(sector_column(w1, s, 0))
            cols["C"].append(sector_column(w2, s - 1, 1))
            w1, w2 = transfer({}, dict(one))
            cols["B"].append(sector_column(w1, s + 1, 1))
            cols["D"].append(sector_column(w2, s, 0))
        for key, shift in (("A", 0), ("B", 1), ("C", -1), ("D", 0)):
            target = s + shift
            if target < 0 or target > n:
                continue
            width = len(cols[key])
            height = ext.offsets[target + 1] - ext.offsets[target]
            rows = tuple(
                tuple(cols[key][c][r] for c in range(width))
                for r in range(height))
            collected[key][s] = rows
    return collected


def build_monodromy(model: str, spec, u) -> Monodromy:
    """Evaluate the four blocks of T(x) at the point x = u**2."""
    u = Fraction(u)
    if u == 0:
        raise ValueError("u = 0")
    n, m, q = _resolve(model, spec)
    blocks = _symbolic_blocks(model, n, m, q)
    scale = ONE / u ** (m + 1)

    def evaluated(key: str, shift: int) -> Tuple[SectorOperator, ...]:
        ops = []
        for s, rows in sorted(blocks[key].items()):
            matrix = tuple(
                tuple(poly(u) * scale for poly in row) for row in rows)
            ops.append(SectorOperator(source=s, target=s + shift,
                                      matrix=matrix))
        return tuple(ops)

    return Monodromy(a=evaluated("A", 0), b=evaluated("B", 1),
                     c=evaluated("C", -1), d=evaluated("D", 0))


def _map_odd(poly: QPoly, base: Fraction, to_power) -> Fraction:
    acc = ZERO
    for d, c in enumerate(poly.coeffs):
        if c != 0:
            acc += c * base ** to_power(d)
    return acc


def b_operator(model: str, spec, y) -> Tuple[SectorOperator, ...]:
    """The string operator B(y) = y^{M/2} B-block(y) at a physical point.

    The d-th u-coefficient of the rescaled block contributes y to the
    power (d-1)/2, which the parity assertion guarantees is an integer.
    """
    y = Fraction(y)
    n, m, q = _resolve(model, spec)
    blocks = _symbolic_blocks(model, n, m, q)
    ops = []
    for s, rows in sorted(blocks["B"].items()):
        matrix = tuple(
            tuple(_map_odd(poly, y, lambda d: (d - 1) // 2) for poly in row)
            for row in rows)
        ops.append(SectorOperator(source=s, target=s + 1, matrix=matrix))
    return tuple(ops)


def c_operator(model: str, spec, x) -> Tuple[SectorOperator, ...]:
    """The dual string operator C(x) = x^{M/2} C-block(1/x).

    Inverting the spectral parameter sends the d-th u-coefficient to x
    to the power (2M+1-d)/2, again an integer by parity.
    """
    x = Fraction(x)
    n, m, q = _resolve(model, spec)
    blocks = _symbolic_blocks(model, n, m, q)
    ops = []
    for s, rows in sorted(blocks["C"].items()):
        matrix = tuple(
            tuple(_map_odd(poly, x, lambda d: (2 * m + 1 - d) // 2)
                  for poly in row)
            for row in rows)
        ops.append(SectorOperator(source=s, target=s - 1, matrix=matrix))
    return tuple(ops)


def _apply_ops(ops: Tuple[SectorOperator, ...], basis: SectorBasis,
               vec: List[Fraction]) -> List[Fraction]:
    out = [ZERO] * basis.dim
    for op in ops:
        src = list(basis.sector_indices(op.source))
        toff = basis.offsets[op.target]
        for r, row in enumerate(op.matrix):
            acc = ZERO
            for c, j in enumerate(src):
                if row[c] != 0 and vec[j] != 0:
                    acc += row[c] * vec[j]
            if acc != 0:
                out[toff + r] += acc
    return out


def vacuum_vector(basis: SectorBasis) -> List[Fraction]:
    vec = [ZERO] * basis.dim
    vec[0] = ONE
    return vec


def bethe_state(model: str, spec, roots: Sequence) -> Tuple[Fraction, ...]:
    """Coefficients of prod_j B(y_j)|0> over the sector basis.

    Roots are u-values: the j-th physical rapidity is y_j = roots[j]**2,
    so that callers fixing u keep every intermediate quantity rational.
    """
    n, m, q = _resolve(model, spec)
    roots = as_points(roots)
    if len(roots) > n:
        raise ValueError("more roots than the particle bound")
    basis = sector_basis(n, m)
    vec = vacuum_vector(basis)
    for u in roots:
        vec = _apply_ops(b_operator(model, spec, u * u), basis, vec)
    return tuple(vec)


def partition_coefficients(basis: SectorBasis, vec: Sequence[Fraction],
                           sector: int) -> Dict[Partition, Fraction]:
    """Read a vector's sector-s coefficients as a partition -> value map."""
    lams = enumerate_in_box(sector, basis.m)
    lo = basis.offsets[sector]
    return {lam: vec[lo + i] for i, lam in enumerate(lams)}


def oracle_pairing(model: str, spec, xs: Sequence, ys: Sequence,
                   insertion: Optional[int] = None,
                   normalized: bool = True) -> Fraction:
    """<0| prod C(x) prod B(y) [phi+_m] |0>, assembled by brute force.

    xs and ys are physical points (powers of x and y appear, never
    their square roots).  An integer `insertion` adds one creation
    operator at that site, acting on the vacuum end of the product, and
    the gradings must then satisfy |y| = |x| - 1.

    For the deformed model the raw vacuum coefficient carries an extra
    q-factorial of the site-0 occupancy in each top-sector channel, an
    artifact of the asymmetric site-0 representation; `normalized`
    divides it out, which is the convention under which the pairing
    matches the Hall-Littlewood partition sum.  Pass normalized=False
    to see the raw coefficient.
    """
    n, m, q = _resolve(model, spec)
    xs = as_points(xs)
    ys = as_points(ys)
    expected = len(ys) + (1 if insertion is not None else 0)
    if len(xs) != expected:
        raise ValueError("grading mismatch between x, y and the insertion")
    if expected > n:
        raise ValueError("pairing exceeds the basis particle bound")
    basis = sector_basis(n, m)
    vec = vacuum_vector(basis)
    if insertion is not None:
        if not 0 <= insertion <= m:
            raise ValueError("insertion site out of range")
        occ = tuple(1 if i == insertion else 0 for i in range(m + 1))
        target = basis.states.index(occ)
        coeff = _raise_coeff(model, q, insertion, 0)
        vec = [ZERO] * basis.dim
        vec[target] = coeff
    for y in ys:
        vec = _apply_ops(b_operator(model, spec, y), basis, vec)
    if normalized and model == "qboson":
        vec = list(vec)
        for i, value in enumerate(vec):
            if value == 0:
                continue
            divisor = qfactorial(basis.states[i][0])(q)
            if divisor == 0:
                raise ValueError(
                    "normalization undefined at this deformation value")
            vec[i] = value / divisor
    for x in xs:
        vec = _apply_ops(c_operator(model, spec, x), basis, vec)
    return vec[0]


def commutation_check(model: str, spec, y1, y2) -> bool:
    """True iff B(y1) and B(y2) commute block-by-block on the basis."""
    n, m, q = _resolve(model, spec)
    ops1 = {op.source: op for op in b_operator(model, spec, y1)}
    ops2 = {op.source: op for op in b_operator(model, spec, y2)}
    for s in range(n - 1):
        first = _compose(ops1[s + 1].matrix, ops2[s].matrix)
        second = _compose(ops2[s + 1].matrix, ops1[s].matrix)
        if first != second:
            return False
    return True


def _compose(outer, inner):
    rows = len(outer)
    mid = len(inner)
    cols = len(inner[0]) if mid else 0
    return tuple(
        tuple(sum((outer[r][k] * inner[k][c] for k in range(mid)), ZERO)
              for c in range(cols))
        for r in range(rows))
