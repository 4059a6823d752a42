"""The occupation-basis oracle over Fractions, kept as a test reference.

``qtau.fock_oracle`` carries int numerators over one shared denominator
through its transfer.  The code here is the same brute force with every
coefficient a ``Fraction``: per-site raise and lower tables, the
half-step scale * (base + table(vec)), the transfer through sites 0..M,
and the B and C strings.  The site layout is rebuilt here by slicing
occupation tuples, where the oracle adds to int codes.  Only the
occupation basis, the reading of a model and spec, the graded block
containers and the out-of-basis sentinel are imported from the oracle,
so an arithmetic or indexing slip on the int side cannot repeat here.
"""

from fractions import Fraction
from functools import lru_cache

from qtau.fock_oracle import (_FORBIDDEN, Monodromy, SectorOperator,
                              _resolve, sector_basis)
from qtau.partitions import enumerate_in_box

ONE, ZERO = Fraction(1), Fraction(0)


def _raise_coeff(q, site, occ):
    # site 0 is bare; every lowering element is 1
    return ONE if site == 0 else ONE - q ** (occ + 1)


@lru_cache(maxsize=None)
def site_layout(bound, m):
    """Per-site (raise targets, occupancies, lower targets) on the
    bound-`bound` basis, found by slicing each occupation tuple: the
    layout the oracle reads from int codes, with its sentinel for a
    raise out of the basis and None for a lower of an empty site."""
    basis = sector_basis(bound, m)
    index = {occ: i for i, occ in enumerate(basis.states)}
    layout = []
    for site in range(m + 1):
        raises, occupancies, lowers = [], [], []
        for occ in basis.states:
            k = occ[site]
            raised = occ[:site] + (k + 1,) + occ[site + 1:]
            lowered = occ[:site] + (k - 1,) + occ[site + 1:]
            raises.append(index.get(raised, _FORBIDDEN))
            occupancies.append(k)
            lowers.append(index[lowered] if k else None)
        layout.append((tuple(raises), tuple(occupancies), tuple(lowers)))
    return tuple(layout)


@lru_cache(maxsize=None)
def site_tables(bound, m, q):
    """Per-site (raise, lower) tables on the bound-`bound` basis, with
    Fraction coefficients; None marks a move out of the basis.  The
    reference oracle below reads bound N+1 everywhere, so the oracle's
    bound-N strings are checked against tables that truncate nothing."""
    return tuple(
        (tuple(None if dst == _FORBIDDEN else (dst, _raise_coeff(q, site, k))
               for dst, k in zip(raises, occupancies)),
         tuple(None if dst is None else (dst, ONE) for dst in lowers))
        for site, (raises, occupancies, lowers)
        in enumerate(site_layout(bound, m)))


def _half_step(table, vec, base, scale):
    """scale * (base + table(vec)): one row of a site factor."""
    out = dict(base)
    for i, value in vec.items():
        entry = table[i]
        if entry is None:
            continue
        dst, coeff = entry
        if coeff:
            out[dst] = out.get(dst, ZERO) + value * coeff
    return {i: value * scale for i, value in out.items() if value and scale}


def transfer(sites, alpha, beta, w1, w2):
    """Apply diag(alpha, beta) [[1, R_k], [L_k, 1]] for k = 0..M in turn."""
    for raises, lowers in sites:
        w1, w2 = (_half_step(raises, w2, w1, alpha),
                  _half_step(lowers, w1, w2, beta))
    return w1, w2


def b_string(sites, vec, ys):
    for y in ys:
        vec = transfer(sites, ONE, Fraction(y), {}, vec)[0]
    return vec


def c_string(sites, vec, xs):
    for x in xs:
        vec = transfer(sites, Fraction(x), ONE, vec, {})[1]
    return vec


def oracle_pairing(model, spec, xs, ys, insertion=None):
    n, m, q = _resolve(model, spec)
    sites = site_tables(n + 1, m, q)
    vec = {0: ONE}
    if insertion is not None:
        occ = tuple(1 if i == insertion else 0 for i in range(m + 1))
        coeff = _raise_coeff(q, insertion, 0)
        vec = {sector_basis(n, m).states.index(occ): coeff} if coeff else {}
    vec = c_string(sites, b_string(sites, vec, ys), xs)
    return vec.get(0, ZERO)


def bethe_state(model, spec, roots):
    n, m, q = _resolve(model, spec)
    ys = [Fraction(u) ** 2 for u in roots]
    vec = b_string(site_tables(n + 1, m, q), {0: ONE}, ys)
    lo = sector_basis(n, m).offsets[len(ys)]
    return {lam: vec.get(lo + i, ZERO)
            for i, lam in enumerate(enumerate_in_box(len(ys), m))}


def build_monodromy(model, spec, u):
    u = Fraction(u)
    n, m, q = _resolve(model, spec)
    sites = site_tables(n + 1, m, q)
    ext = sector_basis(n + 1, m)
    x, scale = u * u, ONE / u ** (m + 1)

    def block(start, read, shift, factor):
        ops = []
        for s in range(max(0, -shift), n + 1 - max(0, shift)):
            columns = []
            for j in ext.sector_indices(s):
                unit = ({j: ONE}, {}) if start == 0 else ({}, {j: ONE})
                columns.append(transfer(sites, ONE, x, *unit)[read])
            matrix = tuple(tuple(col.get(i, ZERO) * factor for col in columns)
                           for i in ext.sector_indices(s + shift))
            ops.append(SectorOperator(source=s, target=s + shift,
                                      matrix=matrix))
        return tuple(ops)

    return Monodromy(a=block(0, 0, 0, scale), b=block(1, 0, 1, u * scale),
                     c=block(0, 1, -1, scale / u), d=block(1, 1, 0, scale))


def commutation_check(model, spec, y1, y2):
    n, m, q = _resolve(model, spec)
    sites = site_tables(n + 1, m, q)
    basis = sector_basis(n, m)
    return all(b_string(sites, {j: ONE}, (y2, y1))
               == b_string(sites, {j: ONE}, (y1, y2))
               for s in range(n - 1) for j in basis.sector_indices(s))
