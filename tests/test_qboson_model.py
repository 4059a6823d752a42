"""Deformed scalar products: four computation modes and their agreements."""

from fractions import Fraction as F

import pytest

from qtau.partitions import (b_lambda, enumerate_in_box, partitions_of,
                             qfactorial)
from qtau.phase_model import BoxSpec, scalar_product
from qtau.qboson_model import (MODES, QBosonSpec, c_tilde_matrix,
                               graded_components, mode_agreement_report,
                               scalar_product_q)
from qtau.symfunc import (hall_littlewood_evaluator, kostka_tables,
                          q_coeff_list)
from qtau.algebra_core import QPoly, jacobi_trudi, jacobi_trudi_box
from symfunc_reference import schur_value


def test_hl_sum_single_variable():
    # N=1, M=2: 1 + (1-Q)xy + (1-Q)x^2 y^2
    x, y, q = F(1, 2), F(1, 5), F(1, 3)
    spec = QBosonSpec(BoxSpec(1, 2), q)
    expect = 1 + (1 - q) * x * y + (1 - q) * x ** 2 * y ** 2
    assert scalar_product_q([x], [y], spec, mode="hl_sum") == expect
    # the two all-partition sums coincide with the box sum at N=1
    assert scalar_product_q([x], [y], spec, mode="big_schur") == expect
    assert scalar_product_q([x], [y], spec, mode="twisted_schur") == expect
    # the quotient route sums past the box; it agrees only gradedly
    quot = scalar_product_q([x], [y], spec, mode="det_quotient")
    assert quot != expect
    assert (graded_components([x], [y], spec, "det_quotient", 2)
            == graded_components([x], [y], spec, "hl_sum", 2))


def test_q_zero_reduction():
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]
    spec = QBosonSpec(BoxSpec(2, 3), F(0))
    base = scalar_product(xs, ys, BoxSpec(2, 3), mode="det")
    for mode in MODES:
        assert scalar_product_q(xs, ys, spec, mode) == base


def test_q_one_collapse():
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]
    spec = QBosonSpec(BoxSpec(2, 3), F(1))
    assert scalar_product_q(xs, ys, spec, mode="hl_sum") == 1


def test_hl_sum_matches_definition():
    xs, ys = [F(1, 2), F(2, 5)], [F(1, 3), F(1, 7)]
    q = F(1, 4)
    spec = QBosonSpec(BoxSpec(2, 2), q)
    px = hall_littlewood_evaluator(xs, q)
    py = hall_littlewood_evaluator(ys, q)
    manual = sum(b_lambda(lam)(q) * px(lam) * py(lam)
                 for lam in spec.box.partitions())
    assert scalar_product_q(xs, ys, spec, mode="hl_sum") == manual


def test_det_quotient_defined_at_repeated_points():
    # a repeated x (and, separately, a repeated y) is an ordinary point of
    # det_quotient; its value is the quotient of the Schur-sum pairings,
    # which never divide by a Vandermonde
    box = BoxSpec(2, 2)
    spec = QBosonSpec(box, F(1, 3))
    for xs, ys in (([F(1, 2), F(1, 2)], [F(1, 5), F(1, 7)]),
                   ([F(1, 2), F(1, 3)], [F(1, 5), F(1, 5)])):
        qys = [spec.q * y for y in ys]
        expected = (scalar_product(xs, ys, box, mode="schur_sum")
                    / scalar_product(xs, qys, box, mode="schur_sum"))
        assert scalar_product_q(xs, ys, spec, mode="det_quotient") == expected


def test_det_quotient_entry_points_agree_on_repeats():
    # S(x,y)/S(x,Qy) is defined at coincident points: both entry points
    # give values there, at Q = 0 (where it is the phase pairing) and at
    # Q = 1/3, and the graded pieces match hl_sum's
    xs, ys = [F(1, 2), F(1, 2)], [F(1, 5), F(2, 7)]
    box = BoxSpec(2, 2)
    for q in (F(0), F(1, 3)):
        spec = QBosonSpec(box, q)
        value = scalar_product_q(xs, ys, spec, mode="det_quotient")
        assert isinstance(value, F)
        assert (graded_components(xs, ys, spec, "det_quotient", 2)
                == graded_components(xs, ys, spec, "hl_sum", 2))
    assert (scalar_product_q(xs, ys, QBosonSpec(box, F(0)), "det_quotient")
            == scalar_product(xs, ys, box, mode="det"))


def test_unknown_mode():
    spec = QBosonSpec(BoxSpec(1, 1), F(1, 3))
    with pytest.raises(ValueError):
        scalar_product_q([F(1, 2)], [F(1, 5)], spec, mode="bogus")


def test_graded_agreement():
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5), F(2, 7)]
    spec = QBosonSpec(BoxSpec(2, 2), F(1, 3))
    rep = mode_agreement_report(xs, ys, spec)
    assert rep["graded_window"] == 2
    assert all(rep["graded_equal_hl"].values())
    # full-sum observations: the two all-partition sums agree with each
    # other; finite-box effects keep det_quotient off the box sum
    assert rep["values"]["big_schur"] == rep["values"]["twisted_schur"]
    base = graded_components(xs, ys, spec, "hl_sum", 2)
    for mode in MODES:
        assert graded_components(xs, ys, spec, mode, 2) == base
    # an N = 0 box holds only the empty partition: every flag holds
    rep = mode_agreement_report([], [], QBosonSpec(BoxSpec(0, 3), F(1, 3)))
    assert set(rep["values"]) == set(MODES)
    assert all(rep["graded_equal_hl"].values())
    assert all(rep["exact_equal_hl"].values())


def test_graded_components_checks_point_counts():
    # one x and three y against N = 2: every mode refuses, as
    # scalar_product_q does, instead of summing a box the points miss
    spec = QBosonSpec(BoxSpec(2, 2), F(1, 3))
    xs, ys = [F(1, 2)], [F(1, 5), F(1, 7), F(2)]
    for mode in MODES:
        with pytest.raises(ValueError,
                           match="point sets must both have N entries"):
            graded_components(xs, ys, spec, mode, 2)


def test_mode_report_at_q_minus_one():
    # v_lam(-1) = 0 for several lam in this box, which the branching-rule
    # evaluator never divides by
    spec = QBosonSpec(BoxSpec(3, 2), F(-1))
    xs, ys = [F(1, 2), F(1, 3), F(2, 5)], [F(1, 5), F(2, 7), F(3, 4)]
    rep = mode_agreement_report(xs, ys, spec)
    assert all(rep["graded_equal_hl"].values())


def test_mode_report_repeated_points():
    # every mode, det_quotient included, is defined on a repeated point
    # set and agrees gradedly
    spec = QBosonSpec(BoxSpec(2, 2), F(1, 3))
    for xs, ys in (([F(1, 2), F(1, 2)], [F(1, 5), F(2, 7)]),
                   ([F(1, 2), F(1, 3)], [F(0), F(0)])):
        rep = mode_agreement_report(xs, ys, spec)
        for key in ("values", "graded_equal_hl", "exact_equal_hl"):
            assert set(rep[key]) == set(MODES)
        assert all(rep["graded_equal_hl"].values())


def test_mode_report_sweeps_each_generator_list_once(monkeypatch):
    # the Schur-type modes read three distinct lists at N = 2, M = 3:
    # h(x), h(y) for det_quotient's Q = 0 pieces, and the y-list that
    # big_schur and twisted_schur share
    from qtau import qboson_model

    sweeps = []

    def counted(gens, n, m, mu=()):
        sweeps.append(tuple(gens))
        return jacobi_trudi_box(gens, n, m, mu)

    monkeypatch.setattr(qboson_model, "jacobi_trudi_box", counted)
    spec = QBosonSpec(BoxSpec(2, 3), F(1, 3))
    rep = mode_agreement_report([F(1, 2), F(1, 3)], [F(1, 5), F(2, 7)],
                                spec)
    assert set(rep["values"]) == set(MODES)
    assert len(sweeps) == len(set(sweeps)) == 3


def test_hl_sum_builds_no_b_lambda_polynomial(monkeypatch):
    # hl_sum reads b_lam(Q) from one list of Q-factorials evaluated at Q;
    # the symbolic b_lambda is for c_tilde_matrix alone
    from qtau import qboson_model

    calls = []

    def counted(lam):
        calls.append(lam)
        return b_lambda(lam)

    monkeypatch.setattr(qboson_model, "b_lambda", counted)
    spec = QBosonSpec(BoxSpec(3, 3), F(-2, 5))
    scalar_product_q([F(1, 2), F(1, 3), F(0)], [F(2, 7), F(2, 7), F(-1, 5)],
                     spec, "hl_sum")
    assert calls == []


def test_mode_report_vanishing_denominator():
    # at N = 1, M = 3, Q = 2, x = -1/2, y = 1:
    # S(x, Qy) = 1 - 1 + 1 - 1 = 0, so det_quotient is left out and the
    # three sums, which are defined, are still reported
    spec = QBosonSpec(BoxSpec(1, 3), F(2))
    rep = mode_agreement_report([F(-1, 2)], [F(1)], spec)
    for key in ("values", "graded_equal_hl", "exact_equal_hl"):
        assert set(rep[key]) == {"hl_sum", "big_schur", "twisted_schur"}
    assert rep["values"]["hl_sum"] == F(11, 8)
    assert all(rep["graded_equal_hl"].values())


def test_c_tilde_small():
    q = QPoly.gen()
    assert c_tilde_matrix(0) == ((QPoly.one(),),)
    assert c_tilde_matrix(1) == ((QPoly.one() - q,),)
    # the d=2 matrix is symmetric and passes its internal identities
    ct = c_tilde_matrix(2)
    assert ct[0][1] == ct[1][0]


def test_big_schur_coefficient_expansion():
    # S_mu(y; Q) = sum_{|lam| = |mu|} c~_{mu lam}(Q) s_lam(y)
    ys = [F(1, 2), F(1, 3), F(2, 5)]
    for q in (F(1, 4), F(1, 3)):
        for mu in ((1,), (2,), (1, 1), (2, 1)):
            order = partitions_of(sum(mu))
            row = c_tilde_matrix(sum(mu))[order.index(mu)]
            rhs = sum(coeff(q) * schur_value(lam, ys)
                      for lam, coeff in zip(order, row))
            assert jacobi_trudi(q_coeff_list(ys, q, sum(mu)), mu) == rhs


def test_z_q_tables_have_int_coefficients():
    # these tables live in Z[Q]; Fraction coefficients would give the same
    # values through a much slower gcd-normalising arithmetic
    def int_coeffs(poly):
        return all(type(c) is int for c in poly.coeffs)

    for d in range(7):
        tables = kostka_tables(d)
        for matrix in (tables.K, tables.K_inv, c_tilde_matrix(d)):
            assert all(int_coeffs(p) for row in matrix for p in row)
    assert all(int_coeffs(b_lambda(lam)) for lam in enumerate_in_box(3, 4))
    assert all(int_coeffs(qfactorial(n)) for n in range(7))


def test_spec_validation():
    # the deformation value is coerced to an exact rational
    assert QBosonSpec(BoxSpec(1, 1), "1/3").q == F(1, 3)
    spec = QBosonSpec(BoxSpec(2, 2), F(1, 4))
    with pytest.raises(ValueError):
        scalar_product_q([F(1, 2)], [F(1, 5), F(1, 7)], spec, mode="hl_sum")


def test_normalization_factor_structure():
    # the hl_sum norm at lam with repeated parts carries [mult]! factors
    q = F(1, 3)
    assert b_lambda((2, 2))(q) == qfactorial(2)(q)
    assert b_lambda((2, 1))(q) == qfactorial(1)(q) ** 2
