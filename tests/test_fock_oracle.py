"""Occupation-basis cross-checks for the monodromy-operator machinery."""

import ast
import os
from fractions import Fraction as F

import pytest

from qtau import fock_oracle as oracle
from qtau.partitions import b_lambda
from qtau.phase_model import BoxSpec, correlation_Am, scalar_product
from qtau.qboson_model import QBosonSpec, scalar_product_q
from symfunc_reference import hall_littlewood_fraction, schur_value


def test_sector_basis_counts():
    basis = oracle.sector_basis(2, 2)
    assert len(basis.states) == sum(len(basis.sector_indices(s))
                                    for s in range(3))
    # occupation vectors in sector s carry s particles
    for s in range(3):
        for i in basis.sector_indices(s):
            state = basis.states[i]
            assert sum(state) == s and len(state) == 3


def test_monodromy_grading():
    mono = oracle.build_monodromy("phase", BoxSpec(2, 2), F(1, 2))
    assert all(op.target == op.source + 1 for op in mono.b)
    assert all(op.target == op.source - 1 for op in mono.c)
    assert all(op.target == op.source for op in mono.a + mono.d)
    with pytest.raises(ValueError):
        oracle.build_monodromy("phase", BoxSpec(2, 2), F(0))


def test_reduced_guards_the_sector():
    basis = oracle.sector_basis(2, 2)
    one, two = basis.sector_indices(1)[0], basis.sector_indices(2)[0]
    assert oracle._reduced({one: 4}, 6, basis, 1) == ({one: 2}, 3)
    with pytest.raises(AssertionError, match="not pure in particle number"):
        oracle._reduced({one: 4, two: 2}, 6, basis, 1)


def _vacuum_column(ops):
    """The source-sector-0 column of a graded block list, keyed by target."""
    op = next(op for op in ops if op.source == 0)
    return op.target, [row[0] for row in op.matrix]


def test_monodromy_values():
    # T(x) at x = u^2 carries the string operators: u^M B(u)|0> is the
    # one-root string state, and at N = 1 the pairing of C(1/v^2) with
    # B(u^2) is u^M v^-M times the vacuum entry of C(v) B(u)|0>
    specs = [("phase", BoxSpec(n, m)) for n in (1, 2) for m in (0, 1, 3)]
    specs += [("qboson", QBosonSpec(BoxSpec(n, m), F(1, 4)))
              for n in (1, 2) for m in (0, 1, 3)]
    for model, spec in specs:
        box = spec if model == "phase" else spec.box
        for u, v in ((F(1, 2), F(2, 3)), (F(-3, 2), F(1, 5))):
            mono_u = oracle.build_monodromy(model, spec, u)
            target, column = _vacuum_column(mono_u.b)
            assert target == 1
            state = oracle.bethe_state(model, spec, [u])
            assert [u ** box.m * c for c in column] == list(state.values())
            if box.n != 1:
                continue
            mono_v = oracle.build_monodromy(model, spec, v)
            c_op = next(op for op in mono_v.c if op.source == 1)
            vacuum = sum((c_op.matrix[0][k] * column[k]
                          for k in range(len(column))), F(0))
            pairing = oracle.oracle_pairing(model, spec, [1 / v ** 2],
                                            [u ** 2])
            assert pairing == u ** box.m * v ** -box.m * vacuum


def test_oracle_imports_no_formula_code():
    # the arbiter shares only the box specs and two constants with the
    # formula side: no arithmetic helper, so a slip in one cannot hit both
    # sides of a comparison alike
    path = os.path.join(os.path.dirname(oracle.__file__), "fock_oracle.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    allowed = {"phase_model": {"BoxSpec"}, "qboson_model": {"QBosonSpec"},
               "algebra_core": {"ONE", "ZERO"}}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = {alias.name for alias in node.names}
            assert module not in ("symfunc", "miwa"), module
            if module in ("", "qtau"):  # whole modules of the package
                assert not names & {"symfunc", "miwa", *allowed}, names
            if module in allowed:
                assert names <= allowed[module], (module, names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in (
                    "symfunc", "miwa", "algebra_core")


def test_single_site_creation():
    # M=0: the creation entry moves the vacuum to the one-particle state
    box = BoxSpec(1, 0)
    assert oracle.bethe_state("phase", box, [F(1, 2)]) == {(): F(1)}


def test_phase_bethe_state_coefficients():
    # creation-string coefficients are Schur values in y = u^2
    box = BoxSpec(2, 3)
    us = [F(1, 2), F(1, 3)]
    ys = [u * u for u in us]
    coeffs = oracle.bethe_state("phase", box, us)
    assert list(coeffs) == box.partitions()
    for lam in box.partitions():
        assert coeffs[lam] == schur_value(lam, ys)


def test_partial_string_lands_in_lower_sector():
    box = BoxSpec(3, 2)
    coeffs = oracle.bethe_state("phase", box, [F(1, 2)])
    assert coeffs[(1,)] == F(1, 4)


def test_qboson_bethe_state_coefficients():
    # deformed string law: coefficient of |lam> is b_lam(Q) P_lam(y; Q)
    q = F(1, 4)
    spec = QBosonSpec(BoxSpec(2, 2), q)
    us = [F(1, 2), F(1, 3)]
    ys = [u * u for u in us]
    coeffs = oracle.bethe_state("qboson", spec, us)
    assert list(coeffs) == spec.box.partitions()
    p_y = hall_littlewood_fraction(ys, q)
    for lam in spec.box.partitions():
        assert coeffs[lam] == b_lambda(lam)(q) * p_y(lam)


def test_qboson_site_matrix_element():
    # N=1, M=1, Q=1/4: the site-1 creation weight is 1 - Q = 3/4
    q = F(1, 4)
    spec = QBosonSpec(BoxSpec(1, 1), q)
    u = F(1, 2)
    coeffs = oracle.bethe_state("qboson", spec, [u])
    assert coeffs[(1,)] == (1 - q) * u * u == F(3, 16)
    assert coeffs[()] == 1


def test_oracle_scalar_product_phase():
    for n, m in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3)):
        box = BoxSpec(n, m)
        xs = [F(1, 2 + k) for k in range(n)]
        ys = [F(2, 5 + 2 * k) for k in range(n)]
        val = oracle.oracle_pairing("phase", box, xs, ys)
        assert val == scalar_product(xs, ys, box, mode="det")
        assert val == scalar_product(xs, ys, box, mode="schur_sum")


def test_oracle_empty_string():
    assert oracle.oracle_pairing("phase", BoxSpec(0, 2), [], []) == 1


def test_oracle_correlation_insertion():
    box = BoxSpec(2, 3)
    xs, ys = [F(1, 2), F(1, 3)], [F(1, 5)]
    for site in range(4):
        assert (oracle.oracle_pairing("phase", box, xs, ys, insertion=site)
                == correlation_Am(xs, ys, site, box, mode="det"))


def test_oracle_qboson_normalized():
    for q in (F(1, 4), F(1, 3)):
        for n, m in ((1, 2), (2, 2), (2, 3)):
            spec = QBosonSpec(BoxSpec(n, m), q)
            xs = [F(1, 2 + k) for k in range(n)]
            ys = [F(2, 5 + 2 * k) for k in range(n)]
            assert (oracle.oracle_pairing("qboson", spec, xs, ys)
                    == scalar_product_q(xs, ys, spec, mode="hl_sum"))


def test_oracle_qboson_at_q_plus_minus_one():
    # site 0 is bare, so nothing is divided out and Q = 1, -1 are defined
    for q in (F(1), F(-1)):
        for n, m in ((2, 2), (3, 2), (3, 3)):
            spec = QBosonSpec(BoxSpec(n, m), q)
            xs = [F(1, 2 + k) for k in range(n)]
            ys = [F(-2, 5 + 2 * k) for k in range(n)]
            assert (oracle.oracle_pairing("qboson", spec, xs, ys)
                    == scalar_product_q(xs, ys, spec, mode="hl_sum"))


def test_phase_oracle_is_qboson_at_q_zero():
    # with site 0 bare the two models share every site table at Q = 0
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
        box = BoxSpec(n, m)
        spec = QBosonSpec(box, F(0))
        xs = [F(1, 2 + k) for k in range(n)]
        ys = [F(-2, 5 + 2 * k) for k in range(n)]
        assert (oracle.oracle_pairing("phase", box, xs, ys)
                == oracle.oracle_pairing("qboson", spec, xs, ys))
        for site in range(m + 1):
            assert (oracle.oracle_pairing("phase", box, xs, ys[1:],
                                          insertion=site)
                    == oracle.oracle_pairing("qboson", spec, xs, ys[1:],
                                             insertion=site))
        assert (oracle.build_monodromy("phase", box, F(2, 3))
                == oracle.build_monodromy("qboson", spec, F(2, 3)))


def test_oracle_grading_mismatch():
    box = BoxSpec(2, 3)
    with pytest.raises(ValueError):
        oracle.oracle_pairing("phase", box, [F(1, 2), F(1, 3)],
                              [F(1, 5), F(1, 7)], insertion=1)
    with pytest.raises(ValueError):
        oracle.oracle_pairing("phase", box, [F(1, 2)], [F(1, 5), F(1, 7)])


def test_model_spec_consistency():
    # the deformed model needs a deformation value attached
    with pytest.raises(ValueError):
        oracle.oracle_pairing("qboson", BoxSpec(1, 1), [F(1, 2)], [F(1, 3)])
    # phase model through a QBosonSpec only at Q = 0
    spec = QBosonSpec(BoxSpec(1, 1), F(1, 4))
    with pytest.raises(ValueError):
        oracle.oracle_pairing("phase", spec, [F(1, 2)], [F(1, 3)])
    ok = QBosonSpec(BoxSpec(1, 1), F(0))
    assert (oracle.oracle_pairing("phase", ok, [F(1, 2)], [F(1, 3)])
            == oracle.oracle_pairing("phase", BoxSpec(1, 1),
                                     [F(1, 2)], [F(1, 3)]))


def test_commutation():
    assert oracle.commutation_check("phase", BoxSpec(3, 2),
                                    F(1, 2), F(1, 3))
    assert oracle.commutation_check(
        "qboson", QBosonSpec(BoxSpec(3, 2), F(1, 4)), F(1, 2), F(1, 3))


def test_commutation_check_sees_a_non_commuting_table(monkeypatch):
    # doubling the raise numerator at occupancy 1 takes the site table
    # off the q-boson family, and the B strings stop commuting
    spec = QBosonSpec(BoxSpec(3, 3), F(1, 3))
    assert oracle.commutation_check("qboson", spec, F(1, 2), F(1, 3))
    blocks = oracle._symbolic_blocks

    def bent(n, q):
        nums, den = blocks(n, q)
        return (nums[0], 2 * nums[1]) + nums[2:], den

    monkeypatch.setattr(oracle, "_symbolic_blocks", bent)
    assert not oracle.commutation_check("qboson", spec, F(1, 2), F(1, 3))


def test_too_many_roots():
    with pytest.raises(ValueError):
        oracle.bethe_state("phase", BoxSpec(1, 2), [F(1, 2), F(1, 3)])
