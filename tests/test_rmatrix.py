import dataclasses
import random

import pytest

from qdc.calculus import verify_family
from qdc import catalog
from qdc.catalog import Catalog, get_catalog
from qdc.errors import QdcError
from qdc.kernel import Element
from qdc.linalg import elements_to_rows, rank, row_space_equal
from qdc.parser import parse_ast
from qdc.report import Check
from qdc.ring import ONE, ZERO, LaurentScalar, lint, qp
from qdc.rmatrix import (
    SuperMatrix,
    check_hecke_braid,
    graded_kron,
    identity_matrix,
    r_hat,
    r_hat_inverse,
    scalar_matrix,
    verify_plane_covariance,
    verify_rtt_family,
)

W = Element.word


def test_r_hat_entries(cat):
    R = r_hat(cat)
    assert R.entries[0][0] == Element.unit(qp(1))
    assert R.entries[1][1] == Element.unit(qp(1) - qp(-1))
    assert R.entries[3][3] == Element.unit(-qp(-1))
    assert R.entries[1][2] == Element.unit()


def test_r_hat_inverse(cat):
    R = r_hat(cat)
    Rinv = r_hat_inverse(cat)
    prod = R @ Rinv
    I = identity_matrix((0, 1, 1, 0))
    for i in range(4):
        for j in range(4):
            assert (prod.entries[i][j] - I.entries[i][j]).is_zero()


def test_graded_kron_identity():
    I2 = identity_matrix((0, 1))
    II = graded_kron(I2, I2)
    I4 = identity_matrix((0, 1, 1, 0))
    for i in range(4):
        for j in range(4):
            assert II.entries[i][j] == I4.entries[i][j]


def test_graded_kron_cross_sign(cat):
    # the (beta-row, gamma-column) cross term of the tensor square picks up -1
    p = cat.presentation("A_glq11")
    T = SuperMatrix([[p.el("a"), p.el("beta")], [p.el("gamma"), p.el("d")]],
                    (0, 1), (0, 1), 0)
    I2 = identity_matrix((0, 1))
    T1T2 = graded_kron(T, I2) @ graded_kron(I2, T)
    # entry ((1,2),(2,1)) = (-1)^((p2+p1)p2) T12 T21 = -beta*gamma
    assert T1T2.entries[1][2] == W(("beta", "gamma"), lint(-1))
    # an even column index picks up no sign
    assert T1T2.entries[0][0] == W(("a", "a"))


def test_graded_kron_koszul_property():
    # (M (x) I)(I (x) N) is the graded tensor of the products, and commuting
    # the factors costs (-1)^(p(M)p(N)) for parity-homogeneous M, N
    rng = random.Random(3)
    parities = (0, 1)
    I2 = identity_matrix(parities)
    for pm in (0, 1):
        for pn in (0, 1):
            def rand_homog(par):
                rows = []
                for i in range(2):
                    row = []
                    for j in range(2):
                        if (parities[i] + parities[j]) % 2 == par:
                            row.append(LaurentScalar({rng.randint(-2, 2):
                                                      rng.randint(1, 4)}))
                        else:
                            row.append(ZERO)
                    rows.append(row)
                return scalar_matrix(rows, parities)

            M, N = rand_homog(pm), rand_homog(pn)
            MN = graded_kron(M, I2) @ graded_kron(I2, N)
            kron = graded_kron(M, N)
            for i in range(4):
                for j in range(4):
                    assert (MN.entries[i][j] - kron.entries[i][j]).is_zero()
            NM = graded_kron(I2, N) @ graded_kron(M, I2)
            sign = lint(-1) if pm and pn else lint(1)
            for i in range(4):
                for j in range(4):
                    assert (NM.entries[i][j]
                            - kron.entries[i][j].scaled(sign)).is_zero()


def test_hecke_and_braid(cat):
    checks = [c.run() for c in check_hecke_braid(cat)]
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]
    assert any(c.id == "braid.graded_tensor_cube" for c in checks)


def test_hecke_spectrum_shadow(cat):
    # numeric shadow of the Hecke relation: eigenvalues q and -1/q with
    # multiplicity two each (the trace check pins the multiplicities exactly)
    numpy = pytest.importorskip("numpy")
    R = r_hat(cat)
    M = numpy.array([[float(R.entries[i][j].coeff(()).eval_at(2))
                      if R.entries[i][j] else 0.0
                      for j in range(4)] for i in range(4)])
    eig = sorted(numpy.linalg.eigvals(M).real)
    assert eig == pytest.approx([-0.5, -0.5, 2.0, 2.0], abs=1e-9)


def test_rtt_families_pass(cat):
    for eq in ("53", "54", "55", "56", "57"):
        checks = [c.run() for c in verify_rtt_family(eq, cat)]
        assert len(checks) == 17
        assert all(c.passed for c in checks), \
            (eq, [c.id for c in checks if not c.passed])


def test_rtt53_span_contains_coordinate_relation(cat):
    from qdc.rmatrix import _degree2_basis, _entries, _free

    entries = _entries("53", _free(cat.presentation("A_glq11")), cat)
    rel = W(("a", "beta")) - W(("beta", "a"), qp(1))
    basis = _degree2_basis(entries + [rel])
    rows = elements_to_rows(entries, basis, ZERO)
    vec = elements_to_rows([rel], basis, ZERO)[0]
    assert rank(rows) == rank(rows + [vec])


@pytest.mark.parametrize("eq, family, name, rhs", [
    ("56", "T_forms", "a_w1", "q*w1*a"),
    ("53", "relations_2", "a_beta", "q^2*beta*a"),
])
def test_rtt_spanning_negative_control(eq, family, name, rhs):
    # a perturbed transcription of one family member changes the family's
    # degree-2 span, and so fails spanning, while membership still holds
    fresh = Catalog()
    p, _ = fresh.family(family)
    p.identities = [
        dataclasses.replace(i, rhs_ast=parse_ast(rhs)) if i.name == name else i
        for i in p.identities
    ]
    checks = {c.id: c.run() for c in verify_rtt_family(eq, fresh)}
    span = checks.pop(f"rtt{eq}.spanning")
    assert (span.status, span.residual) == ("fail", "degree-2 spans differ")
    assert len(checks) == 16
    assert all(c.passed for c in checks.values())


def test_rtt_unknown_tag(cat):
    with pytest.raises(QdcError):
        verify_rtt_family("99", cat)


def test_plane_covariance(cat):
    checks = [c.run() for c in verify_plane_covariance(cat)]
    assert len(checks) == 16
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_plane_covariance_reads_the_plane_rules(monkeypatch):
    # negative control: with the A_q_dual rule y*phi -> q^-1*phi*y, the image
    # of an A_q point under That no longer satisfies the dual plane's rules
    real = catalog._data_text
    text = real("planes.txt")
    mutated = text.replace("rule y*phi -> q*phi*y", "rule y*phi -> q^-1*phi*y")
    assert mutated != text
    monkeypatch.setattr(catalog, "_data_text",
                        lambda f: mutated if f == "planes.txt" else real(f))
    failing = [c.id for c in map(Check.run, verify_plane_covariance(Catalog()))
               if not c.passed]
    assert sorted(failing) == [
        "plane.TXhat_in_Aq_dual.odd_square",
        "plane.TXhat_in_Aq_dual.xy_relation",
        "plane.ThatX_in_Aq_dual.xy_relation",
        "plane.ThatXhat_in_Aq.odd_square",
        "plane.ThatXhat_in_Aq.xy_relation",
    ]


def test_plane_transform_example(cat):
    from qdc.kernel import graded_product, normalize

    combined = graded_product(cat.presentation("A_glq11"),
                              cat.presentation("A_q"), "glq_times_plane")
    xp = combined.el("a") * combined.el("x") + combined.el("beta") * combined.el("theta")
    tp = combined.el("gamma") * combined.el("x") + combined.el("d") * combined.el("theta")
    res = normalize(xp * tp - (tp * xp).scaled(qp(1)), combined)
    assert res.is_zero()
    assert normalize(tp * tp, combined).is_zero()


def test_plane_rmatrix_component(cat):
    from qdc.kernel import normalize

    aq = cat.presentation("A_q")
    x, th = aq.el("x"), aq.el("theta")
    # second component: x*theta - q^-1 (q - q^-1) x*theta - q^-1 theta*x
    comp = (x * th - (x * th).scaled(qp(-1) * (qp(1) - qp(-1)))
            - (th * x).scaled(qp(-1)))
    assert normalize(comp, aq).is_zero()


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q2"])
@pytest.mark.parametrize("family, count",
                         [("plane_Aq", 2), ("plane_Aq_dual", 2), ("plane_mixed", 4)])
def test_plane_families_pass(family, count, q0):
    # eqs. (46), (47) and (52), which no suite runs
    checks = [c.run() for c in verify_family(family, get_catalog(q0))]
    assert len(checks) == count
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_linalg_rank_basics():
    one, q = ONE, qp(1)
    rows = [[one, q], [q, q * q]]
    assert rank(rows) == 1
    rows = [[one, ZERO], [ZERO, one]]
    assert rank(rows) == 2
    assert row_space_equal([[one, q]], [[q, q * q]])
    assert not row_space_equal([[one, ZERO]], [[ZERO, one]])
