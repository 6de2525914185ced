import random

import pytest

from qdc.calculus import verify_family
from qdc import catalog, rmatrix
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


def test_supermatrix_refuses_rows_that_do_not_match_the_row_parities(cat):
    a = cat.presentation("A_glq11").el("a")
    with pytest.raises(QdcError, match="row count"):
        SuperMatrix([[a]], (0, 1), (0,))


def test_supermatrix_refuses_a_row_that_does_not_match_the_column_parities(cat):
    a = cat.presentation("A_glq11").el("a")
    with pytest.raises(QdcError, match="column count"):
        SuperMatrix([[a], [a, a]], (0, 1), (0, 1))


def test_supermatrix_product_refuses_mismatched_parities(cat):
    p = cat.presentation("A_glq11")
    T = SuperMatrix([[p.el("a"), p.el("beta")], [p.el("gamma"), p.el("d")]],
                    (0, 1), (0, 1))
    S = SuperMatrix(T.entries, (1, 0), (0, 1))
    with pytest.raises(QdcError, match="parity mismatch"):
        T @ S


def test_supermatrix_refuses_an_entry_of_the_wrong_parity(cat):
    # beta is odd: right off the diagonal of T, wrong on it
    p = cat.presentation("A_glq11")
    T = SuperMatrix([[p.el("a"), p.el("beta")], [p.el("gamma"), p.el("d")]],
                    (0, 1), (0, 1))
    assert T.validate_parities(p) is T
    wrong = SuperMatrix([[p.el("beta"), p.el("beta")], [p.el("gamma"), p.el("d")]],
                        (0, 1), (0, 1))
    with pytest.raises(QdcError, match=r"entry \(0,0\) has parity 1, expected 0"):
        wrong.validate_parities(p)


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


def test_hecke_rows_print_the_residual(cat, monkeypatch):
    # negative control: with R-hat's (2,3) entry doubled, R-hat^2 - (q - q^-1)
    # R-hat - 1 is 1 on the diagonal at (2,2) and (3,3), printed as a scalar
    # normal form, and the braid relation fails too
    r_hat = rmatrix.r_hat

    def doubled(cat):
        R = r_hat(cat)
        R.entries[1][2] = R.entries[1][2].scaled(lint(2))
        return R

    monkeypatch.setattr(rmatrix, "r_hat", doubled)
    failing = {c.id: c.residual for c in map(Check.run, check_hecke_braid(cat))
               if not c.passed}
    assert failing == {"hecke.entry_2_2": "1", "hecke.entry_3_3": "1",
                       "braid.graded_tensor_cube": "braid relation fails"}


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
        i._replace(rhs_ast=parse_ast(rhs)) if i.name == name else i
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


def _reference_matmul(A, B):
    """The entrywise definition of A @ B: entry (i, j) is the Element sum
    over t of A[i][t] * B[t][j]."""
    k = len(B.entries)
    return [[sum((A.entries[i][t] * B.entries[t][j] for t in range(k)), Element.zero())
             for j in range(len(B.entries[0]))]
            for i in range(len(A.entries))]


def _random_supermatrix(rng, cat, size):
    """A size x size supermatrix over Omega_loc: a quarter of its entries
    zero, the others up to three short words from four letters with
    coefficients +-1 and +-q, so that products share words and cancel."""
    letters = ("a", "d", "Da", "a_inv")
    coeffs = [cat.scalar(c) for c in (ONE, -ONE, qp(1), -qp(1))]
    parities = tuple(rng.randint(0, 1) for _ in range(size))

    def entry():
        if rng.random() < 0.25:
            return Element.zero()
        e = Element.zero()
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            e = e + W(word, rng.choice(coeffs))
        return e

    return SuperMatrix([[entry() for _ in range(size)] for _ in range(size)],
                       parities, parities)


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q2"])
def test_matmul_matches_the_entrywise_sum_on_random_supermatrices(q0):
    cat = get_catalog(q0)
    rng = random.Random(2511)
    cancelled = 0
    for size in (2, 4, 8):
        for _ in range(6):
            A = _random_supermatrix(rng, cat, size)
            B = _random_supermatrix(rng, cat, size)._replace(
                row_parity=A.col_parity, col_parity=A.col_parity)
            got = A @ B
            assert got.entries == _reference_matmul(A, B)
            assert (got.row_parity, got.col_parity) == (A.row_parity, B.col_parity)
            for i, row in enumerate(got.entries):
                for j, e in enumerate(row):
                    words = {w for t in range(size)
                             for w in (A.entries[i][t] * B.entries[t][j]).terms}
                    cancelled += len(words - set(e.terms))
    assert cancelled > 0  # the sums above did drop words


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q2"])
def test_matmul_matches_the_entrywise_sum_on_the_matrix_relations(q0, monkeypatch):
    cat = get_catalog(q0)
    products = []
    matmul = SuperMatrix.__matmul__

    def recorded(A, B):
        out = matmul(A, B)
        products.append((A, B, out))
        return out

    monkeypatch.setattr(SuperMatrix, "__matmul__", recorded)
    for eq, (pname, _) in rmatrix._RELATIONS.items():
        p = cat.presentation(pname)
        for over in (p, rmatrix._free(p)):
            rmatrix._entries(eq, over, cat)
    assert len(products) == 2 * 22  # the five relations' products, over p and _free(p)
    for A, B, out in products:
        assert out.entries == _reference_matmul(A, B)


def test_linalg_rank_basics():
    one, q = ONE, qp(1)
    rows = [[one, q], [q, q * q]]
    assert rank(rows) == 1
    rows = [[one, ZERO], [ZERO, one]]
    assert rank(rows) == 2
    assert row_space_equal([[one, q]], [[q, q * q]])
    assert not row_space_equal([[one, ZERO]], [[ZERO, one]])
