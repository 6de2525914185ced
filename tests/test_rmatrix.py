import random

import pytest

from qdc.calculus import verify_family
from qdc import catalog, rmatrix
from qdc.catalog import Catalog, get_catalog
from qdc.errors import QdcError
from qdc.kernel import Element
from qdc.linalg import same_span
from qdc.parser import parse_ast
from qdc.report import Check
from qdc.ring import ONE, ZERO, LaurentScalar, lfrac, lint, qp
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
        rows = [list(row) for row in R.entries]
        rows[1][2] = rows[1][2].scaled(lint(2))
        return R._replace(entries=tuple(map(tuple, rows)))

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
    from qdc.rmatrix import _entries, _free

    entries = _entries("53", _free(cat.presentation("A_glq11")), cat)
    rel = W(("a", "beta")) - W(("beta", "a"), qp(1))
    assert same_span(entries, entries + [rel])
    assert rank(_rows(entries)) == rank(_rows(entries + [rel]))
    wrong = W(("a", "beta")) - W(("beta", "a"), qp(2))
    assert not same_span(entries, entries + [wrong])


@pytest.mark.parametrize("eq, family, name, rhs", [
    ("53", "relations_2", "a_beta", "q^2*beta*a"),
    ("54", "dT_relations", "a_Da", "q*Da*a"),
    ("55", "relations_17", "da_dbeta", "q*Dbeta*Da"),
    ("56", "T_forms", "a_w1", "q*w1*a"),
    ("57", "forms", "u_v", "q*v*u"),
])
def test_rtt_spanning_negative_control(eq, family, name, rhs):
    # a perturbed transcription of one family member changes the family's
    # degree-2 span, and so fails spanning, while membership still holds
    checks = {c.id: c.run() for c in verify_rtt_family(eq, _perturbed(family, name, rhs))}
    span = checks.pop(f"rtt{eq}.spanning")
    assert (span.status, span.residual) == ("fail", "degree-2 spans differ")
    assert len(checks) == 16
    assert all(c.passed for c in checks.values())


def test_rtt_spanning_refuses_a_family_member_that_is_not_quadratic():
    fresh = _perturbed("T_forms", "a_w1", "q^2*w1*a*a")
    (span,) = [c.run() for c in verify_rtt_family("56", fresh)
               if c.id == "rtt56.spanning"]
    assert span.status == "error"
    assert "entry equations are not purely quadratic" in span.residual


def _perturbed(family, name, rhs):
    """A fresh catalog whose family member `name` reads `lhs = rhs`."""
    fresh = Catalog()
    p, _ = fresh.family(family)
    p.identities = [
        i._replace(rhs_ast=parse_ast(rhs)) if i.name == name else i
        for i in p.identities
    ]
    return fresh


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q2"])
@pytest.mark.parametrize("eq", sorted(rmatrix._RELATIONS))
def test_membership_entries_are_the_entries_over_the_presentation(eq, q0):
    # each membership row reduces an entry built over _free(p) with the
    # one-form composites substituted for their letters: term for term the
    # entry that the same products give over p itself
    cat = get_catalog(q0)
    p = cat.presentation(rmatrix._RELATIONS[eq][0])
    rows = [c.fn.args for c in verify_rtt_family(eq, cat)
            if c.id != f"rtt{eq}.spanning"]
    assert rows == [(e, p) for e in rmatrix._entries(eq, p, cat)]


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
    return tuple(tuple(sum((A.entries[i][t] * B.entries[t][j] for t in range(k)),
                           Element.zero())
                       for j in range(len(B.entries[0])))
                 for i in range(len(A.entries)))


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


def test_supermatrix_is_a_hashable_value(cat):
    p = cat.presentation("A_glq11")
    T = rmatrix.name_matrix(p, rmatrix.T_NAMES)
    again = rmatrix.name_matrix(p, rmatrix.T_NAMES)
    assert T == again and hash(T) == hash(again)
    with pytest.raises(AttributeError):
        T.entries.append(T.entries[0])
    with pytest.raises(TypeError):
        T.entries[0][0] = T.entries[1][1]
    R, I2 = r_hat(cat), identity_matrix((0, 1))
    for M in (T, I2, R, R @ R, R + R, R - R, R.scaled(qp(1)), T.signed(),
              graded_kron(T, I2), SuperMatrix([[p.el("a")]], (0,), (0,))):
        assert type(M.entries) is tuple
        assert all(type(row) is tuple for row in M.entries)
        hash(M)


# -- the span test against a dense reference ------------------------------------


def rank(rows):
    """Rank of a matrix given as a list of rows of LaurentScalar, by dense
    fraction-free elimination: the reference for linalg.same_span."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        for i in range(r + 1, len(work)):
            ci = work[i][col]
            if ci:
                work[i] = [pv * work[i][j] - ci * work[r][j] for j in range(ncols)]
        r += 1
        if r == len(work):
            break
    return r


def _rows(elements, basis=None):
    """Coefficient rows of elements over the sorted words they use, or over
    basis."""
    basis = sorted({w for e in elements for w in e.terms}) if basis is None else basis
    return [[e.terms.get(w, ZERO) for w in basis] for e in elements]


def _reference_same_span(a, b):
    basis = sorted({w for e in a + b for w in e.terms})
    ra, rb = rank(_rows(a, basis)), rank(_rows(b, basis))
    return ra == rb == rank(_rows(a + b, basis))


def test_linalg_rank_basics():
    one, q = ONE, qp(1)
    rows = [[one, q], [q, q * q]]
    assert rank(rows) == 1
    rows = [[one, ZERO], [ZERO, one]]
    assert rank(rows) == 2
    x, y = W(("x",)), W(("y",))
    assert same_span([x + y.scaled(q)], [x.scaled(q) + y.scaled(q * q)])
    assert not same_span([x], [y])
    # every element of b lies in a's span, but a spans more: only the sizes
    # of the two echelon forms tell the spans apart
    assert not same_span([x, y], [x])
    assert not same_span([x], [x, y])
    # a non-unit lead, zero elements and duplicates
    assert same_span([x.scaled(q + one), Element.zero(), y],
                     [x + y, x + y, x.scaled(lint(2)) - y])
    assert same_span([], [Element.zero()])


def _random_coefficient(rng, q0):
    c = rng.choice([ONE, -ONE, qp(1), -qp(-1), lint(2), lfrac(3, 2), qp(1) + ONE,
                    qp(2) - ONE, lint(2) * qp(-1) - qp(1), qp(1) - qp(-1)])
    return c if q0 is None else LaurentScalar.from_fraction(c.eval_at(q0))


def _random_elements(rng, q0, words, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.1:
            out.append(Element.zero())
        elif out and rng.random() < 0.15:
            out.append(rng.choice(out).scaled(_random_coefficient(rng, q0)))
        else:
            e = Element.zero()
            for w in rng.sample(words, rng.randint(1, 3)):
                e = e + W(w, _random_coefficient(rng, q0))
            out.append(e)
    return out


def _combinations(rng, q0, elements, count):
    """count random combinations of elements: a list inside their span."""
    out = []
    for _ in range(count):
        e = Element.zero()
        for x in elements:
            if rng.random() < 0.6:
                e = e + x.scaled(_random_coefficient(rng, q0))
        out.append(e)
    return out


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q2"])
def test_same_span_agrees_with_the_dense_rank(q0):
    # a against b: an unrelated list, combinations of a (often the same span,
    # sometimes smaller), and a shuffled with duplicates and zeros added
    rng = random.Random(5357)
    words = [(x, y) for x in "ab" for y in "abc"]
    verdicts = []
    for case in range(100):
        a = _random_elements(rng, q0, words, rng.randint(0, 5))
        kind = case % 3
        if kind == 0:
            b = _random_elements(rng, q0, words, rng.randint(0, 5))
        elif kind == 1:
            b = _combinations(rng, q0, a, rng.randint(len(a), len(a) + 2))
        else:
            b = a + [Element.zero()] + a[:rng.randint(0, len(a))]
            rng.shuffle(b)
        want = _reference_same_span(a, b)
        assert same_span(a, b) == want, (a, b)
        assert same_span(b, a) == want, (a, b)
        verdicts.append(want)
    assert 20 < sum(verdicts) < 80  # both verdicts occur often
