"""Quantum superplane covariance and the braid-form R-matrix equivalences.

Each matrix relation is checked in two directions: every entry reduces to
zero modulo the corresponding presentation (membership), and the degree-two
components of the unreduced entry equations span the same subspace as the
transcribed relation family (ideal generation), by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import get_catalog
from .errors import QdcError
from .kernel import Element, Presentation, format_element, graded_product, normalize
from .linalg import elements_to_rows, row_space_equal
from .parser import eval_ast
from .report import timed_check
from .ring import ONE, ZERO, qp

# -- supermatrices --------------------------------------------------------------


@dataclass
class SuperMatrix:
    """Matrix with Element entries and declared row/column index parities.

    `shift` is the common parity offset of the entries relative to the index
    parities (1 for matrices of differentials and one-forms); entry (i, j)
    must be parity-homogeneous of parity row[i] + col[j] + shift.
    """

    entries: list
    row_parity: tuple
    col_parity: tuple
    shift: int = 0

    def __post_init__(self):
        if len(self.entries) != len(self.row_parity):
            raise QdcError("row count does not match row parities")
        for row in self.entries:
            if len(row) != len(self.col_parity):
                raise QdcError("column count does not match column parities")

    def validate_parities(self, p):
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                par = p.element_parity(e)
                want = (self.row_parity[i] + self.col_parity[j] + self.shift) % 2
                if par is not None and par != want:
                    raise QdcError(
                        f"entry ({i},{j}) has parity {par}, expected {want}"
                    )
        return self

    def entry(self, i, j):
        return self.entries[i][j]

    def __matmul__(self, other):
        if self.col_parity != other.row_parity:
            raise QdcError("parity mismatch in matrix product")
        n, m, k = len(self.entries), len(other.entries[0]), len(other.entries)
        out = [
            [
                _sum(self.entries[i][t] * other.entries[t][j] for t in range(k))
                for j in range(m)
            ]
            for i in range(n)
        ]
        return SuperMatrix(out, self.row_parity, other.col_parity,
                           (self.shift + other.shift) % 2)

    def __sub__(self, other):
        out = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return SuperMatrix(out, self.row_parity, self.col_parity, self.shift)

    def __add__(self, other):
        out = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return SuperMatrix(out, self.row_parity, self.col_parity, self.shift)

    def scaled(self, coeff):
        return SuperMatrix(
            [[e.scaled(coeff) for e in row] for row in self.entries],
            self.row_parity, self.col_parity, self.shift)

    def signed(self, include_shift=True, extra=0):
        """Entrywise sign (-1)^(row + col [+ shift] + extra)."""
        out = []
        for i, row in enumerate(self.entries):
            new = []
            for j, e in enumerate(row):
                s = self.row_parity[i] + self.col_parity[j] + extra
                if include_shift:
                    s += self.shift
                new.append(e if s % 2 == 0 else -e)
            out.append(new)
        return SuperMatrix(out, self.row_parity, self.col_parity, self.shift)


def _sum(items):
    acc = Element.zero()
    for x in items:
        acc = acc + x
    return acc


def graded_kron(M, N, graded=True):
    """Tensor product of supermatrices with the Koszul sign
    (-1)^((row_N(k) + col_N(l)) * col_M(j)) on entry ((i,k),(j,l)), so that
    matrix multiplication of the results reproduces the graded product."""
    rows = []
    row_par = tuple(
        (pi + pk) % 2 for pi in M.row_parity for pk in N.row_parity
    )
    col_par = tuple(
        (pj + pl) % 2 for pj in M.col_parity for pl in N.col_parity
    )
    for i in range(len(M.entries)):
        for k in range(len(N.entries)):
            row = []
            for j in range(len(M.entries[0])):
                for l in range(len(N.entries[0])):
                    e = M.entries[i][j] * N.entries[k][l]
                    if graded:
                        s = (N.row_parity[k] + N.col_parity[l]) * M.col_parity[j]
                        if s % 2:
                            e = -e
                    row.append(e)
            rows.append(row)
    return SuperMatrix(rows, row_par, col_par, (M.shift + N.shift) % 2)


def identity_matrix(parities, one=ONE):
    n = len(parities)
    return SuperMatrix(
        [[Element.unit(one) if i == j else Element.zero() for j in range(n)]
         for i in range(n)],
        tuple(parities), tuple(parities), 0)


def scalar_matrix(rows, parities):
    """SuperMatrix from a grid of scalar entries."""
    ents = [
        [Element.unit(c) if c else Element.zero() for c in row]
        for row in rows
    ]
    return SuperMatrix(ents, tuple(parities), tuple(parities), 0)


_TENSOR_PAR = (0, 1, 1, 0)


def r_hat(cat=None):
    """The braid-form R-matrix on the graded tensor square, basis ordered
    (1,1), (1,2), (2,1), (2,2)."""
    sc = cat.scalar if cat is not None else (lambda s: s)
    qm = sc(qp(1) - qp(-1))
    # a zero entry is left out of the matrix, whatever its scalar type
    return scalar_matrix(
        [
            [sc(qp(1)), ZERO, ZERO, ZERO],
            [ZERO, qm, sc(ONE), ZERO],
            [ZERO, sc(ONE), ZERO, ZERO],
            [ZERO, ZERO, ZERO, sc(-qp(-1))],
        ],
        _TENSOR_PAR,
    )


def r_hat_inverse(cat=None):
    """R^-1 = R - (q - q^-1) I, from the Hecke relation."""
    sc = cat.scalar if cat is not None else (lambda s: s)
    qm = sc(qp(1) - qp(-1))
    R = r_hat(cat)
    I = identity_matrix(_TENSOR_PAR, sc(ONE))
    return R - I.scaled(qm)


# -- matrices of generators -------------------------------------------------------


def _matrix_T(p):
    return SuperMatrix(
        [[p.el("a"), p.el("beta")], [p.el("gamma"), p.el("d")]],
        (0, 1), (0, 1), 0).validate_parities(p)


def _matrix_That(p):
    return SuperMatrix(
        [[p.el("Da"), p.el("Dbeta")], [p.el("Dgamma"), p.el("Dd")]],
        (0, 1), (0, 1), 1).validate_parities(p)


def _matrix_W(p):
    return SuperMatrix(
        [[p.defined["w1"], p.defined["u"]], [p.defined["v"], p.defined["w2"]]],
        (0, 1), (0, 1), 1).validate_parities(p)


def _matrix_W_abstract(p):
    return SuperMatrix(
        [[p.el("w1"), p.el("u")], [p.el("v"), p.el("w2")]],
        (0, 1), (0, 1), 1)


# -- the relation families ---------------------------------------------------------


def _family_spec(eq, cat):
    """LHS/RHS matrix builders and the span data for one matrix relation."""
    I2 = identity_matrix((0, 1), cat.scalar(ONE))
    R = r_hat(cat)

    if eq == "53":
        p = cat.presentation("A_glq11")
        T1 = graded_kron(_matrix_T(p), I2)
        T2 = graded_kron(I2, _matrix_T(p))
        lhs, rhs = R @ T1 @ T2, T1 @ T2 @ R
        return p, lhs, rhs, "relations_2", p
    if eq == "54":
        p = cat.presentation("Omega")
        T1 = graded_kron(_matrix_T(p), I2)
        T2 = graded_kron(I2, _matrix_T(p))
        Th1 = graded_kron(_matrix_That(p), I2)
        Th2 = graded_kron(I2, _matrix_That(p))
        lhs = T1.signed() @ Th2
        rhs = R @ Th1 @ T2 @ R
        return p, lhs, rhs, "dT_relations", p
    if eq == "55":
        p = cat.presentation("Omega")
        Th1 = graded_kron(_matrix_That(p), I2)
        Th2 = graded_kron(I2, _matrix_That(p))
        lhs = Th1.signed(include_shift=False) @ Th2
        rhs = R @ Th1.signed(include_shift=True) @ Th2 @ R
        span_p = cat.presentation("A_hat")
        return p, lhs, rhs, "relations_17", span_p
    if eq == "56":
        p = cat.presentation("Omega_loc")
        T1 = graded_kron(_matrix_T(p), I2)
        W1 = graded_kron(_matrix_W(p), I2)
        W2 = graded_kron(I2, _matrix_W(p))
        lhs = T1.signed() @ W2
        rhs = R @ W1 @ R @ T1
        return p, lhs, rhs, "T_forms", None
    if eq == "57":
        p = cat.presentation("Omega_loc")
        W1 = graded_kron(_matrix_W(p), I2)
        Rinv = r_hat_inverse(cat)
        lhs = W1.signed() @ R @ W1 @ Rinv
        rhs = R @ W1.signed() @ R @ W1
        return p, lhs + rhs, None, "forms", None
    raise QdcError(f"unknown matrix relation tag {eq!r}; use 53..57")


def _abstract_presentation(cat, eq):
    """Free presentations used for the spanning direction of 56/57."""
    from .kernel import Generator

    loc = cat.presentation("Omega_loc")
    if eq == "56":
        gens = [loc.gen(n) for n in ("a", "beta", "gamma", "d")]
        gens += [
            Generator("w1", 1), Generator("u", 0),
            Generator("v", 0), Generator("w2", 1),
        ]
        return Presentation("TForms_free", gens, [], validate=False,
                            scalar_one=loc.scalar_one)
    gens = [
        Generator("u", 0), Generator("v", 0),
        Generator("w1", 1), Generator("w2", 1),
    ]
    return Presentation("Forms_free", gens, [], validate=False,
                        scalar_one=loc.scalar_one)


def _entry_elements(eq, cat, reduce_=True):
    """The 16 entry equations of a matrix relation, reduced or free."""
    if eq in ("56", "57") and not reduce_:
        free = _abstract_presentation(cat, eq)
        I2 = identity_matrix((0, 1), free.scalar_one)
        R = r_hat(cat)
        W = _matrix_W_abstract(free)
        if eq == "56":
            T1 = graded_kron(_matrix_T(free), I2)
            W1 = graded_kron(W, I2)
            W2 = graded_kron(I2, W)
            diff = T1.signed() @ W2 - (R @ W1 @ R @ T1)
        else:
            W1 = graded_kron(W, I2)
            diff = (W1.signed() @ R @ W1 @ r_hat_inverse(cat)
                    + R @ W1.signed() @ R @ W1)
        return free, [e for row in diff.entries for e in row]
    p, lhs, rhs, _, _ = _family_spec(eq, cat)
    diff = lhs - rhs if rhs is not None else lhs
    return p, [e for row in diff.entries for e in row]


def _degree2_basis(elements):
    words = sorted({w for e in elements for w in e.terms})
    if any(len(w) != 2 for w in words):
        raise QdcError("entry equations are not purely quadratic")
    return words


def verify_rtt_family(eq, cat=None):
    """Membership and spanning checks for one matrix relation tag."""
    cat = cat or get_catalog()
    p, lhs, rhs, family, span_p = _family_spec(eq, cat)
    out = []
    diff = lhs - rhs if rhs is not None else lhs
    for i, row in enumerate(diff.entries):
        for j, e in enumerate(row):
            def fn(e=e):
                r = normalize(e, p)
                return None if r.is_zero() else format_element(r, p)
            out.append(timed_check(
                f"rtt{eq}.entry_{i+1}_{j+1}",
                f"matrix relation entry ({i+1},{j+1}) reduces to zero",
                f"({eq})", fn))

    def fn_span():
        free_p, entries = _entry_elements(eq, cat, reduce_=False)
        fam_p, idents = cat.find_family(family)
        if span_p is not None:
            rel_elements = [i.lhs - i.rhs for i in idents]
        else:
            rel_elements = [
                Element({w: cat.scalar(c) for w, c in e.terms.items()})
                for e in (
                    eval_ast(i.lhs_ast, free_p) - eval_ast(i.rhs_ast, free_p)
                    for i in idents
                )
            ]
        basis = _degree2_basis(entries + rel_elements)
        zero = cat.scalar(ZERO)
        rows_a = elements_to_rows(entries, basis, zero)
        rows_b = elements_to_rows(rel_elements, basis, zero)
        if not row_space_equal(rows_a, rows_b):
            return "degree-2 spans differ"
        return None

    out.append(timed_check(
        f"rtt{eq}.spanning",
        f"entry equations span the {family} relations at degree 2",
        f"({eq})", fn_span))
    return out


# -- superplane covariance ----------------------------------------------------------


@dataclass
class SuperVector:
    """Column of Elements with declared index parities."""

    entries: list
    parities: tuple

    def validate_parities(self, p, shift=0):
        for i, e in enumerate(self.entries):
            par = p.element_parity(e)
            want = (self.parities[i] + shift) % 2
            if par is not None and par != want:
                raise QdcError(f"vector entry {i} has parity {par}, expected {want}")
        return self


def apply_matrix(rows, X, shift=0):
    """Matrix (grid of Elements) times column vector in a shared algebra."""
    n = len(X.entries)
    return SuperVector(
        [_sum(rows[i][j] * X.entries[j] for j in range(n))
         for i in range(len(rows))],
        tuple((p + shift) % 2 for p in X.parities),
    )


def verify_plane_covariance(cat=None):
    """Covariance of the superplane and its dual under the supergroup and its
    differentials, the R-matrix form of the plane relations, and the mixed
    coordinate/differential relation."""
    cat = cat or get_catalog()
    sc = cat.scalar
    out = []

    glq = cat.presentation("A_glq11")
    ahat = cat.presentation("A_hat")
    aq = cat.presentation("A_q")
    aqd = cat.presentation("A_q_dual")

    def plane_rels(x, th, p):
        """x'theta' - q theta'x' and theta'^2 for a candidate plane point."""
        return [
            ("xy_relation", x * th - (th * x).scaled(sc(qp(1)))),
            ("odd_square", th * th),
        ]

    def dual_rels(ph, y, p):
        return [
            ("odd_square", ph * ph),
            ("xy_relation", ph * y - (y * ph).scaled(sc(qp(-1)))),
        ]

    cases = [
        ("TX_in_Aq", glq, aq, ("x", "theta"), 0,
         (("a", "beta"), ("gamma", "d")), plane_rels, "(48)"),
        ("TXhat_in_Aq_dual", glq, aqd, ("phi", "y"), 0,
         (("a", "beta"), ("gamma", "d")), dual_rels, "(48)"),
        ("ThatX_in_Aq_dual", ahat, aq, ("x", "theta"), 1,
         (("Da", "Dbeta"), ("Dgamma", "Dd")), dual_rels, "(49)"),
        ("ThatXhat_in_Aq", ahat, aqd, ("phi", "y"), 1,
         (("Da", "Dbeta"), ("Dgamma", "Dd")), plane_rels, "(49)"),
    ]
    for name, mat_p, plane_p, coords, shift, mat_names, rels, eqtag in cases:
        combined = graded_product(mat_p, plane_p, f"{mat_p.name}_{plane_p.name}")
        M = [[combined.el(g) for g in row] for row in mat_names]
        X = SuperVector([combined.el(c) for c in coords],
                        tuple(combined.parity_of[c] for c in coords))
        img = apply_matrix(M, X, shift=shift).validate_parities(combined)
        for rel_name, e in rels(img.entries[0], img.entries[1], combined):
            def fn(e=e, combined=combined):
                r = normalize(e, combined)
                return None if r.is_zero() else format_element(r, combined)
            out.append(timed_check(f"plane.{name}.{rel_name}",
                                   f"{name}: transformed point satisfies "
                                   f"{rel_name}", eqtag, fn))

    # the plane relations in R-matrix form: X (x) X = q^-1 R (X (x) X)
    R = r_hat(cat)
    X = [aq.el("x"), aq.el("theta")]
    XX = [X[0] * X[0], X[0] * X[1], X[1] * X[0], X[1] * X[1]]
    for i in range(4):
        rhs = Element.zero()
        for j in range(4):
            c = R.entries[i][j]
            if c:
                rhs = rhs + c * XX[j]

        def fn(i=i, rhs=rhs):
            res = normalize(XX[i] - rhs.scaled(sc(qp(-1))), aq)
            return None if res.is_zero() else format_element(res, aq)

        out.append(timed_check(f"plane.rmatrix_form.component_{i+1}",
                               "plane relations written through the R-matrix",
                               "(50)", fn))

    # mixed coordinate/differential components
    pd = cat.presentation("Planes_diff")
    Xp = [pd.el("x"), pd.el("theta")]
    Xh = [pd.el("Dx"), pd.el("Dtheta")]
    parities = (0, 1)
    for i in range(2):
        for j in range(2):
            comp = 2 * i + j
            lhs = Xp[i] * Xh[j]
            if parities[i]:
                lhs = -lhs
            rhs = Element.zero()
            for k in range(2):
                for l in range(2):
                    c = R.entries[comp][2 * k + l]
                    if c:
                        rhs = rhs + (c * Xh[k] * Xp[l]).scaled(sc(qp(1)))

            def fn(lhs=lhs, rhs=rhs):
                res = normalize(lhs - rhs, pd)
                return None if res.is_zero() else format_element(res, pd)

            out.append(timed_check(
                f"plane.mixed.component_{comp+1}",
                "mixed coordinate-differential component", "(52)", fn))
    return out


# -- Hecke and braid ------------------------------------------------------------------


@dataclass
class HeckeBraidReport:
    checks: list = field(default_factory=list)
    braid_conventions: list = field(default_factory=list)


def check_hecke_braid(cat=None):
    """The quadratic Hecke relation, the eigenvalue multiplicities it forces,
    and the braid relation on the graded tensor cube; reports which tensor
    sign convention satisfies the braid identity."""
    rep = HeckeBraidReport()
    cat = cat or get_catalog()
    R = r_hat(cat)
    I4 = identity_matrix(_TENSOR_PAR, cat.scalar(ONE))
    qm = cat.scalar(qp(1) - qp(-1))

    RR = R @ R
    want = R.scaled(qm) + I4
    for i in range(4):
        for j in range(4):
            def fn(i=i, j=j):
                res = RR.entries[i][j] - want.entries[i][j]
                return None if res.is_zero() else repr(res)
            rep.checks.append(timed_check(
                f"hecke.entry_{i+1}_{j+1}",
                "Hecke relation entry", "Hecke", fn))

    def fn_trace():
        # Hecke forces eigenvalues q and -q^-1; the trace fixes the
        # multiplicities at 2 and 2
        zero = cat.scalar(ZERO)
        tr = zero
        for i in range(4):
            e = R.entries[i][i]
            tr = tr + (e.coeff(()) or zero)
        expect = cat.scalar((qp(1) + qp(1)) - (qp(-1) + qp(-1)))
        return None if tr == expect else f"trace {tr} != {expect}"

    rep.checks.append(timed_check(
        "hecke.trace_multiplicities",
        "trace matches eigenvalue multiplicities (2, 2)", "Hecke", fn_trace))

    I2 = identity_matrix((0, 1), cat.scalar(ONE))
    for label, graded in (("graded", True), ("ungraded", False)):
        R12 = graded_kron(R, I2, graded=graded)
        R23 = graded_kron(I2, R, graded=graded)
        lhs = R12 @ R23 @ R12
        rhs = R23 @ R12 @ R23
        ok = all(
            (lhs.entries[i][j] - rhs.entries[i][j]).is_zero()
            for i in range(8) for j in range(8)
        )
        if ok:
            rep.braid_conventions.append(label)

    def fn_braid():
        if "graded" in rep.braid_conventions:
            return None
        return f"braid fails under the graded convention; holds for {rep.braid_conventions}"

    rep.checks.append(timed_check(
        "braid.graded_tensor_cube",
        "braid relation on the graded tensor cube", "braid", fn_braid))
    return rep
