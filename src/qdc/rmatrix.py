"""Quantum superplane covariance and the braid-form R-matrix equivalences.

Each matrix relation (53)-(57) is written once, by _entries, as the 16
unreduced entries of lhs - rhs, and checked in two directions: every entry
reduces to zero modulo the relation's presentation (membership), and the
degree-two components of the entries span the same subspace as the
transcribed relation family (ideal generation), by exact linear algebra.
Spanning is computed over the rule-free copy _free(p) of the presentation,
where the one-form composites are letters, so that the entries and the
family are both purely quadratic.
"""

from __future__ import annotations

from functools import partial

from .errors import QdcError
from .kernel import (
    Element,
    Generator,
    Presentation,
    _accumulate_product,
    format_element,
    graded_product,
    residual,
    substitute,
)
from .linalg import elements_to_rows, row_space_equal
from .parser import eval_ast
from .report import Check, _Record
from .ring import ONE, ZERO, qp

# -- supermatrices --------------------------------------------------------------


class SuperMatrix(_Record):
    """Matrix with Element entries and declared row/column index parities.

    `shift` is the common parity offset of the entries relative to the index
    parities (1 for matrices of differentials and one-forms); entry (i, j)
    must be parity-homogeneous of parity row[i] + col[j] + shift.
    """

    __slots__ = ("entries", "row_parity", "col_parity", "shift")

    def __init__(self, entries, row_parity, col_parity, shift=0):
        self.entries = entries
        self.row_parity = row_parity
        self.col_parity = col_parity
        self.shift = shift
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

    def __matmul__(self, other):
        if self.col_parity != other.row_parity:
            raise QdcError("parity mismatch in matrix product")
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            new = []
            for col in cols:
                acc = {}  # sum over t of row[t] * col[t], in one dict
                for a, b in zip(row, col):
                    _accumulate_product(acc, a.terms, b.terms)
                new.append(Element(acc, _clean=True))
            out.append(new)
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

    def signed(self, include_shift=True):
        """Entrywise sign (-1)^(row + col [+ shift])."""
        out = []
        for i, row in enumerate(self.entries):
            new = []
            for j, e in enumerate(row):
                s = self.row_parity[i] + self.col_parity[j]
                if include_shift:
                    s += self.shift
                new.append(e if s % 2 == 0 else -e)
            out.append(new)
        return SuperMatrix(out, self.row_parity, self.col_parity, self.shift)


def graded_kron(M, N):
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
                    s = (N.row_parity[k] + N.col_parity[l]) * M.col_parity[j]
                    row.append(-e if s % 2 else e)
            rows.append(row)
    return SuperMatrix(rows, row_par, col_par, (M.shift + N.shift) % 2)


def identity_matrix(parities):
    n = len(parities)
    return SuperMatrix(
        [[Element.unit() if i == j else Element.zero() for j in range(n)]
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


def r_hat(cat):
    """The braid-form R-matrix on the graded tensor square, basis ordered
    (1,1), (1,2), (2,1), (2,2), over the catalog's scalars."""
    sc = cat.scalar
    qm = sc(qp(1) - qp(-1))
    return scalar_matrix(
        [
            [sc(qp(1)), ZERO, ZERO, ZERO],
            [ZERO, qm, ONE, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ZERO, sc(-qp(-1))],
        ],
        _TENSOR_PAR,
    )


def r_hat_inverse(cat):
    """R^-1 = R - (q - q^-1) I, from the Hecke relation."""
    qm = cat.scalar(qp(1) - qp(-1))
    R = r_hat(cat)
    I = identity_matrix(_TENSOR_PAR)
    return R - I.scaled(qm)


# -- matrices of generators -------------------------------------------------------

T_NAMES = (("a", "beta"), ("gamma", "d"))
DT_NAMES = (("Da", "Dbeta"), ("Dgamma", "Dd"))
W_NAMES = (("w1", "u"), ("v", "w2"))
# the eight generators of Omega, coordinates then differentials, row by row
OMEGA_NAMES = tuple(g for names in (T_NAMES, DT_NAMES) for row in names for g in row)


def name_matrix(p, names, shift=0):
    """The 2x2 supermatrix, index parities (0, 1), whose entries are p.el of a
    grid of names: generators or defined composites of p."""
    return SuperMatrix([[p.el(n) for n in row] for row in names],
                       (0, 1), (0, 1), shift).validate_parities(p)


# -- the relation families ---------------------------------------------------------

# tag -> (presentation of the entries, transcribed relation family)
_RELATIONS = {
    "53": ("A_glq11", "relations_2"),
    "54": ("Omega", "dT_relations"),
    "55": ("Omega", "relations_17"),
    "56": ("Omega_loc", "T_forms"),
    "57": ("Omega_loc", "forms"),
}


def _entries(eq, p, cat):
    """The 16 unreduced entries of lhs - rhs of matrix relation eq over p,
    row by row."""
    I2 = identity_matrix((0, 1))
    R = r_hat(cat)

    def legs(names, shift):
        M = name_matrix(p, names, shift)
        return graded_kron(M, I2), graded_kron(I2, M)

    if eq == "53":
        T1, T2 = legs(T_NAMES, 0)
        diff = R @ T1 @ T2 - T1 @ T2 @ R
    elif eq == "54":
        T1, T2 = legs(T_NAMES, 0)
        Th1, Th2 = legs(DT_NAMES, 1)
        diff = T1.signed() @ Th2 - R @ Th1 @ T2 @ R
    elif eq == "55":
        Th1, Th2 = legs(DT_NAMES, 1)
        diff = (Th1.signed(include_shift=False) @ Th2
                - R @ Th1.signed() @ Th2 @ R)
    elif eq == "56":
        T1, _ = legs(T_NAMES, 0)
        W1, W2 = legs(W_NAMES, 1)
        diff = T1.signed() @ W2 - R @ W1 @ R @ T1
    else:
        # (57): W1^s R W1 R^-1 = -R W1^s R W1
        W1, _ = legs(W_NAMES, 1)
        diff = (W1.signed() @ R @ W1 @ r_hat_inverse(cat)
                + R @ W1.signed() @ R @ W1)
    return [e for row in diff.entries for e in row]


def _free(p):
    """p without rules, and with the one-form composites it defines as
    letters of their own parity."""
    forms = [Generator(n, p.element_parity(p.defined[n]))
             for row in W_NAMES for n in row if n in p.defined]
    return Presentation(f"{p.name}_free", p.generators + forms, [],
                        validate=False)


def _degree2_basis(elements):
    words = sorted({w for e in elements for w in e.terms})
    if any(len(w) != 2 for w in words):
        raise QdcError("entry equations are not purely quadratic")
    return words


def verify_rtt_family(eq, cat):
    """Membership and spanning checks for one matrix relation tag."""
    if eq not in _RELATIONS:
        raise QdcError(f"unknown matrix relation tag {eq!r}; use 53..57")
    pname, family = _RELATIONS[eq]
    p = cat.presentation(pname)
    out = []
    for k, e in enumerate(_entries(eq, p, cat)):
        i, j = divmod(k, 4)
        out.append(Check(f"rtt{eq}.entry_{i+1}_{j+1}",
                         f"matrix relation entry ({i+1},{j+1}) reduces to zero",
                         f"({eq})", partial(residual, e, p)))

    def fn_span():
        free = _free(p)
        entries = _entries(eq, free, cat)
        rels = [(eval_ast(i.lhs_ast, free) - eval_ast(i.rhs_ast, free)).mapped(cat.scalar)
                for i in cat.family(family)[1]]
        basis = _degree2_basis(entries + rels)
        if not row_space_equal(elements_to_rows(entries, basis, ZERO),
                               elements_to_rows(rels, basis, ZERO)):
            return "degree-2 spans differ"
        return None

    out.append(Check(f"rtt{eq}.spanning",
                     f"entry equations span the {family} relations at degree 2",
                     f"({eq})", fn_span))
    return out


# -- superplane covariance ----------------------------------------------------------


def _point(p, coords, shift=0):
    """A plane point of p as a one-column supermatrix with row parities
    (0, 1); the column parity is what its first coordinate then needs."""
    col = (p.parity_of[coords[0]] + shift) % 2
    return SuperMatrix([[p.el(c)] for c in coords], (0, 1), (col,), shift)


def verify_plane_covariance(cat):
    """Covariance of the superplane and its dual under the supergroup and its
    differentials, the R-matrix form of the plane relations, and the mixed
    coordinate/differential relation."""
    sc = cat.scalar
    out = []

    glq = cat.presentation("A_glq11")
    ahat = cat.presentation("A_hat")
    aq = cat.presentation("A_q")
    aqd = cat.presentation("A_q_dual")

    # the image M*X of a point X of the source plane satisfies each rule of
    # the target plane, its letters taking the image's coordinates in order;
    # M's shift is the parity of its (1,1) entry, whose indices are even
    cases = [
        ("TX_in_Aq", glq, aq, aq, T_NAMES, "(48)"),
        ("TXhat_in_Aq_dual", glq, aqd, aqd, T_NAMES, "(48)"),
        ("ThatX_in_Aq_dual", ahat, aq, aqd, DT_NAMES, "(49)"),
        ("ThatXhat_in_Aq", ahat, aqd, aq, DT_NAMES, "(49)"),
    ]
    for name, mat_p, source, target, mat_names, eqtag in cases:
        combined = graded_product(mat_p, source, f"{mat_p.name}_{source.name}")
        M = name_matrix(combined, mat_names, mat_p.parity_of[mat_names[0][0]])
        img = (M @ _point(combined, tuple(source.index))).validate_parities(combined)
        images = dict(zip(target.index, (e for (e,) in img.entries)))
        for r in target.rules:
            rel_name = "odd_square" if r.pattern[0] == r.pattern[1] else "xy_relation"
            e = substitute(images, Element.word(r.pattern) - r.replacement)
            out.append(Check(f"plane.{name}.{rel_name}",
                             f"{name}: transformed point satisfies {rel_name}",
                             eqtag, partial(residual, e, combined)))

    # the plane relations in R-matrix form (50): X (x) X = q^-1 R (X (x) X)
    R = r_hat(cat)
    XX = graded_kron(_point(aq, ("x", "theta")), _point(aq, ("x", "theta")))
    diff = XX - (R @ XX).scaled(sc(qp(-1)))
    for i, (e,) in enumerate(diff.entries):
        out.append(Check(f"plane.rmatrix_form.component_{i+1}",
                         "plane relations written through the R-matrix", "(50)",
                         partial(residual, e, aq)))

    # the mixed coordinate/differential components (52):
    # (-1)^p(i) x_i dx_j = q R (dX (x) X), component 2i + j
    pd = cat.presentation("Planes_diff")
    X, dX = _point(pd, ("x", "theta")), _point(pd, ("Dx", "Dtheta"), shift=1)
    diff = (graded_kron(X.signed(include_shift=False), dX)
            - (R @ graded_kron(dX, X)).scaled(sc(qp(1))))
    for i, (e,) in enumerate(diff.entries):
        out.append(Check(f"plane.mixed.component_{i+1}",
                         "mixed coordinate-differential component", "(52)",
                         partial(residual, e, pd)))
    return out


# -- Hecke and braid ------------------------------------------------------------------


def check_hecke_braid(cat):
    """The quadratic Hecke relation, the eigenvalue multiplicities it forces,
    and the braid relation on the graded tensor cube.  R-hat and the
    identity are parity-even, so every Koszul sign in R12 and R23 is +1 and
    the ungraded tensor product gives the same matrices."""
    R = r_hat(cat)
    I4 = identity_matrix(_TENSOR_PAR)
    qm = cat.scalar(qp(1) - qp(-1))
    glq = cat.presentation("A_glq11")  # to print a scalar entry; any would do

    RR = R @ R
    want = R.scaled(qm) + I4
    out = []
    for i in range(4):
        for j in range(4):
            def fn(i=i, j=j):
                res = RR.entries[i][j] - want.entries[i][j]
                return None if res.is_zero() else format_element(res, glq)
            out.append(Check(f"hecke.entry_{i+1}_{j+1}",
                             "Hecke relation entry", "Hecke", fn))

    def fn_trace():
        # Hecke forces eigenvalues q and -q^-1; the trace fixes the
        # multiplicities at 2 and 2
        tr = ZERO
        for i in range(4):
            e = R.entries[i][i]
            tr = tr + (e.coeff(()) or ZERO)
        expect = cat.scalar((qp(1) + qp(1)) - (qp(-1) + qp(-1)))
        return None if tr == expect else f"trace {tr} != {expect}"

    out.append(Check("hecke.trace_multiplicities",
                     "trace matches eigenvalue multiplicities (2, 2)",
                     "Hecke", fn_trace))

    I2 = identity_matrix((0, 1))
    R12, R23 = graded_kron(R, I2), graded_kron(I2, R)
    lhs = R12 @ R23 @ R12
    rhs = R23 @ R12 @ R23
    holds = all((lhs.entries[i][j] - rhs.entries[i][j]).is_zero()
                for i in range(8) for j in range(8))
    out.append(Check("braid.graded_tensor_cube",
                     "braid relation on the graded tensor cube", "braid",
                     lambda: None if holds else "braid relation fails"))
    return out
