"""The exterior differential, the consistency ansatz, and the one-form layer.

Everything here is verification-side: the operations reduce claimed identities
to residuals in the localized differential algebra and report exact zeros.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import cache, partial
from itertools import chain, takewhile

from .errors import QdcError
from .kernel import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    apply_derivation,
    branches,
    format_element,
    normalize,
    residual,
    substitute,
)
from .parser import parse_expression, print_ast
from .report import Check
from .ring import ONE, ZERO, LaurentScalar, qp
from .rmatrix import DT_NAMES, OMEGA_NAMES, T_NAMES, W_NAMES, name_matrix

# -- exterior differential ----------------------------------------------------


def exterior_derivation(cat):
    """Images of the localized generators under the exterior differential:
    each coordinate goes to its differential and each differential to 0.

    On formal inverses the image is forced by the Leibniz rule applied to
    g*g_inv = 1, giving d(g_inv) = -g_inv*(dg)*g_inv; so d(Dgamma_inv) = 0.
    """
    loc = cat.presentation("Omega_loc")
    coords, diffs = tuple(chain(*T_NAMES)), tuple(chain(*DT_NAMES))
    images = {g: Element.word((dg,)) for g, dg in zip(coords, diffs)}
    images.update((dg, Element.zero()) for dg in diffs)
    for u in loc.generators:
        if u.inverse_of:
            x = Element.word((u.name,))
            images[u.name] = -(x * images[u.inverse_of] * x)
    return images, loc


def exterior_d(e, cat):
    """Exterior differential of an element of the localized algebra,
    unreduced."""
    d, loc = exterior_derivation(cat)
    return apply_derivation(d, e, loc)


# the d^2 = 0 sample: how many random words, their longest length, the seed
_D_SQUARED_WORDS = 100
_D_SQUARED_MAX_DEGREE = 5
_D_SQUARED_SEED = 20260809


def d_squared_checks(cat):
    """d^2 = 0 on every generator and on random words."""
    d, loc = exterior_derivation(cat)
    rng = random.Random(_D_SQUARED_SEED)
    names = [g.name for g in loc.generators]

    def fn(word):
        once = apply_derivation(d, Element.word(word), loc)
        return residual(apply_derivation(d, once, loc), loc)

    out = [Check(f"d_squared.gen_{g}", f"d(d({g})) = 0", "(12)", partial(fn, (g,)))
           for g in OMEGA_NAMES]
    for i in range(_D_SQUARED_WORDS):
        k = rng.randint(1, _D_SQUARED_MAX_DEGREE)
        word = tuple(rng.choice(names) for _ in range(k))
        out.append(Check(f"d_squared.word_{i:03d}", f"d(d({'*'.join(word)})) = 0",
                         "(12)", partial(fn, word)))
    return out


def relations(cat, *names):
    """(presentation name, rule, pattern - replacement) for every rule of the
    named presentations; of Omega only the mixed relations (24), because its
    other rules are those of A_glq11 and A_hat again."""
    for pname in names:
        for r in cat.presentation(pname).rules:
            if pname != "Omega" or r.eq.startswith("(24"):
                yield pname, r, Element.word(r.pattern) - r.replacement


def d_on_relations_checks(cat):
    """d applied to every coordinate relation and every mixed relation
    reduces to zero: the consistency statements behind the calculus."""
    d, loc = exterior_derivation(cat)
    return [Check(f"d_consistency.{pname}.{'_'.join(r.pattern)}",
                  f"d({'*'.join(r.pattern)} - ...) = 0", r.eq,
                  lambda rel=rel: residual(apply_derivation(d, rel, loc), loc))
            for pname, r, rel in relations(cat, "A_glq11", "Omega")]


# -- the consistency ansatz ---------------------------------------------------


@dataclass(frozen=True)
class Ansatz:
    """Candidate coefficients for the mixed relations on the a-beta block."""

    A: LaurentScalar
    B: LaurentScalar
    F11: LaurentScalar
    F12: LaurentScalar
    F21: LaurentScalar
    F22: LaurentScalar


def paper_branch():
    """The selected solution: F22 = 0, A = q^2, reproducing the mixed rules."""
    return Ansatz(A=qp(2), B=ONE, F11=qp(1), F12=qp(2) - ONE,
                  F21=-qp(1), F22=ZERO)


def alternative_branch(A):
    """The other root of the quadratic conditions: F12 = 0, F22 = 1 - A."""
    return Ansatz(A=A, B=ONE, F11=qp(1) * A, F12=ZERO,
                  F21=-qp(-1), F22=ONE - A)


_UNKNOWNS = tuple(f.name for f in fields(Ansatz))
_AB_GENS = (("Da", 1), ("Dbeta", 0), ("a", 0), ("beta", 1))


@cache
def _consistency_residuals():
    """The ansatz presentation, built once, and the residuals of the four
    consistency conditions: d applied to both defining relations, reduced,
    and for the two products of the relation with a differential, the
    difference of the word's two first reductions (a single deterministic
    reduction would collapse them trivially).  The a-beta block,
    differentials first, comes after the six unknowns: even generators that
    commute with every other one, so they lead every normal word.  Each mixed
    coefficient is its unknown's letter, so those rules grow the degree."""
    gens = [Generator(u, 0) for u in _UNKNOWNS]
    gens += [Generator(g, parity) for g, parity in _AB_GENS]
    E = Element.word

    def mixed(pattern, *words):
        return RewriteRule(pattern, sum(map(E, words), Element.zero()), localized=True)

    rules = [
        mixed(("a", "Da"), ("A", "Da", "a")),
        mixed(("a", "Dbeta"), ("F11", "Dbeta", "a"), ("F12", "Da", "beta")),
        mixed(("beta", "Da"), ("F21", "Da", "beta"), ("F22", "Dbeta", "a")),
        mixed(("beta", "Dbeta"), ("B", "Dbeta", "beta")),
        RewriteRule(("beta", "a"), E(("a", "beta"), qp(-1))),
        RewriteRule(("beta", "beta"), Element.zero()),
        RewriteRule(("Dbeta", "Da"), E(("Da", "Dbeta"), qp(1))),
        RewriteRule(("Da", "Da"), Element.zero()),
    ]
    names = [g.name for g in gens]
    rules += [RewriteRule((y, x), E((x, y)))
              for i, x in enumerate(_UNKNOWNS) for y in names[i + 1:]]
    p = Presentation("Omega_ab", gens, rules)
    out = [normalize(parse_expression(text, p), p)
           for text in ("Da*beta + a*Dbeta - q*Dbeta*a + q*beta*Da",
                        "Dbeta*beta - beta*Dbeta")]
    for word in (("beta", "a", "Da"), ("beta", "a", "Dbeta")):
        first, second = branches(word, p)
        out.append(second - first)
    return p, tuple(out)


def _at(values, e):
    """e with values, {unknown: Element}, put for the unknowns.  On a normal
    form of the ansatz presentation this gives the normal form at those
    coefficients, exactly: the unknowns commute with every letter, so which
    rule the fold applies where never depends on them."""
    images = {g: Element.word((g,)) for g, _ in _AB_GENS}
    return substitute({**images, **values}, e)


def ansatz_residuals(z):
    """Residuals of the four consistency conditions at concrete coefficients;
    all zero exactly when the candidate rules define a consistent calculus;
    the symbolic residuals at z's values."""
    values = {u: Element.unit(c) for u, c in vars(z).items()}
    return [_at(values, r) for r in _consistency_residuals()[1]]


def _monic(e, p):
    """e scaled so that its last word in the term order has coefficient 1,
    when that coefficient is a unit: constraints that differ by a unit
    factor become equal."""
    lead = e.terms[max(e.terms, key=p.word_key)]
    return e.scaled(lead.unit_inverse()) if lead.is_unit() else e


@dataclass
class SolveReport:
    linear: list
    quadratic: list
    presentation: Presentation  # the constraints' words are its unknowns
    branch_f22_zero: Ansatz
    branch_alternative: Ansatz
    free_parameters: dict
    selected: str


EXPECTED_LINEAR = ("F11 + q*F22 - q", "F12 + q*F21 + 1", "B - 1")
EXPECTED_QUADRATIC = ("F12*F22", "F11*F22 - q*A*F22")


def solve_ansatz():
    """Reduce the consistency conditions with the unknowns as generators and
    read off the constraint polynomials and the two solution branches.
    Symbolic by design, so it takes no catalog: the constraints are
    polynomials in q.

    A residual's normal words are a product of unknowns times a word of the
    block; the constraint of block word w is the sum of the residual's terms
    ending in w, with w dropped, kept once up to a unit factor."""
    p, residuals = _consistency_residuals()
    linear, quadratic = [], []
    for res in residuals:
        by_block = {}
        for word, c in res.terms.items():
            k = sum(g in _UNKNOWNS for g in word)
            by_block.setdefault(word[k:], {})[word[:k]] = c
        for terms in by_block.values():
            constraint = _monic(Element(terms), p)
            bucket = linear if max(map(len, terms)) <= 1 else quadratic
            if constraint not in bucket:
                bucket.append(constraint)
    return SolveReport(
        linear=linear,
        quadratic=quadratic,
        presentation=p,
        branch_f22_zero=paper_branch(),
        branch_alternative=alternative_branch(qp(2)),
        free_parameters={
            "F22 = 0 branch": "A free (q^2 selected), F21 free with "
                              "F12 = -1 - q*F21 (F21 = -q selected)",
            "alternative branch": "A free; F11 = q*A, F22 = 1 - A, F12 = 0",
        },
        selected="F22 = 0 with A = q^2",
    )


def ansatz_checks(cat):
    """Suite-facing wrapper: constraints match the stated ones, the selected
    branch reproduces the mixed relations, residuals behave."""
    rep = solve_ansatz()
    p = rep.presentation

    def match(expected_texts, got):
        want = [_monic(normalize(parse_expression(t, p), p), p) for t in expected_texts]
        missing = [t for w, t in zip(want, expected_texts) if w not in got]
        extra = len(got) - (len(want) - len(missing))
        if missing or extra:
            return (f"missing {missing}, {extra} unexpected of "
                    f"{[format_element(c, p) for c in got]}")
        return None

    def fn_branch_rules():
        # the first four rules of the ansatz are the mixed rules it solves for
        values = {u: Element.unit(cat.scalar(c))
                  for u, c in vars(rep.branch_f22_zero).items()}
        made = {"_".join(r.pattern): _at(values, Element.word(r.pattern) - r.replacement)
                for r in p.rules[:4]}
        for ident in cat.family("dT_relations")[1]:
            if ident.name in made:
                if made[ident.name] != ident.lhs - ident.rhs:
                    return f"branch rule {ident.name} differs from the stated relation"
                del made[ident.name]
        return None if not made else f"unmatched {sorted(made)}"

    def residual_check(z, expect_zero):
        def fn():
            res = ansatz_residuals(z)
            bad = [r for r in res if not r.is_zero()]
            if expect_zero and bad:
                return f"{len(bad)} nonzero residuals"
            if not expect_zero and not bad:
                return "residuals vanished on the control"
            return None
        return fn

    control = Ansatz(A=ONE, B=ONE, F11=ONE, F12=ZERO, F21=ZERO, F22=ZERO)
    return [
        Check("ansatz.linear_constraints", "linear consistency conditions as stated",
              "(22)", lambda: match(EXPECTED_LINEAR, rep.linear)),
        Check("ansatz.quadratic_constraints",
              "quadratic consistency conditions as stated", "(23)",
              lambda: match(EXPECTED_QUADRATIC, rep.quadratic)),
        Check("ansatz.branch_reproduces_mixed_rules",
              "F22 = 0, A = q^2 branch gives the four stated mixed relations "
              "verbatim", "(24a)", fn_branch_rules),
        Check("ansatz.residuals_selected_branch",
              "all four residuals vanish on the selected branch", "(20)-(21)",
              residual_check(rep.branch_f22_zero, True)),
        Check("ansatz.residuals_alternative_branch",
              "all four residuals vanish on the alternative branch", "(23)",
              residual_check(rep.branch_alternative, True)),
        Check("ansatz.residuals_perturbed_control",
              "perturbed coefficients leave a nonzero residual", "(22)",
              residual_check(control, False)),
    ]


def form_parity_checks(cat):
    """The one-form composites w1 and w2 are odd, u and v even."""
    loc = cat.presentation("Omega_loc")

    def fn(name, want):
        got = loc.element_parity(normalize(loc.defined[name], loc))
        return None if got == want else f"parity {got}, expected {want}"

    return [Check(f"forms.parity_{name}",
                  f"one-form composite {name} has parity {want}", "(32)",
                  partial(fn, name, want))
            for name, want in (("w1", 1), ("u", 0), ("w2", 1), ("v", 0))]


# -- identity families ---------------------------------------------------------


def verify_family(family, cat):
    """Reduce every identity of the named family to its residual."""
    p, idents = cat.family(family)
    return [Check(f"{family}.{ident.name}",
                  f"{print_ast(ident.lhs_ast)} = {print_ast(ident.rhs_ast)}",
                  ident.eq, lambda ident=ident: residual(ident.lhs - ident.rhs, p))
            for ident in idents]


# -- structure equations --------------------------------------------------------


def _two_forms(one_form):
    """The two-forms (39) that the structure equation states for dW,
    W = [[w1, u], [v, w2]], as a matrix; one_form(name) is that one-form."""
    w1, u, v, w2 = (one_form(n) for row in W_NAMES for n in row)
    return [[w1 * w1 - u * v, w1 * u - u * w2],
            [w2 * v - v * w1, w2 * w2 - v * u]]


def verify_structure_equations(cat):
    """Three layers: the two-form differentials of the one-form composites,
    the matrix form of the structure equation, and the reduced Cartan-Maurer
    matrix obtained from the one-form commutation relations."""
    loc = cat.presentation("Omega_loc")
    forms = cat.presentation("Forms")
    out = []

    # layer 1: d of each composite equals the stated two-form, in Omega_loc;
    # layer 2: the matrix identity dW = s3*W*s3*W, entrywise over the forms,
    # where s3*W*s3 is W with its odd-index entries negated
    leibniz = _two_forms(loc.el)
    W = name_matrix(forms, W_NAMES, 1)
    rhs_matrix = (W.signed(include_shift=False) @ W).entries
    stated = _two_forms(forms.el)
    for i in range(2):
        for j in range(2):
            name = W_NAMES[i][j]
            out.append(Check(
                f"structure.leibniz_d{name}", f"d{name} from the graded Leibniz rule",
                "(39)", lambda form=loc.el(name), rhs=leibniz[i][j]: residual(
                    exterior_d(form, cat) - rhs, loc)))
            out.append(Check(
                f"structure.matrix_{i+1}{j+1}", "structure equation matrix entry",
                "(38)", lambda i=i, j=j: residual(
                    stated[i][j] - rhs_matrix[i][j], forms)))

    # layer 3: reduce the two-forms with the one-form relations
    out.extend(verify_family("cartan_maurer", cat))
    return out


# -- localized-rule validation ---------------------------------------------------


def _inverses_in(loc, *words):
    """Each formal inverse of loc that the words hold, mapped to the
    generator it inverts."""
    inverse_of = {g.name: g.inverse_of for g in loc.generators if g.inverse_of}
    return {g: inverse_of[g] for w in words for g in w if g in inverse_of}


def _clearing_words(rule, inverses):
    """The words that clear the pattern's leading and trailing inverses: the
    prefix cancels right to left, the suffix left to right."""
    def run(letters):
        return [inverses[g] for g in takewhile(inverses.__contains__, letters)]

    return tuple(reversed(run(rule.pattern))), tuple(run(reversed(rule.pattern)))


def verify_localized_rule(rule, cat):
    """Validate a localized rule by clearing its inverses and reducing both
    sides in a system of already-established rules; None when it holds, and
    otherwise the reason it fails.

    Cancellation pairs g*g_inv -> 1 are definitional for the localization and
    always pass.  Every other rule is multiplied on the left/right by the
    inverted generators, then both sides are reduced using the inverse-free
    rules, the cancellations, and the localized rules listed before it in
    the catalog document; the rule passes exactly when the two normal forms
    agree.
    """
    loc = cat.presentation("Omega_loc")
    inverses = _inverses_in(loc, rule.pattern, *rule.replacement.terms)
    if not inverses:
        raise QdcError("verify_localized_rule needs a rule involving an inverse")

    if _is_cancellation(rule, inverses):
        return None

    # established: the rules listed before this one, then those free of
    # inverses and the cancellations
    idx = loc.rules.index(rule) if rule in loc.rules else len(loc.rules)
    kept = []
    for i, r in enumerate(loc.rules):
        used = {} if i < idx else _inverses_in(loc, r.pattern, *r.replacement.terms)
        if r.pattern != rule.pattern and (not used or _is_cancellation(r, used)):
            kept.append(r)
    established = Presentation("Omega_loc_partial", loc.generators, kept,
                               validate=False)

    left, right = _clearing_words(rule, inverses)
    lw = Element.word(left)
    rw = Element.word(right)
    lhs = normalize(lw * Element.word(rule.pattern) * rw, established)
    rhs = normalize(lw * rule.replacement * rw, established)
    if lhs == rhs:
        return None
    if _inverses_in(loc, *lhs.terms, *rhs.terms):
        return "uncleared inverse after reduction; rule rejected"
    return (f"cleared forms differ: {format_element(lhs, established)} vs "
            f"{format_element(rhs, established)}")


def _is_cancellation(rule, inverses):
    """Whether rule is g*g_inv -> 1; inverses maps each formal inverse in
    its pattern to the generator it inverts."""
    x, y = rule.pattern
    pair = inverses.get(x) == y or inverses.get(y) == x
    return pair and rule.replacement == Element.unit()


def localized_rule_checks(cat):
    """The clearing check of every localized rule that involves an inverse."""
    loc = cat.presentation("Omega_loc")
    return [Check(f"localized.{'_'.join(r.pattern)}",
                  f"clearing check for {'*'.join(r.pattern)} -> ...",
                  r.eq, partial(verify_localized_rule, r, cat))
            for r in loc.rules if _inverses_in(loc, r.pattern, *r.replacement.terms)]
