"""Command-line front end: normalization queries, verification suites,
confluence checks, machine-readable reports.

Exit codes: 0 all checks passed, 1 at least one failure or error, 2 usage
error (unknown suite/presentation, malformed expression, bad flags, or an
input nested deeper than the Python recursion limit allows: an expression
or a --q text, or a confluence degree past the word walk's reach).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import calculus, hopf, liealg, rmatrix
from .catalog import get_catalog
from .errors import ParseError, QdcError, UnknownSuiteError
from .kernel import (Presentation, check_local_confluence, confluence_residual,
                     format_element, normalize, step_budget)
from .parser import _literal, parse_ast, parse_expression
from .report import Check, CheckResult, SuiteReport, error_text, run_once

# the weights of the filtration in _confluence_checks' basis argument for
# Omega_loc: a, d and Dgamma, the generators with an inverse, weigh 0
_WEIGHTS = {"a": 0, "beta": -1, "gamma": -1, "d": 0,
            "Da": -3, "Dbeta": 1, "Dgamma": 0, "Dd": 3}


def _confluence_checks(cat):
    """Local confluence of every catalog presentation.

    A presentation whose rules all decrease the deglex order is checked on
    its critical pairs alone, the ambiguous words of length 3
    (kernel.check_local_confluence with no degree, Bergman's diamond lemma,
    Adv. Math. 29, 1978, Thm 1.2).  LieAlg's row reads the verdict of the
    superalgebra suite's row, which decides the same pairs.

    Omega_loc is not: its localized rules grow the degree, and no order
    that compares a weight first and breaks ties by deglex orients them
    all.  With additive weights w >= 0 (a negative weight would give the
    descending chain g > g^2 > ...), the rule Dgamma_inv*beta -> ...
    d*Da*Dgamma_inv^2 forces w(beta) > w(d) + w(Da) + w(Dgamma_inv), and
    d*a_inv -> ... a_inv^2*beta*gamma forces w(d) > w(a_inv) + w(beta) +
    w(gamma); each is strict because on a tie the longer replacement word
    wins in deglex.  Their sum gives 0 > w(Da) + w(Dgamma_inv) + w(a_inv) +
    w(gamma), which no weights satisfy.  No other order does either: w0 =
    Dgamma_inv*a_inv^2 rewrites at position 0, then at position 5, each
    time to the correction word of Dgamma_inv*a_inv with coefficient
    1 - q^-2, into u*w0*v with u = a_inv^2*gamma*Da and v =
    gamma*Da*Dgamma_inv^2.  An order compatible with multiplication that
    orients these rules would then have the infinite descent w0 > u*w0*v >
    u^2*w0*v^2 > ..., so it is not a well-order, and the diamond lemma
    cannot decide Omega_loc as written (tests/test_kernel.py pins the two
    steps).

    A basis decides it instead, in every degree.  Let B be the algebra a
    presentation defines over the fraction field K of its coefficients,
    and Irr its normal words.  If Irr is linearly independent in B, every
    one-step rewrite of every word w has the leftmost normal form of w,
    wherever the fold ends: both normal forms are w modulo the relations
    and lie in the span of Irr, so their difference is 0.  (That is the
    easy half of Bergman's Thm 1.2, which needs no order.)  Four finite
    premises, each read from the presentation under check, prove Irr
    independent.  Write A for its inverse-free part, the generators that
    are not inverses with the rules whose words hold no inverse, and S for
    the multiplicative set of A that the generators with an inverse (a, d
    and Dgamma) generate.

    (P1) A passes the critical-pair check, so its normal words, the PBW
         words, are a basis of A (Bergman, Thm 1.2).
    (P2) Under _WEIGHTS each rule of A rewrites x*y, x after y in the
         order, to c*y*x with c != 0 plus words that weigh less than x*y,
         and an odd square to words that weigh less; even generators weigh
         at least 0, and those with an inverse are even and weigh 0.
    (P3) The patterns are x*y for x after y, x*x for odd x, and g*g_inv,
         each g_inv is even and comes right after g, and every pattern
         free of inverses belongs to a rule of A.  So Irr is the set of
         Laurent PBW words: ordered words with an integer exponent on each
         of a, d and Dgamma (g_inv^k standing for g^-k) and each odd
         letter at most once.
    (P4) Every rule with an inverse holds in the localization S^-1 A with
         g_inv = g^-1: its clearing check (calculus.verify_localized_rule)
         passes.  These are the localized.* rows, run once per run_suite.

    1. gr A.  Let F_k be the span in A of the words of weight <= k.  A
       rewrite never raises the weight (P2) and A's rewriting ends (its
       rules decrease deglex), so the PBW words of weight <= k span F_k,
       and by (P1) they are a basis of it.  Let Q be the quantum affine
       superspace on letters X_x with relations X_y X_x = c X_x X_y and
       X_x^2 = 0 for odd x, spanned by its ordered words X^e.  The symbols
       of A's generators satisfy Q's relations, and the ordered words map
       to the classes of the PBW words, a basis of gr A; so gr A = Q.
       F_k = 0 below the sum of the negative odd weights, since an odd
       letter occurs at most once in a PBW word and an even one weighs at
       least 0.  For s in {a, d, Dgamma}, X_s is even and q-commutes with
       every letter, so X_s X^e = lambda_e X^e X_s with lambda_e != 0, and
       X_s X^e and X^e X_s are nonzero multiples of PBW words: X_s is
       normal and regular in Q.  Each t in S has as symbol sigma(t) a
       product of these, of weight 0, so t is regular in A.
    2. S is a left Ore set of A.  For s in {a, d, Dgamma} let
       Theta(m) = lambda_m m on the PBW words m, and D(r) = s r - Theta(r) s.
       As s weighs 0, D maps F_k into F_(k-1), so D^n(r) = 0 for n large,
       and s^n r = r_n s + D^n(r) (by induction, with r_(n+1) =
       s r_n + Theta(D^n r)) lies in A s.  If t1 and t2 meet the Ore
       condition for every r, so does t1 t2.  By Ore's theorem the left
       ring of fractions S^-1 A exists, A embeds in it, and each element
       is t^-1 r with t in S (O. Ore, Ann. of Math. 32, 1931; Goodearl &
       Warfield, An Introduction to Noncommutative Noetherian Rings, 2nd
       ed., 2004, ch. 6 and 10).  So does Q_S, Q with X_a, X_d and X_Dgamma
       inverted, as normal elements meet the Ore condition at once.
    3. gr S^-1 A.  Let F_k(S^-1 A) be the elements t^-1 r with r in F_k.
       Left Ore gives u t1 = v t2 with u in S, and v is in F_0 because
       v t2 weighs 0 and sigma(t2) is regular: so two fractions have a
       common denominator u t1 with numerators in F_k, F_k(S^-1 A) is a
       subspace, and F_j F_k lies in F_(j+k), as r1 t2^-1 = t3^-1 r3 with
       r3 in F_j.  On F_k(S^-1 A) let psi(t^-1 r) = sigma(t)^-1 [r]_k in
       Q_S, where [r]_k is the class of r in F_k/F_(k-1), part of Q.  It is
       well defined: t1^-1 r1 = t2^-1 r2 gives u r1 = v r2 and
       sigma(u t1) = [v]_0 sigma(t2), so sigma(t1)^-1 [r1]_k =
       sigma(u t1)^-1 [v]_0 [r2]_k = sigma(t2)^-1 [r2]_k.  It vanishes on
       F_(k-1)(S^-1 A), and it is multiplicative, as t3 r1 = r3 t2 gives
       sigma(t3)^-1 [r3]_j = [r1]_j sigma(t2)^-1.
    4. A's rules hold in A and the others in S^-1 A (P4), so the letters
       define an algebra map phi from B to S^-1 A.  A word w of Irr of
       weight k has phi(w) in F_k(S^-1 A), and psi(phi(w)) is, letter by
       letter, the ordered Laurent monomial of w's exponents.  Distinct
       words give distinct monomials (P3), and those are linearly
       independent in Q_S: times X_a^N X_d^N X_Dgamma^N on the right, each
       is a nonzero multiple of its own ordered word of Q.  So if
       sum c_w w = 0 in B, psi of the top weight part of sum c_w phi(w)
       forces the c_w of that weight to vanish, and then every c_w.

    localization_residual checks (P1)-(P3).  Omega_loc's inverse-free part
    is Omega, generator for generator and rule for rule, so its (P1) is
    the verdict of the row confluence.Omega (localized_confluence_check);
    a presentation whose inverse-free part is no catalog presentation
    decides (P1) itself.  qdc confluence
    --max-degree walks the words of any presentation, and tier-1 keeps
    that walk on Omega_loc to degree 4 as a cross-check.
    """
    checks = {}
    localized = []
    for name in cat.names():
        p = cat.presentation(name)
        if any(g.inverse_of for g in p.generators):
            localized.append(p)
            continue
        check_id = f"confluence.{name}"
        desc = f"local confluence of {name} (critical pairs, diamond lemma)"
        if name == "LieAlg":
            checks[name] = Check(check_id, desc, "diamond", _verdict_of,
                                 (liealg.confluence_check(cat),))
        else:
            checks[name] = Check(check_id, desc, "diamond",
                                 partial(confluence_residual, p))
    decided = [(cat.presentation(name), c) for name, c in checks.items()]
    for p in localized:
        checks[p.name] = localized_confluence_check(p, decided)
    return [checks[name] for name in cat.names()]


def localized_confluence_check(p, decided=()):
    """The confluence check of a presentation with formal inverses: the
    premises (P1)-(P4) of _confluence_checks' basis argument, (P4) being
    the clearing checks of p's rules.  `decided` pairs presentations with
    the Checks that decide their confluence.  When p's inverse-free part
    is one of them, generator for generator and rule for rule, (P1) is
    that Check's verdict, and its critical pairs are not decided twice."""
    generators, rules, _ = _inverse_free_part(p)
    same = next((c for q, c in decided
                 if q.generators == generators and q.rules == rules), None)
    needs = tuple(calculus.clearing_checks(p))
    if same is not None:
        needs = (same, *needs)
    return Check(f"confluence.{p.name}",
                 f"local confluence of {p.name} in every degree (its normal "
                 f"words are a basis of its Ore localization)", "diamond",
                 partial(_localized_confluence, p, same is not None), needs)


def _localized_confluence(p, reads_p1, *needed):
    p1, clearing = (needed[0], needed[1:]) if reads_p1 else (None, needed)
    why = localization_residual(p, _WEIGHTS, p1)
    if why is None:
        why = next((f"(P4) {c.id}: {c.residual}" for c in clearing if not c.passed),
                   None)
    return why


def _inverse_free_part(p):
    """(generators, rules) of p's inverse-free part: the generators that
    are not inverses and the rules whose words hold no inverse; and the
    patterns free of inverses that it lacks, as their replacements hold
    one."""
    inverses = {g.name for g in p.generators if g.inverse_of}
    rules, lacking = [], []
    for r in p.rules:
        if not any(x in inverses for w in (r.pattern, *r.replacement.terms) for x in w):
            rules.append(r)
        elif not any(x in inverses for x in r.pattern):
            lacking.append("*".join(r.pattern))
    return [g for g in p.generators if g.name not in inverses], rules, lacking


def localization_residual(p, weights, p1=None):
    """None when the presentation p with formal inverses meets the premises
    (P1)-(P3) of the basis argument in _confluence_checks under the
    integer `weights` of its other generators, else the first failure.
    p1, when given, is the CheckResult of a check that decided the
    confluence of a presentation equal to A, and (P1) is its verdict.

    A is p's inverse-free part: the generators that are not inverses, and
    the rules whose words hold no inverse.  (P3) p's patterns are x*y for x
    after y, x*x for odd x and g*g_inv, each inverse g_inv comes right after
    an even g that is not an inverse, and A has every pattern of p in its
    letters.  (P2) each rule of A rewrites x*y, x after y, to c*y*x with
    c != 0, and x*x to 0, plus words that weigh less than x*y; an even
    generator weighs at least 0, and an inverted one exactly 0.  (P1) A's
    critical pairs resolve.
    """
    names = [g.name for g in p.generators]
    inverse_of = {g.name: g.inverse_of for g in p.generators if g.inverse_of}
    parity = p.parity_of
    # (P3)
    patterns = {(x, y) for i, x in enumerate(names) for y in names[:i]}
    patterns |= {(x, x) for x in names if parity[x]}
    patterns |= {(g, g_inv) for g_inv, g in inverse_of.items()}
    missing = sorted(patterns - set(p.rule_by_pair), key=p.word_key)
    extra = sorted(set(p.rule_by_pair) - patterns, key=p.word_key)
    if missing or extra:
        return (f"(P3) the patterns are not x*y for x after y, odd squares and "
                f"g*g_inv: missing {['*'.join(w) for w in missing]}, "
                f"extra {['*'.join(w) for w in extra]}")
    for g_inv, g in inverse_of.items():
        i = p.index.get(g)
        if (i is None or g in inverse_of or names[i + 1:i + 2] != [g_inv]
                or parity[g] or parity[g_inv]):
            return f"(P3) {g_inv} is not an even inverse right after its even generator {g}"
    base, rules, lacking = _inverse_free_part(p)
    if lacking:
        return f"(P3) the inverse-free part lacks the patterns {lacking}"
    # (P2)
    for g in base:
        w = weights.get(g.name)
        if w is None or (not g.parity and w < 0) or (g.name in inverse_of.values() and w):
            return (f"(P2) {g.name} weighs {w}: an even generator must weigh at "
                    f"least 0, and one with an inverse 0")

    def weight(word):
        return sum(weights[x] for x in word)

    for r in rules:
        x, y = r.pattern
        swap = (y, x) if x != y else None
        heavy = [w for w in r.replacement.terms
                 if w != swap and weight(w) >= weight(r.pattern)]
        if swap is not None and swap not in r.replacement.terms or heavy:
            return (f"(P2) {x}*{y} does not rewrite to a multiple of its swap "
                    f"plus lighter words: {['*'.join(w) for w in heavy]}")
    # (P1)
    name = f"{p.name} without inverses"
    why = confluence_residual(Presentation(name, base, rules)) if p1 is None else p1.residual
    return None if why is None else f"(P1) {name}: {why}"


def _verdict_of(result):
    return result.residual


def _families(cat, *names):
    return [c for f in names for c in calculus.verify_family(f, cat)]


# suite name -> the function from a catalog to the suite's unrun Checks
SUITES = {
    "relations": lambda cat: [
        *_families(cat, "relations_2", "relations_17", "dT_relations"),
        *calculus.d_on_relations_checks(cat),
        *calculus.d_squared_checks(cat),
    ],
    "ansatz": calculus.ansatz_checks,
    "inverse": lambda cat: [
        *_families(cat, "T_unit", "T_inverse", "inverse_differential"),
        *calculus.localized_rule_checks(cat),
    ],
    "forms": lambda cat: [
        *calculus.form_parity_checks(cat),
        *_families(cat, "T_forms", "forms", "forms_to_dT"),
    ],
    "structure": calculus.verify_structure_equations,
    "superalgebra": lambda cat: [
        *liealg.verify_superalgebra(cat),
        *_families(cat, "xy_basis"),
        *liealg.verify_cross_relations_consistency(cat),
        *liealg.classical_limit_checks(cat),
    ],
    "hopf": hopf.verify_hopf_axioms,
    "central": lambda cat: [
        *hopf.verify_central_element(cat),
        *(c for c in calculus.localized_rule_checks(cat) if "Dgamma_inv" in c.id),
    ],
    "rmatrix": lambda cat: [
        *rmatrix.check_hecke_braid(cat),
        *(c for eq in ("53", "54", "55", "56", "57")
          for c in rmatrix.verify_rtt_family(eq, cat)),
    ],
    "plane": rmatrix.verify_plane_covariance,
    "confluence": _confluence_checks,
}


def run_suite(name, q0=None):
    """Run a named suite, or "all" of them, and return its SuiteReport,
    sorted by id.  A check that several suites list runs once per call and
    is reported in each of them, as a copy.  A suite whose Checks cannot be
    built gives one error row, setup.<suite>, and the other suites run."""
    if name != "all" and name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; have {['all', *SUITES]}"
        )
    cat = get_catalog(q0)
    report = SuiteReport(name)
    results = {}
    for s in SUITES if name == "all" else (name,):
        try:
            checks = SUITES[s](cat)
        except Exception as exc:  # as Check.run does: an error row, not a crash
            report.checks.append(CheckResult(f"setup.{s}", f"build the {s} suite",
                                             "", "error", error_text(exc)))
            continue
        for check in checks:
            seen = check.id in results
            result = run_once(check, results)
            report.checks.append(result.copy() if seen else result)
    report = report.sorted()
    if q0 is not None:
        for c in report.checks:
            c.description += f" [numeric shadow at q = {q0}]"
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="qdc",
        description="Exact verification kernel for the q-deformed "
                    "differential calculus on the quantum supergroup.",
    )
    sub = ap.add_subparsers(dest="command")

    ap_norm = sub.add_parser("normalize", help="reduce an expression to normal form")
    ap_norm.add_argument("--presentation", required=True)
    ap_norm.add_argument("expression")

    ap_verify = sub.add_parser("verify", help="run a verification suite")
    ap_verify.add_argument("--suite", required=True)
    ap_verify.add_argument("--q", default=None,
                           help="substitute an exact rational for q, written "
                                "as the expression grammar writes one, such "
                                "as 2, -1 or 3/2; decimal and exponent "
                                "spellings such as 0.5 or 1e3 are refused "
                                "(numeric shadow; weaker than symbolic)")
    ap_verify.add_argument("--format", choices=("text", "json"), default="text")

    ap_conf = sub.add_parser("confluence", help="check local confluence")
    ap_conf.add_argument("--presentation", required=True)
    ap_conf.add_argument("--max-degree", type=int, required=True)

    sub.add_parser("list", help="list presentations, suites and families")

    args = ap.parse_args(_expression_after_options(
        sys.argv[1:] if argv is None else list(argv)))
    if args.command is None:
        ap.print_help()
        return 2
    try:
        step_budget()  # a malformed QDC_STEP_BUDGET is a usage error, not a failed check
        text, code = _dispatch(args)
    except QdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the one place a too-deep input becomes a usage error
        print(f"error: {_deep_input(args)} is deeper than the Python recursion "
              f"limit ({sys.getrecursionlimit()}) allows", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe, as `| head` does: no error of the command;
        # stdout goes to devnull, so the last flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _expression_after_options(argv):
    """argv with a `normalize` expression that starts with a single '-'
    ("-q*a", which the grammar allows) moved behind `--`, so that argparse
    does not take it for an option; normalize has only long options and -h."""
    if argv[:1] != ["normalize"] or "--" in argv:
        return argv
    rest, expression = [], []
    for prev, arg in zip(argv, argv[1:]):
        if (arg.startswith("-") and not arg.startswith("--") and arg != "-h"
                and prev != "--presentation"):
            expression.append(arg)
        else:
            rest.append(arg)
    if not expression:
        return argv
    return [argv[0], *rest, "--", *expression]


def _dispatch(args):
    """The command's output text and its exit code."""
    if args.command == "normalize":
        cat = get_catalog()
        p = cat.presentation(args.presentation)
        el = parse_expression(args.expression, p)
        return format_element(normalize(el, p), p), 0

    if args.command == "verify":
        q0 = None if args.q is None else _rational(args.q)
        if q0 == 0:
            raise QdcError("q = 0 is outside the coefficient ring")
        report = run_suite(args.suite, q0=q0)
        code = 0 if report.ok else 1
        if args.format == "json":
            return report.to_json(), code
        text = report.to_text()
        if q0 is not None:
            text = (f"# numeric shadow at q = {q0}: a passing run is "
                    f"necessary, not sufficient; the symbolic run is "
                    f"the authoritative one\n{text}")
        return text, code

    if args.command == "confluence":
        cat = get_catalog()
        p = cat.presentation(args.presentation)
        rep = check_local_confluence(p, args.max_degree)
        lines = [f"{p.name}: checked {rep.words_checked} words to degree "
                 f"{rep.max_degree}; {rep.ambiguous} ambiguous, "
                 f"{len(rep.failures)} failing overlaps"]
        for w, nf1, nf2 in rep.failures[:10]:
            lines += [f"  overlap {'*'.join(w)}:",
                      f"    {format_element(nf1, p)}",
                      f"    {format_element(nf2, p)}"]
        return "\n".join(lines), 0 if rep.ok else 1

    # list, the one command left: argparse refuses any other
    cat = get_catalog()
    lines = ["presentations:"]
    for n in cat.names():
        p = cat.presentation(n)
        lines.append(f"  {n}: {len(p.generators)} generators, {len(p.rules)} rules")
    lines += ["suites: " + ", ".join(["all", *SUITES]), "identity families:"]
    lines += [f"  {fam} ({cat.families[fam].name})" for fam in sorted(cat.families)]
    return "\n".join(lines), 0


def _deep_input(args):
    """The input of a command that ran past the recursion limit.  Of a
    verify run's inputs only --q is parsed outside a check, and a check
    that runs past the limit is an error row."""
    if args.command == "normalize":
        return f"{args.presentation}: the expression"
    if args.command == "confluence":
        return f"{args.presentation}: max_degree {args.max_degree}: the word walk"
    return f"--q {_shown(args.q)}"


def _shown(text):
    """text echoed in an error, at most its first 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _rational(text):
    """--q read as the grammar's rational literal, such as 2, -1 or 3/2,
    so an integer too long to read is refused before it is computed.  The
    error echoes at most the first 40 characters of the input."""
    why = "not a rational literal"
    try:
        value = _literal(parse_ast(text))
    except ParseError as exc:
        value, why = None, str(exc)
    if value is None:
        raise QdcError(f"--q must be an exact rational such as 2, -1 or 3/2, "
                       f"got {_shown(text)} ({why})")
    return value


if __name__ == "__main__":
    raise SystemExit(main())
