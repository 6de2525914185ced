"""Command-line front end: normalization queries, verification suites,
confluence checks, machine-readable reports.

Exit codes: 0 all checks passed, 1 at least one failure or error, 2 usage
error (unknown suite/presentation, malformed expression, bad flags).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

from . import calculus, hopf, liealg, rmatrix
from .catalog import get_catalog
from .errors import ParseError, QdcError, UnknownSuiteError
from .kernel import (check_local_confluence, confluence_residual, format_element,
                     normalize, step_budget)
from .parser import _literal, parse_ast, parse_expression
from .report import Check, CheckResult, SuiteReport, error_text

# exhaustive degree for a presentation with localized rules (Omega_loc)
_LOCALIZED_CONFLUENCE_DEGREE = 4


def _confluence_checks(cat):
    """Local confluence of every catalog presentation.

    A presentation whose rules all decrease the deglex order is checked on
    its critical pairs alone, the ambiguous words of length 3
    (kernel.check_local_confluence with no degree, diamond lemma).
    Omega_loc is not: its localized rules grow the degree, and no order that
    compares a weight first and breaks ties by deglex orients them all.  With
    additive weights w >= 0 (a negative weight would give the descending
    chain g > g^2 > ...), the rule Dgamma_inv*beta -> ... d*Da*Dgamma_inv^2
    forces w(beta) > w(d) + w(Da) + w(Dgamma_inv), and d*a_inv ->
    ... a_inv^2*beta*gamma forces w(d) > w(a_inv) + w(beta) + w(gamma); each
    is strict because on a tie the longer replacement word wins in deglex.
    Their sum gives 0 > w(Da) + w(Dgamma_inv) + w(a_inv) + w(gamma), which
    no weights satisfy.  No other order does either: w0 = Dgamma_inv*a_inv^2
    rewrites at position 0, then at position 5, each time to the correction
    word of Dgamma_inv*a_inv with coefficient 1 - q^-2, into u*w0*v with
    u = a_inv^2*gamma*Da and v = gamma*Da*Dgamma_inv^2.  An order compatible
    with multiplication that orients these rules would then have the
    infinite descent w0 > u*w0*v > u^2*w0*v^2 > ..., so it is not a
    well-order, and the diamond lemma can never decide Omega_loc
    (tests/test_kernel.py pins the two steps).  So Omega_loc keeps the
    exhaustive check to degree _LOCALIZED_CONFLUENCE_DEGREE.  Both checks
    are one depth-first walk over the words, which decides every ambiguous
    word, sampling none, and shares the normal forms of common prefixes;
    the critical-pair check stops it at length 3.
    """
    out = []
    for name in cat.names():
        p = cat.presentation(name)
        if any(r.localized for r in p.rules):
            degree = _LOCALIZED_CONFLUENCE_DEGREE
            desc = f"local confluence of {name} to degree {degree}"
        else:
            degree = None
            desc = f"local confluence of {name} (critical pairs, diamond lemma)"

        out.append(Check(f"confluence.{name}", desc, "diamond",
                         partial(confluence_residual, p, degree)))
    return out


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
            if check.id in results:
                report.checks.append(replace(results[check.id]))
            else:
                report.checks.append(results.setdefault(check.id, check.run()))
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
        shown = repr(text) if len(text) <= 40 else (
            f"{text[:40]!r}... ({len(text)} characters)")
        raise QdcError(f"--q must be an exact rational such as 2, -1 or 3/2, "
                       f"got {shown} ({why})")
    return value


if __name__ == "__main__":
    raise SystemExit(main())
