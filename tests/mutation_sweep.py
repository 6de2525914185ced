"""Mutation sweep over the catalog documents.

Every rule, lrule, define and identity line of the documents in
src/qdc/catalog_data/ gives up to two mutants: its right side negated, and
the first + or - sign of its expressions flipped (a leading minus is
dropped; the sign of an exponent is not a sign here).  A right side of 0 is
not negated.  Each mutant document is loaded in place of the original, and
`run_suite("all")` and `verify_family` on every family of the loaded catalog
run on it.  The mutant is killed when a check fails or errors, or when the
document does not load; otherwise it survives.

Run from the repository root (it takes a minute or two; pytest does not
collect it):

    PYTHONPATH=src python tests/mutation_sweep.py

It prints every survivor, and exits 1 when a survivor is not listed in
EXPECTED_SURVIVORS: the mutants that no check can kill, because they keep
every statement the paper makes about the line, each with its reason.  This is mutation analysis after DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import re
import sys
import time

from qdc import catalog
from qdc.calculus import verify_family
from qdc.cli import run_suite

_BOTH_ZERO = "both sides reduce to 0, so the negated right side is still true"

# mutant name -> why no check can kill it
EXPECTED_SURVIVORS = {
    "identity consistency_s5.np_sq_a negated": _BOTH_ZERO,
    "identity consistency_s5.nm_sq_a negated": _BOTH_ZERO,
    "identity consistency_s5.bracket_T1_nm negated": _BOTH_ZERO,
    "identity consistency_s5.bracket_T2_nm negated": _BOTH_ZERO,
    "identity consistency_s5.T1T2_a negated": _BOTH_ZERO,
    "identity consistency_s5.big_nm_np negated": _BOTH_ZERO,
    "identity T_inverse.beta_B negated": _BOTH_ZERO,
    "identity T_inverse.gamma_C negated": _BOTH_ZERO,
    "define Omega_loc Dhat negated":
        "the central family is linear in Dhat, so -Dhat commutes with every "
        "generator too, and no other check reads Dhat",
}

# a + or - that is not an exponent's sign and not the rule arrow's dash
_SIGN = re.compile(r"(?<!\^)[+-](?!>)")


def _mutants(line, block):
    """(name, mutated line) pairs of one document line."""
    head, _, rest = line.partition(" ")
    if head not in ("rule", "lrule", "define", "identity"):
        return []
    body, tag, eq = line.partition(" @eq ")
    arrow = " -> " if head in ("rule", "lrule") else " = "
    left, _, rhs = body.rpartition(arrow)
    if head == "identity":
        name = "identity " + ".".join(rest.split()[:2])
        start = body.index(" : ") + 3
    else:
        name = f"{head} {block} {rest.split()[0]}"
        start = len(left) + len(arrow)
    out = []
    if rhs != "0":
        out.append((f"{name} negated", f"{left}{arrow}-({rhs}){tag}{eq}"))
    sign = _SIGN.search(body, start)
    if sign is not None:
        i = sign.start()
        unary = body[start:i].strip() == "" or body[:i].rstrip().endswith(("(", "="))
        flipped = "" if unary else "+-"[body[i] == "+"]
        out.append((f"{name} flipped", f"{body[:i]}{flipped}{body[i + 1:]}{tag}{eq}"))
    return out


def mutants():
    """(name, file, mutated document text) for every mutant of the catalog."""
    for fname in catalog._FILES:
        lines = catalog._data_text(fname).splitlines()
        block = None
        for k, line in enumerate(lines):
            if line.startswith("presentation "):
                block = line.split()[1]
            for name, mutated in _mutants(line, block):
                yield name, fname, "\n".join(lines[:k] + [mutated] + lines[k + 1:]) + "\n"


def survives(fname, text):
    """True when the catalog with `fname` read as `text` passes every check."""
    original = catalog._data_text
    catalog._data_text = lambda f: text if f == fname else original(f)
    catalog._CACHE.clear()
    try:
        cat = catalog.get_catalog()
        if not run_suite("all").ok:
            return False
        return all(c.run().passed for family in cat.families
                   for c in verify_family(family, cat))
    except Exception:  # a document that does not load or a crashing suite kills it
        return False
    finally:
        catalog._data_text = original
        catalog._CACHE.clear()


def main():
    start = time.perf_counter()
    everything = list(mutants())
    if len({name for name, _, _ in everything}) != len(everything):
        sys.exit("two mutants share a name")
    survivors = []
    for name, fname, text in everything:
        if survives(fname, text):
            survivors.append(name)
            print(f"survived: {name}")
    unexpected = [n for n in survivors if n not in EXPECTED_SURVIVORS]
    print(f"{len(everything)} mutants, {len(survivors)} survived, "
          f"{len(unexpected)} unexpected, {time.perf_counter() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
