"""Workload inputs and correctness gates of the qdc benchmark.

Everything here is deterministic in the seed and reads only public qdc API:
catalog identities with their ASTs, generator names, defined composites and
`Presentation.rule_by_pair`.  No reference answer comes from the code under
test: identity queries must reduce to 0 because the ideal is two-sided, and
every other answer is checked to be a normal form that is a fixed point of
normalize and survives a print/parse round trip.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_IDS = HERE / "expected_ids.txt"

# normalize_mix: the (d*a)^k ladder rungs in Omega are the stream's long
# words; (d*a)^100 takes seconds and (d*a)^200 exhausts the step budget,
# so the ladder stops at 48.  Pads have at most 2 letters: with 3, a single
# Omega_loc one-form query could do a third of its stream's work, and the
# interquartile spread of a stream's work over six seeds was 0.38 of its
# median (0.07 with 2 letters).  Parts 0 .. PARTS-1 of a seed split the
# identity population, and WORD_COPIES copies of the word population, into
# thirds, so every seed asks the same set of queries: the seed decides
# their order and which part asks which.  Over eight seeds, one block of
# parts each, p50 and p99 latency spread 0.26 of their median when the
# thirds were drawn with wrap-around, the pad letters from the seed and
# the rungs at seeded places; 0.11 and 0.17 with exact thirds and pad
# letters fixed per item; 0.09 and 0.10 with the ladder first as well,
# where its cost does not depend on what the queries before it cached.
LADDER = (2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48)
MAX_PAD = 2
PARTS = 3
WORD_COPIES = 2
# 142 identities and 58 generators or composites, each with 9 pad lengths
STREAM_QUERIES = (142 * 9 + 58 * 9 * WORD_COPIES) // PARTS + len(LADDER)


def expected_ids():
    """The committed check ids of `verify --suite all`, one per line."""
    return [ln.strip() for ln in EXPECTED_IDS.read_text().splitlines() if ln.strip()]


def make_stream(cat, seed, n=STREAM_QUERIES, part=0):
    """Seeded list of (kind, presentation name, expression text).

    kind is "zero" (u*((L) - (R))*v for a catalog identity L = R, answer 0),
    "word" (u*X*v for a generator or defined composite X) or "ladder"
    ((d*a)^k in Omega, every rung, first and in ascending order).

    The seed shuffles two populations: every identity, and WORD_COPIES
    copies of every generator or composite, each with every pair of pad
    lengths (|u|, |v|) in 0..MAX_PAD.  The pad letters of an item are
    drawn from a random generator seeded with the item itself, not with
    `seed`.  Stream `part` takes every PARTS-th item of each population,
    starting at `part`, so parts 0 .. PARTS-1 of one seed cover both
    populations exactly once.  The stream is cut to its first n queries.
    """
    from qdc import print_ast

    rng = random.Random(seed)
    idents = []
    singles = []
    for pname in cat.names():
        p = cat.presentation(pname)
        gens = [g.name for g in p.generators]
        for ident in p.identities:
            if ident.lhs_ast is not None:
                idents.append((pname, gens, f"(({print_ast(ident.lhs_ast)}) - "
                                            f"({print_ast(ident.rhs_ast)}))"))
        for x in [*gens, *sorted(p.defined)]:
            singles.append((pname, gens, x))
    pads = [(i, j) for i in range(MAX_PAD + 1) for j in range(MAX_PAD + 1)]
    order = random.Random(seed * 7919 + part)
    queries = []
    for kind, items in (("zero", idents), ("word", singles * WORD_COPIES)):
        pop = [(*item, lu, lv, i) for i, item in enumerate(items) for lu, lv in pads]
        rng.shuffle(pop)
        for pname, gens, middle, lu, lv, i in pop[part::PARTS]:
            letters = random.Random(f"{kind}|{i}|{lu}|{lv}")
            u = [letters.choice(gens) for _ in range(lu)]
            v = [letters.choice(gens) for _ in range(lv)]
            queries.append((kind, pname, "*".join([*u, middle, *v])))
    order.shuffle(queries)
    ladder = [("ladder", "Omega", f"(d*a)^{k}") for k in LADDER]
    return (ladder + queries)[:n]


def check_answer(cat, kind, pname, answer, element):
    """None when the answer passes its gate, else a one-line reason."""
    from qdc import format_element, normalize, parse_expression

    p = cat.presentation(pname)
    if kind == "zero":
        if answer != "0" or element:
            return f"expected 0, got {answer}"
        return None
    rules = p.rule_by_pair
    for word in element.terms:
        for pair in zip(word, word[1:]):
            if pair in rules:
                return f"not a normal form: rule {'*'.join(pair)} applies in {answer}"
    again = normalize(parse_expression(answer, p), p)
    if again != element or format_element(again, p) != answer:
        return f"not a fixed point of normalize: {answer}"
    return None


def check_report(report, exit_code, ids):
    """(attempted, failed, first reasons) for one `verify --suite all` run.

    `ids` lists every expected check id as often as the report must hold it
    (the central suite repeats some localized-rule checks).  Each must come
    back with status pass and a null residual; a missing id, an unexpected
    id, a non-pass status, a residual or a non-zero exit code each count as
    a failure.
    """
    owed = Counter(ids)
    reasons = []
    failed = unexpected = 0
    checks = report.get("checks", []) if isinstance(report, dict) else []
    for c in checks:
        cid = c.get("id")
        if owed[cid] <= 0:
            unexpected += 1
            reasons.append(f"unexpected {cid}")
            continue
        owed[cid] -= 1
        if c.get("status") != "pass" or c.get("residual") is not None:
            failed += 1
            reasons.append(f"{cid}: {c.get('status')} {c.get('residual')}")
    missing = sum(n for n in owed.values() if n > 0)
    reasons.extend(f"missing {cid}" for cid, n in owed.items() if n > 0)
    failed += unexpected + missing
    if exit_code != 0:
        reasons.insert(0, f"exit code {exit_code}")
        failed = max(failed, 1)
    return len(ids) + unexpected, failed, reasons[:5]
