"""Audits of the catalog's transcription, for the tests: how many rules and
identities each source equation contributes, and the documents' expression
lines for the parse/print round trip."""

from collections import Counter

from qdc.catalog import _FILES, _data_text, parse_document

# How many oriented rules / expected identities each source equation family
# contributes; the coverage audit checks the loaded catalog against this.
_EXPECTED_COUNTS = {
    "(2)": 8, "(17)": 8, "(24a)": 4, "(24b)": 12,
    "(33)": 16, "(34)": 16, "(35)": 16, "(36)": 8, "(37)": 4,
    "(43)": 8, "(45)": 16, "(46)": 2, "(47)": 2, "(52)": 4,
}


def coverage_audit(cat):
    """Relation families whose rule/identity count in the catalog disagrees
    with the transcription table; must come back empty."""
    # rule patterns are unique in a presentation, identity names in a family
    counts = Counter()
    for p in cat.presentations.values():
        counts.update((p.name, r.eq, "rule") for r in p.rules)
        counts.update((p.name, i.eq, "ident") for i in p.identities)
    problems = []
    # every equation family must be fully transcribed somewhere
    for eq, want in _EXPECTED_COUNTS.items():
        got = max((n for (_, tag, _), n in counts.items() if tag == eq),
                  default=0)
        if got < want:
            problems.append(f"{eq}: expected {want} entries, best block has {got}")
    return problems


def roundtrip_lines():
    """(file, expression text) pairs for the parser round-trip check."""
    out = []
    for fname in _FILES:
        for block in parse_document(_data_text(fname)):
            for line in block.rule_lines:
                if line[0] != "from":
                    out.append((fname, line[1]))
                    out.append((fname, line[2]))
            for _, expr, _eq in block.define_lines:
                out.append((fname, expr))
            for _, _, lhs, rhs, _eq in block.identity_lines:
                out.append((fname, lhs))
                out.append((fname, rhs))
    return out
