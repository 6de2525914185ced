"""Loader for the presentation documents and the derived named elements.

The catalog documents live in catalog_data/ as plain text, one line per rule,
define, or expected identity, so the transcription can be reviewed line by
line against its source equations.  Loading validates orientation and parity
of every rule; the documents round-trip bit-exactly through the expression
parser (enforced in the test suite).

A block states each relation once.  The line `rules from <Block>` appends
the rules of an earlier block, as that block loaded them, to the rules
read so far; `rules from <Block> old=new ...` appends them with each
generator `old` renamed `new`.  The block that takes them validates them
against its own generators, like its own rules.

Each identity family lives in one presentation, and each identity name once
in its family: a document that repeats either is refused at load.
`Catalog.families` maps every family to its presentation, and
`Catalog.family` reads a family's identities from that presentation when it
is asked.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction

from .errors import CatalogFormatError, UnknownFamilyError, UnknownPresentationError
from .kernel import Generator, Identity, Presentation, RewriteRule
from .parser import eval_ast, parse_ast, parse_expression
from .ring import ONE, LaurentScalar

_FILES = ("a_glq11.txt", "a_hat.txt", "omega.txt", "omega_loc.txt",
          "forms.txt", "lie_alg.txt", "planes.txt")

# How many oriented rules / expected identities each source equation family
# contributes; the coverage audit checks the loaded catalog against this.
_EXPECTED_COUNTS = {
    "(2)": 8, "(17)": 8, "(24a)": 4, "(24b)": 12,
    "(33)": 16, "(34)": 16, "(35)": 16, "(36)": 8, "(37)": 4,
    "(43)": 8, "(45)": 16, "(46)": 2, "(47)": 2, "(52)": 4,
}


def _data_text(fname):
    # a plain open: importlib.resources imports pathlib, zipfile, tempfile
    # and more, a third of a clean interpreter's `import qdc`
    path = os.path.join(os.path.dirname(__file__), "catalog_data", fname)
    with open(path, encoding="utf-8") as f:
        return f.read()


class _Block:
    def __init__(self, name):
        self.name = name
        self.generators = []
        # (kind, lhs_text, rhs_text, eq), or ("from", block name, renames)
        self.rule_lines = []
        self.define_lines = []  # (name, expr_text, eq)
        self.identity_lines = []  # (family, ident, lhs_text, rhs_text, eq)


def _split_eq(text):
    if "@eq" in text:
        body, _, tag = text.partition("@eq")
        return body.strip(), tag.strip()
    return text.strip(), ""


def parse_document(text):
    """Parse one catalog document into raw blocks (no evaluation yet)."""
    blocks = []
    cur = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "presentation":
            cur = _Block(rest)
            blocks.append(cur)
            continue
        if cur is None:
            raise CatalogFormatError(f"line outside presentation block: {line!r}")
        if head == "generator":
            parts = rest.split()
            if len(parts) < 3 or parts[1] != "parity":
                raise CatalogFormatError(f"bad generator line: {line!r}")
            name, parity = parts[0], int(parts[2])
            inverse_of = None
            if len(parts) > 3:
                if len(parts) != 5 or parts[3] != "inverse_of":
                    raise CatalogFormatError(f"bad generator line: {line!r}")
                inverse_of = parts[4]
            cur.generators.append(Generator(name, parity, inverse_of))
        elif head in ("rule", "lrule"):
            body, eq = _split_eq(rest)
            lhs, arrow, rhs = body.partition("->")
            if not arrow:
                raise CatalogFormatError(f"rule line missing '->': {line!r}")
            cur.rule_lines.append((head, lhs.strip(), rhs.strip(), eq))
        elif head == "rules":
            parts = rest.split()
            pairs = [part.partition("=") for part in parts[2:]]
            names = {old: new for old, _, new in pairs}
            if (len(parts) < 2 or parts[0] != "from" or len(names) < len(pairs)
                    or not all(old and eqsign and new for old, eqsign, new in pairs)):
                raise CatalogFormatError(f"bad rules line: {line!r}")
            cur.rule_lines.append(("from", parts[1], names))
        elif head == "define":
            body, eq = _split_eq(rest)
            name, eqsign, expr = body.partition("=")
            if not eqsign:
                raise CatalogFormatError(f"define line missing '=': {line!r}")
            cur.define_lines.append((name.strip(), expr.strip(), eq))
        elif head == "identity":
            body, eq = _split_eq(rest)
            try:
                family, ident, rest2 = body.split(None, 2)
            except ValueError:
                raise CatalogFormatError(f"bad identity line: {line!r}") from None
            if not rest2.startswith(":"):
                raise CatalogFormatError(f"identity line missing ':': {line!r}")
            lhs, eqsign, rhs = rest2[1:].partition("=")
            if not eqsign:
                raise CatalogFormatError(f"identity line missing '=': {line!r}")
            cur.identity_lines.append((family, ident, lhs.strip(), rhs.strip(), eq))
        else:
            raise CatalogFormatError(f"unrecognized catalog line: {line!r}")
    return blocks


def _single_word(el, what):
    if len(el.terms) != 1:
        raise CatalogFormatError(f"{what} must be a single word")
    ((word, coeff),) = el.terms.items()
    if coeff != ONE:
        raise CatalogFormatError(f"{what} must have coefficient 1")
    return word


def _rules_from(block, built, source, names):
    """The rules of the presentation `source`, built earlier, renamed."""
    src = built.get(source)
    if src is None:
        raise CatalogFormatError(
            f"{block.name}: rules from {source!r}, which is not an earlier presentation")
    lacking = set(names) - set(src.index)
    if lacking:
        raise CatalogFormatError(
            f"{block.name}: rules from {source} renames {sorted(lacking)}, "
            f"which {source} lacks")
    foreign = {names.get(g, g) for g in src.index} - {g.name for g in block.generators}
    if foreign:
        raise CatalogFormatError(
            f"{block.name}: rules from {source} use {sorted(foreign)}, "
            f"which {block.name} lacks")
    return [r.renamed(names) for r in src.rules]


def _build(block, built):
    """The presentation of one block; `built` maps the names of the blocks
    built before it to their presentations, for `rules from`."""
    # each generator and define is a name token of the grammar, not q, once
    taken = set()
    for kind, name in ([("generator", g.name) for g in block.generators]
                       + [("define", line[0]) for line in block.define_lines]):
        why = ("is not a name" if not (name.isascii() and name.isidentifier()) else
               "is the scalar q" if name == "q" else "is named twice" if name in taken else "")
        if why:
            raise CatalogFormatError(f"{block.name}: {kind} {name!r} {why}")
        taken.add(name)
    # rules are read against the bare generators, composites and identities
    # against the presentation they belong to
    stub = Presentation(block.name, block.generators, [], validate=False)
    rules = []
    for line in block.rule_lines:
        if line[0] == "from":
            rules.extend(_rules_from(block, built, *line[1:]))
            continue
        kind, lhs_text, rhs_text, eq = line
        pattern = _single_word(parse_expression(lhs_text, stub),
                               f"{block.name} rule pattern {lhs_text!r}")
        rules.append(RewriteRule(pattern, parse_expression(rhs_text, stub), eq=eq,
                                 localized=(kind == "lrule")))
    p = Presentation(block.name, block.generators, rules)
    for name, expr_text, eq in block.define_lines:
        p.defined[name] = parse_expression(expr_text, p)
    seen = set()
    for family, ident, lhs_text, rhs_text, eq in block.identity_lines:
        if (family, ident) in seen:
            raise CatalogFormatError(
                f"{block.name}: duplicate identity {ident!r} in family {family!r}")
        seen.add((family, ident))
        lhs_ast, rhs_ast = parse_ast(lhs_text), parse_ast(rhs_text)
        p.identities.append(Identity(family, ident, eval_ast(lhs_ast, p),
                                     eval_ast(rhs_ast, p), eq=eq,
                                     lhs_ast=lhs_ast, rhs_ast=rhs_ast))
    return p


class Catalog:
    """All presentations of the transcription, loaded and validated.

    A catalog loaded from the documents is symbolic; `at(q0)` maps it to its
    numeric shadow at an exact rational q0, whose scalars are constants.
    `symbolic` is the catalog a shadow maps, and a symbolic catalog itself.
    """

    def __init__(self):
        self.q0 = None
        self.symbolic = self
        self.presentations = {}
        self.families = {}
        for fname in _FILES:
            for block in parse_document(_data_text(fname)):
                if block.name in self.presentations:
                    raise CatalogFormatError(f"duplicate presentation {block.name}")
                p = self.presentations[block.name] = _build(block, self.presentations)
                for ident in p.identities:
                    other = self.families.setdefault(ident.family, p)
                    if other is not p:
                        raise CatalogFormatError(
                            f"family {ident.family!r} is in both {other.name} "
                            f"and {p.name}")

    def at(self, q0):
        """The numeric shadow at q0: the symbolic catalog with every
        coefficient mapped by `scalar`."""
        sym, shadow = self.symbolic, Catalog.__new__(Catalog)
        shadow.q0, shadow.symbolic, shadow._values = Fraction(q0), sym, {}
        shadow.presentations = {n: p.mapped(shadow.scalar)
                                for n, p in sym.presentations.items()}
        shadow.families = {f: shadow.presentations[p.name] for f, p in sym.families.items()}
        return shadow

    def presentation(self, name):
        try:
            return self.presentations[name]
        except KeyError:
            raise UnknownPresentationError(
                f"unknown presentation {name!r}; have {sorted(self.presentations)}"
            ) from None

    def scalar(self, s):
        """Map a symbolic scalar into this catalog's scalars: itself, or its
        value at q0 as a constant scalar, evaluated once per scalar."""
        if self.q0 is None:
            return s
        value = self._values.get(s)
        if value is None:
            value = self._values[s] = LaurentScalar.from_fraction(s.eval_at(self.q0))
        return value

    def names(self):
        return sorted(self.presentations)

    def family(self, name):
        """(presentation, its identities in the named family), read from
        the presentation's identities now."""
        try:
            p = self.families[name]
        except KeyError:
            raise UnknownFamilyError(
                f"unknown family {name!r}; have {sorted(self.families)}"
            ) from None
        return p, [ident for ident in p.identities if ident.family == name]

    def coverage_audit(self):
        """Relation families whose rule/identity count disagrees with the
        transcription table; must come back empty."""
        # rule patterns are unique in a presentation, identity names in a family
        counts = Counter()
        for p in self.presentations.values():
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


_CACHE = {}


def get_catalog(q0=None):
    """The symbolic catalog, or its shadow at q0; each built once per process."""
    key = Fraction(q0) if q0 is not None else None
    if key not in _CACHE:
        _CACHE[key] = Catalog() if key is None else get_catalog().at(key)
    return _CACHE[key]


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
