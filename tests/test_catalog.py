import hashlib
import json
import re
from collections import Counter
from fractions import Fraction

import pytest

import qdc.catalog
from qdc.catalog import (
    _FILES,
    Catalog,
    _build,
    _data_text,
    get_catalog,
    parse_document,
)
from qdc.errors import CatalogFormatError, UnknownPresentationError
from qdc.hopf import HopfData
from qdc.kernel import Presentation, RewriteRule, format_element, normalize
from qdc.parser import parse_ast, print_ast
from qdc.kernel import Element
from qdc.ring import ONE, LaurentScalar, lfrac, lint, qp
from transcription import coverage_audit, roundtrip_lines


def test_presentation_shapes(cat):
    # oriented forms of the coordinate relations: four q-commutations, two
    # nilpotent squares, one anticommutator, one a-d relation
    g = cat.presentation("A_glq11")
    assert len(g.generators) == 4
    assert len(g.rules) == 8
    om = cat.presentation("Omega")
    assert len(om.generators) == 8
    assert len(om.rules) == 32
    loc = cat.presentation("Omega_loc")
    assert len(loc.generators) == 11
    assert len(loc.rules) == 62


def test_unknown_presentation(cat):
    with pytest.raises(UnknownPresentationError):
        cat.presentation("nonexistent")


def test_superinverse_row_products(cat):
    loc = cat.presentation("Omega_loc")
    inv = loc.defined
    assert normalize(loc.el("a") * inv["iA"] + loc.el("beta") * inv["iC"], loc) \
        == Element.unit()
    assert normalize(loc.el("gamma") * inv["iA"] + loc.el("d") * inv["iC"], loc) \
        .is_zero()


def test_superinverse_counit_image(cat):
    inv = cat.presentation("Omega_loc").defined
    assert HopfData(cat).counit(inv["iA"]) == ONE


def test_maurer_forms(cat):
    loc = cat.presentation("Omega_loc")
    raw_w1 = loc.defined["w1"]
    nf_w1 = normalize(raw_w1, loc)
    assert loc.element_parity(nf_w1) == 1
    assert loc.element_parity(normalize(loc.defined["u"], loc)) == 0
    assert normalize(raw_w1 * raw_w1, loc).is_zero()


def test_coverage_audit_empty(cat):
    assert coverage_audit(cat) == []


def test_coverage_audit_reports_a_short_family():
    fresh = Catalog()
    la = fresh.presentation("LieAlg")
    la.rules.remove(next(r for r in la.rules if r.eq == "(45)"))
    assert coverage_audit(fresh) == ["(45): expected 16 entries, best block has 15"]

    fresh = Catalog()
    loc = fresh.presentation("Omega_loc")
    loc.identities.remove(next(i for i in loc.identities if i.eq == "(33)"))
    assert [p.split(":")[0] for p in coverage_audit(fresh)] == ["(33)"]


def test_duplicate_identity_name_is_refused():
    (block,) = parse_document("presentation X\n"
                              "identity fam one : 1 = 1\n"
                              "identity fam one : 1 = 1 + 1\n")
    with pytest.raises(CatalogFormatError, match="'one' in family 'fam'"):
        _build(block, {})


def test_no_rule_line_is_written_twice():
    # a block that needs another block's relations takes them by `rules from`
    lines = Counter(line for fname in _FILES
                    for block in parse_document(_data_text(fname))
                    for line in block.rule_lines if line[0] != "from")
    assert [line for line, n in lines.items() if n > 1] == []


def _conjugated_rules(cat):
    """Omega_loc's rules with a formal inverse, computed from Omega's rules.

    For each inverse u of g, in generator order, conjugating by u turns the
    rule y*g -> c*g*y + L, y a non-inverse after u, into y*u -> c^-1*(u*y -
    u*L*u), and the rule g*x -> c*x*g + L, x before g, into u*x -> c^-1*(x*u
    - u*L*u); g*x is one of these when x is an inverse itself.  Each u*L*u
    is reduced with Omega's rules, the cancellations and the new rules,
    which start as their leading terms; a pass over one u repeats until
    none of its rules changes.  A new rule is localized when some
    replacement word is not below its pattern in deglex, and its tag is
    `derived` and the equation of the Omega rule it comes from."""
    omega, loc = cat.presentation("Omega"), cat.presentation("Omega_loc")
    names = [g.name for g in loc.generators]
    inverse = {g.inverse_of: g.name for g in loc.generators if g.inverse_of}
    base = [*omega.rules, *(RewriteRule(w, Element.unit()) for g, u in inverse.items()
                            for w in ((g, u), (u, g)))]
    rules = {r.pattern: r for r in omega.rules}
    new = []
    for g, u in inverse.items():
        # (new pattern, source pattern, the source's leading word)
        steps = [((y, u), (y, g), (g, y)) for y in names[names.index(u) + 1:]
                 if y not in inverse.values()]
        steps += [((u, x), (g, x), (x, g)) for x in names[:names.index(g)]]
        new += [pat for pat, _, _ in steps]
        for pat, src, lead in steps:
            c = rules[src].replacement.terms[lead]
            rules[pat] = RewriteRule(pat, Element.word(pat[::-1], c.unit_inverse()))
        changed = True
        while changed:
            p = Presentation("conjugated", loc.generators,
                             base + [rules[pat] for pat in new], validate=False)
            changed = False
            for pat, src, lead in steps:
                source = rules[src]
                c = source.replacement.terms[lead]
                rest = source.replacement - Element.word(lead, c)
                conj = normalize(Element.word((u,)) * rest * Element.word((u,)), p)
                rep = (Element.word(pat[::-1]) - conj).scaled(c.unit_inverse())
                changed |= rep != rules[pat].replacement
                rules[pat] = RewriteRule(
                    pat, rep, eq="derived" + source.eq.removeprefix("derived"),
                    localized=any(p.word_key(w) >= p.word_key(pat) for w in rep.terms))
    return {pat: rules[pat] for pat in new}


def test_localized_rules_follow_from_omega_by_conjugation(cat):
    # the 24 hand-derived rules of omega_loc.txt, their lrule kind and their
    # tags, pinned to Omega's rules
    computed = _conjugated_rules(cat)
    written = {r.pattern: r for r in cat.presentation("Omega_loc").rules
               if r.eq.startswith("derived")}
    replacements = {pat: r.replacement for pat, r in written.items()}
    assert len(computed) == 24
    assert {pat: r.replacement for pat, r in computed.items()} == replacements
    assert {pat: r.localized for pat, r in computed.items()} == \
        {pat: r.localized for pat, r in written.items()}
    assert sum(r.localized for r in written.values()) == 10
    # 18 tags name the source's equation; six lrules are tagged (24) for a
    # source in (24a) or (24b)
    other = {pat for pat in written if written[pat].eq != computed[pat].eq}
    assert len(other) == 6
    assert all(written[pat].eq == "derived(24)" and written[pat].localized
               and computed[pat].eq in ("derived(24a)", "derived(24b)") for pat in other)
    # negative control: a wrong sign on one correction is seen
    lead = Element.word(("beta", "Dgamma_inv"))
    correction = replacements[("Dgamma_inv", "beta")] - lead
    replacements[("Dgamma_inv", "beta")] = lead - correction
    assert {pat: r.replacement for pat, r in computed.items()} != replacements


_Y = "presentation Y\ngenerator a parity 0\ngenerator b parity 0\nrule b*a -> q*a*b @eq (9)\n"


def _load(monkeypatch, doc):
    monkeypatch.setattr(qdc.catalog, "_FILES", ("doc.txt",))
    monkeypatch.setattr(qdc.catalog, "_data_text", lambda fname: doc)
    return Catalog()


def test_rules_from_copies_and_renames(monkeypatch):
    cat = _load(monkeypatch, _Y + "presentation X\ngenerator x parity 0\n"
                "generator y parity 0\ngenerator z parity 0\n"
                "rules from Y a=x b=y\nrule z*x -> x*z\nrules from Y b=z a=y\n")
    assert [(r.pattern, r.replacement, r.eq) for r in cat.presentation("X").rules] == [
        (("y", "x"), Element.word(("x", "y"), qp(1)), "(9)"),
        (("z", "x"), Element.word(("x", "z")), ""),
        (("z", "y"), Element.word(("y", "z"), qp(1)), "(9)"),
    ]


@pytest.mark.parametrize("doc, message", [
    ("presentation X\ngenerator a parity 0\nrules from Nowhere\n",
     "X: rules from 'Nowhere', which is not an earlier presentation"),
    ("presentation X\ngenerator a parity 0\ngenerator b parity 0\nrules from Y\n" + _Y,
     "X: rules from 'Y', which is not an earlier presentation"),
    (_Y + "presentation X\ngenerator a parity 0\ngenerator b parity 0\n"
     "rules from Y z=a\n", "X: rules from Y renames ['z'], which Y lacks"),
    (_Y + "presentation X\ngenerator a parity 0\ngenerator b parity 0\n"
     "rules from Y b=c\n", "X: rules from Y use ['c'], which X lacks"),
    (_Y + "presentation X\ngenerator a parity 0\nrules from Y\n",
     "X: rules from Y use ['b'], which X lacks"),
    (_Y + "presentation X\nrules of Y\n", "bad rules line"),
    (_Y + "presentation X\nrules from\n", "bad rules line"),
    (_Y + "presentation X\nrules from Y a=\n", "bad rules line"),
    (_Y + "presentation X\nrules from Y a\n", "bad rules line"),
    (_Y + "presentation X\nrules from Y a=b a=c\n", "bad rules line"),
])
def test_rules_from_refusals(monkeypatch, doc, message):
    with pytest.raises(CatalogFormatError, match=re.escape(message)):
        _load(monkeypatch, doc)


# each name must read back through the expression grammar as itself
@pytest.mark.parametrize("lines, message", [
    ("generator q parity 0\nidentity fam one : b*q = q*b\n", "X: generator 'q' is the scalar q"),
    ("generator q parity 0\nrule b*q -> q*b\n", "X: generator 'q' is the scalar q"),
    ("define q = 2*b\n", "X: define 'q' is the scalar q"),
    ("generator a-b parity 0\n", "X: generator 'a-b' is not a name"),
    ("define a-b = 2*b\n", "X: define 'a-b' is not a name"),
    ("define 1b = 2*b\n", "X: define '1b' is not a name"),
    ("define = 2*b\n", "X: define '' is not a name"),
    ("define b = 2*b\n", "X: define 'b' is named twice"),
    ("define c = 2*b\ndefine c = 3*b\n", "X: define 'c' is named twice"),
    ("generator b parity 1\n", "X: generator 'b' is named twice"),
])
def test_names_the_grammar_cannot_read_back_are_refused(monkeypatch, lines, message):
    with pytest.raises(CatalogFormatError, match=re.escape(message)):
        _load(monkeypatch, "presentation X\ngenerator b parity 0\n" + lines)


def test_family_in_two_presentations_is_refused(monkeypatch):
    doc = ("presentation X\nidentity fam one : 1 = 1\n"
           "presentation Y\nidentity fam two : 1 = 1\n")
    with pytest.raises(CatalogFormatError, match="'fam' is in both X and Y"):
        _load(monkeypatch, doc)


def test_identity_parity_balance(cat):
    for name in cat.names():
        p = cat.presentation(name)
        for ident in p.identities:
            pl = p.element_parity(ident.lhs)
            pr = p.element_parity(ident.rhs)
            if pl is not None and pr is not None:
                assert pl == pr, (name, ident.name)


def test_rule_coverage_complete(cat):
    # every out-of-order adjacent pair rewrites; no irreducible pairs needed
    for name in cat.names():
        p = cat.presentation(name)
        names = [g.name for g in p.generators]
        missing = [(y, x) for i, x in enumerate(names) for y in names[i + 1:]
                   if (y, x) not in p.rule_by_pair]
        assert missing == [], name


def test_documents_roundtrip_bit_exact():
    for fname, text in roundtrip_lines():
        assert print_ast(parse_ast(text)) == text, (fname, text)


def test_document_parser_rejects_garbage():
    from qdc.errors import CatalogFormatError

    with pytest.raises(CatalogFormatError):
        parse_document("presentation X\nfrobnicate y\n")
    with pytest.raises(CatalogFormatError):
        parse_document("rule a -> b\n")


def _at(e, q0):
    """The symbolic element e with q0 substituted in every coefficient."""
    return Element({w: LaurentScalar.from_fraction(c.eval_at(q0))
                    for w, c in e.terms.items()})


def _is_constant(c):
    return type(c) is LaurentScalar and set(c.coeffs) == {0}


def test_numeric_catalog_substitutes(cat, cat_q2):
    sym = cat.presentation("A_glq11").rule_by_pair[("d", "a")].replacement
    r = cat_q2.presentation("A_glq11").rule_by_pair[("d", "a")]
    for c in r.replacement.terms.values():
        assert _is_constant(c), c
    assert r.replacement == _at(sym, 2)
    assert r.replacement.terms == {("a", "d"): lint(1), ("beta", "gamma"): lfrac(3, 2)}


def _shadow_elements(cat):
    """(what, element) for every rule, composite and identity side of a
    shadow catalog, and the normal form of every identity's lhs - rhs."""
    for name in cat.names():
        p = cat.presentation(name)
        for r in p.rules:
            yield f"{name} rule {r.pattern}", r.replacement
        for k, e in p.defined.items():
            yield f"{name} composite {k}", e
        for i in p.identities:
            yield f"{name} {i.family}.{i.name} lhs", i.lhs
            yield f"{name} {i.family}.{i.name} rhs", i.rhs
            yield f"{name} {i.family}.{i.name} residual", normalize(i.lhs - i.rhs, p)


@pytest.mark.parametrize("q0", [2, Fraction(3, 2)])
def test_shadow_catalog_is_exact_rationals(cat, q0):
    # every shadow coefficient is a constant scalar, the value at q0 of the
    # symbolic coefficient it shadows, down to the normal forms
    seen = 0
    pairs = zip(_shadow_elements(get_catalog(q0)), _shadow_elements(cat), strict=True)
    for (what, e), (_, sym) in pairs:
        for c in e.terms.values():
            seen += 1
            assert _is_constant(c), (what, c)
        assert e == _at(sym, q0), what
    assert seen > 0


# normal forms of lhs - 2*rhs of catalog identities in the shadow
_SHADOW_RESIDUALS = [
    (2, "Omega_loc", "a_u",
     "-1/2*a*d_inv*Dbeta - 1/2*beta*d_inv*Da + 1/4*beta*gamma*d_inv*d_inv*Dbeta"),
    (2, "LieAlg", "nm_np", "-T1 - T2 + 3/4*T1*T2 + 3/4*T2*T2"),
    (2, "Omega_loc", "a_A", "-1 - 2*a_inv*beta*gamma*d_inv"),
    (Fraction(3, 2), "LieAlg", "T1_np", "9/4*nabla_p - 5/4*T2*nabla_p"),
    (Fraction(3, 2), "LieAlg", "np_nm",
     "-9/4*T1 - 9/4*T2 + 5/4*T1*T2 + 5/4*T2*T2"),
]


@pytest.mark.parametrize("q0, pname, ident, text", _SHADOW_RESIDUALS)
def test_shadow_residual_text(q0, pname, ident, text):
    p = get_catalog(q0).presentation(pname)
    (i,) = [i for i in p.identities if i.name == ident]
    assert format_element(normalize(i.lhs - i.rhs - i.rhs, p), p) == text


@pytest.mark.parametrize("q0", [2, Fraction(3, 2), 1])
def test_shadow_is_the_symbolic_catalog_mapped(cat, q0):
    # same words, tags, flags, composites, identities and family index; each
    # coefficient is its symbolic one at q0, vanishing terms dropped
    shadow = get_catalog(q0)
    assert shadow.symbolic is cat and shadow.q0 == q0
    assert shadow.names() == cat.names()
    assert ({f: p.name for f, p in shadow.families.items()}
            == {f: p.name for f, p in cat.families.items()})
    for name in cat.names():
        sym, p = cat.presentation(name), shadow.presentation(name)
        assert p.generators == sym.generators, name
        assert ([(r.pattern, r.eq, r.localized) for r in p.rules]
                == [(r.pattern, r.eq, r.localized) for r in sym.rules]), name
        for r, rs in zip(p.rules, sym.rules):
            assert r.replacement == _at(rs.replacement, q0), (name, r.pattern)
        assert list(p.defined) == list(sym.defined), name
        for k, e in p.defined.items():
            assert e == _at(sym.defined[k], q0), (name, k)
        assert ([(i.family, i.name, i.eq, i.lhs_ast, i.rhs_ast) for i in p.identities]
                == [(i.family, i.name, i.eq, i.lhs_ast, i.rhs_ast)
                    for i in sym.identities]), name
        for i, si in zip(p.identities, sym.identities):
            assert (i.lhs, i.rhs) == (_at(si.lhs, q0), _at(si.rhs, q0)), (name, i.name)


def test_documents_are_evaluated_once_per_process(monkeypatch):
    # the shadow maps the symbolic catalog, and the shadow run's classical
    # limit reads that same symbolic catalog, so no block is built twice
    from qdc.cli import run_suite

    built = Counter()
    build = qdc.catalog._build

    def counting_build(block, presentations):
        built[block.name] += 1
        return build(block, presentations)

    monkeypatch.setattr(qdc.catalog, "_build", counting_build)
    monkeypatch.setattr(qdc.catalog, "_CACHE", {})
    get_catalog(2)
    assert run_suite("all", 2).ok
    assert run_suite("superalgebra", 2).ok
    blocks = [b.name for f in _FILES for b in parse_document(_data_text(f))]
    assert built == Counter(blocks)
    assert set(built.values()) == {1}


def _canonical_dump(p):
    """The loaded presentation as text: generators in order, rules by their
    pattern's term order, composites by name and identities in order."""
    def text(e):
        return format_element(e, p)

    return json.dumps({
        "generators": [[g.name, g.parity, g.inverse_of] for g in p.generators],
        "rules": [[list(r.pattern), text(r.replacement), r.eq, r.localized]
                  for r in sorted(p.rules, key=lambda r: p.word_key(r.pattern))],
        "composites": [[k, text(p.defined[k])] for k in sorted(p.defined)],
        "identities": [[i.family, i.name, i.eq, text(i.lhs), text(i.rhs)]
                       for i in p.identities],
    })


# sha256 of _canonical_dump of every presentation of the symbolic catalog
_CATALOG_SHA256 = {
    "A_glq11": "78283ace8d6df493378b10f5698f6f5fe269e0f7ae4a5883efcf50d44fb115ea",
    "A_hat": "233ff0323edb578d6c58e85a34eb8cf1b95522561120da86895ef65931d72806",
    "A_q": "d8013fc94f639a22629623557a6ac615c9febd99daa049fa8c004fd12866ef74",
    "A_q_dual": "0d0b7d9cd7f5b4b855f10502935f3319582c190aa5c8faaa07267d937a79230c",
    "Forms": "69615b098603ee371295245f6f1903b55c6de93b8e083dfa5dad0a4f04f5a7d3",
    "LieAlg": "de3a4e6b39e0e4c4098ca52c744bfe081bc63d37f079a0bec93720e4a331383a",
    "Omega": "098a5a799cbe477268feb3c76024dcef32474a39107f66f6256b666accf34534",
    "Omega_loc": "a8c7bf2397bba3fc756b4830bdf70866db081b5460a6ec1c924673f6fa72d1a5",
    "Planes_diff": "2bc13f5b4c4c609fe014dac4413265c97f985d2b26b4ad193f7b20435a752dd5",
}


def test_loaded_catalog_is_pinned(cat):
    digests = {name: hashlib.sha256(_canonical_dump(cat.presentation(name)).encode())
               .hexdigest() for name in cat.names()}
    assert digests == _CATALOG_SHA256
