from collections import Counter
from fractions import Fraction

import pytest

from qdc.catalog import (
    Catalog,
    _build,
    counit_audit,
    get_catalog,
    parse_document,
    roundtrip_lines,
)
from qdc.errors import CatalogFormatError, UnknownPresentationError
from qdc.hopf import HopfData
from qdc.kernel import format_element, normalize
from qdc.parser import parse_ast, print_ast
from qdc.kernel import Element
from qdc.ring import ONE, LaurentScalar, lfrac, lint


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
        == loc.unit()
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
    assert cat.coverage_audit() == []


def test_coverage_audit_reports_a_short_family():
    fresh = Catalog()
    la = fresh.presentation("LieAlg")
    la.rules.remove(next(r for r in la.rules if r.eq == "(45)"))
    assert fresh.coverage_audit() == ["(45): expected 16 entries, best block has 15"]

    fresh = Catalog()
    loc = fresh.presentation("Omega_loc")
    loc.identities.remove(next(i for i in loc.identities if i.eq == "(33)"))
    assert [p.split(":")[0] for p in fresh.coverage_audit()] == ["(33)"]


def test_duplicate_identity_name_is_refused():
    (block,) = parse_document("presentation X\n"
                              "identity fam one : 1 = 1\n"
                              "identity fam one : 1 = 1 + 1\n")
    with pytest.raises(CatalogFormatError, match="'one' in family 'fam'"):
        _build(block)


def test_family_in_two_presentations_is_refused(monkeypatch):
    import qdc.catalog

    doc = ("presentation X\nidentity fam one : 1 = 1\n"
           "presentation Y\nidentity fam two : 1 = 1\n")
    monkeypatch.setattr(qdc.catalog, "_FILES", ("doc.txt",))
    monkeypatch.setattr(qdc.catalog, "_data_text", lambda fname: doc)
    with pytest.raises(CatalogFormatError, match="'fam' is in both X and Y"):
        Catalog()


def test_counit_audit_empty(cat):
    assert counit_audit(cat) == []


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
        assert p.missing_pairs() == [], name


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
    import qdc.catalog
    from qdc.cli import run_suite

    built = Counter()
    build = qdc.catalog._build

    def counting_build(block):
        built[block.name] += 1
        return build(block)

    monkeypatch.setattr(qdc.catalog, "_build", counting_build)
    monkeypatch.setattr(qdc.catalog, "_CACHE", {})
    get_catalog(2)
    assert run_suite("all", 2).ok
    assert run_suite("superalgebra", 2).ok
    blocks = [b.name for f in qdc.catalog._FILES
              for b in parse_document(qdc.catalog._data_text(f))]
    assert built == Counter(blocks)
    assert set(built.values()) == {1}
