import itertools
import random
import sys

import pytest

from qdc.errors import NonHomogeneousError, QdcError, ReductionBudgetError
from qdc.kernel import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    apply_derivation,
    branches,
    check_local_confluence,
    confluence_residual,
    format_element,
    graded_commutator,
    normalize,
    substitute,
    tensor_legs,
    tensor_power,
    tensor_word,
)
from qdc.calculus import exterior_derivation
from qdc.ring import ONE, LaurentScalar, lint, qp

W = Element.word


def test_multiply_concatenates(cat):
    p = cat.presentation("A_glq11")
    assert p.el("a") * p.el("beta") == W(("a", "beta"))


def test_multiply_distributes(cat):
    p = cat.presentation("A_glq11")
    left = (p.el("a") + p.el("beta")) * p.el("a")
    assert left == W(("a", "a")) + W(("beta", "a"))


def test_multiply_scalars_cancel(cat):
    p = cat.presentation("A_glq11")
    assert p.el("a", qp(1)) * p.el("d", qp(-1)) == W(("a", "d"))


def test_normalize_swaps_beta_a(cat):
    # a*beta = q*beta*a rearranged: beta*a reduces to q^-1 a*beta
    p = cat.presentation("A_glq11")
    got = normalize(W(("beta", "a")), p)
    assert got == W(("a", "beta"), qp(-1))


def test_normalize_kills_odd_square(cat):
    p = cat.presentation("A_glq11")
    assert normalize(W(("beta", "beta")), p).is_zero()


def test_normalize_d_then_a(cat):
    # a*d = d*a + (q - q^-1)gamma*beta rearranged, then gamma*beta -> -beta*gamma
    p = cat.presentation("A_glq11")
    got = normalize(W(("d", "a")), p)
    want = W(("a", "d")) + W(("beta", "gamma"), qp(1) - qp(-1))
    assert got == want


def test_normalize_idempotent_and_linear(cat):
    p = cat.presentation("Omega")
    rng = random.Random(7)
    names = [g.name for g in p.generators]
    for _ in range(50):
        def rand_el():
            out = Element.zero()
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
                out = out + W(w, LaurentScalar({rng.randint(-2, 2): rng.randint(-3, 3)}))
            return out
        e, f = rand_el(), rand_el()
        alpha = LaurentScalar({rng.randint(-2, 2): rng.randint(1, 3)})
        ne = normalize(e, p)
        assert normalize(ne, p) == ne
        assert normalize(e.scaled(alpha) + f, p) == ne.scaled(alpha) + normalize(f, p)


def test_normalize_preserves_parity(cat):
    p = cat.presentation("Omega")
    rng = random.Random(11)
    names = [g.name for g in p.generators]
    for _ in range(60):
        w = tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
        par = p.word_parity(w)
        nf = normalize(W(w), p)
        for word in nf.terms:
            assert p.word_parity(word) == par


def test_rule_orientation_enforced_at_load():
    gens = [Generator("x", 0), Generator("y", 0)]
    grows = RewriteRule(("y", "x"), W(("x", "y", "y")))
    with pytest.raises(QdcError):
        Presentation("bad", gens, [grows])


def test_parity_balance_enforced_at_load():
    gens = [Generator("x", 0), Generator("t", 1), Generator("s", 1)]
    bad = RewriteRule(("t", "x"), W(("x",)))
    with pytest.raises(QdcError):
        Presentation("bad", gens, [bad, RewriteRule(("t", "t"), Element.zero()),
                                   RewriteRule(("s", "s"), Element.zero())])


def test_confluence_overlap_examples(cat):
    p = cat.presentation("A_glq11")
    # d*beta*a admits two first reductions; both reach the same normal form
    nf1, nf2 = branches(("d", "beta", "a"), p)
    assert nf1 == nf2
    # the nilpotent overlap collapses both ways
    assert [nf.is_zero() for nf in branches(("beta", "beta", "beta"), p)] == [True, True]
    # one redex, one branch; none in a normal word
    assert branches(("beta", "a"), p) == [normalize(W(("beta", "a")), p)]
    assert branches(("a", "beta"), p) == []


def test_inverse_cancellation_word(cat):
    loc = cat.presentation("Omega_loc")
    assert normalize(W(("a", "a_inv", "beta")), loc) == W(("beta",))


def test_confluence_reports(cat):
    p = cat.presentation("A_glq11")
    rep = check_local_confluence(p, 4)
    assert rep.ok and rep.ambiguous > 0
    with pytest.raises(QdcError):
        check_local_confluence(p, 2)


def test_confluence_detects_inconsistency():
    # x*y oriented two ways at different scalars is not confluent
    gens = [Generator("x", 0), Generator("y", 0), Generator("z", 0)]
    rules = [
        RewriteRule(("y", "x"), W(("x", "y"), qp(1))),
        RewriteRule(("z", "y"), W(("y", "z"), qp(2))),
        RewriteRule(("z", "x"), W(("x", "z"), qp(3))),
    ]
    p = Presentation("twisted", gens, rules)
    assert check_local_confluence(p, 3).ok
    assert check_local_confluence(p).ok
    rules_bad = rules[:2] + [RewriteRule(("z", "x"), W(("x", "z"), qp(3)) + W(("y", "y")))]
    p_bad = Presentation("twisted_bad", gens, rules_bad)
    rep = check_local_confluence(p_bad, 3)
    assert not rep.ok
    # the critical-pair mode fails at the same first overlap
    pairs = check_local_confluence(p_bad)
    assert not pairs.ok
    assert pairs.failures[0][0] == rep.failures[0][0]


def _ambiguous_words(p, length):
    """Independent enumeration: words of the given length with two redexes."""
    names = [g.name for g in p.generators]
    return [
        w for w in itertools.product(names, repeat=length)
        if sum((w[i], w[i + 1]) in p.rule_by_pair for i in range(length - 1)) >= 2
    ]


def test_critical_pairs_are_the_degree_3_ambiguities(cat):
    total = 0
    for name in cat.names():
        p = cat.presentation(name)
        words = _ambiguous_words(p, 3)
        total += len(words)
        rep3 = check_local_confluence(p, 3)
        assert rep3.ambiguous == len(words), name
        if any(r.localized for r in p.rules):
            continue
        pairs = check_local_confluence(p)
        assert pairs.words_checked == pairs.ambiguous == len(words), name
        assert pairs.max_degree is None
        assert pairs.failures == rep3.failures, name
    assert total == 470


def test_critical_pairs_refuse_localized_rules(cat):
    with pytest.raises(QdcError, match="localized"):
        check_local_confluence(cat.presentation("Omega_loc"))


def test_derivation_examples(cat):
    d, loc = exterior_derivation(cat)
    # d(a) is the differential generator
    assert normalize(apply_derivation(d, W(("a",)), loc), loc) == W(("Da",))
    # even first factor: no sign
    got = apply_derivation(d, W(("a", "beta")), loc)
    assert got == W(("Da", "beta")) + W(("a", "Dbeta"))
    # odd first factor: Koszul sign on the second term
    got = apply_derivation(d, W(("beta", "gamma")), loc)
    assert got == W(("Dbeta", "gamma")) - W(("beta", "Dgamma"))


def test_substitute_multiplies_the_images_in_order():
    images = {"x": W(("a",)) + W(("b",)), "y": W(("c",), qp(1))}
    assert substitute(images, W(("x", "y"), lint(2))) == \
        W(("a", "c"), lint(2) * qp(1)) + W(("b", "c"), lint(2) * qp(1))
    assert substitute(images, W(("y", "y"))) == W(("c", "c"), qp(2))
    assert substitute(images, Element.unit(qp(3))) == Element.unit(qp(3))


def test_substitute_is_linear():
    images = {"x": W(("a",)) - W(("b",), qp(-1)), "y": W(("b", "a"))}
    e, f = W(("x", "y")), W(("y",), qp(2)) + W(("x", "x"))
    assert substitute(images, e.scaled(lint(3)) + f) == \
        substitute(images, e).scaled(lint(3)) + substitute(images, f)


def test_substitute_drops_zero_terms():
    images = {"x": Element.zero(), "y": W(("a",)), "z": W(("a",), -ONE)}
    assert substitute(images, W(("x", "y")) + W(("y",))) == W(("a",))
    assert substitute(images, W(("y",)) + W(("z",))).terms == {}


def test_substitute_needs_an_image_of_every_letter():
    with pytest.raises(KeyError) as exc:
        substitute({"x": W(("a",))}, W(("x", "y")))
    assert exc.value.args == ("y",)


def test_derivation_missing_image():
    from qdc.errors import MissingImageError

    gens = [Generator("x", 0)]
    p = Presentation("tiny", gens, [])
    with pytest.raises(MissingImageError):
        apply_derivation({}, W(("x",)), p)


def test_graded_leibniz_random(cat):
    d, loc = exterior_derivation(cat)
    rng = random.Random(23)
    names = [g.name for g in loc.generators]
    for _ in range(40):
        we = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        wf = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        e, f = W(we), W(wf)
        sign = lint(-1) if loc.word_parity(we) else ONE
        lhs = normalize(apply_derivation(d, e * f, loc), loc)
        rhs = (apply_derivation(d, e, loc) * f
               + (e * apply_derivation(d, f, loc)).scaled(sign))
        assert normalize(lhs - rhs, loc).is_zero()


def test_graded_commutator_examples(cat):
    la = cat.presentation("LieAlg")
    assert graded_commutator(la.el("T1"), la.el("T2"), la).is_zero()
    # odd-odd arguments anticommute: {np, np} = 2 np^2 = 0
    assert graded_commutator(la.el("nabla_p"), la.el("nabla_p"), la).is_zero()
    assert graded_commutator(la.el("a"), la.el("a"), la).is_zero()


def test_graded_commutator_rejects_mixed(cat):
    la = cat.presentation("LieAlg")
    with pytest.raises(NonHomogeneousError):
        graded_commutator(la.el("a") + la.el("beta"), la.el("a"), la)


def test_step_budget(cat, monkeypatch):
    p = cat.presentation("Omega")
    long_word = ("Dd",) * 1 + ("d", "gamma", "beta", "a") * 2
    monkeypatch.setenv("QDC_STEP_BUDGET", "2")
    with pytest.raises(ReductionBudgetError):
        normalize(W(long_word), p)


def _leftmost_nf(e, p):
    """Uncached reference: rewrite the leftmost redex of every word, one step
    at a time, until no word has one."""
    while True:
        out, done = Element.zero(), True
        for word, c in e.terms.items():
            for i in range(len(word) - 1):
                rule = p.rule_by_pair.get(word[i:i + 2])
                if rule is not None:
                    done = False
                    out = out + W(word[:i], c) * rule.replacement * W(word[i + 2:])
                    break
            else:
                out = out + W(word, c)
        if done:
            return out
        e = out


def _random_elements(p, rng, count, max_len=6):
    names = [g.name for g in p.generators]
    for _ in range(count):
        e = Element.zero()
        for _ in range(rng.randint(1, 2)):
            w = tuple(rng.choice(names) for _ in range(rng.randint(0, max_len)))
            e = e + W(w, LaurentScalar({rng.randint(-2, 2): rng.randint(-3, 3) or 1}))
        yield e


def test_normalize_matches_uncached_leftmost_rewriting(cat):
    # the fold runs on interned words; normalize must hand back tuples of
    # generator names, and dropping the memo must leave the node tables valid
    rng = random.Random(2005)
    free = Presentation("free", [Generator("x", 0), Generator("y", 0)], [])
    presentations = [cat.presentation(name) for name in cat.names()]
    presentations += [tensor_power(cat.presentation("Omega_loc"), 2), free]
    for p in presentations:
        elements = list(_random_elements(p, rng, 40))
        for k, e in enumerate(elements):
            if k == len(elements) // 2:
                p._nf_cache.clear()
            got = normalize(e, p)
            for word in got.terms:
                assert type(word) is tuple and all(g in p.index for g in word), (p.name, word)
            assert got == _leftmost_nf(e, p), (p.name, e)
        before = [normalize(e, p) for e in elements]
        p._nf_cache.clear()
        assert [normalize(e, p) for e in elements] == before, p.name


def _twisted_bad():
    """Not confluent at z*y*x: z passes x*y one way and y*y the other."""
    gens = [Generator("x", 0), Generator("y", 0), Generator("z", 0)]
    return Presentation("twisted_bad", gens, [
        RewriteRule(("y", "x"), W(("x", "y"), qp(1))),
        RewriteRule(("z", "y"), W(("y", "z"), qp(2))),
        RewriteRule(("z", "x"), W(("x", "z"), qp(3)) + W(("y", "y"))),
    ])


def _flipped_sign_product(cat):
    """A_glq11 * A_q with the Koszul sign of theta*beta flipped: not confluent
    at theta*d*a, where theta passes a*d one way and beta*gamma the other."""
    from qdc.kernel import graded_product

    good = graded_product(cat.presentation("A_glq11"), cat.presentation("A_q"))
    rules = [RewriteRule(r.pattern, -r.replacement) if r.pattern == ("theta", "beta")
             else r for r in good.rules]
    return Presentation("flipped_sign", good.generators, rules)


def test_confluence_residual_on_non_confluent_controls(cat):
    # the count of failing words, the first and its two normal forms
    twisted = "first at z*y*x: q^6*x*y*z + q^2*y*y*y vs q^6*x*y*z + q*y*y*y"
    flipped = ("first at theta*d*a: a*d*theta + (q - q^-1)*beta*gamma*theta vs "
               "a*d*theta + (-q + q^-1)*beta*gamma*theta")
    assert confluence_residual(_twisted_bad()) == f"1 failing overlaps; {twisted}"
    assert confluence_residual(_twisted_bad(), 4) == f"9 failing overlaps; {twisted}"
    assert confluence_residual(_flipped_sign_product(cat)) == \
        f"1 failing overlaps; {flipped}"
    assert confluence_residual(cat.presentation("A_glq11")) is None


def test_normalize_is_leftmost_on_non_confluent_controls(cat):
    p_bad = _twisted_bad()
    flipped = _flipped_sign_product(cat)
    rng = random.Random(1978)
    for p in (p_bad, flipped):
        rep = check_local_confluence(p)
        assert not rep.ok, p.name
        names = [g.name for g in p.generators]
        words = [w for n in range(4) for w in itertools.product(names, repeat=n)]
        words += [f[0] for f in rep.failures]
        for w in words:
            assert normalize(W(w), p) == _leftmost_nf(W(w), p), (p.name, w)
        for e in _random_elements(p, rng, 60):
            assert normalize(e, p) == _leftmost_nf(e, p), (p.name, e)


def _slotwise_product(tensors, p, n):
    """Reference for tensor_power(p, n): the product of tensors given as
    {legs: coefficient}, each product with the Koszul sign
    (-1)^(sum over j < i of p(a_i) p(x_j)) of (a_1 (x) ...)(x_1 (x) ...),
    then every slot normalized on its own in p."""
    prod = {((),) * n: ONE}
    for t in tensors:
        out = Element.zero()
        for a, c1 in prod.items():
            for x, c2 in t.items():
                odd = sum(p.word_parity(a[i]) * p.word_parity(x[j])
                          for j in range(n) for i in range(j + 1, n))
                legs = tuple(ai + xi for ai, xi in zip(a, x))
                out = out + Element({legs: -(c1 * c2) if odd % 2 else c1 * c2})
        prod = out.terms
    ref = Element.zero()
    for legs, c in prod.items():
        slots = [normalize(W(leg), p).terms.items() for leg in legs]
        for combo in itertools.product(*slots):
            coeff = c
            for _, ck in combo:
                coeff = coeff * ck
            ref = ref + W(tensor_word(*(u for u, _ in combo)), coeff)
    return ref


def test_tensor_power_matches_slotwise_normalization(cat):
    rng = random.Random(1999)
    loc = cat.presentation("Omega_loc")
    flipped = _flipped_sign_product(cat)
    cases = [(loc, 2), (loc, 3), (_twisted_bad(), 2), (flipped, 2), (flipped, 3)]
    for p, n in cases:
        power = tensor_power(p, n)
        names = [g.name for g in p.generators]
        # the non-confluent controls' failing words appear as legs too
        special = [f[0] for f in check_local_confluence(p, 3).failures]

        def leg():
            if special and rng.random() < 0.3:
                return rng.choice(special)
            return tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))

        for _ in range(25):
            tensors = [{tuple(leg() for _ in range(n)):
                        LaurentScalar({rng.randint(-2, 2): rng.randint(-3, 3) or 1})
                        for _ in range(rng.randint(1, 2))} for _ in range(2)]
            got = Element.unit()
            for t in tensors:
                got = got * Element({tensor_word(*legs): c for legs, c in t.items()})
            got = normalize(got, power)
            assert got == _slotwise_product(tensors, p, n), (p.name, n, tensors)
            for w in got.terms:
                assert tensor_word(*tensor_legs(w, n)) == w


def test_renamed_rule_keeps_tag_flag_and_coefficients():
    rule = RewriteRule(("b", "a"), W(("a", "b"), qp(1)) + W(("b", "c"), lint(2)),
                       eq="(9)", localized=True)
    assert rule.renamed({"b": "y"}) == RewriteRule(
        ("y", "a"), W(("a", "y"), qp(1)) + W(("y", "c"), lint(2)), "(9)", True)
    # words that a renaming makes equal add up, and a zero sum drops out
    merged = RewriteRule(("c", "a"), W(("a", "b")) - W(("a", "c")))
    assert merged.renamed({"c": "b"}).replacement.is_zero()


def _rewrite_once(word, i, rule):
    """word with the rule's pattern at position i replaced, unreduced."""
    return W(word[:i]) * rule.replacement * W(word[i + 2:])


def test_omega_loc_rewriting_does_not_terminate(cat):
    # Dgamma_inv*a_inv*a_inv rewrites in two steps, each to the correction
    # word of Dgamma_inv*a_inv with coefficient 1 - q^-2, into a word that
    # contains it, so no well-founded order compatible with multiplication
    # orients Omega_loc's rules and the diamond lemma cannot decide it
    p = cat.presentation("Omega_loc")
    rule = p.rule_by_pair[("Dgamma_inv", "a_inv")]
    w0 = ("Dgamma_inv", "a_inv", "a_inv")

    def correction(word, i):
        assert word[i:i + 2] == rule.pattern
        (out,) = [w for w, c in _rewrite_once(word, i, rule).terms.items()
                  if c == qp(0) - qp(-2)]
        return out

    w2 = correction(correction(w0, 0), 5)
    u = ("a_inv", "a_inv", "gamma", "Da")
    v = ("gamma", "Da", "Dgamma_inv", "Dgamma_inv")
    assert w2 == u + w0 + v


def test_long_ladder_within_default_budget(cat, monkeypatch):
    # from a cold cache (d*a)^200 takes 100,297 rule applications
    monkeypatch.delenv("QDC_STEP_BUDGET", raising=False)
    omega = cat.presentation("Omega")
    p = Presentation("Omega_cold", omega.generators, omega.rules)
    y = normalize(W(("d", "a") * 200), p)
    x = normalize(W(("d", "a") * 100), p)
    assert len(x.terms) == len(y.terms) == 2
    assert normalize(x * x, p) == y


def test_format_element_roundtrips_through_parser(cat):
    from qdc.parser import parse_expression

    p = cat.presentation("Omega")
    e = normalize(W(("Dd", "gamma", "a")), p)
    text = format_element(e, p)
    assert parse_expression(text, p) == e


def _per_word_confluence(p, max_degree):
    """Reference for the exhaustive check: every one-step rewrite of every
    ambiguous word, normalized from scratch, word by word in term order."""
    rules = p.rule_by_pair
    names = [g.name for g in p.generators]
    checked = ambiguous = 0
    failures = []
    for word in itertools.chain.from_iterable(
            itertools.product(names, repeat=n) for n in range(3, max_degree + 1)):
        checked += 1
        redexes = [(i, rules[word[i:i + 2]]) for i in range(len(word) - 1)
                   if word[i:i + 2] in rules]
        if len(redexes) < 2:
            continue
        ambiguous += 1
        first, *others = [normalize(_rewrite_once(word, i, r), p) for i, r in redexes]
        other = next((nf for nf in others if nf != first), None)
        if other is not None:
            failures.append((word, first, other))
    return checked, ambiguous, failures


def _assert_walk_matches(p, max_degree):
    rep = check_local_confluence(p, max_degree)
    got = (rep.words_checked, rep.ambiguous, rep.failures)
    assert got == _per_word_confluence(p, max_degree), (p.name, max_degree)
    return rep


def test_walk_matches_per_word_check_on_catalog(cat):
    for name in cat.names():
        for degree in (3, 4):
            assert _assert_walk_matches(cat.presentation(name), degree).ok, name


def test_walk_matches_per_word_check_on_negative_controls(cat):
    from qdc.parser import parse_expression

    p_bad = _twisted_bad()
    la = cat.presentation("LieAlg")
    printed = parse_expression(
        "q^2*beta*T1 - (q - q^-1)^2*beta*T2 - (q - q^-1)*d*nabla_m + beta", la)
    printed_sign = Presentation("LieAlg_printed_sign", la.generators, [
        RewriteRule(r.pattern, printed, eq=r.eq) if r.pattern == ("T1", "beta") else r
        for r in la.rules])
    loc = cat.presentation("Omega_loc")
    scaled = Presentation("Omega_loc_scaled", loc.generators, [
        RewriteRule(r.pattern, r.replacement.scaled(qp(1)), r.eq, r.localized)
        if r is loc.rules[0] else r for r in loc.rules], validate=False)
    controls = [(p_bad, d) for d in (3, 4, 5)]
    controls += [(printed_sign, 3), (printed_sign, 4), (_flipped_sign_product(cat), 4),
                 (scaled, 4)]
    for p, degree in controls:
        assert not _assert_walk_matches(p, degree).ok, (p.name, degree)


def test_walk_budget_and_recursion_limit(monkeypatch):
    # x*y and y*x rewrite to each other, so folding x*y never ends
    gens = [Generator("x", 0), Generator("y", 0)]
    loop = Presentation("loop", gens, [RewriteRule(("x", "y"), W(("y", "x"))),
                                       RewriteRule(("y", "x"), W(("x", "y")))],
                        validate=False)
    monkeypatch.setenv("QDC_STEP_BUDGET", "100")
    with pytest.raises(ReductionBudgetError):
        check_local_confluence(loop, 3)
    # with a larger budget the recursion limit comes first: the same error
    # as normalize gives, not a RecursionError
    monkeypatch.setenv("QDC_STEP_BUDGET", "1000")
    with pytest.raises(QdcError) as by_normalize:
        normalize(W(("x", "y")), loop)
    with pytest.raises(QdcError) as by_walk:
        check_local_confluence(loop, 3)
    assert type(by_walk.value) is type(by_normalize.value) is QdcError
    assert str(by_walk.value) == str(by_normalize.value)
    assert "recursion limit" in str(by_walk.value)


def test_walk_depth_is_refused_before_walking():
    # one letter, no rules: the walk over x^3..x^n is a single path, so it
    # reaches the largest degree it accepts, and one more is refused
    line = Presentation("line", [Generator("x", 0)], [])
    for degree in range(sys.getrecursionlimit(), 3, -1):
        try:
            rep = check_local_confluence(line, degree)
            break
        except QdcError as exc:
            assert f"max_degree {degree} is out of reach" in str(exc)
    assert rep.ok and rep.words_checked == degree - 2
    assert degree > sys.getrecursionlimit() // 2
