"""Graded free-algebra engine: words, linear combinations, oriented rewriting.

Words are tuples of generator names; an Element maps words to scalars.  A
Presentation fixes the generator order (degree-lexicographic term order) and
the oriented rewrite rules; normalize() reduces an element to its normal form
under leftmost rule application.  It multiplies a normal word by one
generator at a time, which reaches that same normal form, and memoizes the
products that apply a rule (the G-algebra scheme of Singular:Plural): by
the word and the generator, and, for a product that applied more than one
rule, by the generator and the last letters of the word that its rewriting
read.  A product is a prefix the rewriting never read times a part that
depends on those letters alone, so it is reused under any other prefix
without a rule applied, on every presentation, confluent or not
(_times_generator); moving a generator left through a run of
q-commuting letters, as in (d*a)^k, is derived once and reused under
every prefix.  The fold runs on interned words: each Presentation keeps
the normal words it has met as the nodes of a trie (hash-consing), so a
word's prefix, its last letter, the rules that start with that letter,
its extension by a letter and a memo key each cost O(1), whatever the
word's length; a word becomes a tuple again on leaving normalize.

graded_product joins two presentations with Koszul cross-commutation, and
tensor_power builds the graded tensor square or cube of one presentation
from renamed slot copies, so a tensor is an Element like any other.

Every coefficient is a LaurentScalar; the numeric shadow catalog's
(Catalog.at(q0)) are constant ones.  The consistency ansatz needs no other
coefficient type: its unknowns are generators that commute with every other
one, so a polynomial in them is an element too.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .errors import (
    MissingImageError,
    NonHomogeneousError,
    QdcError,
    ReductionBudgetError,
)
from .ring import ONE, ZERO, LaurentScalar

DEFAULT_STEP_BUDGET = 10**6
_NO_RULES = {}  # the rule row of a letter that starts no pattern; never written


class _Value:
    """Equality and hash of a namedtuple value type: equal only to a value
    of its own type, on its first _compared fields (all of them when None),
    so that a Sum is never a Product of the same tuple and an AST node's
    position does not count."""

    __slots__ = ()
    _compared = None

    def __eq__(self, other):
        n = self._compared
        return other.__class__ is self.__class__ and self[:n] == other[:n]

    def __ne__(self, other):  # else tuple's own != would answer
        return not self == other

    def __hash__(self):
        return hash(self[:self._compared])


class Generator(_Value, namedtuple("Generator", "name parity inverse_of",
                                   defaults=(None,))):
    __slots__ = ()


class Element:
    """Finite linear combination of words with scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=False):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {w: c for w, c in terms.items() if c is not ZERO}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({}, _clean=True)

    @classmethod
    def unit(cls, coeff=ONE):
        return cls({(): coeff})

    @classmethod
    def word(cls, letters, coeff=ONE):
        return cls({tuple(letters): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, word):
        return self.terms.get(tuple(word))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return Element(out, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self.terms)
        _accumulate(out, other.terms, -ONE)
        return Element(out, _clean=True)

    def __neg__(self):
        return Element({w: -c for w, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        """Concatenation product, extended bilinearly; unreduced."""
        if not isinstance(other, Element):
            return NotImplemented
        out = {}
        _accumulate_product(out, self.terms, other.terms)
        return Element(out, _clean=True)

    def scaled(self, coeff):
        if not coeff:
            return Element.zero()
        return Element({w: coeff * c for w, c in self.terms.items()})

    def mapped(self, f):
        """f applied to every coefficient, vanishing terms dropped."""
        return Element({w: f(c) for w, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = [f"{c!s} {'*'.join(w) if w else '1'}" for w, c in self.terms.items()]
        return "Element(" + " | ".join(bits) + ")"


class RewriteRule(_Value, namedtuple("RewriteRule", "pattern replacement eq localized",
                                     defaults=("", False))):
    """Oriented relation: every occurrence of `pattern` rewrites to `replacement`.

    `localized` marks rules whose replacement grows the total degree; those are
    exempt from the load-time order check, so the critical-pair check
    (check_local_confluence with no degree) refuses their presentation.  In
    Omega_loc they are validated instead by clearing their formal inverses
    (calculus.verify_localized_rule); in the consistency ansatz they are the
    rules whose coefficient is an unknown's letter.
    """

    __slots__ = ()

    def renamed(self, names):
        """This rule with each letter g written names.get(g, g)."""
        def word(w):
            return tuple(names.get(g, g) for g in w)

        terms = {}
        for w, c in self.replacement.terms.items():
            _accumulate(terms, {word(w): c})
        return self._replace(pattern=word(self.pattern),
                             replacement=Element(terms, _clean=True))


class Identity(_Value, namedtuple("Identity", "family name lhs rhs eq lhs_ast rhs_ast",
                                  defaults=("", None, None))):
    __slots__ = ()
    _compared = 5  # the parsed sides, lhs_ast and rhs_ast, do not count


class Presentation:
    """Ordered generators plus oriented rules; defines a normal form."""

    def __init__(self, name, generators, rules, defined=None, identities=None,
                 validate=True):
        self.name = name
        self.generators = list(generators)
        self.rules = list(rules)
        self.defined = dict(defined or {})
        self.identities = list(identities or [])
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise QdcError(f"{name}: duplicate generator names")
        self.parity_of = {g.name: g.parity for g in self.generators}
        self.rule_by_pair = {}
        for r in self.rules:
            if len(r.pattern) != 2:
                raise QdcError(f"{name}: rule patterns must have length 2: {r.pattern}")
            if r.pattern in self.rule_by_pair:
                raise QdcError(f"{name}: duplicate rule pattern {r.pattern}")
            self.rule_by_pair[r.pattern] = r
        # the rules by left letter: _rules_from[x][g] rewrites x*g
        self._rules_from = {}
        for (x, g), r in self.rule_by_pair.items():
            self._rules_from.setdefault(x, {})[g] = r
        # the fold's normal words as trie nodes: node 0 is the empty word,
        # _child[(m, g)] is the node of word m times letter g, and node m is
        # _parent[m] times _last[m], whose rule row is _row[m]; _words[m] is
        # its tuple once built
        self._child = {}
        self._parent = [0]
        self._last = [None]
        self._row = [_NO_RULES]
        self._words = [()]
        # the fold's memo, one dict, so that clearing it drops both of its
        # parts: (node m, g) -> (normal form of m*g as {node: coeff}, base)
        # where a rule applies (_times_generator), and the trie of
        # _remember, whose keys start with a letter or a negative int.
        # Dropping it leaves the nodes valid
        self._nf_cache = {}
        if validate:
            self.validate()

    # -- basic helpers -----------------------------------------------------

    def el(self, name, coeff=ONE):
        """Single-generator element, or a defined composite."""
        if name in self.index:
            return Element({(name,): coeff})
        if name in self.defined:
            return self.defined[name].scaled(coeff)
        raise QdcError(f"{self.name}: unknown generator or composite {name!r}")

    def word_key(self, word):
        idx = self.index
        return (len(word), tuple(idx[g] for g in word))

    def word_parity(self, word):
        par = self.parity_of
        return sum(par[g] for g in word) & 1

    def element_parity(self, e):
        """Common parity of all words of e; None for zero, error if mixed."""
        if e.is_zero():
            return None
        parities = {self.word_parity(w) for w in e.terms}
        if len(parities) > 1:
            raise NonHomogeneousError(
                f"{self.name}: element mixes parities {sorted(parities)}"
            )
        return parities.pop()

    # -- validation --------------------------------------------------------

    def validate(self):
        for r in self.rules:
            for g in r.pattern:
                if g not in self.index:
                    raise QdcError(f"{self.name}: rule pattern uses unknown {g!r}")
            pat_parity = self.word_parity(r.pattern)
            pat_key = self.word_key(r.pattern)
            for w in r.replacement.terms:
                for g in w:
                    if g not in self.index:
                        raise QdcError(f"{self.name}: rule replacement uses unknown {g!r}")
                if self.word_parity(w) != pat_parity:
                    raise QdcError(
                        f"{self.name}: parity-unbalanced rule {r.pattern} -> ... {w}"
                    )
                if not r.localized and self.word_key(w) >= pat_key:
                    raise QdcError(
                        f"{self.name}: rule {r.pattern} does not decrease "
                        f"the term order at {w}"
                    )
        for g in self.generators:
            if g.parity == 1 and (g.name, g.name) not in self.rule_by_pair:
                raise QdcError(f"{self.name}: odd generator {g.name} has no square rule")

    # -- derived presentations ---------------------------------------------

    def mapped(self, f):
        """f applied to every coefficient; the words, and so validity, stay."""
        rules = [r._replace(replacement=r.replacement.mapped(f)) for r in self.rules]
        identities = [i._replace(lhs=i.lhs.mapped(f), rhs=i.rhs.mapped(f))
                      for i in self.identities]
        return Presentation(self.name, self.generators, rules,
                            {k: e.mapped(f) for k, e in self.defined.items()},
                            identities, validate=False)


def graded_product(p1, p2, name=None):
    """Free graded product of two presentations with Koszul cross-commutation.

    Generators of p2 come after those of p1; every pair (g2, g1) commutes up
    to the sign (-1)^(parity(g1)*parity(g2)).
    """
    overlap = set(p1.index) & set(p2.index)
    if overlap:
        raise QdcError(f"graded_product: generator name clash {sorted(overlap)}")
    rules = list(p1.rules) + list(p2.rules) + _koszul_swaps(p1.generators, p2.generators)
    return Presentation(name or f"{p1.name}*{p2.name}",
                        list(p1.generators) + list(p2.generators), rules)


def _koszul_swaps(first, second):
    """The rules g2*g1 -> (-1)^(parity(g1)*parity(g2)) g1*g2 that move each
    generator g2 of `second` left over each g1 of `first`."""
    return [RewriteRule((g2.name, g1.name),
                        Element.word((g1.name, g2.name),
                                     -ONE if (g1.parity and g2.parity) else ONE),
                        eq="(10)")
            for g2 in second for g1 in first]


def tensor_power(p, n):
    """Graded tensor power: the graded_product of n slot copies of p, where
    slot k renames each generator g to "k:g", built in one step.

    A letter of a later slot passes left over one of an earlier slot with
    the Koszul sign, and no rule joins two slots the other way round, so
    normalize takes a word to the product of each slot's own leftmost
    normal form, slot 1 first, times the sign of that reordering:
    (A (x) B)(C (x) D) = (-1)^(p(B)p(C)) AC (x) BD, confluent or not.

    Only p is validated: each condition of validate() then holds in the
    power too.  A slot's rules are p's with every letter renamed, which
    keeps each letter's parity and each odd letter's square rule, and,
    since slot k's generators keep p's order at one offset, the order of
    any two words of one slot.  A Koszul swap g2*g1 -> +-g1*g2 is
    parity-balanced and decreases the order, since g2's slot comes after
    g1's.  The generators and rules are those of the graded_product chain
    slot(1) * ... * slot(n), in order.
    """
    p.validate()
    gens, rules = [], []
    for k in range(1, n + 1):
        new = {g.name: f"{k}:{g.name}" for g in p.generators}
        slot = [Generator(new[g.name], g.parity, new.get(g.inverse_of))
                for g in p.generators]
        rules += [r.renamed(new) for r in p.rules]
        rules += _koszul_swaps(gens, slot)
        gens += slot
    return Presentation(f"{p.name}^{n}", gens, rules, validate=False)


def tensor_word(*legs):
    """The word of tensor_power whose slot k holds the word legs[k-1]."""
    return tuple(f"{k}:{g}" for k, leg in enumerate(legs, 1) for g in leg)


def tensor_legs(word, n):
    """The n slot words of a normal word of tensor_power(p, n)."""
    legs = [[] for _ in range(n)]
    for letter in word:
        k, g = letter.split(":", 1)
        legs[int(k) - 1].append(g)
    return tuple(map(tuple, legs))


# -- normalization ----------------------------------------------------------


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = limit

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise ReductionBudgetError(
                "rewrite-step budget exceeded; a rule is mis-oriented or the "
                "budget (QDC_STEP_BUDGET) is too small for this input"
            )


def step_budget():
    """The rewrite-step budget of one normalize call: QDC_STEP_BUDGET, if set."""
    raw = os.environ.get("QDC_STEP_BUDGET")
    if not raw:
        return DEFAULT_STEP_BUDGET
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise QdcError(f"QDC_STEP_BUDGET must be a positive integer, got {raw!r}")
    return limit


def _accumulate(acc, terms, scale=None):
    """acc += scale * terms in place, dropping words whose sum is zero."""
    for w, c in terms.items():
        if scale is not None:
            c = scale * c
        s = acc.get(w)
        s = c if s is None else s + c
        if s is ZERO:
            acc.pop(w, None)
        else:
            acc[w] = s


def _accumulate_product(acc, left, right, scale=None):
    """acc += scale * left * right in place, for two dicts of words: the
    concatenation product, dropping words whose sum is zero."""
    for w1, c1 in left.items():
        if scale is not None:
            c1 = scale * c1
        for w2, c2 in right.items():
            w = w1 + w2
            c = c1 * c2
            s = acc.get(w)
            s = c if s is None else s + c
            if s is ZERO:
                acc.pop(w, None)
            else:
                acc[w] = s


def _new_node(p, m, g):
    """The node of normal word m times letter g, which the trie lacks."""
    n = len(p._row)
    p._parent.append(m)
    p._last.append(g)
    p._row.append(p._rules_from.get(g, _NO_RULES))
    p._words.append(None)
    p._child[(m, g)] = n
    return n


def _times_generator(m, g, rule, p, budget):
    """Normal form of m*g as the memo's (product, base B), the product a
    {node: coeff}, where m is a normal word's node and `rule` rewrites
    (its last letter, g).  _fold calls it on a memo miss, and it fills
    the memo: with the product that _remember kept for g and a suffix of
    m, rooted on m's prefix before that suffix; or else with rule's
    replacement folded onto m's prefix head by _fold, which also finds B,
    for one budget step.

    B is the node above which the fold read no letter of m, or -1 when it
    read where m starts.  It starts at head's parent, or at -1 when head
    is the empty word (node 0, whose row says that no letter comes
    before), and rises to the base of each product the fold uses.  B
    stays a proper ancestor of every node the fold meets: of head; of
    each node it appends a letter to, and so of the new node; and of the
    terms of a product (t, x), which lie below that product's base b by
    induction.  b and B are both ancestors of t, and a node's id is
    larger than its ancestors' (nodes are made parents first), so the
    smaller id of the two is the higher node, and B becomes it.  So each
    row the fold reads is that of a node below B: it holds a letter of m
    below B or one the fold appended.  And each product it uses read no
    letter above its own base, which is B or lies below it.

    So with B >= 0 the fold, run on any word m' = B' * s that ends in the
    letters s of m below B, reads the same letters, applies the same
    rules and reaches the same words after its prefix: m*g = B * R and
    m'*g = B' * R, where R depends only on g and s.  No step assumes
    confluence, so this holds for leftmost rewriting on any presentation.
    _remember keeps R under g and s, and _rooted roots it on B'.  It keeps
    only products that applied more than one rule: one that applied a
    single rule costs about as much to derive again as to root, and
    keeping those too made `verify --suite all` no faster while it kept
    six times as many.

    A generator moving left takes two stack frames per letter it passes,
    this one and _fold's (see normalize).
    """
    cache = p._nf_cache
    parent = p._parent
    last = p._last
    at, k = g, m
    while k:  # down _remember's trie, along m's letters from its last
        at = cache.get((at, last[k]))
        if at is None:
            break
        k = parent[k]
        if at.__class__ is not int:
            entry = cache[(m, g)] = _rooted(at, k, p), k
            return entry
    budget.spend()
    steps = budget.remaining
    head = parent[m]
    base = parent[head] if head else -1
    product = {}
    for rep_word, c in rule.replacement.terms.items():
        terms, base = _fold({head: c}, rep_word, p, budget, base)
        _accumulate(product, terms)
    if base >= 0 and budget.remaining < steps:
        _remember(m, g, product, base, p)
    entry = cache[(m, g)] = product, base
    return entry


def _remember(m, g, product, base, p):
    """Keep product = m*g = B * R, B its base >= 0 (_times_generator), as
    R under g and the letters of m below B, read backwards from m's last:
    a trie in p._nf_cache, whose edges (position, letter) lead to the
    next position, a negative int, or after the last letter to R, a tuple
    of (word after B, coeff).  The first position is g itself."""
    parent = p._parent
    last = p._last
    kept = []
    for n, c in product.items():
        letters = []
        while n > base:  # base is an ancestor of n, so it has a smaller id
            letters.append(last[n])
            n = parent[n]
        kept.append((tuple(reversed(letters)), c))
    cache = p._nf_cache
    at, k = g, m
    while True:
        edge = (at, last[k])
        k = parent[k]
        if k == base:
            cache.setdefault(edge, tuple(kept))
            return
        at = cache.get(edge)
        if at is None:
            at = cache[edge] = -1 - len(cache)
        elif at.__class__ is not int:  # a shorter suffix is kept already
            return


def _rooted(kept, b, p):
    """The normal form b * R, as {node: coeff}, of a product R that
    _remember kept.  Rooting only appends letters to b: it applies no rule
    and spends no budget step."""
    child = p._child
    product = {}
    for word, c in kept:
        n = b
        for x in word:
            nx = child.get((n, x))
            n = _new_node(p, n, x) if nx is None else nx
        product[n] = c
    return product


def _fold(terms, letters, p, budget, base=-1):
    """(normal form of (sum of normal words `terms`, {node: coeff}) *
    letters, base): the product is formed one generator at a time, and a
    word whose last letter and g match no rule stays normal with g
    appended, a new node if it is new.  The fold stops once its state is
    zero.  `base` rises to the base of each memoised product it uses, the
    bookkeeping of _times_generator."""
    rows = p._row
    child = p._child
    cache = p._nf_cache
    for g in letters:
        out = {}
        for m, c in terms.items():
            rule = rows[m].get(g)
            if rule is None:
                n = child.get((m, g))
                if n is None:
                    n = _new_node(p, m, g)
                s = out.get(n)  # out += c * n
                s = c if s is None else s + c
                if s is ZERO:
                    out.pop(n)
                else:
                    out[n] = s
                continue
            entry = cache.get((m, g))
            if entry is None:
                entry = _times_generator(m, g, rule, p, budget)
            product, b = entry
            if b < base:
                base = b
            scaled = c is not ONE
            for n, d in product.items():  # out += c * product
                if scaled:
                    d = c * d
                s = out.get(n)
                s = d if s is None else s + d
                if s is ZERO:
                    out.pop(n)
                else:
                    out[n] = s
        if not out:
            return out, base
        terms = out
    return terms, base


def _word(p, n):
    """The tuple of letters of node n, built on first use and kept."""
    words = p._words
    letters = []
    k = n
    while words[k] is None:
        letters.append(p._last[k])
        k = p._parent[k]
    words[n] = w = words[k] + tuple(reversed(letters))
    return w


def _element(p, terms):
    """The Element of a {node: coeff} dict."""
    words = p._words
    return Element({words[n] or _word(p, n): c for n, c in terms.items()}, _clean=True)


def normalize(e, p):
    """Normal form under leftmost rule application; linear and idempotent.

    Each word is folded left to right: a normal word times one generator g
    can only have its redex at (last letter, g), and leftmost rewriting of
    w*g first takes w to its normal form, so the fold gives exactly the
    leftmost normal form, confluent presentation or not.  One budget step
    is one rule applied to such a product, QDC_STEP_BUDGET steps per call
    (step_budget).  Products are memoised per presentation, keyed by the
    normal word and the generator, and those that applied more than one
    rule also by the generator and the letters of the word their rewriting
    read (_times_generator); a product found the second way applies no
    rule and spends no step.  A generator moving left through a normal
    word takes two stack frames per letter the first time, so an input
    that moves one past more letters than the recursion limit allows
    raises RecursionError.
    """
    b = _Budget(step_budget())
    acc = {}
    for word, c in e.terms.items():
        _accumulate(acc, _fold({0: c}, word, p, b)[0])
    return _element(p, acc)


# -- maps on the letters -----------------------------------------------------


def substitute(images, e):
    """The algebra map given on the letters by the table images, applied to
    e: each word becomes the product of its letters' images, in order;
    unreduced.  A letter with no image raises KeyError(letter)."""
    out = {}
    for word, c in e.terms.items():
        acc = Element.unit(c)
        for g in word:
            acc = acc * images[g]
        _accumulate(out, acc.terms)
    return Element(out, _clean=True)


def apply_derivation(images, e, p):
    """Graded Leibniz extension of an odd derivation, given by the images of
    the generators, over each word, left to right; unreduced."""
    out = {}
    for word, c in e.terms.items():
        for i, g in enumerate(word):
            try:
                img = images[g]
            except KeyError:
                raise MissingImageError(f"derivation has no image for {g!r}") from None
            if img:
                head, tail = word[:i], word[i + 1:]
                _accumulate(out, {head + w + tail: d for w, d in img.terms.items()}, c)
            if p.parity_of[g]:
                c = -c
    return Element(out, _clean=True)


def graded_commutator(e1, e2, p):
    """e1*e2 - (-1)^(p1*p2) e2*e1, normalized.

    Anticommutator for two odd arguments, plain commutator otherwise.
    """
    p1 = p.element_parity(e1)
    p2 = p.element_parity(e2)
    if p1 is None or p2 is None:
        return Element.zero()
    second = e2 * e1
    if p1 and p2:
        return normalize(e1 * e2 + second, p)
    return normalize(e1 * e2 - second, p)


# -- local confluence --------------------------------------------------------


class ConfluenceReport(_Value, namedtuple(
        "ConfluenceReport", "presentation max_degree words_checked ambiguous failures")):
    # max_degree None: critical pairs only
    __slots__ = ()

    @property
    def ok(self):
        return not self.failures


def branches(word, p):
    """The normal form of each one-step rewrite of word, in redex order: the
    reductions of one word that a confluent presentation brings together."""
    word = tuple(word)
    out = []
    for i in range(len(word) - 1):
        rule = p.rule_by_pair.get(word[i:i + 2])
        if rule is not None:
            head, tail = word[:i], word[i + 2:]
            once = Element({head + w + tail: c for w, c in rule.replacement.terms.items()},
                           _clean=True)
            out.append(normalize(once, p))
    return out


def check_local_confluence(p, max_degree=None):
    """Diamond check: every checked word that admits two distinct first
    reductions must reach one normal form both ways.

    With an integer max_degree every word of length 3..max_degree is
    decided.  With max_degree=None only the words of length 3 are, and the
    report counts the ambiguous ones, the critical pairs x*y*z whose halves
    (x, y) and (y, z) are both rule patterns, as the words checked.  That
    decides confluence by Bergman's diamond lemma (Adv. Math. 29, 1978):
    every pattern has length 2, so a word with two redexes either holds an
    overlap x*y*z or two disjoint redexes, which are always joinable; and when
    every rule decreases the deglex order, which is a monomial well-order,
    joinable overlaps make the normal form unique.  The order is what
    validate() proves, so a presentation with a localized rule is refused.
    No order orients Omega_loc's; the confluence suite decides it in every
    degree from a basis of its localization instead
    (cli._confluence_checks), and the exhaustive check to a degree is the
    cross-check of that argument, as it is of the lemma for the others.

    Either way the check is one depth-first walk over the words, letters in
    generator order (_walk_words).  Rather than normalize each one-step
    rewrite of each word from scratch (branches), it extends the normal
    form N(w) of a prefix w by one fold step per letter, and carries along
    the differences D_i(w) = P_i(w) - N(w) that are not zero, where P_i(w)
    is the normal form of w rewritten once at redex i.  This decides
    exactly what the per-word check decides, because the fold is leftmost
    rewriting, linear, and exact in its arithmetic:

    1. the branch through the leftmost redex is N(w), since the part of w
       before that redex is normal: a word's first redex opens nothing;
    2. P_i(w*g) = fold(P_i(w), g), so D_i(w*g) = fold(D_i(w), g): a
       difference grows by one fold step per letter, and one that is zero
       at a prefix is zero on every extension and is dropped;
    3. a redex read at (x, g), x = w[-1], after an earlier one opens
       fold(N(w[:-1]), replacement) - fold(N(w[:-1]), x*g), the sum over
       the terms c*m of N(w[:-1]) of c * gap(m, x, g), where gap(m, x, g) =
       fold(m, replacement) - fold(m, x*g) is the overlap of the rule at
       (m[-1], x) with the rule at (x, g), in the left context m.  A term
       whose last letter has no rule with x gives 0: fold(m, x) is the
       normal word m*x, whose fold step by g is the replacement folded onto
       m.  The walk computes each gap once.

    A word fails when a difference is not zero; the failure is (w, N(w),
    N(w) plus the first such difference in redex order), the per-word
    check's triple, and failures are listed in term order.  A word of
    length max_degree is folded only when it fails, so a passing one costs
    no fold at all.  Each fold call gets its own step budget.  The walk
    takes one stack frame per letter, so a max_degree deeper than the
    recursion limit leaves room for raises RecursionError.
    """
    limit = step_budget()
    if max_degree is None:
        localized = [r.pattern for r in p.rules if r.localized]
        if localized:
            raise QdcError(
                f"{p.name}: the critical-pair check needs every rule to "
                f"decrease the term order; localized rules "
                f"{['*'.join(w) for w in localized]} do not"
            )
        p.validate()
    elif max_degree < 3:
        raise QdcError("confluence check needs max_degree >= 3")
    checked, ambiguous, failures = _walk_words(p, max_degree or 3, limit)
    if max_degree is None:  # the critical pairs are the words checked
        checked = ambiguous
    return ConfluenceReport(p.name, max_degree, checked, ambiguous, failures)


def confluence_residual(p, max_degree=None):
    """The verdict of every confluence check: None when check_local_confluence
    finds no failing word, else their count, the first and its normal forms."""
    failures = check_local_confluence(p, max_degree).failures
    if not failures:
        return None
    w, nf, branch = failures[0]
    return (f"{len(failures)} failing overlaps; first at {'*'.join(w)}: "
            f"{format_element(nf, p)} vs {format_element(branch, p)}")


def _walk_words(p, max_degree, limit):
    """(words checked, ambiguous words, failures) of check_local_confluence
    on the words of length 3..max_degree, by a depth-first walk over the
    words.  Normal forms and differences are the fold's {node: coeff} dicts."""
    rules_from = p._rules_from
    rows = p._row
    names = [g.name for g in p.generators]
    ambiguous = 0
    failures = []
    gaps = {}  # (m, x, g) -> fold(m, replacement of x*g) - fold(m, x*g)

    def fold(terms, letters):
        return _fold(terms, letters, p, _Budget(limit))[0]

    def gap(m, x, g, rule):
        key = (m, x, g)
        d = gaps.get(key)
        if d is None:
            branch = {}
            for rep_word, c in rule.replacement.terms.items():
                _accumulate(branch, fold({m: c}, rep_word))
            nf = fold({m: ONE}, (x, g))
            d = {}  # most gaps are 0, and a {} never filled is the smallest
            if branch != nf:
                d = branch
                _accumulate(d, nf, -ONE)
            gaps[key] = d
        return d

    def extend(w, nf, head_nf, redexes, deltas):
        # nf = N(w), head_nf = N(w[:-1]), redexes: how many w holds,
        # deltas = [P_i(w) - N(w) != 0] in redex order i
        nonlocal ambiguous
        last = len(w) + 1 == max_degree
        row = rules_from.get(w[-1], _NO_RULES) if w else _NO_RULES
        # the words w*g with two redexes
        if redexes >= 2:
            ambiguous += len(names)
        elif redexes:
            ambiguous += len(row)
        if not last or deltas:
            letters = names
        else:  # only a new redex after an earlier one opens a difference
            letters = row if redexes else ()
        for g in letters:
            rule = row.get(g)
            carried = []
            for d in deltas:
                d = fold(d, (g,))
                if d:
                    carried.append(d)
            if rule is not None and redexes:
                x = w[-1]
                d = {}
                for m, c in head_nf.items():
                    if x in rows[m]:  # else m*x is normal: the gap is 0
                        _accumulate(d, gap(m, x, g, rule), c)
                if d:
                    carried.append(d)
            if last and not carried:
                continue
            word = w + (g,)
            nf_g = fold(nf, (g,))
            if carried:
                branch = dict(nf_g)
                _accumulate(branch, carried[0])
                failures.append((word, _element(p, nf_g), _element(p, branch)))
            if not last:
                extend(word, nf_g, nf, redexes if rule is None else redexes + 1,
                       carried)

    extend((), {0: ONE}, None, 0, [])
    gaps.clear()  # extend's closure holds itself, so it outlives the walk
    checked = sum(len(names) ** n for n in range(3, max_degree + 1))
    failures.sort(key=lambda f: p.word_key(f[0]))
    return checked, ambiguous, failures


# -- canonical text ----------------------------------------------------------


def format_scalar_factor(c):
    """Scalar as an expression factor: parenthesized when it has several terms."""
    s = str(c)
    return f"({s})" if (" " in s) else s


def format_element(e, p):
    """Canonical text: terms sorted by the presentation's term order."""
    if e.is_zero():
        return "0"
    parts = []
    for w in sorted(e.terms, key=p.word_key):
        c = e.terms[w]
        body, negative = _term_text(c, w)
        if not parts:
            parts.append("-" + body if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def residual(e, p):
    """None when e normalizes to 0 in p, else the text of its normal form:
    the verdict of every zero check."""
    r = normalize(e, p)
    return None if r.is_zero() else format_element(r, p)


def _term_text(c, w):
    word_txt = "*".join(w)
    if not w:
        s = str(c)
        if s.startswith("-") and " " not in s:
            return s[1:], True
        return (f"({s})" if " " in s else s), False
    if c.is_unit():
        ((k, r),) = c.coeffs.items()
        negative = r < 0
        mag = LaurentScalar({k: abs(r)})
        if mag.coeffs == {0: 1}:
            return word_txt, negative
        return f"{mag}*{word_txt}", negative
    return f"{format_scalar_factor(c)}*{word_txt}", False
