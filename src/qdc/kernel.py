"""Graded free-algebra engine: words, linear combinations, oriented rewriting.

Words are tuples of generator names; an Element maps words to scalars.  A
Presentation fixes the generator order (degree-lexicographic term order) and
the oriented rewrite rules; normalize() reduces an element to its normal form
under leftmost rule application.  It multiplies a normal word by one
generator at a time, which reaches that same normal form, and memoizes the
products that apply a rule (the G-algebra scheme of Singular:Plural).  The
fold runs on interned words: each Presentation keeps the normal words it has
met as the nodes of a trie (hash-consing), so a word's prefix, its last
letter, its extension by a letter and a memo key each cost O(1), whatever
the word's length; a word becomes a tuple again on leaving normalize.

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
import sys
from dataclasses import dataclass, field, replace

from .errors import (
    MissingImageError,
    NonHomogeneousError,
    QdcError,
    ReductionBudgetError,
)
from .ring import ONE, LaurentScalar

DEFAULT_STEP_BUDGET = 10**6


@dataclass(frozen=True)
class Generator:
    name: str
    parity: int
    inverse_of: str | None = None


class Element:
    """Finite linear combination of words with scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=False):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {w: c for w, c in terms.items() if c}

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
        return self + (-other)

    def __neg__(self):
        return Element({w: -c for w, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        """Concatenation product, extended bilinearly; unreduced."""
        if not isinstance(other, Element):
            return NotImplemented
        out = {}  # inline, not _accumulate: each parsed factor calls this
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
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


@dataclass(frozen=True)
class RewriteRule:
    """Oriented relation: every occurrence of `pattern` rewrites to `replacement`.

    `localized` marks rules whose replacement grows the total degree; those are
    exempt from the load-time order check, so the critical-pair check
    (check_local_confluence with no degree) refuses their presentation.  In
    Omega_loc they are validated instead by clearing their formal inverses
    (calculus.verify_localized_rule); in the consistency ansatz they are the
    rules whose coefficient is an unknown's letter.
    """

    pattern: tuple
    replacement: Element
    eq: str = ""
    localized: bool = False

    def renamed(self, names):
        """This rule with each letter g written names.get(g, g)."""
        def word(w):
            return tuple(names.get(g, g) for g in w)

        terms = {}
        for w, c in self.replacement.terms.items():
            _accumulate(terms, {word(w): c})
        return replace(self, pattern=word(self.pattern),
                       replacement=Element(terms, _clean=True))


@dataclass(frozen=True)
class Identity:
    family: str
    name: str
    lhs: Element
    rhs: Element
    eq: str = ""
    lhs_ast: object = field(default=None, compare=False)
    rhs_ast: object = field(default=None, compare=False)


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
        # the fold's normal words as trie nodes: node 0 is the empty word,
        # _child[(m, g)] is the node of word m times letter g, and node m is
        # _parent[m] times _last[m]; _words[m] is its tuple once built
        self._child = {}
        self._parent = [0]
        self._last = [None]
        self._words = [()]
        # (node m, g) -> {node: coeff}, the normal form of m*g where a rule
        # applies; dropping it leaves the nodes valid
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
        rules = [replace(r, replacement=r.replacement.mapped(f)) for r in self.rules]
        identities = [replace(i, lhs=i.lhs.mapped(f), rhs=i.rhs.mapped(f))
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
    gens = list(p1.generators) + list(p2.generators)
    rules = list(p1.rules) + list(p2.rules)
    for g2 in p2.generators:
        for g1 in p1.generators:
            sign = -ONE if (g1.parity and g2.parity) else ONE
            repl = Element.word((g1.name, g2.name), sign)
            rules.append(RewriteRule((g2.name, g1.name), repl, eq="(10)"))
    return Presentation(name or f"{p1.name}*{p2.name}", gens, rules)


def tensor_power(p, n):
    """Graded tensor power: the graded_product of n slot copies of p, where
    slot k renames each generator g to "k:g".

    A letter of a later slot passes left over one of an earlier slot with
    the Koszul sign, and no rule joins two slots the other way round, so
    normalize takes a word to the product of each slot's own leftmost
    normal form, slot 1 first, times the sign of that reordering:
    (A (x) B)(C (x) D) = (-1)^(p(B)p(C)) AC (x) BD, confluent or not.
    """
    def slot(k):
        new = {g.name: f"{k}:{g.name}" for g in p.generators}
        gens = [Generator(new[g.name], g.parity, new.get(g.inverse_of))
                for g in p.generators]
        return Presentation(f"{p.name}[{k}]", gens,
                            [r.renamed(new) for r in p.rules], validate=False)

    out = slot(1)
    for k in range(2, n + 1):
        out = graded_product(out, slot(k), f"{p.name}^{k}")
    return out


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
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)


def _times_generator(m, g, rule, p, budget):
    """Normal form of m*g, as {node: coeff}, where m is a normal word's node
    and `rule` rewrites (its last letter, g): the replacement, folded onto
    m's prefix.  Memoised."""
    key = (m, g)
    cache = p._nf_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    budget.spend()
    head = p._parent[m]
    acc = {}
    for rep_word, c in rule.replacement.terms.items():
        _accumulate(acc, _fold({head: c}, rep_word, p, budget))
    cache[key] = acc
    return acc


def _fold(terms, letters, p, budget):
    """Normal form of (sum of normal words `terms`, {node: coeff}) * letters,
    multiplying by one generator at a time.  A word whose last letter and g
    match no rule stays normal with g appended: a new node if it is new."""
    rules = p.rule_by_pair
    child = p._child
    last = p._last
    for g in letters:
        out = {}
        redexes = []
        for m, c in terms.items():
            rule = rules.get((last[m], g))
            if rule is not None:
                redexes.append((m, c, rule))
                continue
            n = child.get((m, g))
            if n is None:
                parent = p._parent
                n = len(parent)
                parent.append(m)
                last.append(g)
                p._words.append(None)
                child[(m, g)] = n
            out[n] = c
        for m, c, rule in redexes:
            _accumulate(out, _times_generator(m, g, rule, p, budget), c)
        terms = out
    return terms


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
    (step_budget); products are memoised per presentation.
    """
    b = _Budget(step_budget())
    acc = {}
    try:
        for word, c in e.terms.items():
            _accumulate(acc, _fold({0: c}, word, p, b))
    except RecursionError:
        raise _too_deep(p) from None
    return _element(p, acc)


def _too_deep(p):
    """The error for a fold that recursed past the Python recursion limit."""
    return QdcError(
        f"{p.name}: input too long to normalize: a generator moving left "
        f"through a normal word recursed past the Python recursion limit "
        f"({sys.getrecursionlimit()})"
    )


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
    out = Element.zero()
    for word, c in e.terms.items():
        sign = 1
        for i, g in enumerate(word):
            try:
                img = images[g]
            except KeyError:
                raise MissingImageError(f"derivation has no image for {g!r}") from None
            if img:
                left = Element.word(word[:i], c if sign > 0 else -c)
                right = Element.word(word[i + 1 :])
                out = out + left * img * right
            if p.parity_of[g]:
                sign = -sign
    return out


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


@dataclass
class ConfluenceReport:
    presentation: str
    max_degree: int | None  # None: critical pairs only
    words_checked: int
    ambiguous: int
    failures: list

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
    validate() proves, so a presentation with a localized rule is refused;
    for those the exhaustive check to a degree is the only check, and for
    the others it is the cross-check of the lemma.

    Either way the check is one depth-first walk over the words, letters in
    generator order (_walk_words).  Rather than normalize each one-step
    rewrite of each word from scratch (branches), it extends the normal
    form N(w) of a prefix w by one fold step per letter, and carries along
    the branches P_i(w), the normal form of w rewritten once at redex i,
    that differ from N(w).  This decides exactly what the per-word check
    decides, because:

    1. the branch through the leftmost redex is N(w): the fold is leftmost
       rewriting, and the part of w before that redex is normal;
    2. P_i(w) = fold(fold(N(w[:i]), replacement_i), w[i+2:]), since the fold
       is linear and its arithmetic exact, so a branch opens when its redex
       is read and then grows by one fold step per letter, as N does; by the
       same linearity, a branch is N itself when the fold step of its
       redex's first letter applied no rule, and is then not opened;
    3. the fold is a function of its input, so a branch that equals N at a
       prefix equals it on every extension and can be dropped.

    A word fails when a branch differs from N(w); the failure is (w, N(w),
    the first such branch in redex order), and failures are listed in term
    order.  Each fold call gets its own step budget.  The walk takes one
    stack frame per letter, so a max_degree deeper than the recursion limit
    leaves room for is refused before it starts.
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
    elif not _stack_holds(max_degree + 1):  # the walk and its last fold
        raise QdcError(
            f"{p.name}: max_degree {max_degree} is out of reach: the word walk "
            f"takes one stack frame per letter, more than the Python recursion "
            f"limit ({sys.getrecursionlimit()}) leaves free")
    try:
        checked, ambiguous, failures = _walk_words(p, max_degree or 3, limit)
    except RecursionError:
        raise _too_deep(p) from None
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


def _stack_holds(depth):
    """Whether `depth` more nested calls fit under the recursion limit."""
    try:
        return depth <= 0 or _stack_holds(depth - 1)
    except RecursionError:
        return False


def _walk_words(p, max_degree, limit):
    """(words checked, ambiguous words, failures) of check_local_confluence
    on the words of length 3..max_degree, by a depth-first walk over the
    words.  Normal forms are the fold's {node: coeff} dicts."""
    rules = p.rule_by_pair
    tail = p._last
    names = [g.name for g in p.generators]
    ambiguous = 0
    failures = []

    def fold(terms, letters):
        return _fold(terms, letters, p, _Budget(limit))

    def extend(w, nf, head_nf, redexes, deviating):
        # nf = N(w), head_nf = N(w[:-1]), deviating = [(i, P_i(w)) != N(w)]
        nonlocal ambiguous
        length = len(w) + 1
        last = length == max_degree
        appended = w and not any((tail[m], w[-1]) in rules for m in head_nf)
        for g in names:
            rule = rules.get((w[-1], g)) if w else None
            n = redexes if rule is None else redexes + 1
            if n >= 2:
                ambiguous += 1
            # a redex at (w[-1], g) opens a branch unless it is the leftmost,
            # or N(w) is N(w[:-1]) with w[-1] appended: then the fold of g
            # rewrites that redex in every term, so the branch is N(w*g)
            opens = rule is not None and redexes and not appended
            if last and not (opens or deviating):
                continue
            nf_g = fold(nf, (g,))
            branches = []
            for i, b in deviating:
                b = fold(b, (g,))
                if b != nf_g:
                    branches.append((i, b))
            if opens:
                b = {}
                for rep_word, c in rule.replacement.terms.items():
                    _accumulate(b, fold(head_nf, rep_word), c)
                if b != nf_g:
                    branches.append((length - 2, b))
            word = w + (g,)
            if branches:
                failures.append((word, _element(p, nf_g), _element(p, branches[0][1])))
            if not last:
                extend(word, nf_g, nf, n, branches)

    extend((), {0: ONE}, None, 0, [])
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
