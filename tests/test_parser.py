import random
import re
from fractions import Fraction

import pytest

from qdc.errors import ParseError, UnknownGeneratorError
from qdc.catalog import _FILES, _data_text, parse_document, roundtrip_lines
from qdc.kernel import (Element, Generator, Identity, Presentation, RewriteRule,
                        format_element, normalize)
from qdc.parser import (
    Name,
    Power,
    Product,
    RatLit,
    Sum,
    _int,
    _literal,
    _power,
    _power_too_long,
    _too_many_digits,
    eval_ast,
    parse_ast,
    parse_expression,
    print_ast,
)
from qdc.ring import LaurentScalar


def test_mixed_relation_residual(cat):
    om = cat.presentation("Omega")
    e = parse_expression("a*Dbeta - q*Dbeta*a - (q^2-1)*Da*beta", om)
    assert normalize(e, om).is_zero()


def test_grammar_exercise(cat):
    om = cat.presentation("Omega")
    e = parse_expression("q^-1 * d * Dgamma", om)
    assert len(e.terms) == 1


def test_trailing_whitespace_ends_the_input(cat):
    om = cat.presentation("Omega")
    want = parse_expression("d*a", om)
    for text in ("d*a ", "d*a\n", "d*a \n\t"):
        assert parse_expression(text, om) == want, repr(text)
    with pytest.raises(ParseError) as err:
        parse_expression("d* ", om)
    assert (err.value.line, err.value.col) == (1, 3)


def test_double_star_rejected(cat):
    om = cat.presentation("Omega")
    with pytest.raises(ParseError) as err:
        parse_expression("a ** b", om)
    assert "'**'" in str(err.value)


def test_unknown_generator_has_position(cat):
    om = cat.presentation("Omega")
    with pytest.raises(UnknownGeneratorError) as err:
        parse_expression("a*nosuch", om)
    assert err.value.col == 3


def test_zero_denominator(cat):
    om = cat.presentation("Omega")
    with pytest.raises(ParseError):
        parse_expression("1/0 * a", om)


def test_negative_power_only_on_scalars(cat):
    om = cat.presentation("Omega")
    parse_expression("q^-3", om)
    parse_expression("2^-1", om)
    with pytest.raises(ParseError):
        parse_expression("a^-1", om)


def test_literal_powers_exact_or_refused(cat):
    om = cat.presentation("Omega")

    def nf(text):
        return format_element(normalize(parse_expression(text, om), om), om)

    assert nf("7^100*a") == f"{7**100}*a"
    assert nf("(1/7)^50*a") == f"1/{7**50}*a"
    assert nf("7/2^-3*a") == f"8/343*a"
    # 2^14284 has 4300 digits, the default limit; 2^14285 has 4301
    assert nf("2^14284*a") == f"{2**14284}*a"
    for text in ("b + 2^14285*a", "b + 7^9999999*a", "b + 2/3^-99999999*a",
                 "b + (7)^100000*a", "b + (1/7)^9999999*a", "b + ((-7))^-9999999*a"):
        with pytest.raises(ParseError) as err:
            parse_ast(text)  # refused before the power is computed
        assert "literal power has more than" in str(err.value)
        assert (err.value.line, err.value.col) == (1, 5)
    # a parenthesized literal is a scalar too: negative powers work
    assert nf("(1/2)^-1*a") == "2*a"
    assert nf("(-1/2)^-3*a") == "-8*a"
    assert nf("((3))^2*a") == "9*a"
    assert nf("(7)^100*a") == f"{7**100}*a"
    for text in ("(0)^-1", "b + ((0))^-2*a"):
        with pytest.raises(ParseError, match="zero has no inverse"):
            parse_ast(text)


def test_negative_power_error_has_the_atoms_position(cat):
    om = cat.presentation("Omega")
    for text, where in (("(a)^-1", (1, 1)), ("d + (a*d)^-2", (1, 5)),
                        ("a +\n  (d)^-1", (2, 3)), ("a + \n  (d)^-1", (2, 3))):
        with pytest.raises(ParseError, match="negative exponent") as err:
            parse_expression(text, om)
        assert (err.value.line, err.value.col) == where, text
    with pytest.raises(ParseError, match="zero has no inverse") as err:
        parse_expression("a + (1 - 1)^-1", om)
    assert (err.value.line, err.value.col) == (1, 5)


def test_unit_scalar_powers_are_one_scalar_power(cat):
    om = cat.presentation("Omega")

    def nf(text):
        return format_element(normalize(parse_expression(text, om), om), om)

    assert nf("(q)^-1*a") == "q^-1*a"
    assert nf("(2*3)^3*a") == "216*a"
    assert nf("(2*q)^-2*a") == "1/4*q^-2*a"
    assert nf("(-q^2*1/3)^-3*a") == "-27*q^-6*a"
    assert nf("(q)^99999999*a") == "q^99999999*a"
    for text in ("d + (2*3)^200000*a", "d + (q*7)^-9999999*a"):
        with pytest.raises(ParseError, match="scalar power has more than") as err:
            parse_expression(text, om)  # refused before the power is computed
        assert (err.value.line, err.value.col) == (1, 5)


def test_non_scalar_power_by_squaring_is_the_repeated_product(cat):
    om = cat.presentation("Omega")
    for base in ("a", "a + q*d", "(1 + beta)*Da - gamma"):
        element = parse_expression(f"({base})", om)
        product = parse_expression("1", om)
        for n in range(9):
            assert parse_expression(f"({base})^{n}", om) == product, (base, n)
            product = product * element
    assert parse_expression("a^20000", om) == Element.word(("a",) * 20000)


def test_parenthesized_sums(cat):
    om = cat.presentation("Omega")
    e = parse_expression("(q - q^-1)*(beta*gamma + gamma*beta)", om)
    assert normalize(e, om).is_zero()


_NAMES = ("a", "beta", "gamma", "d", "Da", "Dbeta", "w1", "T1", "q")


def _random_ast(rng, names=_NAMES):
    def atom():
        kind = rng.randint(0, 3)
        if kind == 0:
            return Name(rng.choice(names))
        if kind == 1:
            return RatLit(Fraction(rng.randint(1, 9)))
        if kind == 2:
            return RatLit(Fraction(rng.randint(1, 9), rng.randint(2, 9)))
        return Sum(((1, Product((Name(rng.choice(names)),))),
                    (-1, Product((Name(rng.choice(names)),)))))

    def factor():
        base = atom()
        if rng.random() < 0.4:
            exp = rng.choice([-3, -2, -1, 2, 3, 5])
            if exp < 0 and not (isinstance(base, RatLit)
                                or (isinstance(base, Name) and base.ident == "q")):
                exp = -exp
            return Power(base, exp)
        return base

    terms = []
    for i in range(rng.randint(1, 4)):
        sign = rng.choice([1, -1]) if i or rng.random() < 0.5 else 1
        terms.append((sign, Product(tuple(factor() for _ in range(rng.randint(1, 4))))))
    return Sum(tuple(terms))


def test_roundtrip_200_random_asts():
    rng = random.Random(20260809)
    for _ in range(200):
        ast = _random_ast(rng)
        text = print_ast(ast)
        assert parse_ast(text) == ast, text


def test_roundtrip_is_stable_on_text():
    samples = [
        "a*d + (q - q^-1)*beta*gamma",
        "-q^2*Da*beta + 3/2*d",
        "q^-1*a*Dbeta + (1 - q^-2)*beta*Da",
        "(q - q^-1)^2*d*Da",
    ]
    for text in samples:
        assert print_ast(parse_ast(text)) == text


def _reference_eval(node, p):
    """eval_ast by its first definition: a sum is out + (+-val) and a
    product is out * eval(f), factor by factor."""
    if isinstance(node, Sum):
        out = Element.zero()
        for sign, term in node.terms:
            val = _reference_eval(term, p)
            out = out + (val if sign > 0 else -val)
        return out
    if isinstance(node, Product):
        out = Element.unit()
        for f in node.factors:
            out = out * _reference_eval(f, p)
        return out
    if isinstance(node, Power):
        if isinstance(node.base, Name) and node.base.ident == "q":
            return Element.unit(LaurentScalar.q_power(node.exp))
        return _power(_reference_eval(node.base, p), node)
    if isinstance(node, RatLit):
        return Element.unit(LaurentScalar.from_fraction(node.value))
    if node.ident == "q":
        return Element.unit(LaurentScalar.q_power(1))
    return Element.word((node.ident,)) if node.ident in p.index else p.defined[node.ident]


def test_eval_ast_builds_the_reference_element(cat):
    """Letter runs and in-place sums change how eval_ast builds an element,
    not the element: the same words with the same interned coefficients."""
    cases = []
    for name in cat.names():
        p = cat.presentation(name)
        cases += [(i.lhs_ast, p) for i in p.identities] + [(i.rhs_ast, p) for i in p.identities]
    for fname in _FILES:
        for block in parse_document(_data_text(fname)):
            cases += [(parse_ast(text), cat.presentation(block.name))
                      for _, text, _ in block.define_lines]
    rng = random.Random(20261019)
    loc = cat.presentation("Omega_loc")
    names = ("a", "a_inv", "beta", "d", "Da", "Dbeta", "Dgamma_inv", "w1", "iA", "q")
    cases += [(_random_ast(rng, names), loc) for _ in range(300)]
    # a presentation may name a generator q; the expressions still read it
    # as the scalar, in a run of letters too
    qgen = Presentation("Q", [Generator("a", 0), Generator("q", 0)], [])
    cases += [(_random_ast(rng, ("a", "q")), qgen) for _ in range(100)]
    assert len(cases) > 600
    for ast, p in cases:
        got, want = eval_ast(ast, p), _reference_eval(ast, p)
        assert got == want, print_ast(ast)
        assert all(got.terms[w] is c for w, c in want.terms.items()), print_ast(ast)


# -- the one-loop parser against the recursive-descent one it replaced ----------

_REFERENCE_TOKEN = re.compile(
    r"[^\S\n]*(?:(?P<newline>\n)|(?P<rat>\d+/\d+)|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def _reference_tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    end = len(text.rstrip())
    while pos < end:
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        pos = m.end()
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = pos
            continue
        col = m.start(kind) - line_start + 1
        tokens.append((kind, m.group(kind), line, col))
    tokens.append(("end", "", line, end - line_start + 1))
    return tokens


class _ReferenceParser:
    """The recursive-descent parser parse_ast replaced, as it was."""

    def __init__(self, text):
        self.tokens = _reference_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val, line, col = self.peek()
        if kind == "op" and val == op:
            return self.next()
        raise ParseError(f"expected {op!r}, got {val or 'end of input'!r}", line, col)

    def parse_expr(self):
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        terms = [(sign, self.parse_term())]
        while self.peek()[1] in ("+", "-"):
            terms.append((1 if self.next()[1] == "+" else -1, self.parse_term()))
        return Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek()[1] == "*":
            self.next()
            nk, nv, nl, nc = self.peek()
            if nk == "op" and nv == "*":
                raise ParseError("'**' is not an operator; use '^'", nl, nc)
            factors.append(self.parse_factor())
        return Product(tuple(factors))

    def parse_factor(self):
        _, _, atom_line, atom_col = self.peek()
        atom = self.parse_atom()
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            neg = False
            kind, val, line, col = self.peek()
            if kind == "op" and val == "-":
                self.next()
                neg = True
                kind, val, line, col = self.peek()
            if kind != "int":
                raise ParseError("exponent must be an integer", line, col)
            self.next()
            exp = (-1 if neg else 1) * _int(val, line, col)
            value = _literal(atom)
            if exp < 0 and value == 0:
                raise ParseError("zero has no inverse: negative power of 0",
                                 atom_line, atom_col)
            if value is not None and _power_too_long(value, exp):
                raise _too_many_digits("literal power", atom_line, atom_col)
            return Power(atom, exp, atom_line, atom_col)
        return atom

    def parse_atom(self):
        kind, val, line, col = self.next()
        if kind == "name":
            return Name(val, line, col)
        if kind == "int":
            return RatLit(Fraction(_int(val, line, col)))
        if kind == "rat":
            num, den = (_int(v, line, col) for v in val.split("/"))
            if den == 0:
                raise ParseError("zero denominator", line, col)
            return RatLit(Fraction(num, den))
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected an atom, got {val or 'end of input'!r}", line, col)


def _reference_parse(text):
    p = _ReferenceParser(text)
    ast = p.parse_expr()
    kind, val, line, col = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {val!r}", line, col)
    return ast


def _outcome(parse, text):
    """(the AST, None), or (None, the error's type, message, line and column)."""
    try:
        return parse(text), None
    except ParseError as exc:
        return None, (type(exc), str(exc), exc.line, exc.col)


_PIECES = ("a", "d", "q", "Da", "x_1", "(", ")", "*", "^", "-", "+", "2", "3/4",
           "1/0", "0", "99999999", " ", "\n", "**", "^-")


def _random_text(rng):
    """Either a run of grammar pieces, blanks and newlines, or a printed random
    AST with one piece put in place of one of its characters; either may hold
    one stray character."""
    if rng.random() < 0.5:
        text = "".join(rng.choices(_PIECES, k=rng.randint(1, 12)))
    else:
        text = print_ast(_random_ast(rng, ("a", "d", "q", "Da", "x_1")))
        if rng.random() < 0.7:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(_PIECES) + text[i + 1:]
    if rng.random() < 0.05:
        i = rng.randint(0, len(text))
        text = text[:i] + "$" + text[i:]
    return text


def test_parse_ast_agrees_with_the_recursive_descent_reference():
    texts = [text for _, text in roundtrip_lines()]
    rng = random.Random(20261020)
    texts += [_random_text(rng) for _ in range(20000)]
    parsed = 0
    for text in texts:
        (got, got_error), (want, want_error) = (_outcome(parse_ast, text),
                                                _outcome(_reference_parse, text))
        assert got_error == want_error, repr(text)
        if want is not None:
            parsed += 1
            # the repr shows every field, so also the line and col of each
            # Name and Power, which equality leaves out
            assert got == want and repr(got) == repr(want), repr(text)
    assert parsed > 5000, parsed  # the grammar is exercised, not only its errors


def test_parse_ast_nests_without_recursion():
    # the reference took four frames a level, the loop takes none
    ast = parse_ast("(" * 5000 + "a" + ")" * 5000)
    for _ in range(5001):  # the whole text is a sum too
        ((sign, product),) = ast.terms
        (ast,) = product.factors
    assert (sign, ast, ast.col) == (1, Name("a"), 5001)


def test_value_types_keep_their_equality_and_hash():
    # a node's position is not part of its value
    assert Name("a", 1, 2) == Name("a") and hash(Name("a", 1, 2)) == hash(Name("a"))
    assert Power(Name("a", 1, 2), 3, 1, 2) == Power(Name("a"), 3)
    assert Power(Name("a"), 3) != Power(Name("a"), 2)
    assert Name("a") != Name("b")
    # a node equals only a node of its own type, not one with the same tuple
    product = Product((Name("a"),))
    assert Sum(product.factors) != product and Sum(product.factors) == Sum((Name("a"),))
    assert Name("a") != ("a", 0, 0)
    nodes = {Name("a"), RatLit(Fraction(2)), Power(Name("a"), 2), product,
             Sum(((1, product),)), Name("a", 3, 4)}
    assert len(nodes) == 5
    gens = {Generator("a", 0), Generator("a", 0), Generator("b", 1, "a")}
    rules = {RewriteRule(("b", "a"), Element.word(("a", "b"))),
             RewriteRule(("b", "a"), Element.word(("a", "b")))}
    assert len(gens) == 2 and len(rules) == 1
    # an identity compares without its parsed sides
    lhs, rhs = Element.word(("a",)), Element.unit()
    ident = Identity("f", "i", lhs, rhs, "(1)", parse_ast("a"), parse_ast("1"))
    assert ident == Identity("f", "i", lhs, rhs, "(1)")
    assert ident != Identity("f", "i", lhs, rhs, "(2)")
    assert ident != Identity("g", "i", lhs, rhs, "(1)", ident.lhs_ast, ident.rhs_ast)
