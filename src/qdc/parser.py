"""Expression grammar for elements, shared by the CLI and the catalog files.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' integer]
    atom   := name | rational | 'q' | '(' expr ')'

Rationals are integer or num/den literals.  A product is built left to
right, and each run of generator letters in it is one word, so a product of
n letters takes time linear in n; the name q is always the scalar, never a
letter of a run.  A sum adds its terms into one dict.  A power of a unit
scalar r*q^k, such as q, (-1/2) or (2*q), is one scalar power, and its
negative exponents give inverses; its power, and a literal's already at
parse time, is refused before it is computed when it would exceed the
interpreter's digit limit.  Any other power is a product by repeated
squaring; generator inverses are spelled as their own names (a_inv, d_inv,
Dgamma_inv).  parse -> print is the identity on the AST, which is what the
catalog round-trip test pins down.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import ParseError, UnknownGeneratorError
from .kernel import Element, _accumulate
from .ring import ONE, LaurentScalar

# blanks other than a newline, then one token; a newline is a token of its
# own, so that tokenize counts every line
_TOKEN = re.compile(
    r"[^\S\n]*(?:(?P<newline>\n)|(?P<rat>\d+/\d+)|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


@dataclass(frozen=True)
class Name:
    ident: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RatLit:
    value: Fraction


@dataclass(frozen=True)
class Power:
    base: object
    exp: int
    line: int = field(default=0, compare=False)  # the base's position
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    # sequence of (sign, Product) with sign in {+1, -1}
    terms: tuple


def tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    end = len(text.rstrip())  # trailing whitespace ends the token stream
    while pos < end:
        m = _TOKEN.match(text, pos)
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


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
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

    # a token's text tells an operator from every other token
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


def _literal(atom):
    """The value of a rational literal atom, bare or in parentheses such as
    (7), (-1/2) or ((3)); None for any other atom."""
    sign = 1
    while isinstance(atom, Sum) and len(atom.terms) == 1:
        term_sign, product = atom.terms[0]
        if len(product.factors) != 1:
            return None
        sign *= term_sign
        atom = product.factors[0]
    return sign * atom.value if isinstance(atom, RatLit) else None


def _int(digits, line, col):
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-from-str limit
        raise _too_many_digits("integer literal", line, col) from None


def _too_many_digits(what, line, col):
    return ParseError(
        f"{what} has more than {sys.get_int_max_str_digits()} "
        f"digits, the interpreter's limit for reading an integer "
        f"(sys.get_int_max_str_digits())", line, col)


def _power_too_long(value, exp):
    """True when the numerator or denominator of value^exp must have more
    digits than the interpreter's int/str limit, decided without computing
    the power: n^e >= 2^(e*(b-1)) for an integer n of b bits, and
    log10(2) > 0.30102, so it has more than e*(b-1)*0.30102 digits."""
    limit = sys.get_int_max_str_digits()
    if not limit:  # 0: no limit
        return False
    bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(exp) * (bits - 1) * 30102 // 100000 >= limit


def parse_ast(text):
    p = _Parser(text)
    ast = p.parse_expr()
    kind, val, line, col = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {val!r}", line, col)
    return ast


# -- printing ----------------------------------------------------------------


def print_ast(node):
    if isinstance(node, Sum):
        parts = []
        for sign, term in node.terms:
            body = print_ast(term)
            if not parts:
                parts.append("-" + body if sign < 0 else body)
            else:
                parts.append(("- " if sign < 0 else "+ ") + body)
        return " ".join(parts)
    if isinstance(node, Product):
        return "*".join(_factor_str(f) for f in node.factors)
    return _factor_str(node)


def _factor_str(node):
    if isinstance(node, Power):
        return f"{_atom_str(node.base)}^{node.exp}"
    return _atom_str(node)


def _atom_str(node):
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, RatLit):
        return str(node.value)
    if isinstance(node, (Sum, Product)):
        return f"({print_ast(node)})"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation ---------------------------------------------------------------


def eval_ast(node, p):
    """Evaluate an AST to an Element over presentation p; a name is one of
    its generators or defined composites."""
    cls = node.__class__
    if cls is Sum:
        out = {}
        for sign, term in node.terms:
            _accumulate(out, eval_ast(term, p).terms, None if sign > 0 else -ONE)
        return Element(out, _clean=True)
    if cls is Product:
        # a run of generator letters is one word; q is the scalar even
        # where a generator is named q
        vals, run = [], []
        for f in node.factors:
            if f.__class__ is Name and f.ident != "q" and f.ident in p.index:
                run.append(f.ident)
                continue
            if run:
                vals.append(Element.word(run))
                run = []
            vals.append(eval_ast(f, p))
        if run:
            vals.append(Element.word(run))
        return reduce(mul, vals)
    if cls is Power:
        # q^n, most of the catalog's powers: one scalar, no base to evaluate
        if node.base.__class__ is Name and node.base.ident == "q":
            return Element.unit(LaurentScalar.q_power(node.exp))
        return _power(eval_ast(node.base, p), node)
    if cls is Name:
        if node.ident == "q":
            return Element.unit(LaurentScalar.q_power(1))
        if node.ident in p.index:
            return Element.word((node.ident,))
        if node.ident in p.defined:
            return p.defined[node.ident]
        raise UnknownGeneratorError(
            f"unknown generator {node.ident!r} in presentation {p.name}",
            node.line,
            node.col,
        )
    if cls is RatLit:
        return Element.unit(LaurentScalar.from_fraction(node.value))
    raise TypeError(f"not an AST node: {node!r}")


def _power(base, node):
    """base^node.exp.  A unit scalar r*q^k, such as q, a literal or (2*3),
    gives one scalar power, refused like a literal's when r^exp is too long
    to print, and its negative powers are its inverse's.  Any other base is
    raised by repeated squaring, unreduced."""
    exp = node.exp
    c = base.terms.get(()) if len(base.terms) == 1 else None
    if isinstance(c, LaurentScalar) and c.is_unit():
        ((k, r),) = c.coeffs.items()
        if _power_too_long(r, exp):
            raise _too_many_digits("scalar power", node.line, node.col)
        if exp < 0:
            c, exp = c.unit_inverse(), -exp
            ((k, r),) = c.coeffs.items()
        return Element.unit(LaurentScalar({k * exp: r ** exp}))
    if exp < 0:
        why = ("zero has no inverse: negative power of 0" if not base else
               "negative exponent on an atom that is not a unit scalar r*q^k "
               "(use *_inv generators)")
        raise ParseError(why, node.line, node.col)
    out = Element.unit()
    while exp:
        if exp & 1:
            out = out * base
        exp >>= 1
        if exp:
            base = base * base
    return out


def parse_expression(text, p):
    """Parse and evaluate in one go; the CLI entry point for expressions."""
    return eval_ast(parse_ast(text), p)
