"""Expression grammar for elements, shared by the CLI and the catalog files.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' integer]
    atom   := name | rational | 'q' | '(' expr ')'

Rationals are integer or num/den literals.  parse_ast reads the tokens in
one loop: at each '(' it keeps the enclosing expression on an explicit
stack, and the ')' pops it, so parsing takes no stack frame per level of
nesting.  How deep an expression may nest is bounded by evaluation instead:
eval_ast recurses two frames per parenthesis, so past about 490 levels at
the default recursion limit it raises RecursionError.

A product is built left to right, and each run of generator letters in it
is one word, so a product of n letters takes time linear in n; the name q
is always the scalar, never a letter of a run.  A sum adds its terms into
one dict.  A power of a unit scalar r*q^k, such as q, (-1/2) or (2*q), is
one scalar power, and its negative exponents give inverses; its power, and
a literal's already at parse time, is refused before it is computed when it
would exceed the interpreter's digit limit.  Any other power is a product
by repeated squaring; generator inverses are spelled as their own names
(a_inv, d_inv, Dgamma_inv).  parse -> print is the identity on the AST,
which is what the catalog round-trip test pins down.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import ParseError, UnknownGeneratorError
from .kernel import Element, _Value, _accumulate
from .ring import ONE, LaurentScalar

# blanks other than a newline, then one token: a newline, which is a token
# of its own so that tokenize counts every line, a rational, an integer, a
# name, an operator, or any other character, which is an error
_TOKEN = re.compile(
    r"([^\S\n]*)(?:(\n)|(\d+/\d+)|(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()])|(.))"
)


class Name(_Value, namedtuple("Name", "ident line col", defaults=(0, 0))):
    __slots__ = ()
    _compared = 1  # a name's position does not count


class RatLit(_Value, namedtuple("RatLit", "value")):
    __slots__ = ()


class Power(_Value, namedtuple("Power", "base exp line col", defaults=(0, 0))):
    __slots__ = ()
    _compared = 2  # line and col, the position of its base, do not count


class Product(_Value, namedtuple("Product", "factors")):
    __slots__ = ()


class Sum(_Value, namedtuple("Sum", "terms")):
    # terms: a sequence of (sign, Product) with sign in {+1, -1}
    __slots__ = ()


def tokenize(text):
    """The (kind, text, line, column) of each token, and then an end token
    at the position after the last one."""
    tokens = []
    append = tokens.append
    pos = 0
    line = 1
    line_start = 0
    end = len(text.rstrip())  # trailing whitespace ends the token stream
    for m in _TOKEN.finditer(text, 0, end):
        blanks, newline, rat, num, name, op, other = m.groups()
        if other:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        pos += len(blanks)
        col = pos - line_start + 1
        if op:
            append(("op", op, line, col))
            pos += 1
        elif name:
            append(("name", name, line, col))
            pos += len(name)
        elif newline:
            pos += 1
            line += 1
            line_start = pos
        else:
            kind, val = ("int", num) if num else ("rat", rat)
            append((kind, val, line, col))
            pos += len(val)
    append(("end", "", line, end - line_start + 1))
    return tokens


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


_new = tuple.__new__  # a node without the Python frame of its namedtuple __new__


def parse_ast(text):
    """The AST of text, read by one loop over its tokens.  Each '(' keeps
    the enclosing expression's (terms, factors, sign, line, col) on a stack,
    line and col being the group's position, and its ')' makes the group
    the next atom of that expression."""
    tokens = tokenize(text)
    stack = []
    terms, factors, sign = [], [], 1
    i = 0
    if tokens[0][1] == "-":  # a token's text tells an operator from any other
        sign, i = -1, 1
    while True:
        # an atom
        kind, val, line, col = tokens[i]
        i += 1
        if kind == "name":
            atom = _new(Name, (val, line, col))
        elif kind == "int":
            atom = _new(RatLit, (Fraction(_int(val, line, col)),))
        elif kind == "rat":
            num, den = (_int(v, line, col) for v in val.split("/"))
            if den == 0:
                raise ParseError("zero denominator", line, col)
            atom = _new(RatLit, (Fraction(num, den),))
        elif val == "(":
            stack.append((terms, factors, sign, line, col))
            terms, factors, sign = [], [], 1
            if tokens[i][1] == "-":
                sign, i = -1, i + 1
            continue
        elif val == "*" and tokens[i - 2][1] == "*":  # only a product's '*' comes before
            raise ParseError("'**' is not an operator; use '^'", line, col)
        else:
            raise ParseError(f"expected an atom, got {val or 'end of input'!r}", line, col)
        # after the atom at (line, col): a power, then '*', '+', '-' or the end
        # of its expression, where a ')' makes the group the next atom
        while True:
            kind, val, tline, tcol = tokens[i]
            if val == "^":
                i += 1
                kind, val, tline, tcol = tokens[i]
                neg = val == "-"
                if neg:
                    i += 1
                    kind, val, tline, tcol = tokens[i]
                if kind != "int":
                    raise ParseError("exponent must be an integer", tline, tcol)
                i += 1
                exp = _int(val, tline, tcol)
                if neg:
                    exp = -exp
                value = _literal(atom)
                if exp < 0 and value == 0:
                    raise ParseError("zero has no inverse: negative power of 0", line, col)
                if value is not None and _power_too_long(value, exp):
                    raise _too_many_digits("literal power", line, col)
                atom = _new(Power, (atom, exp, line, col))
                kind, val, tline, tcol = tokens[i]
            factors.append(atom)
            i += 1  # past the operator, the ')' or the end
            if val == "*":
                break
            terms.append((sign, _new(Product, (tuple(factors),))))
            factors = []
            if val == "+" or val == "-":
                sign = 1 if val == "+" else -1
                break
            atom = _new(Sum, (tuple(terms),))
            if not stack:
                if kind != "end":
                    raise ParseError(f"trailing input starting at {val!r}", tline, tcol)
                return atom
            if val != ")":
                raise ParseError(f"expected ')', got {val or 'end of input'!r}", tline, tcol)
            terms, factors, sign, line, col = stack.pop()


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
