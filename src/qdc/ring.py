"""Exact arithmetic in Q[q, q^-1], the coefficient ring of every computation.

Scalars are Laurent polynomials in the deformation parameter q with rational
coefficients, stored sparsely as {exponent: coefficient}.  A coefficient is a
Python int when its denominator is 1 and a Fraction only for a true rational:
almost every coefficient of the calculus is an integer, and int arithmetic is
several times cheaper than Fraction arithmetic.  int and Fraction compare and
hash alike, so the choice never shows in equality, hashing or printing.  All
identity checking in this package bottoms out in equality of these scalars,
so they are exact: no floats anywhere.

Scalars are interned (hash-consed): every construction and every arithmetic
result goes through one table keyed by the sorted coefficient tuple, so
equal polynomials are one object and == is identity.  The hash is the
content hash of that tuple, computed once at interning, so no output can
depend on object addresses.  Each scalar memoises its negative and the sums
and products whose left operand it is, keyed by the serial number the right
one got at interning, an int whose hash costs no Python call: a verify run
meets a few hundred distinct scalars and multiplies them tens of thousands
of times, and a repeated operation is a dictionary hit that returns the
exact result computed the first time.  The intern table and the memos live
as long as the process, like the normal-form memo of a Presentation.

The numeric shadow catalog's (catalog.Catalog.at(q0)) scalars are constant
LaurentScalars, the values at q0 of the symbolic ones.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

from .errors import QdcError


class LaurentScalar:
    """Immutable sparse Laurent polynomial in q over the rationals, interned.

    The zero polynomial is the empty map; stored coefficients are never zero,
    so equal polynomials have equal sorted coefficient tuples, and that tuple
    is the intern key: equal scalars are one object, and == is identity.
    """

    __slots__ = ("coeffs", "_content_hash", "_serial", "_sums", "_products",
                 "_negative")

    def __new__(cls, coeffs=None):
        data = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = _exact(c)
                if c:
                    data[int(exp)] = c
        return _wrap(data)

    def __reduce__(self):
        # copy, deepcopy and unpickling go through the intern table
        return LaurentScalar, (self.coeffs,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, f):
        return cls({0: f})

    @classmethod
    def q_power(cls, k):
        return cls({k: 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_unit(self):
        """True for monomials r*q^k with r != 0; exactly the invertible scalars."""
        return len(self.coeffs) == 1

    def unit_inverse(self):
        """Inverse of a unit scalar r*q^k, i.e. (1/r)*q^-k."""
        if not self.is_unit():
            raise ValueError(f"not a unit in Q[q, q^-1]: {self}")
        ((k, r),) = self.coeffs.items()
        return LaurentScalar({-k: Fraction(1) / r})

    # -- arithmetic --------------------------------------------------------
    # A sum or product is memoised on the left operand, keyed by the right
    # one's serial number, and a negative on both scalars; the class test
    # comes first, so a foreign operand is never read.

    def __add__(self, other):
        if other.__class__ is not LaurentScalar:
            return NotImplemented
        s = self._sums.get(other._serial)
        if s is None:
            s = self._sums[other._serial] = _wrap(_sum(self.coeffs, other.coeffs))
        return s

    def __sub__(self, other):
        if other.__class__ is not LaurentScalar:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        n = self._negative
        if n is None:
            n = self._negative = _wrap({k: -c for k, c in self.coeffs.items()})
            n._negative = self
        return n

    def __mul__(self, other):
        if other.__class__ is not LaurentScalar:
            return NotImplemented
        s = self._products.get(other._serial)
        if s is None:
            s = self._products[other._serial] = _wrap(_product(self.coeffs, other.coeffs))
        return s

    # -- evaluation --------------------------------------------------------

    def eval_at(self, q0):
        """Substitute an exact nonzero rational for q."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("q = 0 is outside the ring: q^-1 undefined")
        total = _F0
        for k, c in self.coeffs.items():
            total += c * q0**k
        return total

    # -- hashing -----------------------------------------------------------

    def __hash__(self):
        return self._content_hash

    # -- printing ----------------------------------------------------------

    def __str__(self):
        """Report form: terms by descending exponent, e.g. 'q^2 - 2 + q^-2'."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            mag = _term_str(abs(c), k)
            if not parts:
                parts.append(mag if c > 0 else "-" + mag)
            else:
                parts.append(("+ " if c > 0 else "- ") + mag)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentScalar({self})"


def _term_str(c, k):
    if k == 0:
        return _digits(c)
    qpart = "q" if k == 1 else f"q^{k}"
    if c == 1:
        return qpart
    return f"{_digits(c)}*{qpart}"


def _digits(c):
    """str(c); a QdcError for an int past the interpreter's int-to-str limit."""
    try:
        return str(c)
    except ValueError:
        raise QdcError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} "
            f"digits, the interpreter's limit for printing an integer "
            f"(sys.get_int_max_str_digits())"
        ) from None


def _exact(c):
    """c as an int when its denominator is 1, else as a Fraction; no floats."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")


def _sum(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, _F0) + c
        if s:
            out[k] = s if s.__class__ is int else _exact(s)
        else:
            out.pop(k, None)
    return out


def _product(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            s = out.get(k, _F0) + c1 * c2
            if s:
                out[k] = s if s.__class__ is int else _exact(s)
            else:
                out.pop(k, None)
    return out


def _wrap(data):
    """The interned scalar of a canonical {exponent: nonzero int or Fraction}."""
    key = tuple(sorted(data.items()))
    s = _interned.get(key)
    if s is None:
        s = object.__new__(LaurentScalar)
        s.coeffs = data
        s._content_hash = hash(key)
        s._serial = next(_serials)
        s._sums = {}
        s._products = {}
        s._negative = None
        s = _interned.setdefault(key, s)  # one object, even if threads race here
    return s


_interned = {}
_serials = itertools.count()
_F0 = 0

ZERO = LaurentScalar()
ONE = LaurentScalar({0: 1})
Q = LaurentScalar({1: 1})
QINV = LaurentScalar({-1: 1})


def qp(k):
    """The scalar q^k."""
    return LaurentScalar.q_power(k)


def lint(n):
    """The constant scalar n."""
    return LaurentScalar.from_fraction(n)


def lfrac(num, den):
    return LaurentScalar.from_fraction(Fraction(num, den))
