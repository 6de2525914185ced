import copy
import pickle
import random
from fractions import Fraction

import pytest

from qdc.kernel import Element
from qdc.ring import LaurentScalar, ONE, ZERO, Q, QINV, qp, lint, lfrac, _product, _sum

# independent oracle: evaluate both sides of a claimed scalar identity at
# enough rational points; the degrees here are tiny, so five points decide
_POINTS = [Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-2), Fraction(9, 4)]


def assert_identity(scalar, direct):
    """`direct` computes the same quantity with plain Fraction arithmetic."""
    for x in _POINTS:
        assert scalar.eval_at(x) == direct(x)


def test_additive_inverse_cancels():
    assert (Q - QINV) + (QINV - Q) == ZERO
    assert ((Q - QINV) + (QINV - Q)).is_zero()


def test_cancellation_to_single_power():
    assert (Q * Q - ONE) + ONE == qp(2)


def test_hecke_diagonal_entry():
    # (q - q^-1)*q + 1 expands to q^2
    got = (Q - QINV) * Q + ONE
    assert_identity(got, lambda x: (x - 1 / x) * x + 1)
    assert got == qp(2)


def test_inverse_pair():
    assert Q * QINV == ONE


def test_binomial_square():
    got = (Q - QINV) * (Q - QINV)
    assert_identity(got, lambda x: (x - 1 / x) ** 2)
    assert got == qp(2) - lint(2) + qp(-2)


def test_zero_absorbs():
    assert ZERO * (qp(2) - ONE) == ZERO


def test_eval_examples():
    assert (Q - QINV).eval_at(2) == Fraction(3, 2)
    assert ONE.eval_at(Fraction(7, 3)) == 1
    assert qp(2).eval_at(-1) == 1


def test_eval_rejects_zero():
    with pytest.raises(ValueError):
        Q.eval_at(0)


def test_ring_axioms_random():
    rng = random.Random(1729)

    def rand_scalar():
        return LaurentScalar({
            rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))
        })

    for _ in range(200):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x * ONE == x


def test_eval_is_homomorphism_random():
    rng = random.Random(99)
    for _ in range(100):
        x = LaurentScalar({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
        y = LaurentScalar({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
        q0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert (x * y).eval_at(q0) == x.eval_at(q0) * y.eval_at(q0)
        assert (x + y).eval_at(q0) == x.eval_at(q0) + y.eval_at(q0)


def test_canonical_form_uniqueness():
    a = qp(2) - lint(2) + qp(-2)
    b = (Q - QINV) * (Q - QINV)
    assert a.coeffs == b.coeffs
    assert hash(a) == hash(b)
    # zero coefficients are never stored
    assert (Q - Q).coeffs == {}


def test_text_form():
    assert str(qp(2) - lint(2) + qp(-2)) == "q^2 - 2 + q^-2"
    assert str(ZERO) == "0"
    assert str(-Q) == "-q"
    assert str(lfrac(3, 2) * Q) == "3/2*q"


def test_unit_inverse():
    s = lfrac(-3, 2) * qp(4)
    assert s.unit_inverse() * s == ONE
    with pytest.raises(ValueError):
        (Q + ONE).unit_inverse()


def test_unit_inverse_is_exact():
    half = lint(2).unit_inverse()
    assert half == lfrac(1, 2)
    assert half.coeffs == {0: Fraction(1, 2)}
    assert not any(isinstance(c, float) for c in half.coeffs.values())
    third = (lint(3) * qp(2)).unit_inverse()
    assert third.coeffs == {-2: Fraction(1, 3)}
    # an inverse with denominator 1 comes back as an int
    assert type(lfrac(1, 5).unit_inverse().coeffs[0]) is int


def test_integer_arithmetic_stores_ints():
    x = (Q - QINV) * (Q - QINV) + lint(3) * qp(-1) - ONE
    y = (x * x - lint(7)) + (-x)
    for s in (x, y, lint(4), qp(3), lfrac(6, 3), LaurentScalar({1: Fraction(8, 4)})):
        assert s.coeffs and all(type(c) is int for c in s.coeffs.values())
    # a true rational stays a Fraction
    assert type(lfrac(1, 2).coeffs[0]) is Fraction


def test_mixed_coefficient_types_compare_and_hash_alike():
    mixed = LaurentScalar({2: 3, 0: Fraction(1, 2), -1: -4})
    twin = LaurentScalar({2: Fraction(3), 0: Fraction(1, 2), -1: Fraction(-4)})
    assert mixed == twin
    assert hash(mixed) == hash(twin)
    assert str(mixed) == str(twin) == "3*q^2 + 1/2 - 4*q^-1"
    assert len({mixed, twin}) == 1
    assert mixed is twin


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        LaurentScalar({0: 0.5})
    with pytest.raises(TypeError):
        LaurentScalar.from_fraction(0.5)


# -- interning ------------------------------------------------------------------


def _random_scalars(seed, n):
    rng = random.Random(seed)
    return [
        LaurentScalar({
            rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
            for _ in range(rng.randint(0, 4))
        })
        for _ in range(n)
    ]


def test_equal_scalars_are_one_object():
    assert LaurentScalar({0: Fraction(2)}) is lint(2)
    assert LaurentScalar({0: 2, 3: 0}) is lint(2)
    assert LaurentScalar() is ZERO and LaurentScalar({1: 0}) is ZERO
    assert lfrac(4, 2) is lint(2) and qp(1) is Q and qp(-1) is QINV
    assert lint(2).unit_inverse() is lfrac(1, 2)
    assert (Q - QINV) * (Q - QINV) is qp(2) - lint(2) + qp(-2)


def test_arithmetic_results_are_interned_and_exact():
    xs = _random_scalars(2718, 40)
    rng = random.Random(31)
    for _ in range(300):
        a, b = rng.choice(xs), rng.choice(xs)
        assert a * b is b * a
        assert a + b is b + a
        assert (a + b) - b is a
        assert -(-a) is a
        # a memoised result is the product computed afresh
        assert (a * b).coeffs == _product(a.coeffs, b.coeffs)
        assert (a + b).coeffs == _sum(a.coeffs, b.coeffs)
        assert (a * b) is LaurentScalar(_product(b.coeffs, a.coeffs))


def test_copy_and_pickle_return_the_interned_object():
    for s in _random_scalars(5, 20) + [ZERO, ONE, lfrac(-7, 3) * qp(5)]:
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        assert copy.deepcopy([s, {s: s}])[0] is s
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(s, proto)) is s


def test_hash_is_the_content_hash():
    for s in _random_scalars(77, 30) + [ZERO, ONE, Q, QINV]:
        assert hash(s) == hash(tuple(sorted(s.coeffs.items())))


class _Unhashable:
    def __hash__(self):
        raise AssertionError("a scalar operator hashed a foreign operand")


def test_foreign_operands_are_not_hashed():
    e = Element.word(("a",))
    for op in ("__add__", "__sub__", "__mul__"):
        assert getattr(ONE, op)(_Unhashable()) is NotImplemented
        assert getattr(ONE, op)(e) is NotImplemented
    # Element has no reflected operator: a scalar times an Element is an
    # error, as it was before interning, and Element.scaled is the way
    with pytest.raises(TypeError):
        ONE * e
    assert e.scaled(ONE) == e
    assert e.scaled(lint(3)) == Element.word(("a",), lint(3))
