import random
from fractions import Fraction

import pytest

from qdc.ring import LaurentScalar, ONE, ZERO, Q, QINV, qp, lint, lfrac

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


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        LaurentScalar({0: 0.5})
    with pytest.raises(TypeError):
        LaurentScalar.from_fraction(0.5)
