import math

import pytest
from hypothesis import given, strategies as st

from fqx.errors import CompositeModulus, EvenCharacteristic
from fqx.field import factor_int, int_mobius, make_field, quadratic_character


def test_composite_rejected():
    for bad in (0, 1, 4, 6, 9, 91, 2**16):
        with pytest.raises(CompositeModulus):
            make_field(bad)


def test_factor_int():
    assert factor_int(1) == {}
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(65537) == {65537: 1}
    for n in range(1, 500):
        assert math.prod(d**e for d, e in factor_int(n).items()) == n


def test_int_mobius():
    # mu(1..12) = 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0
    assert [int_mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_basic_arithmetic_mod_7():
    F = make_field(7)
    assert F.add(5, 4) == 2
    assert F.sub(2, 5) == 4
    assert F.mul(3, 5) == 1
    assert F.neg(3) == 4
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_squares_mod_7():
    # squares mod 7 are exactly {1, 2, 4}
    F = make_field(7)
    assert quadratic_character(F, 0) == 0
    for a in (1, 2, 4):
        assert quadratic_character(F, a) == 1
    for a in (3, 5, 6):
        assert quadratic_character(F, a) == -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_euler_criterion(p):
    F = make_field(p)
    squares = {a * a % p for a in range(1, p)}
    for a in range(p):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert quadratic_character(F, a) == want


def test_even_characteristic_rejected():
    F = make_field(2)
    with pytest.raises(EvenCharacteristic):
        quadratic_character(F, 1)


def test_large_prime_no_table():
    # 65537 is above the table cutoff, exercises the pow path
    F = make_field(65537)
    for a in range(2, 50):
        assert quadratic_character(F, a * a % 65537) == 1
    assert quadratic_character(F, 0) == 0


@given(st.sampled_from([3, 5, 7, 31, 101]), st.integers(0, 200), st.integers(0, 200))
def test_character_multiplicative(p, a, b):
    F = make_field(p)
    lhs = quadratic_character(F, a * b % p)
    rhs = quadratic_character(F, a) * quadratic_character(F, b)
    assert lhs == rhs
