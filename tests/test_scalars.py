import math
import random
from fractions import Fraction

import pytest

from quasiflags.scalars import format_rational, generalized_binomial, parse_rational


def test_parse_plain_integers():
    assert parse_rational("5") == 5
    assert parse_rational("-3") == -3
    assert parse_rational("+7") == 7
    assert parse_rational("  12 ") == 12


def test_parse_fractions():
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-9/4") == Fraction(-9, 4)


@pytest.mark.parametrize("bad", ["1/-2", "1/0", "x", "1.5", "2/3/4", "", "3 /4"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        value = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        assert parse_rational(format_rational(value)) == value
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    # other exact inputs are converted first
    assert [format_rational(v) for v in (7, -3, 0.5)] == ["7", "-3", "1/2"]


def test_format_renders_parts_past_the_int_str_digit_limit():
    assert format_rational(Fraction((10**5000 - 1) // 9 * 7, 3)) == "7" * 5000 + "/3"
    assert format_rational(-10**5000) == "-1" + "0" * 5000


def test_binomial_integer_cases():
    assert generalized_binomial(2, 2) == 6          # C(4, 2)
    assert generalized_binomial(Fraction(99, 7), 0) == 1
    assert generalized_binomial(Fraction(1, 2), 1) == Fraction(3, 2)


def test_binomial_matches_comb_for_integers():
    for m in range(0, 8):
        for k in range(0, 8):
            assert generalized_binomial(m, k) == math.comb(m + k, k)


def test_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        generalized_binomial(1, -1)


def test_exact_inverse_product():
    rng = random.Random(1)
    for _ in range(100):
        value = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        sign = rng.choice([1, -1])
        value *= sign
        assert value * (1 / value) == 1
        # reduction to lowest terms is idempotent
        again = Fraction(value.numerator, value.denominator)
        assert (again.numerator, again.denominator) == (value.numerator, value.denominator)
