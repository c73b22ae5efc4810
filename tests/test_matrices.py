import random
from fractions import Fraction

import pytest

from quasiflags.matrices import Matrix


def test_int_and_fraction_entries_compare_and_hash_equal():
    ints = Matrix([[1, 0], [2, -3]])
    fractions = Matrix([[Fraction(1), Fraction(0)], [Fraction(2), Fraction(-3)]])
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert Matrix.identity(2) == Matrix.diagonal([Fraction(1), Fraction(1)])


def test_non_int_entries_become_exact_fractions():
    half = Matrix([[0.5]]).rows[0][0]
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert Matrix([["2/3"]]).rows[0][0] == Fraction(2, 3)


def test_integral_fractions_become_int():
    two = Matrix([[Fraction(4, 2)]]).rows[0][0]
    assert type(two) is int and two == 2
    assert Matrix.identity(2).scale(Fraction(3, 3)).rows == ((1, 0), (0, 1))


def test_constructors_keep_int_entries():
    for m in (Matrix.unit(2, 1, 3), Matrix.identity(3), Matrix.zero(3)):
        assert all(type(e) is int for row in m.rows for e in row)
    assert Matrix.unit(2, 1, 3).rows == ((0, 0, 0), (1, 0, 0), (0, 0, 0))


def reference_product(a, b):
    n = len(a)
    return [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def test_integer_products_match_fraction_triple_loop():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        product = Matrix(a) * Matrix(b)
        assert product == Matrix(reference_product(a, b))
        assert all(type(e) is int for row in product.rows for e in row)


def sparse_entry(rng):
    """Mostly zero; otherwise an int or a Fraction, some of them integral."""
    kind = rng.random()
    if kind < 0.6:
        return 0
    if kind < 0.8:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))


def test_row_sparse_products_match_fraction_triple_loop():
    """Every entry equals the reference and is an int exactly when integral,
    also where non-integral Fraction terms summed to an integer."""
    rng = random.Random(29)
    integral_from_fractions = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = [[sparse_entry(rng) for _ in range(n)] for _ in range(n)]
        b = [[sparse_entry(rng) for _ in range(n)] for _ in range(n)]
        reference = reference_product(a, b)
        product = Matrix(a) * Matrix(b)
        assert product.rows == tuple(map(tuple, reference))
        for i, (row, ref_row) in enumerate(zip(product.rows, reference)):
            fractional = any(type(x) is Fraction and x.denominator > 1 for x in a[i])
            for e, ref in zip(row, ref_row):
                assert type(e) is (int if ref.denominator == 1 else Fraction)
                integral_from_fractions += fractional and ref.denominator == 1 and ref != 0
    assert integral_from_fractions > 50


@pytest.mark.parametrize("operation", [
    lambda: Matrix.identity(2) + Matrix.identity(3),
    lambda: Matrix.identity(3) - Matrix.identity(2),
    lambda: Matrix.identity(2) * Matrix.identity(3),
], ids=["add", "sub", "mul"])
def test_size_mismatch_raises_naming_both_sizes(operation):
    with pytest.raises(ValueError, match=r"size mismatch: \d+x\d+ matrix and "
                                         r"matrix of size \d+") as exc:
        operation()
    assert "2" in str(exc.value) and "3" in str(exc.value)
