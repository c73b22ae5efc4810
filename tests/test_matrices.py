import random
from fractions import Fraction

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
