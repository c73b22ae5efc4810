import random
from fractions import Fraction

from quasiflags.roots import (embed_degree, inner, kostant_count, pairing,
                              positive_root_pairs_descending, positive_roots,
                              rho, rho_vee, simple_root)
from quasiflags.series import degree_vectors, denominator_power_series
from quasiflags.tableaux import enumerate_fixed_points


def test_root_normalization():
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            assert inner(simple_root(i, n), simple_root(i, n)) == 2


def test_adjacent_simple_roots():
    for n in (3, 4, 5):
        assert inner(simple_root(1, n), simple_root(2, n)) == -1


def test_rho_pairs_to_one_with_simple_roots():
    for n in (2, 3, 4, 5, 6):
        for i in range(1, n):
            assert inner(rho(n), simple_root(i, n)) == 1
        assert sum(rho(n)) == 0


def test_rho_vee_pairings():
    for n in (2, 3, 4, 5):
        rv = rho_vee(n)
        for i in range(1, n):
            assert pairing(rv, simple_root(i, n)) == 1
        for gamma in degree_vectors(n - 1, 3):
            negated = tuple(-c for c in embed_degree(gamma, n))
            assert pairing(rv, negated) == sum(gamma)


def test_embed_degree_examples():
    assert embed_degree((1,), 2) == (Fraction(-1), Fraction(1))
    assert embed_degree((1, 1), 3) == (Fraction(-1), Fraction(0), Fraction(1))
    assert embed_degree((0,) * 3, 4) == (Fraction(0),) * 4


def test_embed_degree_roundtrip():
    rng = random.Random(6)
    for n in (2, 3, 4):
        for _ in range(20):
            gamma = tuple(rng.randint(0, 5) for _ in range(n - 1))
            coords = embed_degree(gamma, n)
            assert sum(coords) == 0
            # partial sums of the coordinates recover -d_i
            recovered = []
            running = Fraction(0)
            for c in coords[:-1]:
                running += c
                recovered.append(-running)
            assert tuple(recovered) == gamma


def test_positive_roots_descending_order():
    assert positive_root_pairs_descending(2) == [(1, 2)]
    assert positive_root_pairs_descending(3) == [(2, 3), (1, 3), (1, 2)]
    assert positive_root_pairs_descending(4) == [(3, 4), (2, 4), (2, 3),
                                                 (1, 4), (1, 3), (1, 2)]
    for n in (2, 3, 4, 5, 6):
        assert len(positive_roots(n)) == n * (n - 1) // 2


def test_inner_symmetric_bilinear_positive():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(10):
            u = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            v = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            w = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            assert inner(u, v) == inner(v, u)
            assert inner([a + b for a, b in zip(u, v)], w) == inner(u, w) + inner(v, w)
        for gamma in degree_vectors(n - 1, 3):
            e = embed_degree(gamma, n)
            norm = inner(e, e)
            assert norm >= 0
            assert (norm == 0) == (sum(gamma) == 0)


def test_kostant_examples():
    assert kostant_count((0, 0), 3) == 1
    assert kostant_count((1, 1), 3) == 2
    for d in range(7):
        assert kostant_count((d,), 2) == 1
    # alpha_1 + alpha_3 only: the roots through alpha_2 do not fit
    assert kostant_count((1, 0, 1), 4) == 1


def test_kostant_matches_fixed_point_count_at_large_rank():
    gamma = (0,) * 20 + (1,) + (0,) * 10
    assert kostant_count(gamma, 32) == len(enumerate_fixed_points(32, gamma)) == 1


def test_kostant_matches_denominator_expansion():
    # independent route: the partition count is the coefficient in the product
    # of plain geometric series over the positive roots
    for n in (2, 3, 4):
        series = denominator_power_series(n, 1, 5)
        for gamma in degree_vectors(n - 1, 5):
            assert series.coefficient(gamma) == kostant_count(gamma, n)
