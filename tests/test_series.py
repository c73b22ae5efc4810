import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quasiflags.roots import embed_degree
from quasiflags.scalars import generalized_binomial
from quasiflags.series import (Series, degree_vectors, denominator_power_series,
                               root_lattice, series_mul, total_degree)


def random_series(rng, rank, trunc, density=0.7):
    coeffs = {}
    for gamma in degree_vectors(rank, trunc):
        if rng.random() < density:
            coeffs[gamma] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Series(rank, trunc, coeffs)


def brute_force_product(a, b, degree):
    """Independent convolution oracle: direct double loop over all key pairs."""
    out = {}
    for ga in degree_vectors(a.rank, degree):
        for gb in degree_vectors(b.rank, degree):
            key = tuple(x + y for x, y in zip(ga, gb))
            if total_degree(key) > degree:
                continue
            out[key] = out.get(key, Fraction(0)) + a.coefficient(ga) * b.coefficient(gb)
    return Series(a.rank, degree, out)


def test_unit_is_identity():
    rng = random.Random(2)
    b = random_series(rng, 2, 3)
    assert series_mul(Series.one(2, 3), b, 3) == b


def test_rank_one_telescoping():
    # sum_d e^{-d alpha} times (1 - e^{-alpha}) collapses to 1
    geometric = Series(1, 6, {(d,): Fraction(1) for d in range(7)})
    factor = Series(1, 6, {(0,): Fraction(1), (1,): Fraction(-1)})
    assert series_mul(geometric, factor, 6) == Series.one(1, 6)


def test_product_matches_brute_force_convolution():
    rng = random.Random(3)
    for _ in range(10):
        a = random_series(rng, 2, 2)
        b = random_series(rng, 2, 2)
        assert series_mul(a, b, 2) == brute_force_product(a, b, 2)


def test_mul_associative_commutative():
    rng = random.Random(4)
    for _ in range(5):
        a = random_series(rng, 2, 3, density=0.5)
        b = random_series(rng, 2, 3, density=0.5)
        c = random_series(rng, 2, 3, density=0.5)
        assert series_mul(a, b, 3) == series_mul(b, a, 3)
        assert series_mul(series_mul(a, b, 3), c, 3) == series_mul(a, series_mul(b, c, 3), 3)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        series_mul(Series.one(1, 2), Series.one(2, 2), 2)


def test_truncation_guard():
    with pytest.raises(ValueError):
        series_mul(Series.one(1, 2), Series.one(1, 2), 3)
    with pytest.raises(ValueError):
        Series(1, 2, {(3,): Fraction(1)})
    with pytest.raises(ValueError):
        Series(2, 2, {(1, -1): Fraction(1)})


def test_denominator_series_single_root():
    m = Fraction(5, 3)
    series = denominator_power_series(2, m + 1, 6)
    for d in range(7):
        assert series.coefficient((d,)) == generalized_binomial(m, d)


def test_denominator_series_two_roots_cross_term():
    # coefficient of e^{-alpha_1 - alpha_2}: enumerate the decompositions over
    # the roots alpha_1, alpha_2, alpha_1 + alpha_2 directly
    m = Fraction(7, 2)
    series = denominator_power_series(3, m + 1, 3)
    by_enumeration = (generalized_binomial(m, 1) * generalized_binomial(m, 1)
                      + generalized_binomial(m, 1))
    assert series.coefficient((1, 1)) == by_enumeration
    assert series.coefficient((1, 1)) == (m + 1) * (m + 2)


def test_denominator_series_zero_exponent():
    for n in (2, 3, 4):
        assert denominator_power_series(n, 0, 4) == Series.one(n - 1, 4)


def test_denominator_series_exponent_additivity():
    rng = random.Random(5)
    for _ in range(4):
        e1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        e2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        combined = denominator_power_series(3, e1 + e2, 3)
        split = series_mul(denominator_power_series(3, e1, 3),
                           denominator_power_series(3, e2, 3), 3)
        assert combined == split


def test_degree_vectors_ordering():
    listed = list(degree_vectors(2, 2))
    assert listed == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for rank in range(1, 8):
        for max_total in range(6):
            cube = product(range(max_total + 1), repeat=rank)
            expected = sorted(filter(lambda g: sum(g) <= max_total, cube),
                              key=lambda g: (sum(g), g))
            assert list(degree_vectors(rank, max_total)) == expected


@st.composite
def sparse_products(draw):
    """Two sparse operands of independent truncations and a product degree no
    higher than either."""
    rank = draw(st.integers(1, 3))

    def operand():
        truncation = draw(st.integers(0, 5))
        keys = draw(st.lists(st.sampled_from(list(degree_vectors(rank, truncation))),
                             max_size=8))
        values = st.fractions(min_value=-9, max_value=9, max_denominator=5)
        return Series(rank, truncation, {g: draw(values) for g in keys})

    a, b = operand(), operand()
    return a, b, draw(st.integers(0, min(a.truncation, b.truncation)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_products())
def test_graded_product_matches_all_pairs_loop(case):
    a, b, degree = case
    assert series_mul(a, b, degree) == brute_force_product(a, b, degree)


def test_composed_root_predecessors_match_direct_subtraction():
    for n in range(2, 9):
        for degree in range(7):
            lattice = root_lattice(n, degree)
            index = {g: i for i, g in enumerate(lattice.vectors)}
            # positive roots alpha_i + ... + alpha_{i+h-1} by height h
            supports = [tuple(1 if i <= k < i + h else 0 for k in range(1, n))
                        for h in range(1, n) for i in range(1, n - h + 1)]
            direct = tuple(tuple(index.get(tuple(d - t for d, t in zip(g, sup)), -1)
                                 for g in lattice.vectors)
                           for sup in supports)
            assert lattice.prev == direct


def test_root_steps_match_direct_subtraction():
    sizes = [(n, degree) for n in range(2, 7) for degree in range(5)] + [(8, 5), (3, 24)]
    for n, degree in sizes:
        lattice = root_lattice(n, degree)
        start, source, below, root, pairing = lattice.steps
        index = {g: i for i, g in enumerate(lattice.vectors)}
        # positive roots e_a - e_{a+h} = alpha_{a+1} + ... + alpha_{a+h} by height h
        roots = [(a, a + h) for h in range(1, n) for a in range(n - h)]
        assert lattice.roots == tuple(roots)
        supports = [tuple(1 if a <= k < b else 0 for k in range(n - 1)) for a, b in roots]
        assert start[0] == 0 and start[-1] == len(source)
        for i, g in enumerate(lattice.vectors):
            direct = [(r, index[t]) for r, sup in enumerate(supports)
                      if (t := tuple(d - e for d, e in zip(g, sup))) in index]
            steps = range(start[i], start[i + 1])
            assert [(root[s], source[s]) for s in steps] == direct
            for s in steps:
                a, b = roots[root[s]]
                lam = embed_degree(lattice.vectors[source[s]], n)
                assert pairing[s] == lam[a] - lam[b]
                t = tuple(d - e for d, e in zip(lattice.vectors[source[s]], supports[root[s]]))
                if below[s] < 0:
                    assert t not in index
                else:
                    assert start[source[s]] <= below[s] < start[source[s] + 1]
                    assert (root[below[s]], source[below[s]]) == (root[s], index[t])
