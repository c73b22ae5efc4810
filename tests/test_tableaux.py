from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasiflags.localization import ParameterPoint
from quasiflags.roots import embed_degree, kostant_count, rho
from quasiflags.series import degree_vectors
from quasiflags import tableaux
from quasiflags.tableaux import Tableau, cartan_eigenvalue, enumerate_fixed_points


def test_degree_row_sums():
    assert Tableau.zero(4).degree() == (0, 0, 0)
    assert Tableau([(1,), (1, 0)]).degree() == (1, 1)
    assert Tableau([(5,)]).degree() == (5,)


def test_validity_enforced():
    with pytest.raises(ValueError):
        Tableau([(1,), (2, 0)])        # d_1^1 < d_2^1
    with pytest.raises(ValueError):
        Tableau([(-1,)])
    with pytest.raises(ValueError):
        Tableau([(1, 2)])              # wrong row length


def test_non_integral_entries_are_rejected_not_truncated():
    with pytest.raises(ValueError, match=r"\(\(2\.7,\), \(1, 0\.5\)\)"):
        Tableau([[2.7], [1, 0.5]])
    with pytest.raises(ValueError, match=r"\(1, 0\.5\)"):
        Tableau([[2], [1, 0.5]])
    with pytest.raises(ValueError, match="Fraction"):
        Tableau([[Fraction(3, 2)]])
    # integral values of other types are accepted and stored as ints
    tab = Tableau([[2.0], [Fraction(1), 0]])
    assert tab == Tableau([[2], [1, 0]])
    assert all(type(e) is int for row in tab.rows for e in row)


def test_non_integral_degree_vectors_are_rejected_not_truncated():
    with pytest.raises(ValueError, match=r"\(1\.9, 1\)"):
        enumerate_fixed_points(3, (1.9, 1))
    with pytest.raises(ValueError, match=r"\(1\.5, 1\)"):
        kostant_count((1.5, 1), 3)
    assert enumerate_fixed_points(3, (1.0, Fraction(1))) == enumerate_fixed_points(3, (1, 1))


def test_enumerate_zero_degree():
    for n in (2, 3, 4):
        gamma = (0,) * (n - 1)
        assert enumerate_fixed_points(n, gamma) == [Tableau.zero(n)]


def test_enumerate_small_examples():
    two = enumerate_fixed_points(3, (1, 1))
    assert [t.as_flat_list() for t in two] == [[1, 0, 1], [1, 1, 0]]
    one = enumerate_fixed_points(3, (0, 1))
    assert [t.as_flat_list() for t in one] == [[0, 0, 1]]


def test_enumeration_census_and_uniqueness():
    # ranks 5..8 are where verify-main falls back to the per-point kernel
    for n, max_degree in ((2, 5), (3, 5), (4, 5), (5, 3), (6, 3), (7, 3), (8, 3)):
        for gamma in degree_vectors(n - 1, max_degree):
            points = enumerate_fixed_points(n, gamma)
            assert len(points) == len(set(points))
            assert len(points) == kostant_count(gamma, n)
            flats = [p.as_flat_list() for p in points]
            assert flats == sorted(flats)
            for p in points:
                assert p.degree() == gamma


def test_shift():
    d = Tableau([(1,)])
    assert d.shift(0) == d
    assert d.shift(2) == Tableau([(3,)])
    big = Tableau([(2,), (2, 1), (1, 1, 0)])
    shifted = big.shift(3)
    n = big.n
    assert shifted.degree() == tuple(dd + j * 3 for j, dd in
                                     enumerate(big.degree(), start=1))
    assert shifted.n == n
    with pytest.raises(ValueError):
        d.shift(-1)


def test_flat_list_roundtrip():
    t = Tableau([(2,), (2, 1), (1, 1, 0)])
    assert Tableau.from_flat_list(t.as_flat_list(), 4) == t


def test_cartan_eigenvalue_closed_forms():
    pt = ParameterPoint((Fraction(4), Fraction(-4)), Fraction(1), Fraction(0))
    assert cartan_eigenvalue(1, Tableau.zero(2), pt) == (pt.a[0] - pt.a[1]) / pt.x - 1
    assert cartan_eigenvalue(1, Tableau([(1,)]), pt) == (pt.a[0] - pt.a[1]) / pt.x - 3

    pt3 = ParameterPoint((Fraction(5), Fraction(1), Fraction(-6)), Fraction(2), Fraction(0))
    for i in (1, 2):
        assert cartan_eigenvalue(i, Tableau.zero(3), pt3) == \
            (pt3.a[i - 1] - pt3.a[i]) / pt3.x - 1


def test_cartan_eigenvalue_matches_weight_pairing():
    pt = ParameterPoint((Fraction(7), Fraction(2), Fraction(-9)), Fraction(3), Fraction(0))
    n = 3
    for gamma in degree_vectors(n - 1, 3):
        lam = tuple(a / pt.x - r + g for a, r, g in
                    zip(pt.a, rho(n), embed_degree(gamma, n)))
        for d in enumerate_fixed_points(n, gamma):
            for i in range(1, n):
                assert cartan_eigenvalue(i, d, pt) == lam[i - 1] - lam[i]


@st.composite
def degrees(draw):
    n = draw(st.integers(2, 5))
    return n, tuple(draw(st.integers(0, 4)) for _ in range(n - 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(degrees())
def test_cached_enumeration_is_fresh_and_uncorrupted(case):
    n, gamma = case
    uncached = list(tableaux._fixed_points.__wrapped__(n, gamma))
    first = enumerate_fixed_points(n, gamma)
    assert first == uncached
    first.append(Tableau.zero(n))
    first.reverse()
    second = enumerate_fixed_points(n, list(gamma))
    assert second == uncached
    assert second is not first


def test_fixed_point_cache_holds_every_degree_of_a_wide_rank_sweep():
    """Every |gamma| <= 1 degree at ranks 2..46 (1,080 keys, which properties
    at n = 46 D = 1 enumerates) stays cached: a second pass is all hits."""
    degrees = [(n, g) for n in range(2, 47) for g in degree_vectors(n - 1, 1)]
    assert len(degrees) == 1080
    tableaux._fixed_points.cache_clear()
    for _ in range(2):
        before = tableaux._fixed_points.cache_info()
        for n, gamma in degrees:
            enumerate_fixed_points(n, gamma)
    after = tableaux._fixed_points.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1080, 0)
