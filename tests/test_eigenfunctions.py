import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from quasiflags import eigenfunctions
from quasiflags.eigenfunctions import (EigenSeries, apply_cs_operator, check_nonresonant,
                                       cs_coefficients, cs_product_coefficients,
                                       cs_product_pairs, cs_product_series,
                                       toda_coefficients, toda_limit_ratios,
                                       toda_tail_coefficients, toda_tail_pairs)
from quasiflags.errors import ResonantParameter
from quasiflags.localization import ParameterPoint, volume_coefficient
from quasiflags.roots import embed_degree, inner, kostant_count
from quasiflags.scalars import generalized_binomial
from quasiflags.series import (Series, degree_vectors, denominator_power_series,
                               root_lattice, weyl_fold)


A2 = (Fraction(7, 3), Fraction(-7, 3))          # v = 14/3
A3 = (Fraction(6), Fraction(1), Fraction(-7))


def test_normalization_and_eigenvalue():
    series = cs_coefficients(2, A2, Fraction(3, 2), 4)
    assert series.coefficient((0,)) == 1
    assert series.eigenvalue == inner(A2, A2)
    assert series.rank == series.tail.rank == 1
    assert series == EigenSeries(A2, series.tail, inner(A2, A2))


def test_n2_one_step_closed_form():
    m = Fraction(3, 2)
    v = A2[0] - A2[1]
    series = cs_coefficients(2, A2, m, 2)
    c1 = m * (m + 1) / (1 - v)
    assert series.coefficient((1,)) == c1
    # two-step: both j = 1 and j = 2 feed the recursion
    c2 = m * (m + 1) * (c1 + 2) / (4 - 2 * v)
    assert series.coefficient((2,)) == c2


def test_resonance_detected():
    with pytest.raises(ResonantParameter):
        cs_coefficients(2, (Fraction(1), Fraction(-1)), Fraction(1), 3)
    with pytest.raises(ResonantParameter):
        toda_coefficients(2, (Fraction(2), Fraction(-2)), 4)


def test_toda_n2_closed_form_and_volume_match():
    v = A2[0] - A2[1]
    series = toda_coefficients(2, A2, 3)
    assert series.coefficient((1,)) == 1 / (1 - v)
    pt = ParameterPoint(A2, Fraction(1), Fraction(0))
    for d in range(4):
        assert series.coefficient((d,)) == volume_coefficient(2, (d,), pt)


def test_toda_matches_volumes_n3_any_gauge():
    for x in (Fraction(1), Fraction(3)):
        pt = ParameterPoint(A3, x, Fraction(0))
        series = toda_coefficients(3, pt.a_over_x(), 3, x=x)
        for gamma in degree_vectors(2, 3):
            assert series.coefficient(gamma) == volume_coefficient(3, gamma, pt)


def test_product_series_degree_zero_and_one():
    m = Fraction(3, 2)
    v = A2[0] - A2[1]
    product = cs_product_series(2, A2, m, 3)
    assert product.coefficient((0,)) == 1
    assert product.coefficient((1,)) == (m + 1) * (m + 1 - v) / (1 - v)


def test_product_series_is_explicit_convolution():
    # independent double-sum oracle at gamma = (1, 1)
    m = Fraction(5, 2)
    tail = cs_coefficients(3, A3, m, 2).tail
    weyl = denominator_power_series(3, m + 1, 2)
    expected = sum((tail.coefficient((i, j)) * weyl.coefficient((1 - i, 1 - j))
                    for i in (0, 1) for j in (0, 1)), Fraction(0))
    product = cs_product_series(3, A3, m, 2)
    assert product.coefficient((1, 1)) == expected


def test_product_series_zero_coupling_counts_partitions():
    product = cs_product_series(3, A3, Fraction(0), 4)
    for gamma in degree_vectors(2, 4):
        assert product.coefficient(gamma) == kostant_count(gamma, 3)


def test_operator_fixes_eigen_series():
    for n, a in ((2, A2), (3, A3)):
        for m in (Fraction(3, 2), Fraction(-7, 4), Fraction(2)):
            series = cs_coefficients(n, a, m, 4)
            image = apply_cs_operator(series, m, 4)
            assert image == series.tail.scale(series.eigenvalue)


def test_operator_on_unit_series_is_not_eigen():
    m = Fraction(3, 2)
    unit = EigenSeries(A2, Series.one(1, 2), inner(A2, A2))
    image = apply_cs_operator(unit, m, 2)
    assert image.coefficient((1,)) != 0
    assert image != unit.tail.scale(unit.eigenvalue)


def test_operator_zero_coupling_is_laplacian():
    series = cs_coefficients(2, A2, Fraction(0), 3)
    tweaked = EigenSeries(A2, Series(1, 3, {(0,): 1, (1,): Fraction(4, 7),
                                            (2,): Fraction(-2)}),
                          inner(A2, A2))
    image = apply_cs_operator(tweaked, Fraction(0), 3)
    for gamma in degree_vectors(1, 3):
        lam = tuple(l + g for l, g in zip(A2, embed_degree(gamma, 2)))
        assert image.coefficient(gamma) == inner(lam, lam) * tweaked.coefficient(gamma)
    assert series.coefficient((1,)) == 0  # coupling 0 kills the tail


def test_toda_limit_ratios_n2_closed_form():
    v = A2[0] - A2[1]
    ratios = toda_limit_ratios(2, (1,), A2, [10, 100])
    assert ratios == [(1 + Fraction(1, m)) / (1 - v) for m in (10, 100)]
    assert toda_limit_ratios(2, (0,), A2, [5, 50]) == [1, 1]


def test_toda_limit_ratios_decrease_to_target():
    target = toda_coefficients(3, A3, 2).coefficient((1, 1))
    ratios = toda_limit_ratios(3, (1, 1), A3, [100, 10_000, 1_000_000])
    errors = [abs(r - target) for r in ratios]
    assert errors[0] > errors[1] > errors[2]


def test_resonance_at_top_degree_is_decided_before_the_recursion(monkeypatch):
    # gap 2 d (d - 2) at gamma = (d,): resonant at (2,) and nowhere below
    a = (Fraction(1), Fraction(-1))
    m = Fraction(3, 2)
    assert cs_coefficients(2, a, m, 1).coefficient((1,)) == -m * (m + 1)
    assert toda_coefficients(2, a, 1).coefficient((1,)) == -1
    walks = []
    monkeypatch.setattr(eigenfunctions, "cs_product_pairs", lambda *args: walks.append(args))
    message = "(lam, lam) = s at gamma=(2,); highest weight is not generic"
    for compute in (lambda: cs_coefficients(2, a, m, 2),
                    lambda: cs_product_series(2, a, m, 3),
                    lambda: toda_coefficients(2, a, 2)):
        with pytest.raises(ResonantParameter) as excinfo:
            compute()
        assert str(excinfo.value) == message
    assert walks == []


def test_resonance_names_the_first_resonant_degree():
    # lam0 = (1, 0, -1) resonates at both (0, 1) and (1, 0); (0, 1) comes first
    # in (total, lex) order
    a = (Fraction(1), Fraction(0), Fraction(-1))
    message = "(lam, lam) = s at gamma=(0, 1); highest weight is not generic"
    for compute in (lambda: cs_coefficients(3, a, Fraction(2, 3), 3),
                    lambda: toda_coefficients(3, a, 3, x=Fraction(2))):
        with pytest.raises(ResonantParameter) as excinfo:
            compute()
        assert str(excinfo.value) == message


def test_toda_rejects_x_zero_before_checking_resonance():
    # a = (1, -1) resonates at gamma = (2,), so the order of the two checks shows
    a = (Fraction(1), Fraction(-1))
    with pytest.raises(ValueError, match="x must be nonzero"):
        toda_coefficients(2, a, 2, x=0)
    with pytest.raises(ValueError, match="x must be nonzero"):
        toda_tail_coefficients(check_nonresonant(2, a, 1), x=0)


def positive_roots(n):
    """(a, b, support) for each positive root e_a - e_b, a < b (0-based),
    support its degree vector alpha_{a+1} + ... + alpha_b."""
    return [(a, b, tuple(1 if a <= t < b else 0 for t in range(n - 1)))
            for a in range(n) for b in range(a + 1, n)]


def chain(gamma, sup):
    """gamma - j alpha for j = 1, 2, ... while it stays in the cone."""
    target = tuple(g - t for g, t in zip(gamma, sup))
    while all(t >= 0 for t in target):
        yield target
        target = tuple(g - t for g, t in zip(target, sup))


def chain_sum(coeffs, gamma, sup):
    """sum_{j >= 1} j * coeffs[gamma - j alpha], walked down the chain."""
    return sum((j * coeffs.get(t, 0) for j, t in enumerate(chain(gamma, sup), 1)),
               Fraction(0))


def shifted(lam0, gamma):
    return tuple(l + e for l, e in zip(lam0, embed_degree(gamma, len(lam0))))


def resonant(gamma):
    return ResonantParameter(f"(lam, lam) = s at gamma={gamma}; highest weight is not generic")


def reference_cs_tail(n, lam0, m, degree):
    """The dict-and-tuple CS recursion: (lam, lam) from scratch at each gamma,
    and a new target tuple at every root step."""
    coupling = 2 * m * (m + 1)
    s = inner(lam0, lam0)
    coeffs = {}
    for gamma in degree_vectors(n - 1, degree):
        if sum(gamma) == 0:
            coeffs[gamma] = Fraction(1)
            continue
        lam = shifted(lam0, gamma)
        gap = inner(lam, lam) - s
        if gap == 0:
            raise resonant(gamma)
        acc = sum((chain_sum(coeffs, gamma, sup) for _, _, sup in positive_roots(n)),
                  Fraction(0))
        coeffs[gamma] = coupling * acc / gap
    return Series(n - 1, degree, coeffs)


def reference_cs_operator(series, m, degree):
    """apply_cs_operator with each root's chain walked down from gamma, one
    multiply-add per step: (lam, lam) c_gamma - 2 m (m+1) sum_alpha sum_j
    j c_{gamma - j alpha}."""
    lam0, coeffs = series.base, series.tail.coeffs
    roots = positive_roots(len(lam0))
    out = {}
    for gamma in degree_vectors(series.rank, degree):
        lam = shifted(lam0, gamma)
        acc = sum((chain_sum(coeffs, gamma, sup) for _, _, sup in roots), Fraction(0))
        out[gamma] = inner(lam, lam) * coeffs.get(gamma, 0) - 2 * m * (m + 1) * acc
    return Series(series.rank, degree, out)


def reference_gauge_product(n, lam0, m, degree):
    """The product side without the CS tail or the Weyl fold: with k = m + 1,
    P = (CS tail) prod_alpha (1 - e^{-alpha})^{-k} solves the gauge-transformed
    recursion (Heckman-Opdam)

        P_gamma ((lam, lam) - s) = -sum_alpha [2k ((alpha, lam) - k ht alpha) S_alpha
                                              + 4k T_alpha]

    at lam = lam0 + gamma, with S_alpha = sum_{j >= 1} P_{gamma - j alpha},
    T_alpha = sum_{j >= 1} j P_{gamma - j alpha} and (e_a - e_b, lam) =
    lam_a - lam_b."""
    k = m + 1
    s = inner(lam0, lam0)
    coeffs = {}
    for gamma in degree_vectors(n - 1, degree):
        if sum(gamma) == 0:
            coeffs[gamma] = Fraction(1)
            continue
        lam = shifted(lam0, gamma)
        gap = inner(lam, lam) - s
        if gap == 0:
            raise resonant(gamma)
        acc = Fraction(0)
        for a, b, sup in positive_roots(n):
            plain = sum((coeffs[t] for t in chain(gamma, sup)), Fraction(0))
            weighted = chain_sum(coeffs, gamma, sup)
            acc += 2 * k * (lam[a] - lam[b] - k * (b - a)) * plain + 4 * k * weighted
        coeffs[gamma] = -acc / gap
    return Series(n - 1, degree, coeffs)


def reference_toda_tail(n, lam0, x, degree):
    """The dict-and-tuple Toda recursion: c_gamma ((lam, lam) - s) =
    (2 / x^2) sum_i c_{gamma - alpha_i}, over the simple roots alpha_i that
    keep gamma - alpha_i in the cone."""
    s = inner(lam0, lam0)
    coeffs = {}
    for gamma in degree_vectors(n - 1, degree):
        if sum(gamma) == 0:
            coeffs[gamma] = Fraction(1)
            continue
        lam = shifted(lam0, gamma)
        gap = inner(lam, lam) - s
        if gap == 0:
            raise resonant(gamma)
        below = (tuple(g - (t == i) for t, g in enumerate(gamma)) for i in range(n - 1))
        acc = sum((coeffs.get(b, 0) for b in below), Fraction(0))
        coeffs[gamma] = 2 / (x * x) * acc / gap
    return Series(n - 1, degree, coeffs)


def reference_weyl_series(n, m, degree):
    """prod over positive roots of the expanded geometric factor
    (1 - e^{-alpha})^{-m-1}, each factor multiplied in by the all-pairs loop
    over the nonzero terms."""
    result = Series.one(n - 1, degree)
    for a, b, sup in positive_roots(n):
        factor = {tuple(j * t for t in sup): generalized_binomial(m, j)
                  for j in range(degree // (b - a) + 1)}
        result = sparse_product(result, Series(n - 1, degree, factor), degree)
    return result


def sparse_product(x, y, degree):
    """Cauchy product over all pairs of nonzero terms."""
    out = {}
    for gx, cx in x.coeffs.items():
        for gy, cy in y.coeffs.items():
            key = tuple(p + q for p, q in zip(gx, gy))
            if sum(key) <= degree:
                out[key] = out.get(key, 0) + cx * cy
    return Series(x.rank, degree, out)


@st.composite
def analytic_cases(draw):
    """n <= 5, 1 <= D <= 8, a zero-sum point with denominators (so L > 1
    mostly), and m one of 0, -1, -1/2, an integer in [-D, -2] (where the
    binomials of the Weyl fold stop), a negative or a positive rational."""
    rnd = draw(st.randoms(use_true_random=False))
    n, degree, q = rnd.randint(2, 5), rnd.randint(1, 8), rnd.randint(1, 4)
    numerators = [rnd.randint(-40, 40) for _ in range(n)]
    a = tuple(Fraction(n * p - sum(numerators), n * q) for p in numerators)
    p, r = rnd.randint(1, 19), rnd.randint(1, 5)
    m = rnd.choice([Fraction(0), Fraction(-1), Fraction(-1, 2), Fraction(-rnd.randint(2, max(degree, 2))),
                    Fraction(-p, r), Fraction(p, r)])
    return n, a, m, degree


def assert_same_outcome(reference, *computes):
    """Each compute() equals reference(), or all raise the same
    ResonantParameter message."""
    try:
        expected = reference()
    except ResonantParameter as exc:
        for compute in computes:
            with pytest.raises(ResonantParameter) as excinfo:
                compute()
            assert str(excinfo.value) == str(exc)
        return
    for compute in computes:
        assert compute() == expected


def test_integer_gaps_match_the_embedding_formula():
    """Each gap, filled along the lattice steps, is the embedding sum
    G = sum_k (2 U_k + L e_k) e_k with e = embed_degree(gamma), at base
    points with L = 6."""
    sizes = [(n, degree) for n in range(2, 7) for degree in range(5)] + [(8, 5), (3, 24)]
    for n, degree in sizes:
        rng = random.Random(f"{n},{degree}")
        numerators = [1] + [rng.randint(-40, 40) for _ in range(n - 2)]
        lam0 = tuple(Fraction(p, 6) for p in numerators + [-sum(numerators)])
        lattice = root_lattice(n, degree)
        scale, gaps = eigenfunctions._integer_gaps(lattice, lam0)
        u = [scale * l for l in lam0]
        assert scale == 6
        assert gaps == [sum((2 * w + scale * e) * e for w, e in zip(u, embed_degree(g, n)))
                        for g in lattice.vectors]


# base points where most gaps G are negative, so the recursion divides by
# negative integers
NEG3 = (Fraction(6), Fraction(1, 2), Fraction(-13, 2))
NEG4 = (Fraction(9, 2), Fraction(-1, 3), Fraction(5, 6), Fraction(-5))


@pytest.mark.parametrize("n, a, degree", [(3, NEG3, 5), (4, NEG4, 4)])
def test_negative_gap_examples_are_generic_with_negative_gaps(n, a, degree):
    gaps = check_nonresonant(n, a, degree)[3]
    assert sum(g < 0 for g in gaps) > len(gaps) // 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(analytic_cases())
# the coupling m (m + 1) vanishes at m = 0 and m = -1, and at m = -1 so does
# every binomial of the Weyl fold
@example((3, NEG3, Fraction(0), 5))
@example((3, NEG3, Fraction(-1), 5))
@example((3, NEG3, Fraction(5, 2), 5))
@example((4, NEG4, Fraction(0), 4))
@example((4, NEG4, Fraction(-1), 4))
@example((4, NEG4, Fraction(-7, 3), 4))
def test_lattice_walks_match_dict_reference(case):
    n, a, m, degree = case
    weyl = reference_weyl_series(n, m, degree)
    assert denominator_power_series(n, m + 1, degree) == weyl
    assert_same_outcome(lambda: reference_cs_tail(n, a, m, degree),
                        lambda: cs_coefficients(n, a, m, degree).tail)
    assert_same_outcome(lambda: sparse_product(reference_cs_tail(n, a, m, degree), weyl, degree),
                        lambda: cs_product_series(n, a, m, degree))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(analytic_cases())
def test_product_series_solves_the_gauge_transformed_recursion(case):
    n, a, m, degree = case
    assert_same_outcome(lambda: reference_gauge_product(n, a, m, degree),
                        lambda: cs_product_series(n, a, m, degree))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(analytic_cases())
def test_operator_matches_per_chain_reference(case):
    n, a, m, degree = case
    rng = random.Random(repr(case))
    tail = Series(n - 1, degree, {g: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                  for g in degree_vectors(n - 1, degree)
                                  if rng.random() < 0.7})
    series = EigenSeries(a, tail, inner(a, a))
    assert apply_cs_operator(series, m, degree) == reference_cs_operator(series, m, degree)


def tail_and_fold(checked, m):
    """The product as the dict-reference CS tail times the Weyl-denominator
    power (series.weyl_fold): the oracle of the conjugated recursion."""
    lam0, lattice = checked[:2]
    tail = reference_cs_tail(len(lam0), lam0, m, lattice.degree).coeffs
    c = [tail.get(g, Fraction(0)) for g in lattice.vectors]
    return weyl_fold(lattice, [x.numerator for x in c], [x.denominator for x in c], m)


@pytest.mark.parametrize("n, degree", [(8, 5), (3, 24), (4, 10)])
def test_conjugated_recursion_matches_tail_and_fold(n, degree):
    rng = random.Random(f"{n},{degree}")
    points = 0
    while points < 3:
        q = rng.randint(1, 4)
        numerators = [rng.randint(-40, 40) for _ in range(n)]
        a = tuple(Fraction(n * p - sum(numerators), n * q) for p in numerators)
        m = Fraction(rng.choice([-1, 1]) * rng.randint(1, 19), rng.randint(1, 5))
        try:
            checked = check_nonresonant(n, a, degree)
        except ResonantParameter:
            continue
        assert cs_product_coefficients(checked, m) == tail_and_fold(checked, m)
        points += 1


@pytest.mark.parametrize("m", [Fraction(0), Fraction(-1), Fraction(-3), Fraction(5, 2)])
@pytest.mark.parametrize("n, a, degree", [(3, NEG3, 5), (4, NEG4, 4)])
def test_conjugated_recursion_at_negative_gaps(n, a, degree, m):
    checked = check_nonresonant(n, a, degree)
    product = cs_product_coefficients(checked, m)
    assert product == tail_and_fold(checked, m)
    if m == -1:  # k = m + 1 = 0 kills every step weight
        assert product == [1] + [0] * (len(product) - 1)


def as_pairs(series, lattice):
    """A Series' coefficients on lattice.vectors as (numerators, denominators)."""
    c = [series.coefficient(g) for g in lattice.vectors]
    return [v.numerator for v in c], [v.denominator for v in c]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(analytic_cases(), st.fractions(min_value=-3, max_value=3, max_denominator=4)
       .filter(lambda v: v not in (0, 1)))
@example((3, NEG3, Fraction(-1), 5), Fraction(2))
@example((3, NEG3, Fraction(5, 2), 5), Fraction(-1, 3))
@example((4, NEG4, Fraction(0), 4), Fraction(3, 2))
@example((4, NEG4, Fraction(-7, 3), 4), Fraction(-2))
def test_product_and_toda_pairs_match_the_dict_references(case, x):
    """cs_product_pairs and toda_tail_pairs hold the (numerator, denominator)
    of the dict references at each degree, so every pair is reduced with a
    positive denominator, at negative gaps too; or all raise alike."""
    n, a, m, degree = case
    lattice = root_lattice(n, degree)

    def reference_product():
        tail = reference_cs_tail(n, a, m, degree)
        return as_pairs(sparse_product(tail, reference_weyl_series(n, m, degree), degree),
                        lattice)

    assert_same_outcome(reference_product,
                        lambda: cs_product_pairs(check_nonresonant(n, a, degree), m))
    assert_same_outcome(lambda: as_pairs(reference_toda_tail(n, a, x, degree), lattice),
                        lambda: toda_tail_pairs(check_nonresonant(n, a, degree), x))
    try:
        checked = check_nonresonant(n, a, degree)
    except ResonantParameter:
        return
    for nums, dens in (cs_product_pairs(checked, m), toda_tail_pairs(checked, x)):
        assert all(den > 0 and gcd(num, den) == 1 for num, den in zip(nums, dens))
