from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasiflags import eigenfunctions
from quasiflags.eigenfunctions import (EigenSeries, apply_cs_operator,
                                       cs_coefficients, cs_product_series,
                                       toda_coefficients, toda_limit_ratios)
from quasiflags.errors import ResonantParameter
from quasiflags.localization import ParameterPoint, volume_coefficient
from quasiflags.roots import embed_degree, inner, kostant_count
from quasiflags.scalars import generalized_binomial
from quasiflags.series import Series, degree_vectors, denominator_power_series
from test_series import brute_force_product


A2 = (Fraction(7, 3), Fraction(-7, 3))          # v = 14/3
A3 = (Fraction(6), Fraction(1), Fraction(-7))


def test_normalization_and_eigenvalue():
    series = cs_coefficients(2, A2, Fraction(3, 2), 4)
    assert series.coefficient((0,)) == 1
    assert series.eigenvalue == inner(A2, A2)


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
    monkeypatch.setattr(eigenfunctions, "_chain_sum", lambda *args: walks.append(args))
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


def reference_cs_tail(n, lam0, m, degree):
    """The dict-and-tuple CS recursion: (lam, lam) from scratch at each gamma,
    and a new target tuple at every root step."""
    coupling = 2 * m * (m + 1)
    supports = [tuple(1 if i <= k < j else 0 for k in range(1, n))
                for i in range(1, n) for j in range(i + 1, n + 1)]
    s = inner(lam0, lam0)
    coeffs = {}
    for gamma in degree_vectors(n - 1, degree):
        if sum(gamma) == 0:
            coeffs[gamma] = Fraction(1)
            continue
        lam = tuple(l + e for l, e in zip(lam0, embed_degree(gamma, n)))
        gap = inner(lam, lam) - s
        if gap == 0:
            raise ResonantParameter(
                f"(lam, lam) = s at gamma={gamma}; highest weight is not generic")
        acc = Fraction(0)
        for sup in supports:
            j = 1
            target = tuple(g - t for g, t in zip(gamma, sup))
            while all(t >= 0 for t in target):
                acc += j * coeffs[target]
                j += 1
                target = tuple(t - u for t, u in zip(target, sup))
        coeffs[gamma] = coupling * acc / gap
    return Series(n - 1, degree, coeffs)


def reference_weyl_series(n, m, degree):
    """prod over positive roots of the expanded geometric factor
    (1 - e^{-alpha})^{-m-1}, multiplied out by the all-pairs loop."""
    result = Series.one(n - 1, degree)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            sup = tuple(1 if i <= k < j else 0 for k in range(1, n))
            height = j - i
            factor = Series(n - 1, degree, {tuple(k * t for t in sup): generalized_binomial(m, k)
                                            for k in range(degree // height + 1)})
            result = brute_force_product(result, factor, degree)
    return result


@st.composite
def analytic_cases(draw):
    """n <= 5, 1 <= D <= 5, a zero-sum point with denominators (so L > 1
    mostly), and m one of 0, -1, -1/2, a negative or a positive rational."""
    rnd = draw(st.randoms(use_true_random=False))
    n, degree, q = rnd.randint(2, 5), rnd.randint(1, 5), rnd.randint(1, 4)
    numerators = [rnd.randint(-40, 40) for _ in range(n)]
    a = tuple(Fraction(n * p - sum(numerators), n * q) for p in numerators)
    p, r = rnd.randint(1, 19), rnd.randint(1, 5)
    m = rnd.choice([Fraction(0), Fraction(-1), Fraction(-1, 2), Fraction(-p, r), Fraction(p, r)])
    return n, a, m, degree


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(analytic_cases())
def test_lattice_walks_match_dict_reference(case):
    n, a, m, degree = case
    weyl = reference_weyl_series(n, m, degree)
    assert denominator_power_series(n, m + 1, degree) == weyl
    try:
        tail = reference_cs_tail(n, a, m, degree)
    except ResonantParameter as exc:
        for compute in (cs_coefficients, cs_product_series):
            with pytest.raises(ResonantParameter) as excinfo:
                compute(n, a, m, degree)
            assert str(excinfo.value) == str(exc)
        return
    assert cs_coefficients(n, a, m, degree).tail == tail
    assert cs_product_series(n, a, m, degree) == brute_force_product(tail, weyl, degree)
