from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasiflags import characters, localization
from quasiflags.characters import TorusWeight, pair_character, tangent_weights
from quasiflags.errors import InternalInconsistency, NonGenericParameter
from quasiflags.localization import (ParameterPoint, _products, _step_factors,
                                     _transfer_table,
                                     chern_matrix_element, chern_ratio,
                                     chern_series_coefficient,
                                     chern_series_coefficients, evaluate_weight,
                                     volume_coefficient, volume_coefficients)
from quasiflags.roots import kostant_count
from quasiflags.series import degree_vectors, total_degree
from quasiflags.tableaux import Tableau, enumerate_fixed_points
from quasiflags.verify import twist_constant


def generic_point_n2(m=Fraction(3, 2)):
    # v = a_1 - a_2 = 14/3 avoids every small-integer resonance
    return ParameterPoint((Fraction(7, 3), Fraction(-7, 3)), Fraction(1), m)


def n2_closed_form(d, pt):
    """Hand-derived product formula for the single fixed point of degree d."""
    v = (pt.a[0] - pt.a[1]) / pt.x
    m = pt.m
    value = Fraction(1)
    for k in range(1, d + 1):
        value *= (k + m) * (k + m - v) / (k * (k - v))
    return value


def test_parameter_point_validation():
    with pytest.raises(ValueError, match="sum to zero"):
        ParameterPoint((Fraction(1), Fraction(1)))
    # the zero-sum check comes first, before x is read
    with pytest.raises(ValueError, match="sum to zero"):
        ParameterPoint((Fraction(1), Fraction(1)), Fraction(0))
    pt = ParameterPoint((Fraction(1), Fraction(-1)), Fraction(2))
    # every construction path checks the fields, _replace included
    for build in (lambda: ParameterPoint((Fraction(1), Fraction(-1)), Fraction(0)),
                  lambda: pt._replace(x=0), lambda: pt.scaled(0)):
        with pytest.raises(ValueError, match="nonzero"):
            build()
    with pytest.raises(ValueError, match="sum to zero"):
        pt._replace(a=(1, 1))


def test_parameter_point_fields():
    exact = ParameterPoint((Fraction(6), Fraction(1), Fraction(-7)), Fraction(1), Fraction(0))
    # keyword construction with defaults, as in the README, and int inputs
    # (the CLI passes m = 0) come back as Fractions
    for pt in (ParameterPoint((6, 1, -7), m=0), ParameterPoint((6, 1, -7), 1, 0),
               exact._replace(m=0)):
        assert pt == exact and hash(pt) == hash(exact)
        assert all(type(c) is Fraction for c in (*pt.a, pt.x, pt.m))
    assert exact != exact.with_m(1)
    assert exact.integer_scaling is exact.integer_scaling


def test_evaluate_weight_examples():
    pt = ParameterPoint((Fraction(3), Fraction(-3)), Fraction(1), Fraction(0))
    assert evaluate_weight(TorusWeight((0, 0), 1), pt) == 1
    assert evaluate_weight(TorusWeight((-1, 1), 1), pt) == -5
    w = TorusWeight((1, -1), 2)
    for t in (Fraction(2), Fraction(-5, 3)):
        assert evaluate_weight(w, pt.scaled(t)) == t * evaluate_weight(w, pt)


def test_chern_ratio_base_cases():
    pt = generic_point_n2()
    assert chern_ratio(Tableau.zero(2), pt) == 1
    d = Tableau([(1,)])
    v = (pt.a[0] - pt.a[1]) / pt.x
    m = pt.m
    assert chern_ratio(d, pt) == (m + 1) * (m + 1 - v) / (1 - v)
    for gamma in ((1,), (2,), (3,)):
        for tab in enumerate_fixed_points(2, gamma):
            assert chern_ratio(tab, pt.with_m(0)) == 1


def test_chern_series_n2_product_formula():
    pt = generic_point_n2()
    for d in range(9):
        assert chern_series_coefficient(2, (d,), pt) == n2_closed_form(d, pt)


def test_chern_series_degree_zero_is_one():
    pt3 = ParameterPoint((Fraction(6), Fraction(1), Fraction(-7)), Fraction(1), Fraction(2, 5))
    assert chern_series_coefficient(3, (0, 0), pt3) == 1
    assert volume_coefficient(3, (0, 0), pt3) == 1


def test_zero_coupling_counts_fixed_points():
    pt3 = ParameterPoint((Fraction(6), Fraction(1), Fraction(-7)), Fraction(1), Fraction(0))
    for gamma in degree_vectors(2, 4):
        assert chern_series_coefficient(3, gamma, pt3) == kostant_count(gamma, 3)


def test_gauge_invariance():
    pt3 = ParameterPoint((Fraction(6), Fraction(1), Fraction(-7)), Fraction(1), Fraction(5, 4))
    for t in (Fraction(2), Fraction(-3), Fraction(7, 5)):
        scaled = pt3.scaled(t)
        for gamma in degree_vectors(2, 3):
            assert chern_series_coefficient(3, gamma, scaled) == \
                chern_series_coefficient(3, gamma, pt3)


def test_volume_basics_and_scaling():
    pt = generic_point_n2()
    v = (pt.a[0] - pt.a[1]) / pt.x
    assert volume_coefficient(2, (1,), pt) == 1 / (1 - v)
    pt3 = ParameterPoint((Fraction(6), Fraction(1), Fraction(-7)), Fraction(1), Fraction(0))
    for t in (Fraction(2), Fraction(-5, 3)):
        scaled = pt3.scaled(t)
        for gamma in degree_vectors(2, 3):
            expected = volume_coefficient(3, gamma, pt3) * t ** (-2 * total_degree(gamma))
            assert volume_coefficient(3, gamma, scaled) == expected


def test_nongeneric_parameter_raised():
    # v = 2 makes the degree-2 denominator k - v vanish
    pt = ParameterPoint((Fraction(1), Fraction(-1)), Fraction(1), Fraction(1))
    with pytest.raises(NonGenericParameter):
        chern_series_coefficient(2, (2,), pt)


def test_matrix_element_diagonal_is_chern_ratio():
    pt = generic_point_n2()
    for gamma in ((0,), (1,), (2,)):
        for d in enumerate_fixed_points(2, gamma):
            assert chern_matrix_element(d, d, pt) == chern_ratio(d, pt)
    pt3 = ParameterPoint((Fraction(6), Fraction(1), Fraction(-7)), Fraction(1), Fraction(3, 2))
    for gamma in degree_vectors(2, 2):
        for d in enumerate_fixed_points(3, gamma):
            assert chern_matrix_element(d, d, pt3) == chern_ratio(d, pt3)


def test_matrix_element_vanishes_on_zero_factor():
    # the pair bundle over ((2), (0)) carries the weights {0, -x}; at m = 1
    # the factor (-x + m x) kills the element
    pt = generic_point_n2(m=Fraction(1))
    element = chern_matrix_element(Tableau([(2,)]), Tableau.zero(2), pt)
    assert element == 0


def test_twist_identity_all_pairs():
    for n, a in ((2, (Fraction(7, 3), Fraction(-7, 3))),
                 (3, (Fraction(6), Fraction(1), Fraction(-7)))):
        tabs = [t for g in degree_vectors(n - 1, 2)
                for t in enumerate_fixed_points(n, g)]
        for m in (1, 2):
            pt = ParameterPoint(a, Fraction(1), Fraction(m))
            y = twist_constant(n, m, pt)
            ratios = set()
            for dp in tabs:
                for d in tabs:
                    top = chern_matrix_element(dp, d, pt)
                    bottom = chern_matrix_element(dp, d.shift(m), pt.with_m(0))
                    assert top == y * bottom
                    if bottom != 0:
                        ratios.add(top / bottom)
            assert ratios == {y}


# -- differential test of the integer-scaled kernel ---------------------------

def reference_product(numerator, denominator, pt):
    """The per-weight Fraction loop: prod (w + m x) over numerator weights
    divided by prod w over denominator weights."""
    result = Fraction(1)
    for w in numerator:
        result *= evaluate_weight(w, pt) + pt.m * pt.x
    for w in denominator:
        value = evaluate_weight(w, pt)
        if value == 0:
            raise NonGenericParameter(f"tangent weight {w} vanishes at {pt}")
        result /= value
    return result


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonGenericParameter:
        return "non-generic"


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def points(draw, n):
    """Zero-sum points with a/x on a coarse rational grid, so that integer
    differences (degenerate points) come up often."""
    u = [draw(small_rationals) for _ in range(n - 1)]
    u.append(-sum(u))
    x = draw(small_rationals.filter(lambda v: v != 0))
    m = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
    return ParameterPoint(tuple(c * x for c in u), x, m)


@st.composite
def fixed_points(draw, n):
    gamma = tuple(draw(st.integers(0, 3)) for _ in range(n - 1))
    return draw(st.sampled_from(enumerate_fixed_points(n, gamma)))


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(2, 4))
    return n, draw(fixed_points(n)), draw(fixed_points(n)), draw(points(n))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_kernel_matches_per_weight_reference(case):
    n, d_prime, d, pt = case
    gamma = d.degree()

    def reference_sum(chern):
        return sum(reference_product(tangent_weights(t, n) if chern else (),
                                     tangent_weights(t, n), pt)
                   for t in enumerate_fixed_points(n, gamma))

    assert outcome(chern_series_coefficient, n, gamma, pt) == outcome(reference_sum, True)
    assert outcome(volume_coefficient, n, gamma, pt) == outcome(reference_sum, False)
    pair = pair_character(d_prime, d, n).weights()
    assert outcome(chern_matrix_element, d_prime, d, pt) == outcome(
        reference_product, pair, tangent_weights(d_prime, n), pt)


def raised_or_value(fn, *args):
    try:
        return fn(*args)
    except NonGenericParameter as exc:
        return type(exc), str(exc)


def assert_row_transfer_matches_kernel(n, max_degree, pt):
    """Both row-transfer lists equal the per-degree kernel lists, or both
    sides raise with the same message."""
    gammas = list(degree_vectors(n - 1, max_degree))
    for fast, kernel in ((chern_series_coefficients, chern_series_coefficient),
                         (volume_coefficients, volume_coefficient)):
        expected = raised_or_value(lambda: [kernel(n, g, pt) for g in gammas])
        assert raised_or_value(fast, n, max_degree, pt) == expected


@st.composite
def series_cases(draw):
    n = draw(st.integers(2, 6))
    max_degree = draw(st.integers(0, {2: 8, 3: 6, 4: 4, 5: 3, 6: 3}[n]))
    return n, max_degree, draw(points(n))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(series_cases())
def test_row_transfer_matches_kernel(case):
    assert_row_transfer_matches_kernel(*case)


def _point(a, m):
    return ParameterPoint(tuple(map(Fraction, a)), Fraction(1), Fraction(m))


# generic points where some flag-step factor has a vanishing denominator: the
# first trial points of verify-main --n 4 --max-degree 5 --trials 2 --seed 11
# and verify-toda --n 4 --max-degree 6 --trials 2 --seed 11, and the trial
# point of verify-main --n 8 --max-degree 3 --trials 1 --seed 8
LOCAL_POLES = [
    (5, _point((6, -30, 10, 14), Fraction(-11, 3)), True),
    (6, _point((6, -30, 10, 14), 0), False),
    (3, _point((172, -276, -124, -116, 108, -84, 356, -36), -6), True),
]


# runs over k in (lo, hi] whose V or V + M passes through 0 with L = 3
ZEROS_AT_L3 = (3, 4, _point((Fraction(1, 3), Fraction(4, 3), Fraction(-5, 3)), 1))


def step_tables(n, max_degree):
    """Each step of the row-transfer graph as the count map of its runs."""
    _, tables, _, runs = _transfer_table(n, max_degree)
    return [characters.expand_runs([runs[i] for i in table]) for table in tables]


@pytest.mark.parametrize("max_degree, pt, chern", LOCAL_POLES)
def test_row_transfer_falls_back_at_local_poles(max_degree, pt, chern):
    tables = step_tables(pt.n, max_degree)
    assert any(_products(table, pt, chern)[1] == 0 for table in tables)
    assert_row_transfer_matches_kernel(pt.n, max_degree, pt)


def test_row_transfer_sums_past_a_vanishing_step_numerator():
    """At integer m <= -2 the x-only key (0, 0, -m) has V + M = 0, so a step
    factor's numerator vanishes.  Here the first source of degree (1, 2) in
    the last layer comes through such a step, so that degree's running sum
    is exactly 0 when its next, nonzero source arrives."""
    n, max_degree, pt = 3, 3, _point((-4, 1, 3), -2)
    gammas, _, layers, _ = _transfer_table(n, max_degree)
    tables = step_tables(n, max_degree)
    target = gammas.index((1, 2))
    arriving = [tables[step] for _, step, t in layers[-1][1] if t == target]
    tops = [_products(table, pt, True)[0] for table in arriving]
    assert tops[0] == 0 and any(tops[1:])
    assert arriving[0][(0, 0, 2)] > 0
    assert chern_series_coefficient(n, (1, 2), pt) != 0
    assert_row_transfer_matches_kernel(n, max_degree, pt)


@pytest.mark.parametrize("n, max_degree, pt", [
    (3, 2, _point((0, 0, 0), 1)),  # every a_j - a_j' vanishes
    # five degrees reached by a local pole come before the first
    # non-generic degree, and fall back without raising
    (4, 5, _point((-1, 7, 3, -9), 5)),
    (4, 6, _point((-1, 0, 0, 1), 0)),
])
def test_row_transfer_raises_as_the_kernel_does(n, max_degree, pt):
    with pytest.raises(NonGenericParameter):
        chern_series_coefficients(n, max_degree, pt)
    assert_row_transfer_matches_kernel(n, max_degree, pt)


def assert_step_factors_equal_products(n, max_degree, pt):
    """The run-by-run factor of every step of the graph is, as an int pair,
    _products over the step's expanded runs, for Chern and volume."""
    tables = step_tables(n, max_degree)
    for chern in (True, False):
        expected = [_products(table, pt, chern) for table in tables]
        assert _step_factors(n, max_degree, pt, chern) == expected


@pytest.mark.parametrize("n, max_degree", [
    (n, d) for n, top in ((2, 8), (3, 6), (4, 4), (5, 3)) for d in range(top + 1)])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_step_factors_equal_products_on_every_graph(n, max_degree, data):
    assert_step_factors_equal_products(n, max_degree, data.draw(points(n)))


@pytest.mark.parametrize("n, max_degree, pt", [
    *((pt.n, max_degree, pt) for max_degree, pt, _ in LOCAL_POLES),
    (3, 3, _point((-4, 1, 3), -2)),  # V + M vanishes at the x-only k = 2
    (4, 5, _point((6, -30, 10, 14), 0)),  # m = 0: V + M = V
    (3, 4, _point((0, 0, 0), 1)),  # every a_j - a_j' vanishes
    ZEROS_AT_L3,
])
def test_step_factors_equal_products_at_special_points(n, max_degree, pt):
    assert_step_factors_equal_products(n, max_degree, pt)


def test_graph_runs_hold_both_zeros_at_a_point_with_l_above_one():
    """At ZEROS_AT_L3 the range step L is 3, and graph runs hold keys where V
    vanishes and keys where V + M vanishes."""
    n, max_degree, pt = ZEROS_AT_L3
    u, scale, shift = pt.integer_scaling
    values = [u[j] - u[j_prime] + k * scale
              for j, j_prime, lo, hi, _ in _transfer_table(n, max_degree)[3]
              for k in range(lo + 1, hi + 1)]
    assert scale == 3 and 0 in values and -shift in values


@pytest.mark.parametrize("fault, message", [
    (lambda runs: runs + ((0, 0, -1, 0, 1),),  # the weight 0 x
     r"zero weight in flag step \(\d+,\) -> "),
    (lambda runs: runs[1:],
     r"flag step .* has multiplicity -?\d+, expected -?\d+"),
])
def test_transfer_table_checks_every_flag_step(monkeypatch, fault, message):
    """A step with a (0, 0) run over k = 0, or with a run missing, is caught
    when the row-transfer graph is built."""
    original = characters.step_intervals
    localization._transfer_table.cache_clear()
    monkeypatch.setattr(characters, "step_intervals", lambda *rows: fault(original(*rows)))
    try:
        with pytest.raises(InternalInconsistency, match=message):
            chern_series_coefficients(3, 2, _point((7, 2, -9), Fraction(3, 2)))
    finally:
        monkeypatch.undo()
        localization._transfer_table.cache_clear()


def test_row_transfer_fetches_no_step_table_once_the_graph_is_built(monkeypatch):
    """The graph holds the step runs it checked: a further Chern or volume
    pass over it asks characters.step_intervals and expand_runs for nothing."""
    n, max_degree, pt = 3, 4, _point((7, 2, -9), Fraction(3, 2))
    expected = chern_series_coefficients(n, max_degree, pt), volume_coefficients(n, max_degree, pt)
    calls = []

    def counted(original):
        def call(*rows):
            calls.append(rows)
            return original(*rows)
        return call

    for name in ("step_intervals", "expand_runs"):
        monkeypatch.setattr(characters, name, counted(getattr(characters, name)))
    again = chern_series_coefficients(n, max_degree, pt), volume_coefficients(n, max_degree, pt)
    assert calls == [] and again == expected


def test_row_transfer_evaluates_no_weight_per_key(monkeypatch):
    """A cold graph build and a Chern and volume pass at a generic point
    make no per-key count map and call no per-key evaluator."""
    n, max_degree = 3, 6
    pt = _point((Fraction(7, 3), Fraction(2, 5), Fraction(-41, 15)), Fraction(3, 2))
    expected = chern_series_coefficients(n, max_degree, pt), volume_coefficients(n, max_degree, pt)
    localization._transfer_table.cache_clear()

    def forbidden(*args):
        raise AssertionError("per-key path called")

    monkeypatch.setattr(localization, "_products", forbidden)
    monkeypatch.setattr(characters, "expand_runs", forbidden)
    try:
        again = chern_series_coefficients(n, max_degree, pt), volume_coefficients(n, max_degree, pt)
    finally:
        monkeypatch.undo()
        localization._transfer_table.cache_clear()
    assert again == expected
