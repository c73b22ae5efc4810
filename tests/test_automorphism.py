"""The diagram automorphism as an oracle that checks each side against itself.

The automorphism -w0 of the A_{n-1} root system reverses the simple roots, so
it sends the degree vector gamma = (d_1, ..., d_{n-1}) to its reverse and the
point a = (a_1, ..., a_n) to (-a_n, ..., -a_1), with x and m kept.  Every
series compared by the package is invariant under it, coefficient by
coefficient and exactly: on the fixed-point side by passing to the dual
flag, on the analytic side because -w0 preserves the form and the positive
roots.  The row-transfer graph reads the tableau rows top-down, so gamma and
its reverse take different paths through it, and the identity tests the pass
against itself.
"""

from fractions import Fraction

import pytest

from quasiflags import localization
from quasiflags.eigenfunctions import (check_nonresonant, cs_product_coefficients,
                                       toda_tail_coefficients)
from quasiflags.localization import (ParameterPoint, chern_series_coefficients,
                                     volume_coefficients)
from quasiflags.series import degree_vectors


def _zero_sum(*head):
    """The point (head, -sum(head))."""
    head = tuple(map(Fraction, head))
    return head + (-sum(head),)


# generic base points a, one per rank
POINTS = {
    3: _zero_sum(Fraction(7, 3), Fraction(1, 5)),
    4: _zero_sum(Fraction(11, 4), Fraction(-2, 7), Fraction(5, 3)),
    5: _zero_sum(Fraction(9, 5), Fraction(-4, 3), Fraction(2, 7), Fraction(13, 6)),
    6: _zero_sum(Fraction(5, 2), Fraction(-7, 3), Fraction(3, 11), Fraction(-6, 5),
                 Fraction(8, 7)),
}
X, M = Fraction(3, 2), Fraction(3, 2)


def dual(a):
    return tuple(-c for c in reversed(a))


def by_reversed_degree(n, max_degree, values):
    """The list of values in degree_vectors order, keyed by the reverse of each gamma."""
    return {tuple(reversed(g)): v
            for g, v in zip(degree_vectors(n - 1, max_degree), values)}


def by_degree(n, max_degree, values):
    return dict(zip(degree_vectors(n - 1, max_degree), values))


@pytest.mark.parametrize("n, max_degree", [(3, 8), (4, 6), (5, 4), (3, 12), (6, 3)])
@pytest.mark.parametrize("side", [chern_series_coefficients, volume_coefficients])
def test_fixed_point_side_is_invariant(side, n, max_degree):
    pt = ParameterPoint(POINTS[n], X, M)
    mirror = ParameterPoint(dual(pt.a), X, M)
    assert (by_degree(n, max_degree, side(n, max_degree, pt))
            == by_reversed_degree(n, max_degree, side(n, max_degree, mirror)))


@pytest.mark.parametrize("n, max_degree", [(3, 8), (4, 6), (5, 4)])
def test_analytic_side_is_invariant(n, max_degree):
    a_over_x = tuple(c / X for c in POINTS[n])
    checked = check_nonresonant(n, a_over_x, max_degree)
    mirrored = check_nonresonant(n, dual(a_over_x), max_degree)
    for series in (lambda c: cs_product_coefficients(c, M),
                   lambda c: toda_tail_coefficients(c, X)):
        assert (by_degree(n, max_degree, series(checked))
                == by_reversed_degree(n, max_degree, series(mirrored)))


def test_invariance_holds_where_the_row_transfer_falls_back(monkeypatch):
    """At this integer point a local pole of a step factor poisons one degree
    of the point and twenty of its dual, each of which the per-point kernel
    then computes alone; the coefficients still agree under the automorphism."""
    n, max_degree = 4, 4
    pt = ParameterPoint((-3, 1, 4, -2), 1, 3)
    mirror = ParameterPoint(dual(pt.a), 1, 3)
    kernel = localization.chern_series_coefficient
    fallbacks = []
    monkeypatch.setattr(localization, "chern_series_coefficient",
                        lambda *args: fallbacks.append(args[1]) or kernel(*args))
    values = chern_series_coefficients(n, max_degree, pt)
    assert len(fallbacks) == 1
    mirrored = chern_series_coefficients(n, max_degree, mirror)
    assert len(fallbacks) == 21
    assert by_degree(n, max_degree, values) == by_reversed_degree(n, max_degree, mirrored)


@pytest.mark.parametrize("n, max_degree", [(3, 8), (4, 6), (5, 4)])
def test_negating_a_without_reversing_gamma_breaks_invariance(n, max_degree):
    """Control: a -> -a with gamma kept is not a symmetry, on either side."""
    pt = ParameterPoint(POINTS[n], X, M)
    negated = ParameterPoint(tuple(-c for c in pt.a), X, M)
    assert (chern_series_coefficients(n, max_degree, pt)
            != chern_series_coefficients(n, max_degree, negated))
    a_over_x = pt.a_over_x()
    checked = check_nonresonant(n, a_over_x, max_degree)
    flipped = check_nonresonant(n, tuple(-c for c in a_over_x), max_degree)
    assert cs_product_coefficients(checked, M) != cs_product_coefficients(flipped, M)
