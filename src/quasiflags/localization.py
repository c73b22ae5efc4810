"""Equivariant integrals as exact sums over fixed points.

Every integral in the package reduces, by the fixed-point formula, to a sum
over tableaux of products of linear forms in (a_1, ..., a_n, x) evaluated at
an exact rational parameter point, all through one kernel, weight_ratio.
Scaled by the lcm L of the denominators of a/x and m, each weight becomes an
integer, so a fixed point's product of weights costs one Fraction; nothing is
expanded into polynomials.  A vanishing denominator weight is reported as
NonGenericParameter so the caller can resample the point.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .characters import (TorusWeight, pair_counts, table_weights,
                         tangent_table, weight_table)
from .errors import NonGenericParameter
from .roots import check_zero_sum
from .tableaux import Tableau, enumerate_fixed_points


@dataclass(frozen=True)
class ParameterPoint:
    """Exact evaluation point: zero-sum torus parameters a, loop weight x != 0,
    Chern parameter m.  In the default gauge x = 1 the a_i play a_i/x."""

    a: tuple[Fraction, ...]
    x: Fraction = field(default=Fraction(1))
    m: Fraction = field(default=Fraction(0))

    def __post_init__(self):
        object.__setattr__(self, "a", check_zero_sum(self.a))
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "m", Fraction(self.m))
        if self.x == 0:
            raise ValueError("x must be nonzero")

    @property
    def n(self) -> int:
        return len(self.a)

    def a_over_x(self) -> tuple[Fraction, ...]:
        return tuple(ai / self.x for ai in self.a)

    def scaled(self, t) -> "ParameterPoint":
        """Scale (a, x) -> (t a, t x), keeping m; localization values of total
        homogeneity degree 0 are invariant under this."""
        t = Fraction(t)
        if t == 0:
            raise ValueError("scale factor must be nonzero")
        return ParameterPoint(tuple(t * ai for ai in self.a), t * self.x, self.m)

    def with_m(self, m) -> "ParameterPoint":
        return ParameterPoint(self.a, self.x, Fraction(m))

    @cached_property
    def integer_scaling(self) -> tuple[tuple[int, ...], int, int]:
        """(U, L, M) with L the lcm of the denominators of a/x and m, U = L a/x
        and M = L m: a_j - a_{j'} + k x + m x is (x/L) (U_j - U_{j'} + k L + M)."""
        u = self.a_over_x()
        scale = math.lcm(self.m.denominator, *(c.denominator for c in u))
        return tuple(int(c * scale) for c in u), scale, int(self.m * scale)


def evaluate_weight(w: TorusWeight, pt: ParameterPoint) -> Fraction:
    """Value sum c_i a_i + c_x x of a torus weight at the point."""
    total = Fraction(w.x_coeff) * pt.x
    for c, a in zip(w.a_coeffs, pt.a):
        if c:
            total += c * a
    return total


def _products(table: tuple[int, ...], pt: ParameterPoint) -> tuple[int, int, int]:
    """(prod (V + M)^mult, prod V^mult, sum mult) over a flat weight table,
    where V = U_j - U_{j'} + k L is L/x times the weight value."""
    u, scale, shift = pt.integer_scaling
    shifted = plain = 1
    dim = 0
    it = iter(table)
    for j, j_prime, k, mult in zip(it, it, it, it):
        value = u[j] - u[j_prime] + k * scale
        shifted *= (value + shift) ** mult
        plain *= value ** mult
        dim += mult
    return shifted, plain, dim


def weight_ratio(numerator: tuple[int, ...], denominator: tuple[int, ...],
                 pt: ParameterPoint) -> Fraction:
    """prod over the numerator table of (w + m x)^mult divided by the product
    over the denominator table of w^mult (flat integer tables built by
    characters.weight_table from pair_counts maps).  Raises
    NonGenericParameter, naming the first vanishing denominator weight in
    TorusWeight order, when one vanishes."""
    shifted, plain, dim = _products(denominator, pt)
    if plain == 0:
        w = next(w for w in table_weights(denominator, pt.n) if evaluate_weight(w, pt) == 0)
        raise NonGenericParameter(f"weight {w} vanishes at {pt}")
    if numerator is denominator:
        return Fraction(shifted, plain)
    shifted, _, top_dim = _products(numerator, pt)
    # each weight is (x/L) V, which leaves (x/L)^(top_dim - dim) over
    return Fraction(shifted, plain) * (pt.x / pt.integer_scaling[1]) ** (top_dim - dim)


def chern_ratio(d: Tableau, pt: ParameterPoint) -> Fraction:
    """prod over tangent weights w at d of (w + m x) / w."""
    table = tangent_table(d, pt.n)
    return weight_ratio(table, table, pt)


def chern_series_coefficient(n: int, gamma, pt: ParameterPoint) -> Fraction:
    """Coefficient at gamma of the generating series of Chern-polynomial
    integrals: sum over fixed points of degree gamma of chern_ratio."""
    return sum((chern_ratio(d, pt) for d in enumerate_fixed_points(n, gamma)),
               Fraction(0))


def volume_coefficient(n: int, gamma, pt: ParameterPoint) -> Fraction:
    """Coefficient at gamma of the equivariant-volume series: sum over fixed
    points of prod 1/w.  This is the termwise m -> infinity limit of the Chern
    series after dividing by m^(dim)."""
    return sum((weight_ratio((), tangent_table(d, n), pt)
                for d in enumerate_fixed_points(n, gamma)), Fraction(0))


def chern_matrix_element(d_prime: Tableau, d: Tableau, pt: ParameterPoint) -> Fraction:
    """Matrix element between fixed-point classes of the operator that caps
    with the Chern polynomial of the pair bundle:

        prod_{w in pair bundle over (d', d)} (w + m x) / prod_{w tangent at d'} w

    Multiplicity-k weights contribute k-fold.  On the diagonal this reduces to
    chern_ratio.
    """
    n = pt.n
    return weight_ratio(weight_table(pair_counts(d_prime, d, n)),
                        tangent_table(d_prime, n), pt)
