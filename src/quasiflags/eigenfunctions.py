"""Eigenfunction series of the trigonometric many-body hamiltonians.

The highest-weight eigenfunction of the Calogero-Sutherland operator with
coupling m and highest term e^{lam0} has coefficients determined degree by
degree by

    c_lam ((lam, lam) - s) = 2 m (m+1) sum_{alpha > 0} sum_{j >= 1} j c_{lam + j alpha}

with c_{lam0} = 1 and s = (lam0, lam0); the degenerate (Toda) operator keeps
only first neighbours along simple roots with the coupling replaced by 2/x^2.
Coefficients are stored on degree vectors: the highest-term exponential is
factored out by reindexing lam = lam0 + gamma, never carried symbolically.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResonantParameter
from .roots import (WeightVec, check_zero_sum, embed_degree, inner,
                    positive_root_supports, root_degree_support)
from .series import (Series, check_degree_vector, degree_vectors,
                     denominator_power_series, series_mul, total_degree)


@dataclass(frozen=True)
class EigenSeries:
    """A highest-weight eigenfunction: base point lam0, tail of coefficients
    on the negative root cone (unit at degree zero), and eigenvalue
    s = (lam0, lam0)."""

    base: WeightVec
    tail: Series
    eigenvalue: Fraction

    @property
    def rank(self) -> int:
        return self.tail.rank

    def coefficient(self, gamma) -> Fraction:
        return self.tail.coefficient(gamma)


def _root_walk(gamma, supports, coefficient) -> Fraction:
    """Sum of j * coefficient(gamma - j alpha) over positive roots alpha, j >= 1, in the cone."""
    acc = Fraction(0)
    for sup in supports:
        j = 1
        target = tuple(g - s for g, s in zip(gamma, sup))
        while all(t >= 0 for t in target):
            acc += j * coefficient(target)
            j += 1
            target = tuple(t - s for t, s in zip(target, sup))
    return acc


def _eigen_recursion(n, a_over_x, degree, source_terms):
    """Shared driver: fill coefficients in increasing total degree.

    source_terms(gamma, coeffs) must return the weighted sum of
    already-computed lower-degree coefficients appearing on the right side of
    the recursion for gamma.
    """
    lam0 = check_zero_sum(a_over_x)
    if len(lam0) != n:
        raise ValueError(f"expected {n} coordinates, got {len(lam0)}")
    s = inner(lam0, lam0)
    coeffs = {}
    for gamma in degree_vectors(n - 1, degree):
        if total_degree(gamma) == 0:
            coeffs[gamma] = Fraction(1)
            continue
        lam = tuple(l + g for l, g in zip(lam0, embed_degree(gamma, n)))
        gap = inner(lam, lam) - s
        if gap == 0:
            raise ResonantParameter(
                f"(lam, lam) = s at gamma={gamma}; highest weight is not generic")
        coeffs[gamma] = source_terms(gamma, coeffs) / gap
    return EigenSeries(lam0, Series(n - 1, degree, coeffs), s)


def cs_coefficients(n: int, a_over_x, m, degree: int) -> EigenSeries:
    """Calogero-Sutherland eigenfunction tail with coupling m, through total
    degree `degree`.  Raises ResonantParameter on a non-generic base point."""
    m = Fraction(m)
    coupling = 2 * m * (m + 1)
    supports = positive_root_supports(n)

    def source_terms(gamma, coeffs):
        if coupling == 0:
            return Fraction(0)
        return coupling * _root_walk(gamma, supports, coeffs.__getitem__)

    return _eigen_recursion(n, a_over_x, degree, source_terms)


def toda_coefficients(n: int, a_over_x, degree: int, x=Fraction(1)) -> EigenSeries:
    """Toda eigenfunction tail: only simple roots contribute, with coupling
    2/x^2 (2 in the default gauge x = 1)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    coupling = Fraction(2) / (x * x)
    simples = [root_degree_support(i, i + 1, n) for i in range(1, n)]

    def source_terms(gamma, coeffs):
        acc = Fraction(0)
        for sup in simples:
            target = tuple(g - s for g, s in zip(gamma, sup))
            if all(t >= 0 for t in target):
                acc += coeffs[target]
        return coupling * acc

    return _eigen_recursion(n, a_over_x, degree, source_terms)


def cs_product_series(n: int, a_over_x, m, degree: int) -> Series:
    """The eigenfunction side of the Chern-series identity: the CS tail
    (highest term already factored out) convolved with the (m+1)-st inverse
    power of the Weyl-denominator product over positive roots."""
    tail = cs_coefficients(n, a_over_x, m, degree).tail
    weyl = denominator_power_series(n, Fraction(m) + 1, degree)
    return series_mul(tail, weyl, degree)


def apply_cs_operator(series: EigenSeries, m, degree: int) -> Series:
    """Termwise image of the CS operator on a (not necessarily eigen) series.

    The Laplacian scales the gamma term by (lam0 + gamma, lam0 + gamma); the
    potential, expanded as sum_{j>=1} j e^{-j alpha} per positive root, pulls
    coefficients down from lower total degree, so the image is exact through
    `degree`.
    """
    m = Fraction(m)
    coupling = 2 * m * (m + 1)
    n = len(series.base)
    supports = positive_root_supports(n)
    out = {}
    for gamma in degree_vectors(series.rank, min(degree, series.tail.truncation)):
        lam = tuple(l + g for l, g in zip(series.base, embed_degree(gamma, n)))
        value = inner(lam, lam) * series.coefficient(gamma)
        if coupling != 0:
            value -= coupling * _root_walk(gamma, supports, series.coefficient)
        out[gamma] = value
    return Series(series.rank, min(degree, series.tail.truncation), out)


def toda_limit_ratios(n: int, gamma, a_over_x, m_values) -> list[Fraction]:
    """CS coefficient at gamma divided by m^(2 sum d_i), for each coupling m.

    As m grows these exact ratios approach the Toda coefficient at gamma; the
    scaling exponent is the dimension of the component of degree gamma.
    """
    gamma = check_degree_vector(gamma, n - 1)
    degree = total_degree(gamma)
    out = []
    for m in m_values:
        m = Fraction(m)
        if m == 0:
            raise ValueError("coupling values must be nonzero")
        coeff = cs_coefficients(n, a_over_x, m, degree).coefficient(gamma)
        out.append(coeff / m ** (2 * degree))
    return out
