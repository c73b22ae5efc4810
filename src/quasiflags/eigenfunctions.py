"""Eigenfunction series of the trigonometric many-body hamiltonians.

The highest-weight eigenfunction of the Calogero-Sutherland operator with
coupling m and highest term e^{lam0} has coefficients determined degree by
degree by

    c_lam ((lam, lam) - s) = 2 m (m+1) sum_{alpha > 0} sum_{j >= 1} j c_{lam + j alpha}

with c_{lam0} = 1 and s = (lam0, lam0); the degenerate (Toda) operator keeps
only first neighbours along simple roots with the coupling replaced by 2/x^2.
Coefficients are stored on degree vectors: the highest-term exponential is
factored out by reindexing lam = lam0 + gamma, never carried symbolically.

The CS tail is computed through the product b = c prod_{alpha > 0}
(1 - e^{-alpha})^{-k}, k = m + 1, the analytic side of the Chern-series
identity.  Conjugating the CS operator by its ground state delta^k (delta the
Weyl denominator) gives the Heckman-Opdam hypergeometric operator (Heckman and
Opdam, Root systems and hypergeometric functions I, Compositio Math. 64,
1987), and expanding its coth(alpha/2) gives

    b_lam ((lam, lam) - s) = -2k sum_{alpha > 0} sum_{j >= 1} ((alpha, lam + j alpha) - k ht alpha) b_{lam + j alpha}

with b_{lam0} = 1; series.weyl_fold folds b back to c.  apply_cs_operator
applies the CS operator itself, on its own walk, so its image of c against
s c checks the recursion and the fold together.  It shares the root lattice
and the integer gaps (_integer_gaps) with the recursion, which receives the
same gaps from check_nonresonant, so the gaps have their own oracle:
test_integer_gaps_match_the_embedding_formula and its row in tests/mutants.py.

All walks run on the cached series.root_lattice of (n, D).  Each gap
(lam, lam) - s is an integer over the lcm of the denominators of lam0, so
resonance is decided once, before any recursion starts.  The recursions keep
int numerator and denominator lists, each pair reduced with a positive
denominator (cs_product_pairs, toda_tail_pairs), which the verify runs compare
as they are; the *_coefficients lists make one Fraction per coefficient.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import ResonantParameter
from .roots import WeightVec, check_zero_sum, inner
from .series import (RootLattice, Series, check_degree_vector, root_lattice,
                     total_degree, weyl_fold)


class EigenSeries(NamedTuple):
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


def _integer_gaps(lattice: RootLattice, lam0) -> tuple[int, list[int]]:
    """L, the lcm of the denominators of lam0, and for each degree vector
    gamma the integer G = 2 (U, e) + L (e, e), where U = L lam0 and e embeds
    gamma, so that (lam0 + e, lam0 + e) - s = G / L.  Each G is filled from
    its vector's first in-cone step s, from source[s] along e_a - e_b:
    G = G[source[s]] + 2 L (1 - pairing[s]) - 2 (U_a - U_b)."""
    scale = lcm(*(l.denominator for l in lam0))
    u = [l.numerator * (scale // l.denominator) for l in lam0]
    start, source, _, root, pairing = lattice.steps
    rise = [2 * (scale - u[a] + u[b]) for a, b in lattice.roots]
    gaps = [0] * len(lattice.vectors)
    for i in range(1, len(gaps)):
        s = start[i]
        gaps[i] = gaps[source[s]] + rise[root[s]] - 2 * scale * pairing[s]
    return scale, gaps


def check_nonresonant(n, a_over_x, degree) -> tuple[WeightVec, RootLattice, int, list[int]]:
    """Validate the base point lam0 = a/x and decide resonance through total
    degree `degree` from the integer gaps, before any recursion runs.
    Returns (lam0, lattice, L, gaps) (see _integer_gaps); raises
    ResonantParameter when a gap above degree zero vanishes."""
    lam0 = check_zero_sum(a_over_x)
    if len(lam0) != n:
        raise ValueError(f"expected {n} coordinates, got {len(lam0)}")
    lattice = root_lattice(n, degree)
    scale, gaps = _integer_gaps(lattice, lam0)
    if 0 in gaps[1:]:
        raise ResonantParameter(f"(lam, lam) = s at gamma={lattice.vectors[gaps.index(0, 1)]}; "
                                "highest weight is not generic")
    return lam0, lattice, scale, gaps


def _eigen_series(checked, c) -> EigenSeries:
    lam0, lattice = checked[:2]
    tail = Series(len(lam0) - 1, lattice.degree, dict(zip(lattice.vectors, c)))
    return EigenSeries(lam0, tail, inner(lam0, lam0))


def cs_coefficients(n: int, a_over_x, m, degree: int) -> EigenSeries:
    """Calogero-Sutherland eigenfunction tail with coupling m, through total
    degree `degree`: the product of the conjugated recursion times
    prod_{alpha > 0} (1 - e^{-alpha})^{m+1}, which is series.weyl_fold at
    -m - 2.  Raises ResonantParameter on a non-generic base point."""
    m = Fraction(m)
    checked = check_nonresonant(n, a_over_x, degree)
    return _eigen_series(checked, weyl_fold(checked[1], *cs_product_pairs(checked, m), -m - 2))


def toda_tail_pairs(checked, x=Fraction(1)) -> tuple[list[int], list[int]]:
    """Toda eigenfunction tail on a check_nonresonant result, in
    degree_vectors order, as reduced int lists (cn, cd) with cd > 0:
    c = coupling sum_i c_{lam + alpha_i} / ((lam, lam) - s) over the simple
    roots, with coupling 2/x^2 (2 in the default gauge x = 1), each pair
    reduced by one gcd, negated where the gap's sign would leave cd < 0."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    _, lattice, scale, gaps = checked
    coupling = 2 / (x * x)
    top, bottom = coupling.numerator * scale, coupling.denominator
    simple = lattice.prev[:len(lattice.vectors[0])]  # lattice.roots lists them first
    cn, cd = [1] * len(gaps), [1] * len(gaps)
    for i in range(1, len(gaps)):
        num, den = 0, 1
        for prev in simple:
            if (p := prev[i]) >= 0:
                num, den = num * cd[p] + cn[p] * den, den * cd[p]
        num, den = top * num, bottom * den * gaps[i]
        g = -gcd(num, den) if den < 0 else gcd(num, den)
        cn[i], cd[i] = num // g, den // g
    return cn, cd


def toda_tail_coefficients(checked, x=Fraction(1)) -> list[Fraction]:
    """toda_tail_pairs as Fractions."""
    return list(map(Fraction, *toda_tail_pairs(checked, x)))


def toda_coefficients(n: int, a_over_x, degree: int, x=Fraction(1)) -> EigenSeries:
    """toda_tail_coefficients as an EigenSeries; x = 0 is rejected first."""
    if Fraction(x) == 0:
        raise ValueError("x must be nonzero")
    checked = check_nonresonant(n, a_over_x, degree)
    return _eigen_series(checked, toda_tail_coefficients(checked, x))


def cs_product_pairs(checked, m) -> tuple[list[int], list[int]]:
    """The conjugated recursion on a check_nonresonant result, as the
    reduced int lists (bn, bd), bd > 0, of cs_product_coefficients.  With
    k = m + 1 = top / bottom, the step from lam to lam + alpha weighs
    w / (L bottom) = (alpha, lam) - k ht alpha and keeps the prefix
    P[s] = w b[source] + P[below] of its root's chain, reduced by one gcd
    where there is a step below; each coefficient is reduced by one gcd,
    negated where the gap's sign would leave bd < 0."""
    lam0, lattice, scale, gaps = checked
    start, source, below, root, pairing = lattice.steps
    k = Fraction(m) + 1
    top, bottom = k.numerator, k.denominator
    u = [l.numerator * (scale // l.denominator) for l in lam0]
    base = [bottom * (u[a] - u[b]) - scale * top * (b - a) for a, b in lattice.roots]
    shift, bn, bd = scale * bottom, [1] * len(gaps), [1] * len(gaps)
    pn, pd = [0] * start[-1], [0] * start[-1]
    for i in range(1, len(gaps)):
        num, den = 0, 1
        for s in range(start[i], start[i + 1]):
            p, q = source[s], below[s]
            x, y = (base[root[s]] + shift * pairing[s]) * bn[p], bd[p]
            if q >= 0:
                x, y = x * pd[q] + pn[q] * y, y * pd[q]
                g = gcd(x, y)
                x, y = x // g, y // g
            pn[s], pd[s] = x, y
            num, den = num * y + x * den, den * y
        num, den = -2 * top * num, bottom * bottom * gaps[i] * den
        g = -gcd(num, den) if den < 0 else gcd(num, den)
        bn[i], bd[i] = num // g, den // g
    return bn, bd


def cs_product_coefficients(checked, m) -> list[Fraction]:
    """The eigenfunction side of the Chern-series identity on a
    check_nonresonant result, in degree_vectors order: the CS tail times
    prod_{alpha > 0} (1 - e^{-alpha})^{-m-1}: cs_product_pairs as Fractions."""
    return list(map(Fraction, *cs_product_pairs(checked, m)))


def cs_product_series(n: int, a_over_x, m, degree: int) -> Series:
    """cs_product_coefficients as a Series."""
    m = Fraction(m)
    checked = check_nonresonant(n, a_over_x, degree)
    c = cs_product_coefficients(checked, m)
    return Series(n - 1, degree, dict(zip(checked[1].vectors, c)))


def apply_cs_operator(series: EigenSeries, m, degree: int) -> Series:
    """Termwise image of the CS operator on a (not necessarily eigen) series.

    The Laplacian scales the gamma term by (lam0 + gamma, lam0 + gamma); the
    potential, expanded as sum_{j>=1} j e^{-j alpha} per positive root, pulls
    coefficients down from lower total degree, so the image is exact through
    `degree`.  The sum T = sum_j j c_{gamma - j alpha} is run on Fractions down
    each root's predecessor array, with S = sum_j c_{gamma - j alpha}:
    S[i] = c[p] + S[p] and T[i] = S[i] + T[p], p = prev[i].
    """
    m = Fraction(m)
    coupling = 2 * m * (m + 1)
    lattice = root_lattice(len(series.base), min(degree, series.tail.truncation))
    scale, gaps = _integer_gaps(lattice, series.base)
    s = inner(series.base, series.base)
    c = [series.tail.coeffs.get(g, Fraction(0)) for g in lattice.vectors]
    sums = [0] * len(c)
    for prev in lattice.prev:
        S, T = [0] * len(c), [0] * len(c)
        for i, p in enumerate(prev):
            if p >= 0:
                S[i] = c[p] + S[p]
                T[i] = S[i] + T[p]
                sums[i] += T[i]
    out = {g: (s + Fraction(gap, scale)) * c[i] - coupling * sums[i]
           for i, (g, gap) in enumerate(zip(lattice.vectors, gaps))}
    return Series(series.rank, lattice.degree, out)


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
