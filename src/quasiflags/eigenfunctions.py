"""Eigenfunction series of the trigonometric many-body hamiltonians.

The highest-weight eigenfunction of the Calogero-Sutherland operator with
coupling m and highest term e^{lam0} has coefficients determined degree by
degree by

    c_lam ((lam, lam) - s) = 2 m (m+1) sum_{alpha > 0} sum_{j >= 1} j c_{lam + j alpha}

with c_{lam0} = 1 and s = (lam0, lam0); the degenerate (Toda) operator keeps
only first neighbours along simple roots with the coupling replaced by 2/x^2.
Coefficients are stored on degree vectors: the highest-term exponential is
factored out by reindexing lam = lam0 + gamma, never carried symbolically.

All walks run on the cached series.root_lattice of (n, D).  Each gap
(lam, lam) - s is an integer over the lcm of the denominators of lam0, so
resonance is decided before the recursion starts.  The CS recursion and the
operator check share one walk of per-root prefix chain sums (_chain_sums).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ResonantParameter
from .roots import WeightVec, check_zero_sum, inner
from .series import (RootLattice, Series, check_degree_vector, root_lattice,
                     total_degree, weyl_fold)


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


def _chain_sums(lattice: RootLattice, c: list):
    """Yield, for i = 1, 2, ..., the sum over positive roots alpha and j >= 1
    of j c[gamma - j alpha], gamma the i-th degree vector, from two prefix
    arrays per root: S[i] = c[p] + S[p] and T[i] = S[i] + T[p], p = prev[i].
    c is read lazily, so the consumer may set c[i] before the next sum."""
    size = len(lattice.vectors)
    roots = [(prev, [0] * size, [0] * size) for prev in lattice.prev]
    for i in range(1, size):
        acc = 0
        for prev, s, t in roots:
            p = prev[i]
            if p < 0:
                continue
            if prev[p] < 0:  # the chain has one term
                s[i] = t[i] = c[p]
            else:
                s[i] = c[p] + s[p]
                t[i] = s[i] + t[p]
            acc += t[i]
        yield acc


def _integer_gaps(lattice: RootLattice, lam0) -> tuple[int, list[int]]:
    """L, the lcm of the denominators of lam0, and for each degree vector
    gamma the integer G = sum_k (2 U_k + L e_k) e_k, where U = L lam0 and e
    embeds gamma, so that (lam0 + e, lam0 + e) - s = G / L."""
    scale = lcm(*(l.denominator for l in lam0))
    u2 = [2 * l.numerator * (scale // l.denominator) for l in lam0]
    return scale, [sum((w + scale * e) * e for w, e in zip(u2, emb))
                   for emb in lattice.embeddings]


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


def _eigen_recursion(n, a_over_x, degree, coupling, walk) -> tuple[WeightVec, RootLattice, list]:
    """Shared driver: decide resonance (check_nonresonant), then fill the
    coefficient list in (total, lex) order by c = coupling L walk / G, where
    walk(lattice, c) yields, for i = 1, 2, ..., the right side of the
    recursion at the i-th degree vector from the lower-degree coefficients
    already in c."""
    lam0, lattice, scale, gaps = check_nonresonant(n, a_over_x, degree)
    factor = coupling * scale
    c = [Fraction(1)] + [Fraction(0)] * (len(gaps) - 1)
    for i, total in enumerate(walk(lattice, c), 1):
        c[i] = factor * total / gaps[i]
    return lam0, lattice, c


def _eigen_series(n, lam0, lattice, c) -> EigenSeries:
    tail = Series(n - 1, lattice.degree, dict(zip(lattice.vectors, c)))
    return EigenSeries(lam0, tail, inner(lam0, lam0))


def cs_coefficients(n: int, a_over_x, m, degree: int) -> EigenSeries:
    """Calogero-Sutherland eigenfunction tail with coupling m, through total
    degree `degree`.  Raises ResonantParameter on a non-generic base point."""
    m = Fraction(m)
    return _eigen_series(n, *_eigen_recursion(n, a_over_x, degree, 2 * m * (m + 1), _chain_sums))


def toda_coefficients(n: int, a_over_x, degree: int, x=Fraction(1)) -> EigenSeries:
    """Toda eigenfunction tail: only simple roots contribute, with coupling
    2/x^2 (2 in the default gauge x = 1)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")

    def first_neighbours(lattice, c):  # the n - 1 simple roots come first
        return (sum(c[prev[i]] for prev in lattice.prev[:n - 1] if prev[i] >= 0)
                for i in range(1, len(c)))

    return _eigen_series(n, *_eigen_recursion(n, a_over_x, degree, 2 / (x * x),
                                              first_neighbours))


def cs_product_series(n: int, a_over_x, m, degree: int) -> Series:
    """The eigenfunction side of the Chern-series identity: the CS tail times
    the (m+1)-st inverse power of the Weyl-denominator product over positive
    roots, folded into the tail in place (series.weyl_fold)."""
    m = Fraction(m)
    _, lattice, c = _eigen_recursion(n, a_over_x, degree, 2 * m * (m + 1), _chain_sums)
    weyl_fold(lattice, c, m)
    return Series(n - 1, degree, dict(zip(lattice.vectors, c)))


def apply_cs_operator(series: EigenSeries, m, degree: int) -> Series:
    """Termwise image of the CS operator on a (not necessarily eigen) series.

    The Laplacian scales the gamma term by (lam0 + gamma, lam0 + gamma); the
    potential, expanded as sum_{j>=1} j e^{-j alpha} per positive root, pulls
    coefficients down from lower total degree, so the image is exact through
    `degree`.
    """
    m = Fraction(m)
    coupling = 2 * m * (m + 1)
    lattice = root_lattice(len(series.base), min(degree, series.tail.truncation))
    scale, gaps = _integer_gaps(lattice, series.base)
    s = inner(series.base, series.base)
    c = [series.tail.coeffs.get(g, Fraction(0)) for g in lattice.vectors]
    sums = [0, *_chain_sums(lattice, c)]
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
