"""Eigenfunction series of the trigonometric many-body hamiltonians.

The highest-weight eigenfunction of the Calogero-Sutherland operator with
coupling m and highest term e^{lam0} has coefficients determined degree by
degree by

    c_lam ((lam, lam) - s) = 2 m (m+1) sum_{alpha > 0} sum_{j >= 1} j c_{lam + j alpha}

with c_{lam0} = 1 and s = (lam0, lam0); the degenerate (Toda) operator keeps
only first neighbours along simple roots with the coupling replaced by 2/x^2.
Coefficients are stored on degree vectors: the highest-term exponential is
factored out by reindexing lam = lam0 + gamma, never carried symbolically.

The product b = c prod_{alpha > 0} (1 - e^{-alpha})^{-k}, k = m + 1, which is
the analytic side of the Chern-series identity, has a recursion of its own:
conjugating the CS operator by its ground state delta^k (delta the Weyl
denominator) gives the Heckman-Opdam hypergeometric operator (Heckman and
Opdam, Root systems and hypergeometric functions I, Compositio Math. 64,
1987), and expanding its coth(alpha/2) gives

    b_lam ((lam, lam) - s) = -2k sum_{alpha > 0} sum_{j >= 1} ((alpha, lam + j alpha) - k ht alpha) b_{lam + j alpha}

with b_{lam0} = 1.  The CS recursion times series.weyl_fold is its oracle.

All walks run on the cached series.root_lattice of (n, D).  Each gap
(lam, lam) - s is an integer over the lcm of the denominators of lam0, so
resonance is decided once, before the recursion starts.  The recursions keep
int numerator and denominator lists, with one Fraction per coefficient, and
walk the lattice's in-cone root steps; the CS recursion and the operator
check share one walk of per-step prefix chain sums (_chain_sums).
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import ResonantParameter
from .roots import WeightVec, check_zero_sum, inner
from .series import (RootLattice, Series, check_degree_vector, root_lattice,
                     total_degree)


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


def _chain_sums(lattice: RootLattice, cn: list, cd: list):
    """Yield, for i = 1, 2, ..., the sum over positive roots alpha and j >= 1
    of j c[gamma - j alpha], c = cn / cd and gamma the i-th degree vector, as
    an unreduced int pair, from two prefix sums per in-cone step, each a
    reduced int pair: S[s] = c[p] + S[q] and T[s] = S[s] + T[q], p the step's
    source and q the step below it.  c is read lazily, so the consumer may
    set c[i] before the next sum."""
    start, source, below = lattice.steps[:3]
    sn, sd, tn, td = ([0] * start[-1] for _ in range(4))
    for i in range(1, len(lattice.vectors)):
        num, den = 0, 1
        for s in range(start[i], start[i + 1]):
            p, q = source[s], below[s]
            if q < 0:  # the chain has one term
                a, b = c, d = cn[p], cd[p]
            else:
                a, b = cn[p] * sd[q] + sn[q] * cd[p], cd[p] * sd[q]
                g = gcd(a, b)
                a, b = a // g, b // g
                c, d = a * td[q] + tn[q] * b, b * td[q]
                g = gcd(c, d)
                c, d = c // g, d // g
            sn[s], sd[s], tn[s], td[s] = a, b, c, d
            num, den = num * d + c * den, den * d
        yield num, den


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


def _eigen_recursion(checked, coupling, walk) -> tuple[list[int], list[int]]:
    """Shared driver on a check_nonresonant result: fill the coefficient list
    in (total, lex) order by c = coupling L walk / G on int pairs, each
    reduced by one gcd, where walk(lattice, cn, cd) yields, for i = 1, 2, ...,
    the right side at the i-th degree vector as an int pair from the
    lower-degree cn / cd.  Returns the int lists (cn, cd); a denominator may
    be negative, and the Fractions each caller builds normalise it."""
    _, lattice, scale, gaps = checked
    top, bottom = coupling.numerator * scale, coupling.denominator
    cn, cd = [1] + [0] * (len(gaps) - 1), [1] * len(gaps)
    for i, (num, den) in enumerate(walk(lattice, cn, cd), 1):
        num, den = top * num, bottom * den * gaps[i]
        g = gcd(num, den)
        cn[i], cd[i] = num // g, den // g
    return cn, cd


def _first_neighbours(lattice: RootLattice, cn: list, cd: list):
    """The Toda walk: c summed over first neighbours along simple roots."""
    simple = lattice.prev[:len(lattice.vectors[0])]  # simple roots come first
    for i in range(1, len(cn)):
        num, den = 0, 1
        for prev in simple:
            if (p := prev[i]) >= 0:
                num, den = num * cd[p] + cn[p] * den, den * cd[p]
        yield num, den


def _eigen_series(checked, c) -> EigenSeries:
    lam0, lattice = checked[:2]
    tail = Series(len(lam0) - 1, lattice.degree, dict(zip(lattice.vectors, c)))
    return EigenSeries(lam0, tail, inner(lam0, lam0))


def cs_coefficients(n: int, a_over_x, m, degree: int) -> EigenSeries:
    """Calogero-Sutherland eigenfunction tail with coupling m, through total
    degree `degree`.  Raises ResonantParameter on a non-generic base point."""
    m = Fraction(m)
    checked = check_nonresonant(n, a_over_x, degree)
    c = _eigen_recursion(checked, 2 * m * (m + 1), _chain_sums)
    return _eigen_series(checked, map(Fraction, *c))


def toda_tail_coefficients(checked, x=Fraction(1)) -> list[Fraction]:
    """Toda eigenfunction tail on a check_nonresonant result, in
    degree_vectors order: only simple roots contribute, with coupling 2/x^2
    (2 in the default gauge x = 1)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    return list(map(Fraction, *_eigen_recursion(checked, 2 / (x * x), _first_neighbours)))


def toda_coefficients(n: int, a_over_x, degree: int, x=Fraction(1)) -> EigenSeries:
    """toda_tail_coefficients as an EigenSeries; x = 0 is rejected first."""
    if Fraction(x) == 0:
        raise ValueError("x must be nonzero")
    checked = check_nonresonant(n, a_over_x, degree)
    return _eigen_series(checked, toda_tail_coefficients(checked, x))


def cs_product_coefficients(checked, m) -> list[Fraction]:
    """The eigenfunction side of the Chern-series identity on a
    check_nonresonant result, in degree_vectors order: the CS tail times
    prod_{alpha > 0} (1 - e^{-alpha})^{-k}, k = m + 1 = top / bottom, from the
    conjugated recursion on int pairs.  The step from lam to lam + alpha
    weighs w / (L bottom) = (alpha, lam) - k ht alpha and keeps the prefix
    P[s] = w b[source] + P[below] of its root's chain, reduced by one gcd
    where there is a step below."""
    lam0, lattice, scale, gaps = checked
    start, source, below, root, pairing = lattice.steps
    k = Fraction(m) + 1
    n, top, bottom = len(lam0), k.numerator, k.denominator
    u = [l.numerator * (scale // l.denominator) for l in lam0]
    base = [bottom * (u[a] - u[a + h]) - scale * top * h for h in range(1, n) for a in range(n - h)]
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
        g = gcd(num, den)
        bn[i], bd[i] = num // g, den // g
    return list(map(Fraction, bn, bd))


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
    `degree`.
    """
    m = Fraction(m)
    coupling = 2 * m * (m + 1)
    lattice = root_lattice(len(series.base), min(degree, series.tail.truncation))
    scale, gaps = _integer_gaps(lattice, series.base)
    s = inner(series.base, series.base)
    c = [series.tail.coeffs.get(g, Fraction(0)) for g in lattice.vectors]
    walk = _chain_sums(lattice, [x.numerator for x in c], [x.denominator for x in c])
    sums = [0, *(Fraction(num, den) for num, den in walk)]
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
