"""Truncated formal series on the negative root cone.

A degree vector (d_1, ..., d_{n-1}) of nonnegative integers stands for the
lattice point gamma = -sum d_i alpha_i in the cone Q^- spanned by the negated
simple roots, so a series here is a finite sum  sum_gamma c_gamma e^gamma
truncated by total degree sum d_i <= D.  Coefficients are exact scalars and
the coefficient maps are sparse: an absent key means zero.

Truncation is by total degree throughout; that is the grading in which every
operation in the package is triangular.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Iterator, NamedTuple

DegreeVector = tuple[int, ...]


def total_degree(gamma: DegreeVector) -> int:
    return sum(gamma)


def check_degree_vector(gamma, rank: int) -> DegreeVector:
    gamma = tuple(int(d) for d in gamma)
    if len(gamma) != rank:
        raise ValueError(f"degree vector {gamma} does not have rank {rank}")
    if any(d < 0 for d in gamma):
        raise ValueError(f"degree vector entries must be nonnegative: {gamma}")
    return gamma


def degree_vectors(rank: int, max_total: int) -> Iterator[DegreeVector]:
    """All degree vectors with total degree <= max_total, ordered by (total,
    lex).  For each total, the rank - 1 bars among total + rank - 1 places
    come in lex order, and so do the gaps between them, which are the parts."""
    for total in range(max_total + 1):
        end = total + rank - 1
        for bars in combinations(range(end), rank - 1):
            yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))


class Series:
    """Sparse truncated series indexed by degree vectors.

    Immutable by convention: operations return new instances.  The zero-degree
    key is the coefficient of e^0 = 1.
    """

    __slots__ = ("rank", "truncation", "coeffs")

    def __init__(self, rank: int, truncation: int, coeffs=None):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if truncation < 0:
            raise ValueError(f"truncation must be nonnegative, got {truncation}")
        self.rank = rank
        self.truncation = truncation
        clean: dict[DegreeVector, Fraction] = {}
        for gamma, c in (coeffs or {}).items():
            gamma = check_degree_vector(gamma, rank)
            if total_degree(gamma) > truncation:
                raise ValueError(f"key {gamma} exceeds truncation degree {truncation}")
            c = Fraction(c)
            if c != 0:
                clean[gamma] = c
        self.coeffs = clean

    @classmethod
    def one(cls, rank: int, truncation: int) -> "Series":
        return cls(rank, truncation, {(0,) * rank: Fraction(1)})

    def coefficient(self, gamma) -> Fraction:
        gamma = check_degree_vector(gamma, self.rank)
        return self.coeffs.get(gamma, Fraction(0))

    def terms(self):
        """Sorted (degree vector, coefficient) pairs, ordered by (total, lex)."""
        return sorted(self.coeffs.items(), key=lambda kv: (total_degree(kv[0]), kv[0]))

    def scale(self, factor) -> "Series":
        factor = Fraction(factor)
        return Series(self.rank, self.truncation,
                      {g: factor * c for g, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.rank == other.rank and self.truncation == other.truncation
                and self.coeffs == other.coeffs)

    def __repr__(self):
        body = ", ".join(f"{g}: {c}" for g, c in self.terms())
        return f"Series(rank={self.rank}, D={self.truncation}, {{{body}}})"


def series_mul(a: Series, b: Series, degree: int) -> Series:
    """Cauchy product truncated at total degree `degree`."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch in series multiplication")
    if degree > min(a.truncation, b.truncation):
        raise ValueError("requested degree exceeds operand truncation")
    out: dict[DegreeVector, Fraction] = {}
    for ga, ca in a.coeffs.items():
        for gb, cb in b.coeffs.items():
            if total_degree(ga) + total_degree(gb) <= degree:
                key = tuple(x + y for x, y in zip(ga, gb))
                out[key] = out.get(key, 0) + ca * cb
    return Series(a.rank, degree, out)


class RootLattice(NamedTuple):
    """The degree vectors of sl_n through total degree `degree`, in (total,
    lex) order, with their integer weight coordinates, the positive roots
    (simple roots first) and, for each root alpha, the predecessor array
    prev[i]: the index of vectors[i] - alpha, or -1 outside the cone."""

    degree: int
    vectors: tuple[DegreeVector, ...]
    embeddings: tuple[tuple[int, ...], ...]
    supports: tuple[DegreeVector, ...]
    prev: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=32)  # one key per (n, D) in use; a run touches a handful
def root_lattice(n: int, degree: int) -> RootLattice:
    """The RootLattice of sl_n through total degree `degree`.  Only the simple
    roots' predecessors are looked up by vector: the root of height h at i
    is the one of height h - 1 at i plus alpha_{i+h-1}, and since the cone
    is the orthant, gamma leaves it at the first subtraction or the second."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    vectors = tuple(degree_vectors(n - 1, degree))
    index = {g: i for i, g in enumerate(vectors)}
    # coefficient of e_k in -sum d_i (e_i - e_{i+1}) is d_{k-1} - d_k
    embeddings = tuple(tuple(p - q for p, q in zip((0,) + g, g + (0,))) for g in vectors)
    # positive roots alpha_i + ... + alpha_{i+h-1} by height h: simple roots first
    supports = tuple(tuple(1 if i <= k < i + h else 0 for k in range(1, n))
                     for h in range(1, n) for i in range(1, n - h + 1))
    simple = [tuple(index[g[:k] + (g[k] - 1,) + g[k + 1:]] if g[k] else -1 for g in vectors)
              for k in range(n - 1)]
    prev, below = list(simple), simple
    for h in range(2, n):
        below = [tuple(last[q] if q >= 0 else -1 for q in chain)
                 for chain, last in zip(below, simple[h - 1:])]
        prev += below
    return RootLattice(degree, vectors, embeddings, supports, tuple(prev))


def weyl_fold(lattice: RootLattice, num: list[int], den: list[int], m) -> list[Fraction]:
    """The coefficient list num / den (int lists indexed like lattice.vectors)
    times prod_{alpha > 0} (1 - e^{-alpha})^{-m-1}, as Fractions, folded one
    root at a time on integers.  The binomials b_k = prod_{t <= k} (m + t) / t
    come from one running product cut at its first zero (a polynomial for
    integer m <= -1; none at m = -1) and are w_k / scale; the list is
    H / delta, delta = lcm(den).  Each root's descending sweep
    H[i] = scale H[i] + sum_k w_k H[prev^k(i)] reads the lower entries before
    they are updated; then H[0] and delta take the factor scale."""
    b, term = [], Fraction(1)
    for k in range(1, lattice.degree + 1):
        term *= Fraction(m + k, k)
        if not term:
            break
        b.append(term)
    delta = lcm(*den)
    H = [x * (delta // d) for x, d in zip(num, den)]
    scale = lcm(*(x.denominator for x in b))
    w = [x.numerator * (scale // x.denominator) for x in b]
    for prev in lattice.prev:
        for i in range(len(H) - 1, 0, -1):
            acc, p = scale * H[i], prev[i]
            for wk in w:
                if p < 0:
                    break
                acc += wk * H[p]
                p = prev[p]
            H[i] = acc
        H[0] *= scale
        delta *= scale
    return [Fraction(x, delta) for x in H]


def denominator_power_series(n: int, exponent, degree: int) -> Series:
    """Expansion of prod_{alpha > 0} (1 - e^{-alpha})^{-exponent} for sl_n,
    truncated at total degree `degree`: the unit series folded root by root
    (see weyl_fold).  Exponent 0 gives the unit series."""
    lattice = root_lattice(n, degree)
    size = len(lattice.vectors)
    h = weyl_fold(lattice, [1] + [0] * (size - 1), [1] * size, Fraction(exponent) - 1)
    return Series(n - 1, degree, dict(zip(lattice.vectors, h)))
