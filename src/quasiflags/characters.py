"""Torus characters of the deformation bundle at pairs of fixed points.

Over a pair of fixed flags the bundle of framed homomorphisms from one flag
into the quotient by the other decomposes into lines, and its character is a
signed sum of truncated geometric blocks in the loop weight x, one block per
triple (step i, summand j of the target, summand j' of the source), twisted
by the torus weight a_j - a_{j'}.  Restricted to the diagonal the bundle is
the tangent bundle, which gives the tangent weights that feed every
localization denominator.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import InternalInconsistency
from .tableaux import Tableau


class TorusWeight(NamedTuple):
    """Integer weight sum_j a_coeffs[j] * a_j + x_coeff * x of the torus times
    the loop rotation."""
    a_coeffs: tuple[int, ...]
    x_coeff: int

    def shift_x(self, m: int) -> "TorusWeight":
        return TorusWeight(self.a_coeffs, self.x_coeff + m)

    def is_zero(self) -> bool:
        return self.x_coeff == 0 and all(c == 0 for c in self.a_coeffs)


def x_weight(k: int, n: int) -> TorusWeight:
    return TorusWeight((0,) * n, k)


def pair_weight(j: int, j_prime: int, k: int, n: int) -> TorusWeight:
    """a_j - a_{j'} + k x (1-indexed j, j')."""
    coeffs = [0] * n
    coeffs[j - 1] += 1
    coeffs[j_prime - 1] -= 1
    return TorusWeight(tuple(coeffs), k)


class Character:
    """Finite multiplicity map on torus weights; zero multiplicities are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[TorusWeight, int] = {}
        for w, mult in (terms or {}).items():
            if mult != 0:
                clean[w] = int(mult)
        self.terms = clean

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.terms)
        for w, m in other.terms.items():
            new = out.get(w, 0) + m
            if new == 0:
                out.pop(w, None)
            else:
                out[w] = new
        result = Character.__new__(Character)
        result.terms = out
        return result

    def __sub__(self, other: "Character") -> "Character":
        return self + other.negate()

    def negate(self) -> "Character":
        result = Character.__new__(Character)
        result.terms = {w: -m for w, m in self.terms.items()}
        return result

    def shift_x(self, m: int) -> "Character":
        result = Character.__new__(Character)
        result.terms = {w.shift_x(m): mult for w, mult in self.terms.items()}
        return result

    def total_multiplicity(self) -> int:
        return sum(self.terms.values())

    def weights(self) -> list[TorusWeight]:
        """Expand to a sorted weight multiset; requires all multiplicities >= 0."""
        out = []
        for w, mult in sorted(self.terms.items()):
            if mult < 0:
                raise InternalInconsistency(f"negative multiplicity {mult} at weight {w}")
            out.extend([w] * mult)
        return out

    def as_sorted_triples(self) -> list[tuple[tuple[int, ...], int, int]]:
        """Serialization: (a_coeffs, x_coeff, multiplicity), lexicographically sorted."""
        return [(w.a_coeffs, w.x_coeff, m) for w, m in sorted(self.terms.items())]

    def __eq__(self, other):
        return isinstance(other, Character) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Character({self.as_sorted_triples()})"


def geom_block(count: int) -> Character:
    """The truncated geometric series (e^{x(N+1)} - e^x)/(e^x - 1) as a character.

    N >= 1 gives e^x + ... + e^{Nx}; N = 0 gives zero; N < 0 simplifies to
    -(e^0 + e^{-x} + ... + e^{(N+1)x}).  The total multiplicity is N in every
    case.
    """
    if count >= 1:
        return Character({TorusWeight((), k): 1 for k in range(1, count + 1)})
    if count == 0:
        return Character()
    return Character({TorusWeight((), -k): -1 for k in range(0, -count)})


def pair_character(d: Tableau, d_prime: Tableau, n: int) -> Character:
    """Character of the framed-homomorphism bundle over the fixed pair (d, d').

    The positive blocks come from maps of step i of d' into step i+1 of d,
    the negative blocks from maps into step i itself:

        sum_{i=1}^{n-1} [ sum_{j<=i+1, j'<=i} e^{a_j - a_{j'}} G(d'_i^{j'} - d_{i+1}^j)
                        - sum_{j<=i,   j'<=i} e^{a_j - a_{j'}} G(d'_i^{j'} - d_i^j) ]

    where G(N) is geom_block(N) and row n of d is zero by convention.  The
    a-part uses torus coordinates a_j - a_{j'} throughout.
    """
    if d.n != n or d_prime.n != n:
        raise ValueError("tableaux must match the ambient rank n")
    acc: dict[tuple[int, int, int], int] = {}    # (j, j', k) -> multiplicity
    rows = d.rows + ((0,) * n,)
    for i, sources in enumerate(d_prime.rows):
        for j_prime, source in enumerate(sources, start=1):
            # step i+1: +G into row i+2 of d, -G into row i+1
            for targets, sign in ((rows[i + 1], 1), (rows[i], -1)):
                for j, target in enumerate(targets, start=1):
                    count = source - target
                    # G(N) = e^x + ... + e^{Nx}, G(0) = 0, G(-N) = -(e^0 + ... + e^{(1-N)x})
                    if count > 0:
                        ks, mult = range(1, count + 1), sign
                    else:
                        ks, mult = range(0, count, -1), -sign
                    # every diagonal block has a-part 0, so they share (1, 1)
                    a, b = (j, j_prime) if j != j_prime else (1, 1)
                    for k in ks:
                        key = (a, b, k)
                        acc[key] = acc.get(key, 0) + mult
    result = Character.__new__(Character)
    result.terms = {pair_weight(j, j_prime, k, n): mult
                    for (j, j_prime, k), mult in acc.items() if mult}
    return result


def weight_table(char: Character) -> tuple[int, ...]:
    """Flatten a character over pair weights a_j - a_{j'} + k x into the tuple
    (j, j', k, mult, j, j', k, mult, ...), 0-indexed, in sorted weight order
    (x-only weights read j = j' = 0).  Raises InternalInconsistency on a
    negative multiplicity or an a-part that is not a coordinate difference."""
    flat = []
    for w, mult in sorted(char.terms.items()):
        a = w.a_coeffs
        j = a.index(1) if 1 in a else 0
        j_prime = a.index(-1) if -1 in a else 0
        if mult < 0:
            raise InternalInconsistency(f"negative multiplicity {mult} at weight {w}")
        if sum(map(abs, a)) != 2 * (j != j_prime):
            raise InternalInconsistency(f"weight {w} is not a pair weight")
        flat += (j, j_prime, w.x_coeff, mult)
    return tuple(flat)


def table_weights(table: tuple[int, ...], n: int) -> tuple[TorusWeight, ...]:
    """Expand a flat weight table back into its sorted weight multiset."""
    it = iter(table)
    return tuple(w for j, j_prime, k, mult in zip(it, it, it, it)
                 for w in [pair_weight(j + 1, j_prime + 1, k, n)] * mult)


@lru_cache(maxsize=8192)  # one key per fixed point: 5,931 at n=4 D=14
def tangent_table(d: Tableau, n: int) -> tuple[int, ...]:
    """Weight table (see weight_table) of the tangent space at the fixed point
    d.  The diagonal character must be a genuine representation of dimension
    2 * sum(degree) with no zero weight; anything else means a transcription
    bug in the block formula and raises InternalInconsistency."""
    char = pair_character(d, d, n)
    if x_weight(0, n) in char.terms:
        raise InternalInconsistency(f"zero weight in tangent space of {d}")
    table = weight_table(char)
    size, expected = sum(table[3::4]), 2 * sum(d.degree())
    if size != expected:
        raise InternalInconsistency(
            f"tangent multiset has size {size}, expected {expected}")
    return table


def tangent_weights(d: Tableau, n: int) -> tuple[TorusWeight, ...]:
    """Sorted weight multiset of the tangent space at d, from tangent_table."""
    return table_weights(tangent_table(d, n), n)


def shift_defect(d: Tableau, d_prime: Tableau, m: int, n: int) -> Character:
    """Difference between x-shifting the pair character by m and shifting the
    second tableau by m:

        pair_character(d', d).shift_x(m) - pair_character(d', d.shift(m))

    The result is a (virtual) character independent of the pair (d, d'); that
    independence is what makes the twist-by-m comparison of localization
    matrix elements a single global constant.
    """
    return (pair_character(d_prime, d, n).shift_x(m)
            - pair_character(d_prime, d.shift(m), n))


def clear_caches():
    """Reset memoized tangent data (used by fault-injection tests)."""
    tangent_table.cache_clear()
