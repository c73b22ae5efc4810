"""Torus characters of the deformation bundle at pairs of fixed points.

Over a pair of fixed flags the bundle of framed homomorphisms from one flag
into the quotient by the other decomposes into lines, and its character is a
signed sum of truncated geometric blocks in the loop weight x, one block per
triple (step i, summand j of the target, summand j' of the source), twisted
by the torus weight a_j - a_{j'}.  Restricted to the diagonal the bundle is
the tangent bundle, which gives the tangent weights that feed every
localization denominator.

Internally a character is an integer count map (j, j', k) -> multiplicity of
a_j - a_{j'} + k x (pair_counts), frozen for the localization kernel into a
WeightTable; Character and TorusWeight are built from it only for the
public API.  The blocks of flag step i depend only on the rows d'_i, d_i
and d_{i+1}, so one walk, pair_count_rows, builds every pair map: it sums
one cached count map per step (step_counts) once per distinct prefix
d'_1, ..., d'_i of a list of fixed points.  pair_counts is its two-point case.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import InternalInconsistency
from .tableaux import Tableau

# a frozen count map: parallel tuples of keys (j, j', k) and multiplicities
WeightTable = tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]

class TorusWeight(NamedTuple):
    """Integer weight sum_j a_coeffs[j] * a_j + x_coeff * x of the torus times
    the loop rotation."""
    a_coeffs: tuple[int, ...]
    x_coeff: int

    def shift_x(self, m: int) -> "TorusWeight":
        return TorusWeight(self.a_coeffs, self.x_coeff + m)

    def is_zero(self) -> bool:
        return self.x_coeff == 0 and all(c == 0 for c in self.a_coeffs)


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
        self.terms = {w: int(mult) for w, mult in (terms or {}).items() if mult != 0}

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.terms)
        for w, m in other.terms.items():
            out[w] = out.get(w, 0) + m
        return Character(out)

    def __sub__(self, other: "Character") -> "Character":
        return self + Character({w: -m for w, m in other.terms.items()})

    def shift_x(self, m: int) -> "Character":
        return Character({w.shift_x(m): mult for w, mult in self.terms.items()})

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


@lru_cache(maxsize=8192)  # 142 keys at n=3 D=24, 286 at n=3 D=48, 225 at n=8 D=5, 66 in properties
def _key(a: int, b: int, k: int) -> tuple[int, int, int]:
    """One shared (j, j', k) tuple per key, so cached blocks hold references."""
    return (a, b, k)


@lru_cache(maxsize=4096)  # 1,156 keys in the character record at n=4 D=5
def step_counts(sources: tuple[int, ...], upper: tuple[int, ...], lower: tuple[int, ...]
                ) -> WeightTable:
    """Count map of flag step i, from sources = d'_i, upper = d_i and lower =
    d_{i+1}, as a WeightTable with signed multiplicities and no zeros:

        sum_{j<=i+1, j'<=i} e^{a_j - a_{j'}} G(d'_i^{j'} - d_{i+1}^j)
      - sum_{j<=i,   j'<=i} e^{a_j - a_{j'}} G(d'_i^{j'} - d_i^j),  G = geom_block
    """
    acc: dict[tuple[int, int, int], int] = {}
    for j_prime, s in enumerate(sources):
        # G(s - l) - G(s - u) sums e^{kx} over the oriented interval
        # s - u < k <= s - l; the last l has no u, and G(s - s) = 0
        for j, (u, l) in enumerate(zip(upper + (s,), lower)):
            lo, hi = s - u, s - l
            ks, mult = (range(lo + 1, hi + 1), 1) if lo <= hi else (range(hi + 1, lo + 1), -1)
            # every diagonal block has a-part 0, so they share (0, 0)
            a, b = (j, j_prime) if j != j_prime else (0, 0)
            for k in ks:
                key = (a, b, k)
                acc[key] = acc.get(key, 0) + mult
    return (tuple(_key(*key) for key, mult in acc.items() if mult),
            tuple(mult for mult in acc.values() if mult))


def pair_counts(d: Tableau, d_prime: Tableau, n: int) -> dict[tuple[int, int, int], int]:
    """Character of the framed-homomorphism bundle over the fixed pair (d, d')
    as a fresh count map (j, j', k) -> multiplicity of a_j - a_{j'} + k x, with
    0-indexed j, j', x-only weights keyed (0, 0, k) and no zero multiplicity:
    the two-point case of the walk pair_count_rows, i.e. the sum over steps i
    of step_counts(d'_i, d_i, d_{i+1}), with d_n = 0.
    """
    counts = next(pair_count_rows((d, d_prime), n))[1]
    return {key: mult for key, mult in counts.items() if mult}


def pair_count_rows(tableaux, n: int):
    """For each d in tableaux, in order, the count maps (see pair_counts) of
    (d, d') for every d' in tableaux, in order; a map may keep a key that
    cancelled to 0, and equal d' share one map.  The distinct row prefixes of
    the d' are laid out once, one layer per flag step, as (parent index, row);
    for each d a prefix's map is a copy of its parent's plus one step_counts,
    so a step is summed once per prefix, not once per pair."""
    if any(t.n != n for t in tableaux):
        raise ValueError("tableaux must match the ambient rank n")
    layers: list[dict[tuple[int, tuple[int, ...]], int]] = [{} for _ in range(n - 1)]
    leaves = []
    for t in tableaux:
        parent = 0
        for layer, row in zip(layers, t.rows):
            parent = layer.setdefault((parent, row), len(layer))
        leaves.append(parent)
    zero = (0,) * n
    for d in tableaux:
        rows, maps = d.rows + (zero,), [{}]
        for i, layer in enumerate(layers):
            grown = []
            for parent, sources in layer:
                acc = maps[parent].copy()
                for key, mult in zip(*step_counts(sources, rows[i], rows[i + 1])):
                    acc[key] = acc.get(key, 0) + mult
                grown.append(acc)
            maps = grown
        yield [maps[leaf] for leaf in leaves]


def pair_character(d: Tableau, d_prime: Tableau, n: int) -> Character:
    """pair_counts as a Character over torus weights."""
    return Character({pair_weight(j + 1, j_prime + 1, k, n): mult
                      for (j, j_prime, k), mult in pair_counts(d, d_prime, n).items()})


def weight_table(counts: dict[tuple[int, int, int], int]) -> WeightTable:
    """Freeze a count map (see pair_counts) into a WeightTable.  Raises
    InternalInconsistency, naming the least such key, on a negative
    multiplicity."""
    negative = [key for key, mult in counts.items() if mult < 0]
    if negative:
        key = min(negative)
        raise InternalInconsistency(
            f"negative multiplicity {counts[key]} at (j, j', k) = {key}")
    return tuple(counts), tuple(counts.values())


def table_weights(table: WeightTable, n: int) -> tuple[TorusWeight, ...]:
    """Expand a weight table into its weight multiset, sorted as TorusWeights."""
    return tuple(sorted(w for (j, j_prime, k), mult in zip(*table)
                        for w in [pair_weight(j + 1, j_prime + 1, k, n)] * mult))


@lru_cache(maxsize=8192)  # one key per fixed point: 9 on properties n=4 D=5
def tangent_table(d: Tableau, n: int) -> WeightTable:
    """Weight table (see weight_table) of the tangent space at the fixed point
    d.  The diagonal character must be a genuine representation of dimension
    2 * sum(degree) with no zero weight; anything else means a transcription
    bug in the block formula and raises InternalInconsistency."""
    counts = pair_counts(d, d, n)
    if (0, 0, 0) in counts:
        raise InternalInconsistency(f"zero weight in tangent space of {d}")
    table = weight_table(counts)
    size, expected = sum(table[1]), 2 * sum(d.degree())
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
