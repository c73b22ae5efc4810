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
and d_{i+1} (step_intervals, as signed runs of k), so one walk, pair_count_rows,
builds every pair map: it expands each step it meets once (expand_runs) and
sums it once per distinct prefix d'_1, ..., d'_i of its columns.  pair_counts
is its one-pair case.
"""

from functools import lru_cache
from itertools import accumulate
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


def step_intervals(sources: tuple[int, ...], upper: tuple[int, ...], lower: tuple[int, ...]):
    """Flag step i, from sources = d'_i, upper = d_i and lower = d_{i+1}, as
    nonempty signed runs (j, j', lo, hi, mult), disjoint per (j, j'): each
    weight a_j - a_{j'} + k x, k in (lo, hi], with multiplicity mult != 0 in

        sum_{j<=i+1, j'<=i} e^{a_j - a_{j'}} G(d'_i^{j'} - d_{i+1}^j)
      - sum_{j<=i,   j'<=i} e^{a_j - a_{j'}} G(d'_i^{j'} - d_i^j),  G = geom_block
    """
    runs, ends = [], {}
    for j_prime, s in enumerate(sources):
        # G(s - l) - G(s - u) sums e^{kx} over the oriented interval
        # s - u < k <= s - l; the last l has no u, and G(s - s) = 0
        for j, (u, l) in enumerate(zip(upper + (s,), lower)):
            lo, hi, mult = (s - u, s - l, 1) if u >= l else (s - l, s - u, -1)
            if j == j_prime:  # every diagonal block has a-part 0: they share (0, 0)
                ends[lo] = ends.get(lo, 0) + mult
                ends[hi] = ends.get(hi, 0) - mult
            elif lo < hi:  # each off-diagonal (j, j') occurs once
                runs.append((j, j_prime, lo, hi, mult))
    points = sorted(ends)  # the diagonal runs: a sweep of the net multiplicity
    return tuple(runs + [(0, 0, lo, hi, net) for lo, hi, net in zip(
        points, points[1:], accumulate(ends[k] for k in points)) if net])


def expand_runs(runs) -> WeightTable:
    """Signed runs (see step_intervals) as a WeightTable, one key per k: the
    only expansion of a step into keys."""
    return (tuple((j, j_prime, k) for j, j_prime, lo, hi, _ in runs
                  for k in range(lo + 1, hi + 1)),
            tuple(mult for _, _, lo, hi, mult in runs for _ in range(hi - lo)))


def pair_counts(d: Tableau, d_prime: Tableau, n: int) -> dict[tuple[int, int, int], int]:
    """Character of the framed-homomorphism bundle over the fixed pair (d, d')
    as a fresh count map (j, j', k) -> multiplicity of a_j - a_{j'} + k x, with
    0-indexed j, j', x-only weights keyed (0, 0, k) and no zero multiplicity:
    the one-pair case of the walk pair_count_rows, i.e. the sum over steps i
    of expand_runs(step_intervals(d'_i, d_i, d_{i+1})), with d_n = 0.
    """
    counts = next(pair_count_rows((d,), (d_prime,), n))[0]
    return {key: mult for key, mult in counts.items() if mult}


def pair_count_rows(tableaux, columns, n: int):
    """For each d in tableaux, in order, the count maps (see pair_counts) of
    (d, d') for every d' in columns, in order; a map may keep a key that
    cancelled to 0, and equal d' share one map.  The distinct row prefixes of
    the columns are laid out once, one layer per flag step, as (parent index,
    row); for each d a prefix's map is a copy of its parent's plus one step,
    so a step is summed once per prefix, not once per pair, and expanded once
    per call."""
    if any(t.n != n for t in (*tableaux, *columns)):
        raise ValueError("tableaux must match the ambient rank n")
    layers: list[dict[tuple[int, tuple[int, ...]], int]] = [{} for _ in range(n - 1)]
    leaves = []
    for t in columns:
        parent = 0
        for layer, row in zip(layers, t.rows):
            parent = layer.setdefault((parent, row), len(layer))
        leaves.append(parent)
    zero, steps = (0,) * n, {}
    for d in tableaux:
        rows, maps = d.rows + (zero,), [{}]
        for i, layer in enumerate(layers):
            grown = []
            for parent, sources in layer:
                step = (sources, rows[i], rows[i + 1])
                pairs = steps.get(step)
                if pairs is None:
                    pairs = steps[step] = tuple(zip(*expand_runs(step_intervals(*step))))
                acc = maps[parent].copy()
                for key, mult in pairs:
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
