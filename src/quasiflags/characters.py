"""Torus characters of the deformation bundle at pairs of fixed points.

Over a pair of fixed flags the bundle of framed homomorphisms from one flag
into the quotient by the other decomposes into lines, and its character is a
signed sum of truncated geometric blocks in the loop weight x, one block per
triple (step i, summand j of the target, summand j' of the source), twisted
by the torus weight a_j - a_{j'}.  Restricted to the diagonal the bundle is
the tangent bundle, which gives the tangent weights that feed every
localization denominator.

Internally a character is an integer count map (j, j', k) -> multiplicity of
a_j - a_{j'} + k x (pair_counts), which the localization kernel reads as it
is (weight_table only checks one); Character and TorusWeight are built from
it only for the public API.  The blocks of flag step i depend only on the
rows d'_i, d_i and d_{i+1} (step_intervals, as signed runs of k), and
pair_counts is the sum of its n - 1 expanded steps (expand_runs).  The walk
over many pairs, pair_count_rows, sums packed count vectors instead: a
CountLayout puts every key in a fixed bit field of one int, so a run packs
in O(1) big-int operations, each step is packed once, and each prefix
d'_1, ..., d'_i of the columns costs one int addition per row.
"""

from itertools import accumulate, product
from operator import add, itemgetter
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
        self.terms = {}
        for w, mult in (terms or {}).items():
            if int(mult) != mult:
                raise ValueError(f"non-integral multiplicity {mult!r} at weight {w}")
            if mult:
                self.terms[w] = int(mult)

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


def expand_runs(runs) -> dict[tuple[int, int, int], int]:
    """Signed runs (see step_intervals) as a count map, one key per k: the
    only expansion of a step into keys."""
    return {(j, j_prime, k): mult for j, j_prime, lo, hi, mult in runs
            for k in range(lo + 1, hi + 1)}


def _check_rank(tableaux, n: int) -> None:
    if any(t.n != n for t in tableaux):
        raise ValueError("tableaux must match the ambient rank n")


def pair_counts(d: Tableau, d_prime: Tableau, n: int) -> dict[tuple[int, int, int], int]:
    """Character of the framed-homomorphism bundle over the fixed pair (d, d')
    as a fresh count map (j, j', k) -> multiplicity of a_j - a_{j'} + k x, with
    0-indexed j, j', x-only weights keyed (0, 0, k) and no zero multiplicity:
    the sum over steps i of expand_runs(step_intervals(d'_i, d_i, d_{i+1})),
    with d_n = 0.
    """
    _check_rank((d, d_prime), n)
    rows, counts = d.rows + ((0,) * n,), {}
    for i, sources in enumerate(d_prime.rows):
        for key, mult in expand_runs(step_intervals(sources, rows[i], rows[i + 1])).items():
            counts[key] = counts.get(key, 0) + mult
    return {key: mult for key, mult in counts.items() if mult}


class CountLayout:
    """Count maps (see pair_counts) packed into one int each: the key
    (j, j', k), 0 <= j, j' < n and -window < k <= window, is the width-bit
    field at index (j n + j') 2 window + k + window - 1, holding its
    multiplicity plus 2^(width - 1), and the rank (the sum of all
    multiplicities) is the unbounded field at rank_shift.  As width =
    bound.bit_length() + 1, every |multiplicity| <= bound decodes exactly,
    and no multiplicity is negative exactly when packed & bias == bias."""

    __slots__ = ("n", "window", "width", "rank_shift", "bias", "_repunits")

    def __init__(self, n: int, window: int, bound: int):
        self.n, self.window, self.width = n, window, bound.bit_length() + 1
        fields = 2 * window * n * n
        self.rank_shift = self.width * fields
        unit = (1 << self.width) - 1
        self.bias = ((1 << self.rank_shift) - 1) // unit << self.width - 1
        # a run of `count` fields of 1 each, for every run length in the window
        self._repunits = [((1 << self.width * count) - 1) // unit
                          for count in range(2 * window + 1)]

    def field(self, key: tuple[int, int, int]) -> int:
        j, j_prime, k = key
        if not (0 <= j < self.n and 0 <= j_prime < self.n
                and -self.window < k <= self.window):
            raise InternalInconsistency(
                f"key {key} outside the layout's k-window ({-self.window}, {self.window}]")
        return (j * self.n + j_prime) * 2 * self.window + k + self.window - 1

    def pack(self, runs) -> int:
        """Signed runs (see step_intervals) packed, rank included, bias not:
        each run is mult times hi - lo unit fields, shifted.  A run outside
        the window raises rather than spill into the neighbouring block."""
        n, window, width, repunits = self.n, self.window, self.width, self._repunits
        packed = rank = 0
        for j, j_prime, lo, hi, mult in runs:
            if not (0 <= j < n and 0 <= j_prime < n and -window <= lo < hi <= window):
                raise InternalInconsistency(
                    f"run {(j, j_prime, lo, hi, mult)} outside the layout's "
                    f"k-window ({-window}, {window}]")
            packed += mult * repunits[hi - lo] << width * ((j * n + j_prime) * 2 * window
                                                          + lo + window)
            rank += mult * (hi - lo)
        return packed + (rank << self.rank_shift)

    def value(self, packed: int, key: tuple[int, int, int]) -> int:
        """The multiplicity of key in a packed count map (bias included)."""
        mask, half = (1 << self.width) - 1, 1 << self.width - 1
        return (packed >> self.width * self.field(key) & mask) - half

    def decode(self, packed: int) -> dict[tuple[int, int, int], int]:
        """A packed count map (bias included) as a count map with no zero multiplicity."""
        mask, half, width = (1 << self.width) - 1, 1 << self.width - 1, self.width
        keys = product(range(self.n), range(self.n), range(1 - self.window, self.window + 1))
        values = ((packed >> width * f & mask) - half
                  for f in range(self.rank_shift // width))
        return {key: v for key, v in zip(keys, values) if v}


def pair_count_rows(tableaux, columns, n: int):
    """(layout, rows): for each d in tableaux, in order, rows yields the
    count maps (see pair_counts) of (d, d') for every d' in columns, in
    order, packed under layout (a CountLayout), bias included.

    The distinct row prefixes of the columns are laid out once, one layer per
    flag step, as (parent index, row).  Each step from a source row of layer
    i and a pair (d_i, d_{i+1}) of the tableaux is packed once; a row then
    walks the layers, each prefix's map its parent's plus one packed step.
    The window is the largest tableau entry (at least 1), so every k fits,
    and the bound is the sum over layers of the largest |mult| of the
    layer's runs, which bounds any sum of one step per layer."""
    _check_rank((*tableaux, *columns), n)
    layers: list[dict[tuple[int, tuple[int, ...]], int]] = [{} for _ in range(n - 1)]
    leaves = []
    for t in columns:
        parent = 0
        for layer, row in zip(layers, t.rows):
            parent = layer.setdefault((parent, row), len(layer))
        leaves.append(parent)
    zero = (0,) * n
    rows = [d.rows + (zero,) for d in tableaux]
    heads = [list(map(itemgetter(1), layer)) for layer in layers]  # each prefix's last row
    # per layer: (d_i, d_{i+1}) of a tableau -> each distinct source row -> the step's runs
    steps = [{pair: {s: step_intervals(s, *pair) for s in dict.fromkeys(sources)}
              for pair in {(r[i], r[i + 1]) for r in rows}}
             for i, sources in enumerate(heads)]
    window = max((e for t in (*tableaux, *columns) for row in t.rows for e in row), default=0)
    bound = sum(max((abs(mult) for by_source in block.values()
                     for runs in by_source.values() for *_, mult in runs), default=0)
                for block in steps)
    layout = CountLayout(n, max(window, 1), bound)
    # per layer: (d_i, d_{i+1}) -> the packed step of each prefix
    columns_of = [{pair: list(map({s: layout.pack(runs) for s, runs in by_source.items()}
                                  .__getitem__, sources))
                   for pair, by_source in block.items()}
                  for sources, block in zip(heads, steps)]
    parents = [list(map(itemgetter(0), layer)) for layer in layers]

    def walk():
        for r in rows:
            maps = [layout.bias]
            for i, (above, block) in enumerate(zip(parents, columns_of)):
                maps = list(map(add, map(maps.__getitem__, above), block[r[i], r[i + 1]]))
            yield list(map(maps.__getitem__, leaves))
    return layout, walk()


def pair_character(d: Tableau, d_prime: Tableau, n: int) -> Character:
    """pair_counts as a Character over torus weights."""
    return Character({pair_weight(j + 1, j_prime + 1, k, n): mult
                      for (j, j_prime, k), mult in pair_counts(d, d_prime, n).items()})


def weight_table(counts: dict[tuple[int, int, int], int]) -> dict[tuple[int, int, int], int]:
    """A count map (see pair_counts) checked as a weight table: returns it,
    or raises InternalInconsistency, naming the least such key, on a
    negative multiplicity."""
    negative = [key for key, mult in counts.items() if mult < 0]
    if negative:
        key = min(negative)
        raise InternalInconsistency(
            f"negative multiplicity {counts[key]} at (j, j', k) = {key}")
    return counts


def tangent_table(d: Tableau, n: int) -> dict[tuple[int, int, int], int]:
    """Weight table (see weight_table) of the tangent space at the fixed point
    d.  The diagonal character must be a genuine representation of dimension
    2 * sum(degree) with no zero weight; anything else means a transcription
    bug in the block formula and raises InternalInconsistency."""
    counts = pair_counts(d, d, n)
    if (0, 0, 0) in counts:
        raise InternalInconsistency(f"zero weight in tangent space of {d}")
    size, expected = sum(weight_table(counts).values()), 2 * sum(d.degree())
    if size != expected:
        raise InternalInconsistency(
            f"tangent multiset has size {size}, expected {expected}")
    return counts


def tangent_weights(d: Tableau, n: int) -> tuple[TorusWeight, ...]:
    """The weight table of tangent_table expanded into its weight multiset,
    sorted as TorusWeights: the public view, which no kernel reads."""
    return tuple(sorted(w for (j, j_prime, k), mult in tangent_table(d, n).items()
                        for w in [pair_weight(j + 1, j_prime + 1, k, n)] * mult))


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
