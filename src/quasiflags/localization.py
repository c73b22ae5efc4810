"""Equivariant integrals as exact sums over fixed points.

Every integral in the package reduces, by the fixed-point formula, to a sum
over tableaux of products of linear forms in (a_1, ..., a_n, x) evaluated at
an exact rational parameter point.  Scaled by the lcm L of the denominators
of a/x and m, each weight becomes an integer, so a product of weights costs
one Fraction; nothing is expanded into polynomials.  A vanishing denominator
weight is reported as NonGenericParameter so the caller can resample the
point; it is named from the same integers that found it.

There are two evaluations of the same sums.  The per-point kernel,
weight_ratio, reads the count maps of characters.pair_counts as they are,
one fresh tangent map per fixed point, and serves matrix elements, the
public single coefficients (chern_series_coefficient, volume_coefficient)
and the row-transfer fallback.  Every series the package compares needs
each coefficient with |gamma| <= D at once, and there the tangent character
factors over flag steps, each step depending on two consecutive rows only;
chern_series_pairs and volume_pairs sum those step factors along a
row-transfer graph, with no fixed point enumerated and no tangent map built,
into reduced int pairs (the verify runs compare them as they are, and
chern_series_coefficients and volume_coefficients turn them into Fractions),
and fall back to the kernel at the degrees a local pole of a step factor
reaches.  A step is a few signed runs of k, which only the
differences of its rows set, so the graph keeps each translation class of
steps once; over a run the weights form an arithmetic progression, so each
run's factor is one product of a range, equal to the per-key _products.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from . import characters
from .characters import TorusWeight, pair_counts, pair_weight, tangent_table, weight_table
from .errors import InternalInconsistency, NonGenericParameter
from .roots import check_zero_sum
from .series import degree_vectors
from .tableaux import Tableau, enumerate_fixed_points, row_heads


class ParameterPoint(namedtuple("ParameterPoint", "a x m")):
    """Exact evaluation point: zero-sum torus parameters a, loop weight x != 0,
    Chern parameter m.  In the default gauge x = 1 the a_i play a_i/x."""

    def __new__(cls, a, x=Fraction(1), m=Fraction(0)):
        a = check_zero_sum(a)
        x, m = Fraction(x), Fraction(m)
        if x == 0:
            raise ValueError("x must be nonzero")
        return super().__new__(cls, a, x, m)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

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


def _products(counts, pt: ParameterPoint, chern: bool) -> tuple[int, int]:
    """(top, bottom) with top / bottom = prod ((V + M) / V)^mult (chern) or
    prod (1 / V)^mult over a count map with signed multiplicities, where
    V = U_j - U_{j'} + k L is L/x times the weight value: the per-key
    evaluator, which _step_factors matches run by run."""
    u, scale, shift = pt.integer_scaling
    top = bottom = 1
    for (j, j_prime, k), mult in counts.items():
        value = u[j] - u[j_prime] + k * scale
        other = value + shift if chern else 1
        if mult > 0:
            top *= other ** mult
            bottom *= value ** mult
        else:
            top *= value ** -mult
            bottom *= other ** -mult
    return top, bottom


def weight_ratio(numerator: dict, denominator: dict, pt: ParameterPoint) -> Fraction:
    """prod over the numerator count map of (w + m x)^mult divided by the
    product over the denominator map of w^mult (maps checked by
    characters.weight_table); one map passed as both sides gives the Chern
    ratio prod ((w + m x) / w)^mult in one pass.  Raises NonGenericParameter
    when a denominator weight vanishes, naming the least such TorusWeight,
    read off the integers V = 0 that _products multiplied."""
    chern = numerator is denominator
    top, bottom = _products(denominator, pt, chern)
    if bottom == 0:
        u, scale, _ = pt.integer_scaling
        w = min(pair_weight(j + 1, j_prime + 1, k, pt.n) for (j, j_prime, k), mult
                in denominator.items() if mult > 0 and u[j] - u[j_prime] + k * scale == 0)
        raise NonGenericParameter(f"weight {w} vanishes at {pt}")
    if chern:
        return Fraction(top, bottom)
    top = _products(numerator, pt, True)[0]
    # each weight is (x/L) V, which leaves (x/L)^(top_dim - dim) over
    return Fraction(top, bottom) * (pt.x / pt.integer_scaling[1]) ** (
        sum(numerator.values()) - sum(denominator.values()))


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
    return sum((weight_ratio({}, tangent_table(d, n), pt)
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


@lru_cache(maxsize=16)  # one key per (n, D) verified in a process
def _transfer_table(n: int, max_degree: int):
    """Row-transfer graph of the fixed points of every degree |gamma| <= D,
    read top-down by the row rule of enumerate_fixed_points (row_heads) with
    the running total <= D.  A state after row i is (row sums so far, row
    i).  Every state completes (by zero rows), so no state is dead, and the
    paths are the fixed points.

    Returns (gammas, tables, layers, runs): the degrees in degree_vectors
    order; per translation class of flag steps (upper, lower), which share
    their runs (characters.step_intervals reads only row differences), the
    indices in runs of its runs; per row after row 0 (states: the D + 1 rows
    (e,)) its state count and transitions (source, class, target), the last
    layer's targets the degree indices; distinct runs.  Each layer walks
    row_heads once per (row, room) of its sources.

    Each class is checked once, on its first step (neither check sees a
    common shift of the rows): a (0, 0) run over k = 0 (a zero weight), or a
    total multiplicity other than U + (i+1)(U - L), U and L the row sums and
    i the step index, raises InternalInconsistency.  Summed over the steps of
    a fixed point d that total is 2|d|."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    steps, classes = {}, {}  # step -> class; its rows less upper[0] -> (class, first step)

    def step_class(upper, lower):
        if (step := steps.get((upper, lower))) is None:
            key = tuple(map(upper[0].__rsub__, upper + lower))
            step = steps[upper, lower] = classes.setdefault(key, (len(classes), upper, lower))[0]
        return step

    states = [((e,), (e,)) for e in range(max_degree + 1)]
    layers = []
    for _ in range(n - 2):
        index: dict = {}
        moves = []
        groups: dict = {}  # (row, room) -> [(source, sums), ...]
        for source, (sums, upper) in enumerate(states):
            groups.setdefault((upper, max_degree - sum(sums)), []).append((source, sums))
        for (upper, room), members in groups.items():
            for head in row_heads(upper, room):
                for last in range(room - sum(head) + 1):
                    lower = head + (last,)
                    if (step := steps.get((upper, lower))) is None:
                        step = step_class(upper, lower)
                    total = sum(lower)
                    for source, sums in members:
                        target = index.setdefault((sums + (total,), lower), len(index))
                        moves.append((source, step, target))
        layers.append((len(index), tuple(moves)))
        states = list(index)
    gammas = tuple(degree_vectors(n - 1, max_degree))
    position = {g: i for i, g in enumerate(gammas)}
    zero = (0,) * n
    layers.append((len(gammas), tuple(
        (source, step_class(upper, zero), position[sums])
        for source, (sums, upper) in enumerate(states))))
    numbers, tables = {}, []  # each distinct run, numbered; per class its run numbers
    for _, upper, lower in classes.values():
        runs = characters.step_intervals(upper, upper, lower)
        size = sum(mult * (hi - lo) for _, _, lo, hi, mult in runs)
        expected = sum(upper) + len(upper) * (sum(upper) - sum(lower))
        if any(run[:2] == (0, 0) and run[2] < 0 <= run[3] for run in runs):
            raise InternalInconsistency(f"zero weight in flag step {upper} -> {lower}")
        if size != expected:
            raise InternalInconsistency(
                f"flag step {upper} -> {lower} has multiplicity {size}, expected {expected}")
        tables.append(tuple(numbers.setdefault(run, len(numbers)) for run in runs))
    return gammas, tuple(tables), tuple(layers), tuple(numbers)


def _step_factors(n: int, max_degree: int, pt: ParameterPoint, chern: bool) -> list:
    """The (top, bottom) of _products on each step's expanded runs, at the
    point.  Over a run's k in (lo, hi], V rises in steps of L, so its product
    is one math.prod of a range, and V + M's (1 for volume) is the same range
    shifted by M; a run that holds a zero multiplies to 0."""
    _, tables, _, runs = _transfer_table(n, max_degree)
    u, scale, shift = pt.integer_scaling
    tops, bottoms = [], []  # per run, on the side _products puts it by the sign of mult
    for j, j_prime, lo, hi, mult in runs:
        first = u[j] - u[j_prime] + (lo + 1) * scale
        stop = first + (hi - lo) * scale
        value = math.prod(range(first, stop, scale))
        other = math.prod(range(first + shift, stop + shift, scale)) if chern else 1
        tops.append(other ** mult if mult > 0 else value ** -mult)
        bottoms.append(value ** mult if mult > 0 else other ** -mult)
    return [(math.prod(map(tops.__getitem__, step)), math.prod(map(bottoms.__getitem__, step)))
            for step in tables]


def _row_transfer(n: int, max_degree: int, pt: ParameterPoint,
                  chern: bool) -> tuple[list[int], list[int]]:
    """Every Chern (chern) or volume coefficient with |gamma| <= D, in
    degree_vectors order, as path sums over _transfer_table of _step_factors:
    the int lists (nums, dens), each pair reduced with dens > 0.  A state
    sums its sources on unreduced int pairs, with one gcd, signed to make
    its denominator positive, when its layer is done, so a Chern degree is
    its last state; a volume degree takes one more gcd after its scale.

    A step factor whose denominator vanishes poisons every degree reached
    through it (its bottom, a product, stays 0), and each poisoned degree
    falls back, in degree order, to the per-point kernel at that degree
    alone, whose Fraction gives the pair.  That is exact: a tangent weight of
    positive multiplicity sits with positive multiplicity in some step's
    denominator, so where no step denominator vanishes no tangent weight
    does, and a vanishing step numerator is a genuine zero, (0, 1).  Every
    non-generic degree is thus poisoned, and the kernel raises there with
    its own NonGenericParameter."""
    gammas, _, layers, _ = _transfer_table(n, max_degree)
    factors = _step_factors(n, max_degree, pt, chern)
    tops = bottoms = [1] * (max_degree + 1)
    for count, moves in layers:
        nums, dens = [0] * count, [1] * count
        for source, step, target in moves:  # cross-multiplied, unreduced
            top, bottom = factors[step]
            top, bottom = tops[source] * top, bottoms[source] * bottom
            nums[target] = nums[target] * bottom + top * dens[target]
            dens[target] *= bottom
        # one gcd per state, negated where its denominator is negative; a poisoned 0/0 stays
        divisors = [-math.gcd(a, b) if b < 0 else math.gcd(a, b) or 1 for a, b in zip(nums, dens)]
        tops = [a // g for a, g in zip(nums, divisors)]
        bottoms = [b // g for b, g in zip(dens, divisors)]
    # a volume degree scales by (L/x)^(2|gamma|) = (p/q)^(2|gamma|)
    ratio = Fraction(1) if chern else pt.integer_scaling[1] / pt.x
    p, q = ratio.numerator, ratio.denominator
    kernel = chern_series_coefficient if chern else volume_coefficient
    for i, (g, top, bottom) in enumerate(zip(gammas, tops, bottoms)):
        if not bottom:
            value = kernel(n, g, pt)
            tops[i], bottoms[i] = value.numerator, value.denominator
        elif not chern:
            top, bottom = top * p ** (2 * sum(g)), bottom * q ** (2 * sum(g))
            divisor = math.gcd(top, bottom)
            tops[i], bottoms[i] = top // divisor, bottom // divisor
    return tops, bottoms


def chern_series_pairs(n: int, max_degree: int, pt: ParameterPoint) -> tuple[list[int], list[int]]:
    """chern_series_coefficients as reduced int pairs (nums, dens), dens > 0,
    by one row-transfer pass (see _row_transfer)."""
    return _row_transfer(n, max_degree, pt, chern=True)


def volume_pairs(n: int, max_degree: int, pt: ParameterPoint) -> tuple[list[int], list[int]]:
    """volume_coefficients as reduced int pairs (nums, dens), dens > 0, by one
    row-transfer pass: the step factors have an empty numerator, and each
    degree is scaled by (L/x)^(2|gamma|)."""
    return _row_transfer(n, max_degree, pt, chern=False)


def chern_series_coefficients(n: int, max_degree: int, pt: ParameterPoint) -> list[Fraction]:
    """chern_series_coefficient at every gamma of degree_vectors(n - 1,
    max_degree), in that order: chern_series_pairs as Fractions."""
    return list(map(Fraction, *chern_series_pairs(n, max_degree, pt)))


def volume_coefficients(n: int, max_degree: int, pt: ParameterPoint) -> list[Fraction]:
    """volume_coefficient at every gamma of degree_vectors(n - 1, max_degree),
    in that order: volume_pairs as Fractions."""
    return list(map(Fraction, *volume_pairs(n, max_degree, pt)))
