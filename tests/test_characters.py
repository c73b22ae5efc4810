import random

import pytest
from hypothesis import example, given, settings, strategies as st

import quasiflags.characters as characters
from quasiflags.characters import (Character, TorusWeight, geom_block,
                                   pair_character, pair_count_rows, pair_counts, pair_weight,
                                   shift_defect, tangent_table, tangent_weights,
                                   weight_table)
from quasiflags.errors import InternalInconsistency
from quasiflags.series import degree_vectors
from quasiflags.tableaux import Tableau, enumerate_fixed_points


def test_geom_block_small_cases():
    assert geom_block(0) == Character()
    assert geom_block(2) == Character({TorusWeight((), 1): 1, TorusWeight((), 2): 1})
    assert geom_block(-1) == Character({TorusWeight((), 0): -1})
    assert geom_block(-3) == Character({TorusWeight((), 0): -1,
                                        TorusWeight((), -1): -1,
                                        TorusWeight((), -2): -1})


def test_geom_block_total_multiplicity():
    for count in range(-6, 7):
        assert geom_block(count).total_multiplicity() == count


def test_diagonal_character_n2_closed_form():
    for delta in (1, 2, 3):
        d = Tableau([(delta,)])
        char = pair_character(d, d, 2)
        expected = {}
        for k in range(1, delta + 1):
            expected[TorusWeight((0, 0), k)] = 1
            expected[TorusWeight((-1, 1), k)] = 1
        assert char == Character(expected)


def test_zero_pair_is_empty():
    for n in (2, 3, 4):
        zero = Tableau.zero(n)
        assert pair_character(zero, zero, n) == Character()


def test_pair_rank_equals_degree_sums():
    rng = random.Random(8)
    n = 3
    tabs = [t for g in degree_vectors(2, 3) for t in enumerate_fixed_points(n, g)]
    for _ in range(40):
        d = rng.choice(tabs)
        dp = rng.choice(tabs)
        char = pair_character(d, dp, n)
        # brute-force total: sum multiplicities one term at a time
        total = sum(m for m in char.terms.values())
        assert total == sum(d.degree()) + sum(dp.degree())
        assert all(m > 0 for m in char.terms.values())


def test_pair_rank_and_positivity_full_scale():
    for n in (2, 3, 4):
        tabs = [t for g in degree_vectors(n - 1, 5)
                for t in enumerate_fixed_points(n, g)]
        for d in tabs:
            for dp in tabs:
                char = pair_character(d, dp, n)
                assert char.total_multiplicity() == sum(d.degree()) + sum(dp.degree())
                assert all(m > 0 for m in char.terms.values())


def test_pair_a_parts_are_coordinate_differences():
    n = 4
    tabs = [t for g in degree_vectors(3, 2) for t in enumerate_fixed_points(n, g)]
    for d in tabs:
        for dp in tabs:
            for w in pair_character(d, dp, n).terms:
                nonzero = sorted(c for c in w.a_coeffs if c)
                assert nonzero in ([], [-1, 1])


def test_tangent_weights_basics():
    assert tangent_weights(Tableau.zero(3), 3) == ()
    d = Tableau([(1,)])
    assert sorted(tangent_weights(d, 2)) == sorted(
        (TorusWeight((0, 0), 1), TorusWeight((-1, 1), 1)))
    d3 = Tableau([(1,), (0, 0)])
    assert len(tangent_weights(d3, 3)) == 2


def test_tangent_weights_dimension_and_positivity():
    for n in (2, 3, 4):
        for gamma in degree_vectors(n - 1, 3):
            for d in enumerate_fixed_points(n, gamma):
                weights = tangent_weights(d, n)
                assert len(weights) == 2 * sum(gamma)
                assert all(not w.is_zero() for w in weights)


def test_negative_multiplicity_raises_on_expansion():
    with pytest.raises(InternalInconsistency):
        Character({TorusWeight((0, 0), 1): -1}).weights()


def test_shift_defect_zero_shift():
    zero = Tableau.zero(2)
    assert shift_defect(zero, zero, 0, 2) == Character()


def test_shift_defect_pair_independent_n2():
    base = shift_defect(Tableau.zero(2), Tableau.zero(2), 1, 2)
    other = shift_defect(Tableau([(1,)]), Tableau([(2,)]), 1, 2)
    assert base == other
    assert base  # nonempty virtual character


def test_shift_defect_pair_independent_n3():
    rng = random.Random(9)
    tabs = [t for g in degree_vectors(2, 3) for t in enumerate_fixed_points(3, g)]
    base = shift_defect(Tableau.zero(3), Tableau.zero(3), 2, 3)
    for _ in range(3):
        d = rng.choice(tabs)
        dp = rng.choice(tabs)
        assert shift_defect(d, dp, 2, 3) == base


def test_serialization_sorted_triples():
    char = Character({TorusWeight((0, 0), 2): 1, TorusWeight((-1, 1), 1): 3})
    triples = char.as_sorted_triples()
    assert triples == sorted(triples)
    assert ((-1, 1), 1, 3) in triples


# -- differential test of pair_character ------------------------------------

def reference_pair_character(d, d_prime, n):
    """The docstring formula summed block by block: each geom_block character
    is re-keyed to a_j - a_{j'} + k x and added or subtracted as a Character,
    with the entries read through Tableau.entry."""
    def block(count, j, j_prime):
        return Character({pair_weight(j, j_prime, w.x_coeff, n): mult
                          for w, mult in geom_block(count).terms.items()})

    total = Character()
    for i in range(1, n):
        for j_prime in range(1, i + 1):
            source = d_prime.entry(i, j_prime)
            for j in range(1, i + 2):
                total = total + block(source - d.entry(i + 1, j), j, j_prime)
            for j in range(1, i + 1):
                total = total - block(source - d.entry(i, j), j, j_prime)
    return total


@st.composite
def tableau_pairs(draw):
    n = draw(st.integers(2, 5))

    def tableau():
        gamma = tuple(draw(st.integers(0, 3)) for _ in range(n - 1))
        return draw(st.sampled_from(enumerate_fixed_points(n, gamma)))

    return n, tableau(), tableau()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tableau_pairs())
# an off-diagonal pair whose blocks have negative, zero and positive counts
@example((3, Tableau([(2,), (0, 1)]), Tableau([(1,), (1, 0)])))
@example((3, Tableau([(1,), (1, 0)]), Tableau([(2,), (0, 1)])))
def test_pair_character_matches_block_reference(case):
    n, d, d_prime = case
    char = pair_character(d, d_prime, n)
    assert char == reference_pair_character(d, d_prime, n)
    assert 0 not in char.terms.values()


# -- differential test of the step-block pair_counts -------------------------

def direct_pair_counts(d, d_prime, n):
    """The block formula as one loop over (step, source, target): every block
    G(source - target) is added key by key, without step caching."""
    acc = {}
    rows = d.rows + ((0,) * n,)
    for i, sources in enumerate(d_prime.rows):
        for j_prime, source in enumerate(sources):
            for targets, sign in ((rows[i + 1], 1), (rows[i], -1)):
                for j, target in enumerate(targets):
                    count = source - target
                    if count > 0:
                        ks, mult = range(1, count + 1), sign
                    else:
                        ks, mult = range(0, count, -1), -sign
                    a, b = (j, j_prime) if j != j_prime else (0, 0)
                    for k in ks:
                        acc[(a, b, k)] = acc.get((a, b, k), 0) + mult
    return {key: mult for key, mult in acc.items() if mult}


@st.composite
def shifted_pairs_of_different_degrees(draw):
    n = draw(st.integers(2, 6))
    top = 3 if n <= 4 else 2
    gamma = tuple(draw(st.integers(0, top)) for _ in range(n - 1))
    other = draw(st.tuples(*[st.integers(0, top)] * (n - 1)).filter(lambda g: g != gamma))
    d = draw(st.sampled_from(enumerate_fixed_points(n, gamma)))
    d_prime = draw(st.sampled_from(enumerate_fixed_points(n, other)))
    # shift_defect pairs a tableau with a shifted one
    return n, d.shift(draw(st.integers(0, 3))), d_prime


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shifted_pairs_of_different_degrees())
def test_step_block_pair_counts_match_direct_loop(case):
    n, d, d_prime = case
    for first, second in ((d, d_prime), (d_prime, d), (d, d)):
        expected = direct_pair_counts(first, second, n)
        counts = pair_counts(first, second, n)
        assert counts == expected
        # the returned map is the caller's own: mutating it leaves the cache intact
        counts.clear()
        counts[(0, 0, 0)] = 7
        assert pair_counts(first, second, n) == expected


def test_pair_count_rows_match_the_direct_loop_on_every_pair():
    """The shared-prefix walk, its cancelled keys dropped, is the direct block
    loop on every ordered pair with row sums <= 5, and on rows that are not
    its columns: row sums <= 3 against every row sum <= 5, reversed."""
    cases = []
    for n in (2, 3, 4):
        tabs = [t for g in degree_vectors(n - 1, 5) for t in enumerate_fixed_points(n, g)]
        cases.append((tabs, tabs, n))
    n = 3
    rows = [t for g in degree_vectors(n - 1, 3) for t in enumerate_fixed_points(n, g)]
    columns = [t for g in degree_vectors(n - 1, 5) for t in enumerate_fixed_points(n, g)][::-1]
    cases.append((rows, columns, n))
    for tableaux, columns, n in cases:
        maps = list(pair_count_rows(tableaux, columns, n))
        assert len(maps) == len(tableaux)
        for d, row in zip(tableaux, maps):
            assert len(row) == len(columns)
            for dp, counts in zip(columns, row):
                assert {k: m for k, m in counts.items() if m} == direct_pair_counts(d, dp, n)


def reference_step_counts(sources, upper, lower):
    """Flag step i key by key, as step_counts summed it before a step became
    runs: each block's oriented interval (s - u, s - l] of k is walked one k
    at a time, and the diagonal blocks share (0, 0)."""
    acc = {}
    for j_prime, s in enumerate(sources):
        for j, (u, l) in enumerate(zip(upper + (s,), lower)):
            lo, hi = s - u, s - l
            ks, mult = (range(lo + 1, hi + 1), 1) if lo <= hi else (range(hi + 1, lo + 1), -1)
            a, b = (j, j_prime) if j != j_prime else (0, 0)
            for k in ks:
                acc[(a, b, k)] = acc.get((a, b, k), 0) + mult
    return {key: mult for key, mult in acc.items() if mult}


def test_step_runs_expand_to_the_per_k_block_loop():
    """Every flag step of every pair (d, d') with n <= 4 and row sums <= 5,
    sources d'_i != d_i included: the runs are disjoint per (j, j') and
    nonzero, and expand to the per-k loop's map."""
    steps = set()
    for n in (2, 3, 4):
        tabs = [t for g in degree_vectors(n - 1, 5) for t in enumerate_fixed_points(n, g)]
        for i in range(n - 1):
            pairs = {(t.rows[i], (t.rows + ((0,) * n,))[i + 1]) for t in tabs}
            steps |= {(d.rows[i], upper, lower) for d in tabs for upper, lower in pairs}
    assert len(steps) == 1156
    for step in steps:
        runs = characters.step_intervals(*step)
        assert all(lo < hi and mult for _, _, lo, hi, mult in runs)
        table = characters.expand_runs(runs)
        assert len(table) == sum(hi - lo for _, _, lo, hi, _ in runs)  # no key twice
        assert table == reference_step_counts(*step)


def test_pair_counts_reads_the_prefix_walk(monkeypatch):
    """pair_counts is the two-point case of pair_count_rows, not a second loop."""
    calls = []
    original = characters.pair_count_rows

    def recorder(tableaux, columns, n):
        calls.append((tuple(tableaux), tuple(columns)))
        return original(tableaux, columns, n)

    monkeypatch.setattr(characters, "pair_count_rows", recorder)
    d, d_prime = Tableau([(2,), (0, 1)]), Tableau([(1,), (1, 0)])
    assert pair_counts(d, d_prime, 3) == direct_pair_counts(d, d_prime, 3)
    assert calls == [((d,), (d_prime,))]


def test_pair_counts_expands_each_step_once(monkeypatch):
    """pair_counts walks its own pair only: one step_intervals call per flag
    step, three at n = 4."""
    calls = []
    original = characters.step_intervals

    def recorder(*step):
        calls.append(step)
        return original(*step)

    monkeypatch.setattr(characters, "step_intervals", recorder)
    d = Tableau([(2,), (1, 1), (0, 1, 1)])
    d_prime = Tableau([(1,), (1, 1), (1, 0, 0)])
    assert pair_counts(d, d_prime, 4) == direct_pair_counts(d, d_prime, 4)
    assert len(calls) == len(set(calls)) == 3


def test_pair_count_rows_rejects_a_foreign_rank():
    with pytest.raises(ValueError):
        next(pair_count_rows([Tableau.zero(3)], [Tableau.zero(2)], 2))
    with pytest.raises(ValueError):
        next(pair_count_rows([Tableau.zero(2)], [Tableau.zero(3)], 2))


# -- differential test of the integer count map ------------------------------

def parsed_rows(char):
    """(j, j', k, mult) rows read back from a Character by parsing each
    TorusWeight's a-part (0-indexed; x-only weights read j = j' = 0): an
    oracle for the count-map tables that never sees pair_counts' keys."""
    rows = []
    for w, mult in char.terms.items():
        a = w.a_coeffs
        j = a.index(1) if 1 in a else 0
        j_prime = a.index(-1) if -1 in a else 0
        assert sum(map(abs, a)) == 2 * (j != j_prime), w
        rows.append((j, j_prime, w.x_coeff, mult))
    return sorted(rows)


def table_rows(table):
    return sorted((*key, mult) for key, mult in table.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tableau_pairs())
def test_weight_tables_match_parsed_characters(case):
    n, d, d_prime = case
    assert 0 not in pair_counts(d, d_prime, n).values()
    assert table_rows(weight_table(pair_counts(d, d_prime, n))) == \
        parsed_rows(pair_character(d, d_prime, n))
    for t in (d, d_prime):
        assert table_rows(tangent_table(t, n)) == parsed_rows(pair_character(t, t, n))
        # the public edge keeps TorusWeight sort order
        assert tangent_weights(t, n) == tuple(pair_character(t, t, n).weights())


def test_weight_table_rejects_negative_multiplicity():
    with pytest.raises(InternalInconsistency):
        weight_table({(0, 1, 2): 1, (1, 0, 0): -1})


@pytest.mark.parametrize("counts", [
    {(0, 0, 0): 1, (0, 0, 1): 1},   # a zero weight
    {(0, 0, 1): 1},                 # one weight where two are due
])
def test_tangent_table_rejects_corrupt_counts(monkeypatch, counts):
    monkeypatch.setattr(characters, "pair_counts", lambda d, d_prime, n: dict(counts))
    with pytest.raises(InternalInconsistency):
        tangent_table(Tableau([(1,)]), 2)
