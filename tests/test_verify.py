import json
from fractions import Fraction

import pytest

import quasiflags.characters as characters
import quasiflags.eigenfunctions as eigenfunctions
import quasiflags.localization as localization
import quasiflags.verify as verify
from quasiflags.eigenfunctions import toda_coefficients, toda_limit_ratios
from quasiflags.errors import InternalInconsistency, NonGenericParameter
from quasiflags.localization import ParameterPoint
from quasiflags.sampling import SplitMix64
from quasiflags.scalars import format_rational
from quasiflags.series import degree_vectors
from quasiflags.tableaux import Tableau, enumerate_fixed_points
from quasiflags.verify import (GenericityExhausted, run_properties, verify_main,
                               verify_toda)


def test_verify_main_passes_small_scales():
    for n, degree in ((2, 5), (3, 3)):
        report = verify_main(n, degree, trials=3, seed=42)
        assert report["verdict"] == "pass"
        assert len(report["trials"]) == 3
        for trial in report["trials"]:
            assert trial["all_equal"]
            assert trial["first_mismatch"] is None


def test_verify_main_explicit_point():
    pt = ParameterPoint((Fraction(7, 3), Fraction(-7, 3)), Fraction(1), Fraction(3, 2))
    report = verify_main(2, 6, trials=5, seed=0, explicit_point=pt)
    assert report["verdict"] == "pass"
    assert len(report["trials"]) == 1   # explicit point short-circuits sampling


def test_verify_main_explicit_nongeneric_point_exhausts():
    pt = ParameterPoint((Fraction(1), Fraction(-1)), Fraction(1), Fraction(1))
    with pytest.raises(GenericityExhausted):
        verify_main(2, 4, trials=1, seed=0, explicit_point=pt)


@pytest.mark.parametrize("run, patched, drop_last", [
    (lambda: verify_main(3, 3, 1, 1), "chern_series_pairs",
     lambda pairs: tuple(side[:-1] for side in pairs)),
    (lambda: verify._coupling_zero_record(3, 3, SplitMix64(1)), "chern_series_coefficients",
     lambda values: values[:-1]),
    (lambda: verify._scaling_record(3, 3, SplitMix64(1)), "chern_series_coefficients",
     lambda values: values[:-1]),
], ids=["verify-main", "coupling-zero", "scaling"])
def test_a_short_coefficient_list_fails_the_run(monkeypatch, run, patched, drop_last):
    """Each row pairs one degree with one coefficient: a Chern list (in the
    verify runs, a pair of int lists) one coefficient short raises instead
    of passing on fewer rows."""
    original = getattr(verify, patched)
    monkeypatch.setattr(verify, patched, lambda *args: drop_last(original(*args)))
    with pytest.raises(ValueError, match="zip"):
        run()


def test_nongeneric_point_skips_the_eigenfunction_product(monkeypatch):
    """A point that kills a fixed-point denominator is dropped before the
    analytic side runs: a = 0 is not resonant, but every a_j - a_j' vanishes."""
    def forbidden(*args):
        raise AssertionError("eigenfunction product computed at a non-generic point")

    monkeypatch.setattr(verify, "cs_product_pairs", forbidden)
    pt = ParameterPoint((Fraction(0),) * 3, Fraction(1), Fraction(1))
    with pytest.raises(GenericityExhausted):
        verify_main(3, 2, trials=1, seed=0, explicit_point=pt)


@pytest.mark.parametrize("run", [
    lambda: verify_main(3, 6, trials=2, seed=52),
    lambda: verify_toda(4, 6, trials=2, seed=12),
])
def test_resonance_is_checked_once_per_attempt(monkeypatch, run):
    """Each attempt checks resonance through the run's degree once, and the
    analytic side reuses that check.  (verify-toda's strong-coupling tails are
    recursions of degree <= 2 with checks of their own.)  Both runs redraw
    one point, so they make three attempts for two trials."""
    degrees = []
    original = eigenfunctions.check_nonresonant

    def counted(n, a_over_x, degree):
        degrees.append(degree)
        return original(n, a_over_x, degree)

    monkeypatch.setattr(eigenfunctions, "check_nonresonant", counted)
    monkeypatch.setattr(verify, "check_nonresonant", counted)
    report = run()
    assert sorted(t["resamples"] for t in report["trials"]) == [0, 1]
    assert degrees.count(report["parameters"]["max_degree"]) == 3


@pytest.mark.parametrize("run, fixed_point_side", [
    (verify_main, "chern_series_pairs"),
    (verify_toda, "volume_pairs"),
])
def test_resonance_is_decided_before_the_fixed_point_side(monkeypatch, run, fixed_point_side):
    """(lam, lam) = s at gamma = (2,) for a = (1, -1)."""
    def forbidden(*args):
        raise AssertionError("fixed-point side computed at a resonant point")

    monkeypatch.setattr(verify, fixed_point_side, forbidden)
    pt = ParameterPoint((Fraction(1), Fraction(-1)), Fraction(1), Fraction(1))
    with pytest.raises(GenericityExhausted) as excinfo:
        run(2, 3, trials=1, seed=0, explicit_point=pt)
    assert str(excinfo.value) == ("explicit point is not generic: (lam, lam) = s at "
                                  "gamma=(2,); highest weight is not generic")


def test_verify_toda_passes():
    report = verify_toda(3, 3, trials=3, seed=9)
    assert report["verdict"] == "pass"
    for trial in report["trials"]:
        for diag in trial["limit_diagnostics"]:
            assert diag["errors_strictly_decreasing"]


def test_properties_pass_default_scale():
    report = run_properties(3, 3, seed=15)
    failed = [r["name"] for r in report["records"] if not r["passed"]]
    assert report["verdict"] == "pass", failed


def test_reports_are_deterministic_and_worker_invariant():
    base = json.dumps(verify_main(3, 3, trials=2, seed=77), sort_keys=True)
    again = json.dumps(verify_main(3, 3, trials=2, seed=77), sort_keys=True)
    threaded = json.dumps(verify_main(3, 3, trials=2, seed=77, jobs=3), sort_keys=True)
    assert base == again == threaded
    other_seed = json.dumps(verify_main(3, 3, trials=2, seed=78), sort_keys=True)
    assert base != other_seed


def _transposed_step_intervals(original):
    def flipped(sources, upper, lower):
        return tuple((j_prime, j, lo, hi, mult)
                     for j, j_prime, lo, hi, mult in original(sources, upper, lower))
    return flipped


@pytest.mark.parametrize("run, lhs, rhs", [
    (verify_main, "-688/875", "-2096/2575"),
    (verify_toda, "1/105", "-1/103"),
], ids=["verify-main", "verify-toda"])
def test_injected_sign_fault_fails_at_lowest_degree(monkeypatch, run, lhs, rhs):
    """Each side is rendered on its own once they differ: a row's strings
    agree exactly when its values do.  The fault-free run first caches the
    n=2, D=4 graph, so the fault shows only if the reset drops that graph."""
    assert run(2, 4, trials=1, seed=5)["verdict"] == "pass"
    original = characters.step_intervals
    localization._transfer_table.cache_clear()
    monkeypatch.setattr(characters, "step_intervals", _transposed_step_intervals(original))
    try:
        report = run(2, 4, trials=1, seed=5)
        assert report["verdict"] == "fail"
        trial = report["trials"][0]
        assert trial["first_mismatch"] == "1"
        assert trial["comparisons"][0]["equal"]      # degree zero still agrees
        assert not trial["comparisons"][1]["equal"]  # lowest degree witnesses
        assert (trial["comparisons"][1]["lhs"], trial["comparisons"][1]["rhs"]) == (lhs, rhs)
        for c in trial["comparisons"]:
            assert (c["lhs"] == c["rhs"]) == c["equal"]
    finally:
        monkeypatch.undo()
        localization._transfer_table.cache_clear()


# the raising call comes after the wrong entry, at the same point
@pytest.mark.parametrize("record, args, raising, at", [
    (verify._coupling_zero_record, (3, 3), "kostant_count", 3),
    (verify._scaling_record, (3, 3), "chern_series_coefficients", 3),
    (verify._strong_coupling_record, (3,), "chern_series_coefficients", 2),
])
def test_abandoned_point_leaves_no_witnesses(monkeypatch, record, args, raising, at):
    """The first Chern list comes back with a wrong second entry, and call
    `at` of `raising` meets a vanishing weight, so the record resamples;
    every value at the point it keeps is right, and the wrong value died
    with the abandoned point."""
    original_list = verify.chern_series_coefficients
    calls, raised = [], []

    def faulty_list(*args):
        calls.append(args)
        values = original_list(*args)
        if len(calls) == 1:
            values[1] = -values[1]
        return values

    def faulty_raising(*args):
        raised.append(args)
        if len(raised) == at:
            raise NonGenericParameter("injected")
        return original_raising(*args)

    monkeypatch.setattr(verify, "chern_series_coefficients", faulty_list)
    original_raising = getattr(verify, raising)  # faulty_list when it is the list
    monkeypatch.setattr(verify, raising, faulty_raising)
    rec = record(*args, SplitMix64(1))
    assert len(raised) > at
    assert rec["passed"], rec["witnesses"]
    assert rec["witnesses"] == []


def test_scaling_record_computes_each_base_coefficient_once(monkeypatch):
    """One Chern list at the base point, then one per scale factor t."""
    original = verify.chern_series_coefficients
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, "chern_series_coefficients", counted)
    assert verify._scaling_record(3, 3, SplitMix64(1))["passed"]
    assert len(calls) == 1 + 3


def test_eigen_record_reaches_the_product_kernel(monkeypatch):
    """The CS tail is the conjugated recursion's product folded back, so a
    product kernel off by one at its top coefficient fails the eigen record
    at each n."""
    kernel = eigenfunctions.cs_product_pairs

    def off_by_one(checked, m):
        bn, bd = kernel(checked, m)
        bn[-1] += bd[-1]
        return bn, bd

    monkeypatch.setattr(eigenfunctions, "cs_product_pairs", off_by_one)
    record = verify._eigen_record(4, 5, SplitMix64(3))
    assert not record["passed"]
    assert record["witnesses"] == [f"n={n}: operator image differs from s * series"
                                   for n in (2, 3)]


def _fails_once(original):
    calls = []

    def injected(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise NonGenericParameter("injected")
        return original(*args, **kwargs)
    return injected


# at seed 2 the point drawn after the injected failure is generic in every case
@pytest.mark.parametrize("patched, run, draws", [
    ("twist_constant", lambda: verify._twist_ratio_record(2, SplitMix64(2)),
     ["a", "a", "a"]),
    ("chern_series_coefficients", lambda: verify._coupling_zero_record(2, 2, SplitMix64(2)),
     ["a", "a"]),
    ("chern_series_coefficients", lambda: verify._scaling_record(2, 2, SplitMix64(2)),
     ["a", "m", "a", "m"]),
    ("chern_series_coefficients", lambda: verify._strong_coupling_record(2, SplitMix64(2)),
     ["a", "a"]),
    ("cs_coefficients", lambda: verify._eigen_record(2, 2, SplitMix64(2)),
     ["a", "m", "a", "m"]),
    ("chern_series_pairs", lambda: verify_main(2, 2, trials=1, seed=2),
     ["a", "m", "a", "m"]),
    ("volume_pairs", lambda: verify_toda(2, 2, trials=1, seed=2),
     ["a", "a"]),
])
def test_nongeneric_attempt_redraws_the_whole_point(monkeypatch, patched, run, draws):
    """A point dropped as non-generic is redrawn whole: a first, then m when
    m is sampled; a fixed or zero m takes nothing from the stream."""
    log = []
    draw_a, draw_m = verify.sample_zero_sum_integers, verify.sample_coupling

    def logged_a(*args, **kwargs):
        log.append("a")
        return draw_a(*args, **kwargs)

    def logged_m(*args, **kwargs):
        log.append("m")
        return draw_m(*args, **kwargs)

    monkeypatch.setattr(verify, "sample_zero_sum_integers", logged_a)
    monkeypatch.setattr(verify, "sample_coupling", logged_m)
    monkeypatch.setattr(verify, patched, _fails_once(getattr(verify, patched)))
    result = run()
    assert log == draws
    if "trials" in result:
        assert [t["resamples"] for t in result["trials"]] == [1]
        assert result["verdict"] == "pass"
    else:
        assert result["passed"], result["witnesses"]


# the twist record is the first property record that draws a point
@pytest.mark.parametrize("patched, run", [
    ("chern_series_pairs", lambda: verify_main(2, 2, trials=1, seed=1)),
    ("twist_constant", lambda: run_properties(3, 3, seed=1)),
])
def test_genericity_is_exhausted_after_65_draws(monkeypatch, patched, run):
    draws = []
    draw_a = verify.sample_zero_sum_integers

    def counted(*args):
        draws.append(args)
        return draw_a(*args)

    def never_generic(*args):
        raise NonGenericParameter("injected")

    monkeypatch.setattr(verify, "sample_zero_sum_integers", counted)
    monkeypatch.setattr(verify, patched, never_generic)
    with pytest.raises(GenericityExhausted, match="^no generic point found in 64 resamples$"):
        run()
    assert len(draws) == 65


def test_fault_free_after_cache_reset():
    report = verify_main(2, 4, trials=1, seed=5)
    assert report["verdict"] == "pass"


def test_toda_diagnostic_couplings_scale_with_the_point():
    # seed 2002 draws a = (26, 50, -50, -26); with a_2 - a_3 = 100 the error
    # curve at the fixed couplings 100, 1e4, 1e6 turns near m = 100
    report = verify_toda(4, 2, trials=1, seed=2002)
    trial = report["trials"][0]
    assert trial["point"]["a"] == ["26", "50", "-50", "-26"]
    assert report["verdict"] == "pass"
    for diag in trial["limit_diagnostics"]:
        assert diag["couplings"] == ["1020100", "102010000", "10201000000"]
        assert diag["errors_strictly_decreasing"]


def test_toda_diagnostics_are_the_limit_ratios():
    # verify_toda reads every diagonal gamma from one CS tail per coupling
    for seed in (1, 2002):
        trial = verify_toda(4, 3, trials=1, seed=seed)["trials"][0]
        a_over_x = ParameterPoint(tuple(map(Fraction, trial["point"]["a"])),
                                  Fraction(trial["point"]["x"]), Fraction(0)).a_over_x()
        assert len(trial["limit_diagnostics"]) == 9
        for diag in trial["limit_diagnostics"]:
            gamma = tuple(int(d) for d in diag["gamma"].split(","))
            couplings = [Fraction(m) for m in diag["couplings"]]
            ratios = toda_limit_ratios(4, gamma, a_over_x, couplings)
            assert diag["ratios"] == [format_rational(r) for r in ratios]


@pytest.mark.parametrize("n, max_degree, a, x", [
    (3, 6, "5/3,1/2,-13/6", "2"),
    (4, 5, "3/7,1/2,-1/3,-25/42", "-3/5"),
])
def test_toda_targets_at_x_other_than_one_are_the_unit_gauge_coefficients(n, max_degree, a, x):
    pt = ParameterPoint(tuple(Fraction(v) for v in a.split(",")), Fraction(x))
    trial = verify_toda(n, max_degree, trials=1, seed=1, explicit_point=pt)["trials"][0]
    unit_gauge = toda_coefficients(n, pt.a_over_x(), 2)
    assert len(trial["limit_diagnostics"]) == n - 1 + n * (n - 1) // 2
    for diag in trial["limit_diagnostics"]:
        gamma = tuple(int(d) for d in diag["gamma"].split(","))
        assert diag["target"] == format_rational(unit_gauge.coefficient(gamma))


def repacked(walk, faults):
    """The walk (layout, rows) of pair_count_rows with faults[(row, column)]
    merged into that pair's decoded count map, every map packed again under
    a layout whose window and bound hold the injected keys and values."""
    layout, rows = walk
    entries = [item for fault in faults.values() for item in fault.items()]
    window = max([layout.window] + [max(k, 1 - k) for (_, _, k), _ in entries])
    bound = max([1 << layout.width] + [abs(mult) for _, mult in entries])
    wide = characters.CountLayout(layout.n, window, bound)

    def pack(counts):
        return wide.bias + wide.pack([(j, j_prime, k - 1, k, mult)
                                      for (j, j_prime, k), mult in counts.items()])

    def edited():
        for i, row in enumerate(rows):
            maps = list(map(layout.decode, row))
            for (r, c), fault in faults.items():
                if r == i:
                    maps[c] = {**maps[c], **fault}
            yield list(map(pack, maps))
    return wide, edited()


def inject_into_zero_pair(monkeypatch, entries):
    """Make the character record see `entries` in the zero pair's count map."""
    original = verify.pair_count_rows

    def injected(tableaux, columns, n):
        zero = tableaux.index(Tableau.zero(n))
        return repacked(original(tableaux, columns, n), {(zero, zero): entries})

    monkeypatch.setattr(verify, "pair_count_rows", injected)


def test_negative_multiplicity_witness_names_the_first_key(monkeypatch):
    """The character record names the first negative multiplicity in sorted
    key order; the rank stays right, so that is the only witness."""
    inject_into_zero_pair(monkeypatch, {(1, 0, 5): -1, (0, 1, 2): -2, (0, 0, 9): 3})
    rec = verify._character_record(2, 1)
    assert not rec["passed"]
    assert rec["witnesses"] == [
        "n=2 at ([0], [0]): negative multiplicity -2 at (j, j', k) = (0, 1, 2)"]


def test_zero_weight_is_checked_on_the_pair_loop_map(monkeypatch):
    """The diagonal pair's count map is the tangent character: a zero weight
    there breaks the rank, then is named as a tangent failure."""
    inject_into_zero_pair(monkeypatch, {(0, 0, 0): 1})
    rec = verify._character_record(2, 1)
    assert rec["witnesses"] == [
        "n=2 rank 1 != 0 at ([0], [0])",
        "n=2 tangent failure at [0]: zero weight in tangent space of Tableau([[0]])"]


def test_a_cancelled_zero_weight_key_is_no_tangent_failure(monkeypatch):
    """A zero-weight key whose multiplicity cancelled to 0 is no zero weight."""
    inject_into_zero_pair(monkeypatch, {(0, 0, 0): 0})
    rec = verify._character_record(2, 1)
    assert rec["passed"] and rec["witnesses"] == []


def inject_at(monkeypatch, rank, faults):
    """Merge faults[(row, column)] into that pair's count map, at ambient rank `rank` only."""
    original = verify.pair_count_rows

    def injected(tableaux, columns, n):
        walk = original(tableaux, columns, n)
        return repacked(walk, faults) if n == rank else walk

    monkeypatch.setattr(verify, "pair_count_rows", injected)


def pair_loop_witnesses(n, max_degree):
    """Every witness of the character record, pair by pair, in order and uncut."""
    witnesses = []
    for nn in range(2, n + 1):
        points = [t for g in degree_vectors(nn - 1, min(max_degree, 5))
                  for t in enumerate_fixed_points(nn, g)]
        layout, rows = verify.pair_count_rows(points, points, nn)
        for d, row in zip(points, rows):
            for dp, counts in zip(points, map(layout.decode, row)):
                total = sum(counts.values())
                expected = sum(d.degree()) + sum(dp.degree())
                if total != expected:
                    witnesses.append(f"n={nn} rank {total} != {expected} at "
                                     f"({d.as_flat_list()}, {dp.as_flat_list()})")
                if any(mult < 0 for mult in counts.values()):
                    with pytest.raises(InternalInconsistency) as exc:
                        characters.weight_table(counts)
                    witnesses.append(
                        f"n={nn} at ({d.as_flat_list()}, {dp.as_flat_list()}): {exc.value}")
                if d is dp and counts.get((0, 0, 0)):
                    witnesses.append(f"n={nn} tangent failure at {d.as_flat_list()}: "
                                     f"zero weight in tangent space of {d}")
    return witnesses


def test_row_check_names_off_diagonal_faults_deep_in_a_row(monkeypatch):
    """Row 9 of n=3 ([1, 1, 1]): column 11 loses rank and goes negative, and
    column 6 goes negative at an unchanged rank, so only the row's minimum
    sees it."""
    inject_at(monkeypatch, 3, {(9, 11): {(0, 1, 7): -2},
                               (9, 6): {(1, 0, 8): -1, (2, 0, 8): 1}})
    rec = verify._character_record(3, 3)
    assert rec["witnesses"] == [
        "n=3 at ([1, 1, 1], [2, 0, 0]): negative multiplicity -1 at (j, j', k) = (1, 0, 8)",
        "n=3 rank 4 != 6 at ([1, 1, 1], [2, 1, 0])",
        "n=3 at ([1, 1, 1], [2, 1, 0]): negative multiplicity -2 at (j, j', k) = (0, 1, 7)"]
    assert rec["witnesses"] == pair_loop_witnesses(3, 3)


def test_row_check_names_faults_in_two_rows_in_row_order(monkeypatch):
    """An extra weight in row 2's last pair, and on row 4's diagonal a zero
    weight traded for one of the tangent weights, so the rank holds and only
    the diagonal check sees it: the witnesses follow the rows, as the pair
    loop gives them."""
    inject_at(monkeypatch, 3, {(4, 4): {(0, 0, 0): 1, (0, 0, 1): 1},
                               (2, 12): {(1, 2, 3): 1}})
    rec = verify._character_record(3, 3)
    assert rec["witnesses"] == [
        "n=3 rank 5 != 4 at ([1, 0, 0], [3, 0, 0])",
        "n=3 tangent failure at [1, 0, 1]: zero weight in tangent space of "
        "Tableau([[1], [0, 1]])"]
    assert rec["witnesses"] == pair_loop_witnesses(3, 3)


# at the unshrunk point these four drew a spread of a/x where m = 1e3 lands
# closer to the volume than m = 1e6 at some gamma
@pytest.mark.parametrize("n, seed", [(14, 24), (16, 12), (16, 23), (24, 3)])
def test_strong_coupling_record_holds_at_wide_spreads(n, seed):
    assert verify._strong_coupling_record(n, SplitMix64(seed))["passed"]


def test_cartan_record_caps_its_degree():
    rec = verify._cartan_record(3, 1, SplitMix64(1))
    assert rec["passed"]
    assert rec["scale"] == "n=3, |gamma|<=1"


def test_verify_runs_enumerate_no_fixed_points(monkeypatch):
    """Away from local poles of the step factors, verify-main and verify-toda
    sum over the row-transfer graph alone."""
    def forbidden(*args):
        raise AssertionError("per-point kernel called")

    monkeypatch.setattr(localization, "enumerate_fixed_points", forbidden)
    monkeypatch.setattr(localization, "tangent_table", forbidden)
    assert verify_main(4, 4, trials=2, seed=1)["verdict"] == "pass"
    assert verify_toda(4, 4, trials=2, seed=1)["verdict"] == "pass"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_series_records_enumerate_no_fixed_points(monkeypatch, seed):
    """The zero-coupling, scaling and strong-coupling records read the
    row-transfer lists, at x = 1 and at the scaled points alike."""
    def forbidden(*args):
        raise AssertionError("per-point kernel called")

    monkeypatch.setattr(localization, "enumerate_fixed_points", forbidden)
    monkeypatch.setattr(localization, "tangent_table", forbidden)
    assert verify._coupling_zero_record(3, 3, SplitMix64(seed))["passed"]
    assert verify._scaling_record(3, 3, SplitMix64(seed))["passed"]
    assert verify._strong_coupling_record(3, SplitMix64(seed))["passed"]


def test_verify_runs_label_from_the_built_lattice(monkeypatch):
    """The gamma labels come from the lattice the resonance check builds,
    so a verify run enumerates no degree vectors of its own."""
    def forbidden(*args):
        raise AssertionError("degree vectors enumerated again")

    monkeypatch.setattr(verify, "degree_vectors", forbidden)
    for run in (verify_main, verify_toda):
        report = run(3, 4, trials=2, seed=1)
        assert report["verdict"] == "pass"
        for trial in report["trials"]:
            assert [row["gamma"] for row in trial["comparisons"]] == [
                verify.format_gamma(g) for g in degree_vectors(2, 4)]


# the Fraction lists over the pair functions, by module
FRACTION_LISTS = [(localization, "chern_series_coefficients"),
                  (localization, "volume_coefficients"),
                  (eigenfunctions, "cs_product_coefficients"),
                  (eigenfunctions, "toda_tail_coefficients")]


def test_verify_runs_build_no_fraction_lists(monkeypatch):
    """Both sides are compared as int pairs: with the four Fraction lists
    raising, verify-main and verify-toda still pass, at the local-pole
    points of seeds 8 and 11 too, whose poisoned degrees the kernel fills."""
    def forbidden(*args):
        raise AssertionError("Fraction list built on the verify path")

    for module, name in FRACTION_LISTS:
        monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(verify, name, forbidden, raising=False)
    assert verify_main(3, 6, trials=2, seed=1)["verdict"] == "pass"
    assert verify_main(8, 3, trials=1, seed=8)["verdict"] == "pass"
    assert verify_toda(4, 6, trials=2, seed=11)["verdict"] == "pass"


def test_a_row_differing_only_in_its_denominator_fails(monkeypatch):
    """A row is equal only when both ints of its pairs are: an rhs pair with
    the lhs numerator over another denominator fails the run at its gamma,
    and the rhs is rendered on its own."""
    original = verify.cs_product_pairs

    def skewed(checked, m):
        nums, dens = original(checked, m)
        dens[4] += 1
        return nums, dens

    monkeypatch.setattr(verify, "cs_product_pairs", skewed)
    report = verify_main(3, 3, trials=1, seed=1)
    trial = report["trials"][0]
    row = trial["comparisons"][4]
    assert report["verdict"] == "fail"
    assert trial["first_mismatch"] == row["gamma"] == "1,1"
    assert row == {"gamma": "1,1", "lhs": "23915744/592249", "rhs": "23915744/592250",
                   "equal": False}
    assert all(r["equal"] for r in trial["comparisons"] if r is not row)


def _plus(extra):
    return lambda original: lambda *args: original(*args) + extra


def _raising(exc):
    def patched(*args):
        raise exc
    return lambda original: patched


def _algebra(index):
    return lambda: verify._algebra_records(3, SplitMix64(1))[index]


# (record, {name in verify: original -> replacement}, its first witness)
WITNESS_CASES = {
    "census-count": (lambda: verify._census_record(3, 2), {"kostant_count": _plus(1)},
                     "n=2 gamma=0: 1 != 2"),
    "census-duplicates": (
        lambda: verify._census_record(3, 2),
        {"enumerate_fixed_points": lambda original: lambda *args: original(*args) * 2,
         "kostant_count": lambda original: lambda *args: 2 * original(*args)},
        "n=2 gamma=0: duplicates"),
    "dimension": (lambda: verify._dimension_record(3, 2), {"pairing": _plus(1)},
                  "n=2 gamma=0"),
    "shift-defect-distinct": (
        lambda: verify._shift_defect_record(3),
        {"shift_defect": lambda original: lambda d, d_prime, m, n: original(
            d, d_prime, m, n).shift_x(sum(d.degree()))},
        "n=2 m=1: 3 distinct defects"),
    "twist": (lambda: verify._twist_ratio_record(3, SplitMix64(1)),
              {"twist_constant": lambda original: lambda *args: 2 * original(*args)},
              "n=2 m=1: 7 pairs off constant"),
    "scaling-volume": (
        lambda: verify._scaling_record(3, 3, SplitMix64(1)),
        {"volume_coefficients": lambda original: lambda n, degree, pt: (
            original(n, degree, pt) if pt.x == 1
            else [2 * v for v in original(n, degree, pt)])},
        "volume scaling off at 0,1, t=2"),
    # every volume doubled: the ratios tend to 1/2, rendered as rational strings
    "strong-coupling": (
        lambda: verify._strong_coupling_record(3, SplitMix64(3)),
        {"volume_coefficients": lambda original: lambda *args: [
            2 * v for v in original(*args)]},
        "gamma=0,1: ratios 136383247/272000000, 136000383000247/272000000000000"),
    "surface-other-error": (lambda: verify._nongeneric_surface_record(3),
                            {"chern_series_coefficients": _raising(ZeroDivisionError)},
                            "raised ZeroDivisionError instead"),
    "surface-no-error": (lambda: verify._nongeneric_surface_record(3),
                         {"chern_series_coefficients": lambda original: lambda *args: []},
                         "no error raised"),
    "cartan": (lambda: verify._cartan_record(3, 3, SplitMix64(1)),
               {"cartan_eigenvalue": _plus(1)}, "i=1 gamma=0,0"),
    "matrix-units": (
        _algebra(0),
        {"indecomposable_matrix": lambda original: lambda i, l, n: (
            original(i, l, n) + verify.Matrix.unit(i, i, n))},
        "n=2 [i;l]=[1;1]"),
    "unipotent": (_algebra(1), {"unipotent_product": _raising(AssertionError)},
                  "n=2 descending product wrong"),
    "root-pairs": (_algebra(1), {"positive_root_pairs_descending": lambda original: (
        lambda n: original(n)[::-1])}, "n=3 E_12 E_23 != 0"),
    "ascending": (_algebra(1), {"root_exponential_product": lambda original: (
        lambda n, pairs: verify.all_ones_unitriangular(n))},
                  "n=3 ascending order should break the identity"),
    "hall": (_algebra(2), {"hall_count": _plus(1)},
             "[2;1],[1;1] in [1;2] at q=2: 2 != 1"),
    "structure-constants": (_algebra(3), {"check_product_identity": lambda original: (
        lambda *args: {**original(*args), "holds": False})}, "[1;1] * [1;1]"),
    "conjugator": (_algebra(4), {"conjugator_check": lambda original: (
        lambda *args: {**original(*args), "passed": False})}, "n=2 t=['-1', '-9/2']"),
}


@pytest.mark.parametrize("record, patches, first", WITNESS_CASES.values(),
                         ids=WITNESS_CASES.keys())
def test_property_record_names_an_injected_fault(monkeypatch, record, patches, first):
    """Each property record's witness lines, reached by breaking the callee
    it checks: the record fails and names the fault."""
    for name, patch in patches.items():
        monkeypatch.setattr(verify, name, patch(getattr(verify, name)))
    rec = record()
    assert not rec["passed"]
    assert rec["witnesses"][0] == first
