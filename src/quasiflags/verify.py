"""Identity verification runs.

Each run samples exact rational parameter points from a seeded splitmix64
stream, evaluates both sides of an identity coefficient by coefficient (one
protocol, _run_trials, serves verify-main and verify-toda, which adds only
its strong-coupling diagnostics), and assembles a machine-readable report.
Both sides come as reduced int pairs (nums, dens) with dens > 0, so a row is
equal exactly when its two pairs are, and no Fraction is built per
coefficient outside the kernel's fallback degrees.
Reports contain only mathematical data (no timestamps, no worker counts), are
assembled in a fixed order, and render all scalars as exact rational strings,
so a run is replayable and byte-reproducible from its seed and flags alone.

Both sides of an identity exist only at generic points: every sampled point
of the verify runs and of the five sampled property records comes from
_first_generic, which redraws a non-generic point at most RETRY_BUDGET times.
Every localization series, in the runs and the records alike, is read from
the row-transfer lists (chern_series_pairs and volume_pairs in the runs, their
Fraction lists chern_series_coefficients and volume_coefficients in the
records).
"""

from fractions import Fraction

from .characters import pair_count_rows, pair_counts, shift_defect, weight_table
from .errors import InternalInconsistency, NonGenericParameter
from .eigenfunctions import (apply_cs_operator, check_nonresonant, cs_coefficients,
                             cs_product_pairs, toda_tail_pairs)
from .hall import (QuiverRepClass, all_ones_unitriangular, check_product_identity,
                   conjugator_check, hall_count, indecomposable_matrix,
                   root_exponential_product, unipotent_product)
from .localization import (ParameterPoint, chern_matrix_element, chern_series_coefficients,
                           chern_series_pairs, volume_coefficients, volume_pairs,
                           weight_ratio)
from .matrices import Matrix
from .roots import (embed_degree, kostant_count, pairing,
                    positive_root_pairs_descending, rho, rho_vee)
from .sampling import (SplitMix64, sample_coupling, sample_distinct_nonzero,
                       sample_zero_sum_integers)
from .scalars import format_pair, format_rational
from .series import degree_vectors, root_lattice, total_degree
from .tableaux import Tableau, cartan_eigenvalue, enumerate_fixed_points

RETRY_BUDGET = 64


class GenericityExhausted(Exception):
    """Could not find a generic parameter point within the retry budget."""


def format_gamma(gamma) -> str:
    return ",".join(str(d) for d in gamma)


def _point_record(pt: ParameterPoint) -> dict:
    return {
        "a": [format_rational(ai) for ai in pt.a],
        "x": format_rational(pt.x),
        "m": format_rational(pt.m),
    }


def _first_generic(rng, n, coupling, compute, explicit_point=None):
    """(point, resamples, compute(point)) at the first point where compute
    raises no NonGenericParameter; a point draws a zero-sum a, then m =
    coupling(rng), at x = 1, and is dropped whole, findings included.  Raises
    GenericityExhausted after RETRY_BUDGET resamples or a non-generic explicit
    point."""
    for resamples in range(RETRY_BUDGET + 1):
        pt = explicit_point
        if pt is None:
            a = sample_zero_sum_integers(rng, n)
            pt = ParameterPoint(a, Fraction(1), coupling(rng))
        try:
            return pt, resamples, compute(pt)
        except NonGenericParameter as exc:
            if explicit_point is not None:
                raise GenericityExhausted(f"explicit point is not generic: {exc}") from exc
            if resamples == RETRY_BUDGET:
                raise GenericityExhausted(
                    f"no generic point found in {RETRY_BUDGET} resamples") from exc


def _run_trials(command, n, max_degree, trials, seed, explicit_point, coupling,
                fixed_point_side, analytic_side, diagnostics=None):
    """One _first_generic point per trial (the explicit point makes a single
    trial, and the report echoes the trials run); returns the report.  An
    attempt checks resonance through max_degree, then compares
    fixed_point_side(n, max_degree, pt) with analytic_side(checked, pt) row
    by row, then, if given, adds diagnostics(n, max_degree, pt, rhs, labels)
    as the limit diagnostics.  Each side is a pair of int lists (nums, dens)
    in degree_vectors order, every pair reduced with dens > 0, so a row is
    equal exactly when both its ints are.  The gamma labels are rendered once
    per run, from the lattice check_nonresonant caches, and an equal row's
    value once."""
    labels = [format_gamma(g) for g in root_lattice(n, max_degree).vectors]

    def compute(pt: ParameterPoint) -> dict:
        # resonance first, then the fixed-point side: a non-generic point is
        # dropped before the analytic side is computed
        checked = check_nonresonant(n, pt.a_over_x(), max_degree)
        lhs = fixed_point_side(n, max_degree, pt)
        rhs = analytic_side(checked, pt)
        comparisons, first_mismatch = [], None
        for label, a, b, c, d in zip(labels, *lhs, *rhs, strict=True):
            text = format_pair(a, b)
            row = {"gamma": label, "lhs": text, "rhs": text, "equal": a == c and b == d}
            if not row["equal"]:
                row["rhs"] = format_pair(c, d)
                first_mismatch = first_mismatch or label
            comparisons.append(row)
        result = {"comparisons": comparisons, "all_equal": first_mismatch is None,
                  "first_mismatch": first_mismatch}
        if diagnostics is not None:
            found = diagnostics(n, max_degree, pt, rhs, labels)
            result["limit_diagnostics"] = found
            result["all_equal"] &= all(d["errors_strictly_decreasing"] for d in found)
        return result

    rng = SplitMix64(seed)
    out = []
    for trial in range(trials if explicit_point is None else 1):
        pt, resamples, result = _first_generic(rng, n, coupling, compute, explicit_point)
        out.append({"trial": trial, "point": _point_record(pt),
                    "resamples": resamples, **result})
    return {
        "command": command,
        "parameters": {"n": n, "max_degree": max_degree, "trials": len(out),
                       "seed": seed,
                       "explicit_point": (_point_record(explicit_point)
                                          if explicit_point else None)},
        "trials": out,
        "verdict": "pass" if all(t["all_equal"] for t in out) else "fail",
    }


def verify_main(n: int, max_degree: int, trials: int, seed: int,
                explicit_point: ParameterPoint | None = None, jobs: int = 1) -> dict:
    """Compare the localization series against the eigenfunction product,
    coefficient by coefficient, at sampled (or given) parameter points.
    `jobs` is accepted and ignored, kept for compatibility."""
    return _run_trials("verify-main", n, max_degree, trials, seed, explicit_point,
                       sample_coupling, chern_series_pairs,
                       lambda checked, pt: cs_product_pairs(checked, pt.m))


TODA_DIAGNOSTIC_COUPLINGS = (100, 10_000, 1_000_000)


def _toda_diagnostics(n, max_degree, pt, rhs, labels) -> list[dict]:
    """Strong-coupling diagnostics at the degrees 1..min(max_degree, 2),
    which come right after degree 0 in (total, lex) order, so their targets
    (from the pairs rhs) and labels are read by position."""
    a_over_x = pt.a_over_x()
    # the error only shrinks monotonically once m dominates the spread of
    # a/x, so the couplings are scaled by (1 + max a/x - min a/x)^2
    spread = (1 + max(a_over_x) - min(a_over_x)) ** 2
    couplings = [m * spread for m in TODA_DIAGNOSTIC_COUPLINGS]
    rendered = [format_rational(m) for m in couplings]
    # one CS tail per coupling serves every diagonal gamma (the ratios of
    # toda_limit_ratios); its gaps are a prefix of the ones checked above
    tails = [cs_coefficients(n, a_over_x, m, min(max_degree, 2)) for m in couplings]
    diagnostics = []
    for i, gamma in enumerate(root_lattice(n, min(max_degree, 2)).vectors[1:], 1):
        size = total_degree(gamma)
        ratios = [t.coefficient(gamma) / m ** (2 * size) for t, m in zip(tails, couplings)]
        # the coupling 2/x^2 enters the gamma coefficient |gamma| times,
        # so the x = 1 target is the x-gauge one times x^(2|gamma|)
        target = Fraction(rhs[0][i], rhs[1][i]) * pt.x ** (2 * size)
        errors = [abs(r - target) for r in ratios]
        diagnostics.append({
            "gamma": labels[i],
            "couplings": rendered,
            "ratios": [format_rational(r) for r in ratios],
            "target": format_rational(target),
            "errors_strictly_decreasing": all(e1 > e2 for e1, e2 in zip(errors, errors[1:])),
        })
    return diagnostics


def verify_toda(n: int, max_degree: int, trials: int, seed: int,
                explicit_point: ParameterPoint | None = None, jobs: int = 1) -> dict:
    """Compare equivariant volumes against the Toda eigenfunction tail, and
    check that the rescaled strong-coupling coefficients converge to it.
    `jobs` is accepted and ignored, kept for compatibility."""
    return _run_trials("verify-toda", n, max_degree, trials, seed, explicit_point,
                       lambda rng: 0, volume_pairs,
                       lambda checked, pt: toda_tail_pairs(checked, pt.x),
                       _toda_diagnostics)


# -- property suites ----------------------------------------------------------

def _record(name, scale, witnesses=None, detail=None) -> dict:
    rec = {"name": name, "scale": scale, "passed": not witnesses,
           "witnesses": witnesses or []}
    if detail is not None:
        rec["detail"] = detail
    return rec


def _census_record(n, max_degree) -> dict:
    witnesses = []
    checked = 0
    for nn in range(2, n + 1):
        for gamma in degree_vectors(nn - 1, max_degree):
            checked += 1
            points = enumerate_fixed_points(nn, gamma)
            expected = kostant_count(gamma, nn)
            if len(points) != expected:
                witnesses.append(f"n={nn} gamma={format_gamma(gamma)}: "
                                 f"{len(points)} != {expected}")
            if len(set(points)) != len(points):
                witnesses.append(f"n={nn} gamma={format_gamma(gamma)}: duplicates")
    return _record("fixed-point census matches partition count",
                   f"n<={n}, |gamma|<={max_degree}, {checked} degrees", witnesses)


def _dimension_record(n, max_degree) -> dict:
    witnesses = []
    for nn in range(2, n + 1):
        rv = rho_vee(nn)
        for gamma in degree_vectors(nn - 1, max_degree):
            lhs = 2 * total_degree(gamma)
            rhs = 2 * pairing(rv, tuple(-c for c in embed_degree(gamma, nn)))
            if lhs != rhs:
                witnesses.append(f"n={nn} gamma={format_gamma(gamma)}")
    return _record("component dimension equals twice the coweight pairing",
                   f"n<={n}, |gamma|<={max_degree}", witnesses)


def _character_record(n, max_degree) -> dict:
    bound = min(max_degree, 5)
    witnesses = []
    pairs = 0
    for nn in range(2, n + 1):
        points = [t for g in degree_vectors(nn - 1, bound) for t in enumerate_fixed_points(nn, g)]
        sizes = [sum(t.degree()) for t in points]
        layout, rows = pair_count_rows(points, points, nn)
        ranks, bias = layout.rank_shift.__rrshift__, layout.bias
        for i, (d, size, row) in enumerate(zip(points, sizes, rows)):
            pairs += len(row)
            # packed maps: the rank field, every field's sign bit, the zero weight
            if (list(map(ranks, row)) == list(map(size.__add__, sizes))
                    and all(map(bias.__eq__, map(bias.__and__, row)))
                    and not layout.value(row[i], (0, 0, 0))):
                continue  # the row holds; the pair loop below names a failing row's faults
            for dp, size_p, counts in zip(points, sizes, map(layout.decode, row)):
                total = sum(counts.values())
                expected = size + size_p
                if total != expected:
                    witnesses.append(f"n={nn} rank {total} != {expected} at "
                                     f"({d.as_flat_list()}, {dp.as_flat_list()})")
                if min(counts.values(), default=0) < 0:  # weight_table names the least key
                    try:
                        weight_table(counts)
                    except InternalInconsistency as exc:
                        witnesses.append(
                            f"n={nn} at ({d.as_flat_list()}, {dp.as_flat_list()}): {exc}")
                if d is dp and counts.get((0, 0, 0)):  # a tangent space
                    witnesses.append(f"n={nn} tangent failure at {d.as_flat_list()}: "
                                     f"zero weight in tangent space of {d}")
    return _record("pair characters have bundle rank, no negative multiplicity; "
                   "diagonals are genuine tangent spaces",
                   f"n<={n}, row sums<={bound}, {pairs} pairs", witnesses[:8])


def _sample_pairs(n) -> list[tuple[Tableau, Tableau]]:
    """The first eight ordered pairs of rank-n fixed points with |gamma| <= 2."""
    tabs = [t for g in degree_vectors(n - 1, 2) for t in enumerate_fixed_points(n, g)]
    return [(d, dp) for d in tabs for dp in tabs][:8]


def _shift_defect_record(n) -> dict:
    witnesses = []
    for nn in range(2, min(n, 3) + 1):
        sample_pairs = _sample_pairs(nn)
        for m in (1, 2, 3):
            distinct = set()
            for d, dp in sample_pairs:
                defect = shift_defect(d, dp, m, nn)
                distinct.add(tuple(defect.as_sorted_triples()))
            if len(distinct) != 1:
                witnesses.append(f"n={nn} m={m}: {len(distinct)} distinct defects")
    return _record("x-shift versus tableau-shift defect is pair-independent",
                   f"n<={min(n, 3)}, m in 1..3, 8 pairs each", witnesses)


def twist_constant(n: int, m: int, pt: ParameterPoint) -> Fraction:
    """The scalar y with prod_{pair bundle (d', d)} (w + m x) = y * prod_{pair
    bundle (d', d+m)} w, evaluated from the pair-independent shift defect of
    the zero pair.  Raises NonGenericParameter when a defect weight vanishes
    (these are the poles of y)."""
    zero = Tableau.zero(n)
    # the zero pair's own pair character is empty, so its defect is minus the
    # genuine character of the pair (zero, zero + m); weight_table rejects
    # anything else
    return weight_ratio({}, weight_table(pair_counts(zero, zero.shift(m), n)), pt)


def _twist_ratio_record(n, rng) -> dict:
    witnesses = []
    values = []
    for nn in range(2, min(n, 3) + 1):
        pairs = _sample_pairs(nn)
        for m_int in (1, 2):
            def attempt(pt):
                y = twist_constant(nn, m_int, pt)
                zero_coupling = pt.with_m(0)
                bad = []
                for dp, d in pairs:
                    top = chern_matrix_element(dp, d, pt)
                    bottom = chern_matrix_element(dp, d.shift(m_int), zero_coupling)
                    if top != y * bottom:
                        bad.append((dp, d))
                return y, bad

            _, _, (y, bad) = _first_generic(rng, nn, lambda rng: m_int, attempt)
            if bad:
                witnesses.append(f"n={nn} m={m_int}: {len(bad)} pairs off constant")
            else:
                values.append(f"n={nn} m={m_int}: y={format_rational(y)}")
    return _record("matrix elements at coupling m are a single constant times "
                   "the zero-coupling elements of the shifted pair",
                   f"n<={min(n, 3)}, integer m in {{1,2}}, 8 pairs",
                   witnesses, detail=values)


def _coupling_zero_record(n, max_degree, rng) -> dict:
    def attempt(pt):
        values = chern_series_coefficients(n, max_degree, pt)
        return [f"gamma={format_gamma(gamma)}: {value}"
                for gamma, value in zip(degree_vectors(n - 1, max_degree), values, strict=True)
                if value != kostant_count(gamma, n)]

    _, _, witnesses = _first_generic(rng, n, lambda rng: 0, attempt)
    return _record("zero-coupling series counts the fixed points",
                   f"n={n}, |gamma|<={max_degree}", witnesses)


def _scaling_record(n, max_degree, rng) -> dict:
    bound = min(max_degree, 3)
    gammas = list(degree_vectors(n - 1, bound))[1:]  # degree 0 comes first

    def series(pt):  # (Chern, volume) coefficient pairs at 0 < |gamma| <= bound
        return zip(chern_series_coefficients(n, bound, pt)[1:],
                   volume_coefficients(n, bound, pt)[1:], strict=True)

    def attempt(pt):
        base = list(series(pt))
        found = []
        for t in (Fraction(2), Fraction(-3), Fraction(5, 7)):
            scaled = series(pt.scaled(t))
            for gamma, (chern, vol), (chern_t, vol_t) in zip(gammas, base, scaled, strict=True):
                if chern_t != chern:
                    found.append(f"chern not scale-invariant at {format_gamma(gamma)}, t={t}")
                if vol_t != vol * t ** (-2 * total_degree(gamma)):
                    found.append(f"volume scaling off at {format_gamma(gamma)}, t={t}")
        return found

    _, _, witnesses = _first_generic(rng, n, sample_coupling, attempt)
    return _record("homogeneity: chern series is gauge-invariant, volumes scale by t^(-dim)",
                   f"n={n}, |gamma|<={bound}, t in {{2, -3, 5/7}}", witnesses)


def _strong_coupling_record(n, rng) -> dict:
    couplings = (1000, 1_000_000)

    def attempt(pt):
        # m = 1e3 dominates a/x only once its spread is below 1: shrink it by 1 + max - min
        a = pt.a_over_x()
        pt = ParameterPoint(tuple(ai / (1 + max(a) - min(a)) for ai in a), 1, pt.m)
        vol = volume_coefficients(n, 2, pt)
        chern = [chern_series_coefficients(n, 2, pt.with_m(m)) for m in couplings]
        found = []
        for i, gamma in enumerate(degree_vectors(n - 1, 2)):
            size = total_degree(gamma)
            if size == 0:
                continue
            ratios = [c[i] / Fraction(m) ** (2 * size) / vol[i] for c, m in zip(chern, couplings)]
            if not abs(ratios[1] - 1) < abs(ratios[0] - 1):
                found.append(f"gamma={format_gamma(gamma)}: ratios "
                             + ", ".join(map(format_rational, ratios)))
        return found

    _, _, witnesses = _first_generic(rng, n, lambda rng: 0, attempt)
    return _record("strong-coupling series approaches the volume series",
                   f"n={n}, |gamma|<=2, m in {{1e3, 1e6}}", witnesses)


def _eigen_record(n, max_degree, rng) -> dict:
    witnesses = []
    degree = min(max_degree, 4)
    for nn in range(2, min(n, 3) + 1):
        def attempt(pt):
            series = cs_coefficients(nn, pt.a, pt.m, degree)
            image = apply_cs_operator(series, pt.m, degree)
            if image != series.tail.scale(series.eigenvalue):
                return [f"n={nn}: operator image differs from s * series"]
            return []

        _, _, found = _first_generic(rng, nn, lambda rng: sample_coupling(rng, forbid=(0, -1)),
                                     attempt)
        witnesses += found
    return _record("operator image of the eigen series is s times the series",
                   f"n<={min(n, 3)}, D={degree}", witnesses)


def _nongeneric_surface_record(n) -> dict:
    # at the all-zero point the row-transfer pass falls back to the kernel,
    # which raises at a degree with two adjacent ones, (..., 1, 1): its
    # tangent spaces contain a pure weight a_i - a_{i+1}; needs n >= 3
    nn = max(n, 3)
    pt = ParameterPoint((Fraction(0),) * nn, Fraction(1), Fraction(1))
    name = "degenerate torus parameters surface as NonGenericParameter"
    try:
        chern_series_coefficients(nn, 2, pt)
    except NonGenericParameter:
        return _record(name, f"n={nn}")
    except Exception as exc:  # noqa: BLE001 - the point is that nothing else escapes
        return _record(name, f"n={nn}", [f"raised {type(exc).__name__} instead"])
    return _record(name, f"n={nn}", ["no error raised"])


def _cartan_record(n, max_degree, rng) -> dict:
    bound = min(max_degree, 3)
    witnesses = []
    pt = ParameterPoint(sample_zero_sum_integers(rng, n), Fraction(1), Fraction(0))
    for gamma in degree_vectors(n - 1, bound):
        lam = tuple(ai / pt.x - r + g for ai, r, g in zip(pt.a, rho(n), embed_degree(gamma, n)))
        for d in enumerate_fixed_points(n, gamma):
            for i in range(1, n):
                if cartan_eigenvalue(i, d, pt) != lam[i - 1] - lam[i]:
                    witnesses.append(f"i={i} gamma={format_gamma(gamma)}")
    return _record("Cartan eigenvalues agree with the weight-pairing form",
                   f"n={n}, |gamma|<={bound}", witnesses)


def _algebra_records(n, rng) -> list[dict]:
    records = []

    witnesses = []
    for nn in range(2, 7):
        for i in range(1, nn):
            for l in range(1, nn - i + 1):
                mat = indecomposable_matrix(i, l, nn)
                if mat != Matrix.unit(i + l, i, nn):
                    witnesses.append(f"n={nn} [i;l]=[{i};{l}]")
                power = mat
                for _ in range(nn - 1):
                    power = power * mat
                if not power.is_zero():
                    witnesses.append(f"n={nn} [{i};{l}] not nilpotent")
    records.append(_record("iterated commutators collapse to matrix units",
                           "n<=6, all [i;l]", witnesses))

    witnesses = []
    for nn in range(2, 7):
        try:
            unipotent_product(nn)
        except AssertionError:
            witnesses.append(f"n={nn} descending product wrong")
        pairs = positive_root_pairs_descending(nn)
        for idx, (i, j) in enumerate(pairs):
            for (ip, jp) in pairs[idx + 1:]:
                prod = Matrix.unit(i, j, nn) * Matrix.unit(ip, jp, nn)
                if not prod.is_zero():
                    witnesses.append(f"n={nn} E_{i}{j} E_{ip}{jp} != 0")
        if nn >= 3:
            ascending = root_exponential_product(nn, list(reversed(pairs)))
            if ascending == all_ones_unitriangular(nn):
                witnesses.append(f"n={nn} ascending order should break the identity")
    records.append(_record("descending root exponentials give the all-ones matrix "
                           "(and ascending order does not)",
                           "n<=6", witnesses))

    witnesses = []
    examples = [
        (QuiverRepClass.indecomposable(2, 1), QuiverRepClass.indecomposable(1, 1),
         QuiverRepClass.indecomposable(1, 2), 1),
        (QuiverRepClass.indecomposable(1, 1), QuiverRepClass.indecomposable(2, 1),
         QuiverRepClass.indecomposable(1, 2), 0),
        (QuiverRepClass.indecomposable(2, 1), QuiverRepClass.indecomposable(1, 1),
         QuiverRepClass({(1, 1): 1, (2, 1): 1}), 1),
    ]
    for sub, quot, ambient, expected in examples:
        for q in (2, 3):
            got = hall_count(sub, quot, ambient, q)
            if got != expected:
                witnesses.append(f"{sub.label()},{quot.label()} in {ambient.label()} "
                                 f"at q={q}: {got} != {expected}")
    records.append(_record("reference subrepresentation counts at q = 2, 3",
                           "three A_2 ambients", witnesses))

    witnesses = []
    indecs = [QuiverRepClass.indecomposable(1, 1), QuiverRepClass.indecomposable(2, 1),
              QuiverRepClass.indecomposable(1, 2)]
    for left in indecs:
        for right in indecs:
            result = check_product_identity(left, right, 3)
            if not result["holds"]:
                witnesses.append(f"{left.label()} * {right.label()}")
    records.append(_record("structure constants reproduce all A_2 matrix products",
                           "9 products of indecomposables", witnesses))

    witnesses = []
    for nn in range(2, 6):
        for _ in range(10):
            t = sample_distinct_nonzero(rng, nn)
            report = conjugator_check(nn, t)
            if not report["passed"]:
                witnesses.append(f"n={nn} t={report['t']}")
    records.append(_record("conjugator identities hold at random scale points",
                           "n<=5, 10 tuples each", witnesses))
    return records


def run_properties(n: int, max_degree: int, seed: int) -> dict:
    """Run every cross-module invariant suite at the given scale.  Raises
    GenericityExhausted when a sampled record finds no generic point."""
    rng = SplitMix64(seed)
    records = [
        _census_record(n, max_degree),
        _dimension_record(n, max_degree),
        _character_record(n, max_degree),
        _shift_defect_record(n),
        _twist_ratio_record(n, rng),
        _coupling_zero_record(n, max_degree, rng),
        _scaling_record(n, max_degree, rng),
        _strong_coupling_record(n, rng),
        _eigen_record(n, max_degree, rng),
        _cartan_record(n, max_degree, rng),
        _nongeneric_surface_record(n),
    ]
    records.extend(_algebra_records(n, rng))
    verdict = "pass" if all(r["passed"] for r in records) else "fail"
    return {
        "command": "properties",
        "parameters": {"n": n, "max_degree": max_degree, "seed": seed},
        "records": records,
        "verdict": verdict,
    }
