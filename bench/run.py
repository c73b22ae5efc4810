#!/usr/bin/env python3
"""Layered benchmark of the quasiflags verification pipeline.

    python3 bench/run.py --workload main-deep --seed 1 --seconds 40 --trace 0

Runs one workload through the real ``quasiflags`` CLI, one fresh interpreter
per run, in a closed loop (one client; the next run starts when the previous
one has exited) for --seconds.  Every report is checked; a run fails on a
nonzero exit, a ``fail`` verdict, a comparison whose sides differ, a wrong
comparison count, or report bytes that differ from an earlier run with the
same seed.  With --trace 0 the end-to-end metrics are printed; with --trace 1
untraced runs alternate with runs under bench/tracer.py and the per-layer
metrics are printed.  The last line of standard output is one JSON object.
bench/README.md lists every metric and workload.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"

RUN_TIMEOUT_S = 120
SETUP_RUNS = 9
MIN_RUNS = 3            # per kind of run, even when --seconds has run out
SEEDS_PER_RUN = 5
SEED_STRIDE = 1000      # input seeds of --seed s: s, s + 1000, ..., s + 4000
SETUP_CODE = "import quasiflags.cli as cli; cli.build_parser()"
# A fixed stdlib-only program run in a fresh interpreter.  The shared machine
# this was written on switches between a fast and a slow state, about 1.6x
# apart, every few to few tens of seconds, and the slow state slows the CLI
# and this program together.  So each CLI run is multiplied by REFERENCE_S / (mean of the
# reference runs just before and just after it), and each set-up by
# REFERENCE_S / (the reference run just after it): they read as seconds on a
# machine where the reference takes REFERENCE_S.  The program does not depend
# on the package, so a change to the package moves the scaled times exactly
# as it moves the raw ones.  Its sums of fractions with 120- to 180-bit terms,
# the size of the CLI's coefficients, follow the machine's state more closely
# than small fractions do (bench/README.md gives the measurement).
REFERENCE_CODE = """
from fractions import Fraction
digest = 0
for i in range(1, 2800):
    total = Fraction(0)
    for k in range(8 * i, 8 * i + 8):
        total += Fraction(k * 0x9E3779B97F4A7C15 % (1 << 180) + 1,
                          k * 0xC2B2AE3D27D4EB4F % (1 << 120) + 1)
    digest ^= total.numerator.bit_length()
"""
REFERENCE_S = 0.25
LAYERS = ("tableaux", "characters", "localization", "eigenfunctions", "series",
          "verify", "cli", "hall", "matrices")

# span names of bench/tracer.py reported with their own self time
FUNCTION_SPANS = ("tableaux.enumerate", "characters.tangent_weights",
                  "characters.pair_character", "localization.chern", "localization.volume",
                  "localization.matrix_element", "eigenfunctions.cs", "series.cauchy",
                  "series.weyl_denominator")

END_TO_END = {"wall_s": "s", "coeffs_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Workload:
    command: str
    n: int
    max_degree: int
    trials: int = 0
    jobs: int = 1
    seed: int = 1

    def argv(self, seed: int) -> list[str]:
        args = [self.command, "--n", str(self.n), "--max-degree", str(self.max_degree)]
        if self.trials:
            args += ["--trials", str(self.trials)]
        if self.jobs != 1:
            args += ["--jobs", str(self.jobs)]
        return args + ["--seed", str(seed)]

    @property
    def comparisons_per_trial(self) -> int:
        """Number of degree vectors of rank n-1 and total degree <= D."""
        return math.comb(self.n - 1 + self.max_degree, self.max_degree)


WORKLOADS = {
    # deep localization kernel: few fixed points per degree, ~185-bit coefficients
    "main-deep": Workload("verify-main", n=3, max_degree=24, trials=3),
    # many small fixed points, cold tangent characters, the --jobs thread pool
    "main-wide": Workload("verify-main", n=8, max_degree=5, trials=3, jobs=2),
    # off-diagonal pair characters and the hall/matrices layers
    "properties": Workload("properties", n=4, max_degree=5, seed=3),
}


@dataclass
class Run:
    seed: int
    traced: bool
    wall_s: float
    rss_mb: float
    report: bytes
    problems: list
    summary: dict | None = None
    import_s: dict | None = None


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd, workdir: Path):
    """Run cmd from the checkout root; return (exit code, wall s, max RSS MB,
    stdout bytes, stderr text).  The child is killed after RUN_TIMEOUT_S."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_environment(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_bytes(),
            err_path.read_text(errors="replace"))


def check_report(data: bytes, workload: Workload, seed: int) -> list[str]:
    """Problems with one CLI report; empty when the run verified correctly."""
    try:
        doc = json.loads(data)
    except ValueError:
        return ["report is not JSON"]
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    problems = []
    if doc.get("verdict") != "pass":
        problems.append(f"verdict {doc.get('verdict')!r}")
    params = doc.get("parameters") or {}
    expected = {"n": workload.n, "max_degree": workload.max_degree, "seed": seed}
    if workload.trials:
        expected["trials"] = workload.trials
    for key, value in expected.items():
        if params.get(key) != value:
            problems.append(f"parameter {key} is {params.get(key)!r}, expected {value!r}")
    if workload.trials:
        trials = doc.get("trials") or []
        if len(trials) != workload.trials:
            problems.append(f"{len(trials)} trials, expected {workload.trials}")
        for trial in trials:
            comparisons = trial.get("comparisons") or []
            if len(comparisons) != workload.comparisons_per_trial:
                problems.append(f"trial {trial.get('trial')}: {len(comparisons)} comparisons, "
                                f"expected {workload.comparisons_per_trial}")
            for comp in comparisons:
                if comp.get("equal") is not True or comp.get("lhs") != comp.get("rhs"):
                    problems.append(f"trial {trial.get('trial')}: gamma {comp.get('gamma')} "
                                    f"not equal ({comp.get('lhs')} vs {comp.get('rhs')})")
                    break
    else:
        records = doc.get("records") or []
        if not records:
            problems.append("no property records")
        problems += [f"property failed: {r.get('name')}" for r in records
                     if r.get("passed") is not True]
    return problems


def _import_self_s(stderr: str) -> dict:
    """Self import time per quasiflags module from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        own, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name.startswith("quasiflags.") and own.strip().isdigit():
            out[name.partition(".")[2]] = int(own) / 1e6
    return out


def run_once(workload: Workload, seed: int, traced: bool, workdir: Path) -> Run:
    argv = workload.argv(seed)
    summary_path = workdir / "trace.json"
    summary_path.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(TRACER), str(summary_path), *argv]
    else:
        cmd = [sys.executable, "-m", "quasiflags", *argv]
    code, wall, rss, report, stderr = _spawn(cmd, workdir)
    problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
    problems += check_report(report, workload, seed)
    run = Run(seed, traced, wall, rss, report, problems)
    if traced:
        if summary_path.exists():
            run.summary = json.loads(summary_path.read_text())
            run.import_s = _import_self_s(stderr)
        else:
            run.problems.append("tracer wrote no summary")
    return run


def timed_code(code: str, workdir: Path) -> float:
    """Wall time of `python3 -c code` from the checkout root."""
    exit_code, wall, _, _, stderr = _spawn([sys.executable, "-c", code], workdir)
    if exit_code != 0:
        raise RuntimeError(f"python3 -c failed with exit code {exit_code}: "
                           f"{stderr.strip()[-300:]}")
    return wall


def _probe(workdir: Path) -> tuple[float, float]:
    """Wall times of one set-up and the reference run right after it."""
    return timed_code(SETUP_CODE, workdir), timed_code(REFERENCE_CODE, workdir)


def _median(values):
    return statistics.median(values) if values else 0.0


def _bits(text: str) -> int:
    num, _, den = text.partition("/")
    return max(abs(int(num)).bit_length(), int(den or 1).bit_length())


def _attempt_outcomes(doc: dict) -> list[bool]:
    """Success flag of each verification attempt, in order: every trial's
    resampled attempts, then the one that succeeded."""
    outcomes = []
    for trial in doc.get("trials") or []:
        outcomes += [False] * trial["resamples"] + [True]
    return outcomes


def layer_values(run: Run) -> tuple[dict, dict, dict]:
    """Per-layer times (s), counts and ratios of one traced run."""
    summary, doc = run.summary, json.loads(run.report)
    self_cpu = {name: {int(a): s for a, s in per.items()}
                for name, per in summary["self_cpu"].items()}

    def total(name):
        return sum(self_cpu.get(name, {}).values())

    times = {}
    for layer in LAYERS:
        times[f"{layer}.self_s"] = (run.import_s.get(layer, 0.0)
                                    + sum(total(name) for name in self_cpu
                                          if name.partition(".")[0] == layer))
    for name in FUNCTION_SPANS:
        times[f"{name}.self_s"] = total(name)

    outcomes = _attempt_outcomes(doc)
    if outcomes and len(outcomes) != summary["attempts"]:
        raise ValueError(f"tracer saw {summary['attempts']} attempts, "
                         f"report implies {len(outcomes)}")
    first_trial_end = outcomes.index(True) + 1 if True in outcomes else summary["attempts"]
    tangent = self_cpu.get("characters.tangent_weights", {})
    times["characters.tangent_weights.cold_self_s"] = sum(
        s for a, s in tangent.items() if a <= first_trial_end)
    times["characters.tangent_weights.warm_self_s"] = sum(
        s for a, s in tangent.items() if a > first_trial_end)
    failed = {a for a, ok in enumerate(outcomes, start=1) if not ok}
    times["verify.resample_waste_s"] = sum(s for per in self_cpu.values()
                                           for a, s in per.items() if a in failed)
    times["trace.wall_s"] = run.wall_s
    times["trace.remainder_s"] = run.wall_s - sum(times[f"{layer}.self_s"] for layer in LAYERS)

    calls, counts = summary["calls"], summary["counts"]
    trials = len(doc.get("trials") or [])
    resamples = len(outcomes) - trials
    weights = counts.get("localization.weights_evaluated", 0)
    localization_s = sum(times[f"localization.{k}.self_s"]
                         for k in ("chern", "volume", "matrix_element"))
    comparisons = [c for t in doc.get("trials") or [] for c in t["comparisons"]]
    tangent_calls = calls.get("characters.tangent_weights", 0)
    distinct = summary["tangent_distinct"]
    counts = {
        "tableaux.fixed_points": counts.get("tableaux.fixed_points", 0),
        "characters.tangent_weights.calls": tangent_calls,
        "characters.tangent_weights.distinct": distinct,
        "characters.pair_character.calls": calls.get("characters.pair_character", 0),
        "localization.weights_evaluated": weights,
        "eigenfunctions.coefficients": counts.get("eigenfunctions.coefficients", 0),
        "series.cauchy.term_pairs": counts.get("series.cauchy.term_pairs", 0),
        "verify.trials": trials,
        "verify.resamples": resamples,
        "verify.max_coeff_bits": max((_bits(c["lhs"]) for c in comparisons), default=0),
        "cli.report_bytes": len(run.report),
        "matrices.mul.calls": calls.get("matrices.mul", 0),
        "trace.spans": summary["spans"],
    }
    ratios = {
        "characters.tangent_reuse": tangent_calls / distinct if distinct else 0.0,
        "localization.ns_per_weight": localization_s / weights * 1e9 if weights else 0.0,
        "verify.trial_yield": trials / len(outcomes) if outcomes else 1.0,
    }
    return times, counts, ratios


UNITS = {"trace.spans": "count", "characters.tangent_reuse": "ratio",
         "localization.ns_per_weight": "ns", "verify.trial_yield": "ratio"}

# counts that must repeat exactly between runs of the same code and seed
INVARIANTS = ("tableaux.fixed_points", "localization.weights_evaluated",
              "series.cauchy.term_pairs", "verify.resamples", "verify.max_coeff_bits",
              "cli.report_bytes")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail_line(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten of the {n} runs beyond it"
    k = n - 10  # the k-th smallest value has exactly ten values above it
    return f"p{100 * k / n:.0f} {sorted(values)[k - 1]:.4f} s (ten of {n} runs beyond it)"


def end_to_end_metrics(workload: Workload, runs, probes, emit) -> dict:
    """probes[i] is the (set-up, reference) pair timed just before runs[i];
    there is one more probe after the last run."""
    walls = [run.wall_s for run in runs]
    references = [reference for _, reference in probes]
    scaled = [REFERENCE_S * run.wall_s / statistics.fmean(references[i:i + 2])
              for i, run in enumerate(runs)]
    wall = _median(scaled)
    passed = [run for run in runs if not run.problems]
    if not passed:
        per_run = 0
    elif workload.trials:
        per_run = workload.trials * workload.comparisons_per_trial
    else:
        per_run = len(json.loads(passed[0].report)["records"])
    setups = [setup for setup, _ in probes]
    values = {"wall_s": wall, "coeffs_per_s": per_run / wall,
              "peak_rss_mb": _median([run.rss_mb for run in runs]),
              "setup_s": _median([REFERENCE_S * setup / reference
                                  for setup, reference in probes])}
    lo, hi = _quartiles(walls)
    slo, shi = _quartiles(scaled)
    emit(f"# measured: wall median {_median(walls):.4f} s of {len(walls)} runs, quartiles "
         f"{lo:.4f} .. {hi:.4f}, {_tail_line(walls)}; scaled quartiles {slo:.4f} .. "
         f"{shi:.4f}; set-up median {_median(setups):.4f} s of {len(setups)}; "
         f"reference median {_median(references):.4f} s of {len(references)}")
    emit(f"wall_s {values['wall_s']:.4f} s  median of scaled wall times")
    emit(f"coeffs_per_s {values['coeffs_per_s']:.2f} 1/s  "
         f"({per_run} {'coefficients' if workload.trials else 'property records'} per run)")
    emit(f"peak_rss_mb {values['peak_rss_mb']:.2f} MB  median child max RSS")
    emit(f"setup_s {values['setup_s']:.4f} s  median of scaled set-up times")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(runs, emit) -> tuple[dict, bool]:
    """Metrics of the traced runs, and whether their counts repeated."""
    samples, ok = [], True
    for run in runs:
        if run.summary is None:
            continue
        try:
            samples.append(layer_values(run))
        except (KeyError, ValueError) as exc:
            emit(f"# traced run could not be attributed: {exc}")
            ok = False
    if not samples:
        emit("# no traced run could be attributed")
        return {}, False
    for name in INVARIANTS:
        seen = {counts[name] for _, counts, _ in samples}
        if len(seen) > 1:
            emit(f"# count {name} differs between runs with the same seed: {sorted(seen)}")
            ok = False
    times = {name: _median([t[name] for t, _, _ in samples]) for name in samples[0][0]}
    times["trace.overhead_s"] = times["trace.wall_s"] - _median(
        [run.wall_s for run in runs if not run.traced])
    ratios = {name: _median([r[name] for _, _, r in samples]) for name in samples[0][2]}
    values = {**times, **samples[0][1], **ratios}
    metrics = {}
    for name in sorted(values):
        unit = UNITS.get(name, "s" if name.endswith("_s") else "count")
        metrics[name] = {"value": values[name], "unit": unit}
        emit(f"{name} {values[name]:.6g} {unit}")
    return metrics, ok


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, emit=print) -> dict:
    """Run the workload for `seconds` and return the result object; human
    readable lines go to `emit` first."""
    # End-to-end runs cycle through several sampling seeds so that one
    # seed's resamples and coefficient sizes do not set the median; traced
    # runs use --seed alone so that their counts are exact invariants of it.
    seeds = [seed] if trace else [seed + SEED_STRIDE * i for i in range(SEEDS_PER_RUN)]
    emit(f"# workload {' '.join(workload.argv(seed)[:-2])} --seed "
         f"{{{','.join(map(str, seeds))}}} (trace {int(trace)})")
    emit(f"# python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    timed_code(SETUP_CODE, workdir)  # compiles the bytecode, as an installed package has it
    probes, runs = [], []
    kinds = (False, True) if trace else (False,)
    deadline = time.perf_counter() + seconds
    # A set-up and a reference run come before each CLI run and after the
    # last, so that every CLI run has a reference on either side; a run
    # starts only if its predecessors' median still fits.
    while len(runs) < MIN_RUNS * len(kinds) or (
            time.perf_counter() + _median([r.wall_s for r in runs]) < deadline):
        if not trace:
            probes.append(_probe(workdir))
        i = len(runs)
        runs.append(run_once(workload, seeds[i // len(kinds) % len(seeds)],
                             kinds[i % len(kinds)], workdir))
    while not trace and len(probes) < max(SETUP_RUNS, len(runs) + 1):
        probes.append(_probe(workdir))

    digests = {}
    for run in runs:
        digest = hashlib.sha256(run.report).hexdigest()
        first = digests.setdefault(run.seed, digest)
        if digest != first:
            run.problems.append(f"report sha256 {digest[:16]} differs from the first "
                                f"run with seed {run.seed} ({first[:16]})")
    failed = [run for run in runs if run.problems]
    for i, run in enumerate(runs):
        for problem in run.problems[:3]:
            emit(f"# run {i} seed {run.seed} {'traced' if run.traced else 'untraced'} "
                 f"FAILED: {problem}")
    emit(f"# {len(runs)} runs, {len(failed)} failed, fail_share {len(failed) / len(runs):.4g}")
    for run_seed, digest in digests.items():
        emit(f"# seed {run_seed}: report sha256 {digest}")

    if trace:
        metrics, counts_ok = per_layer_metrics(runs, emit)
    else:
        metrics, counts_ok = end_to_end_metrics(workload, runs, probes, emit), True
    return {"correct": counts_ok and not failed, "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "quasiflags" / "cli.py").is_file():
        print(f"error: no quasiflags sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-work-") as tmp:
        try:
            result = measure(workload, seed, args.seconds, bool(args.trace), Path(tmp))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
