"""Run one quasiflags CLI command in this interpreter with per-layer spans.

    python3 -X importtime bench/tracer.py SUMMARY.json verify-main --n 3 ...

The package's layer boundaries are the public functions listed in SPANS.
Each one is patched, for the length of the run, in the namespace of every
other quasiflags module that imports it by name (``verify`` calls
``chern_series_coefficient`` through its own global, ``localization`` calls
``tangent_weights`` through its own), so a call from inside the defining
module stays part of its caller's span.  ``Matrix`` methods are patched on
the class.  The names are restored before the summary is written.

A span's self time is the CPU time of its own thread while it is open, minus
the CPU time of the spans it opened on that thread.  Each thread keeps its own
span stack; a span opened on a worker thread with an empty stack takes the
innermost open span of the main thread as its parent, and the worker's CPU time
between two such spans (the thread pool's bookkeeping) is added to that
parent.  CPU time rather than wall time is used because worker threads wait
for the interpreter lock inside their spans, so their wall intervals overlap
and would count the same second twice.

The report goes to standard output unchanged; the summary (self time per span
name and verification attempt, call counts and work counts) goes to
SUMMARY.json.  The exit code is the CLI's.
"""

import itertools
import json
import sys
import threading
import time
import types

# (defining module, function) -> span name
SPANS = {
    ("tableaux", "enumerate_fixed_points"): "tableaux.enumerate",
    ("tableaux", "cartan_eigenvalue"): "tableaux.cartan_eigenvalue",
    ("characters", "tangent_weights"): "characters.tangent_weights",
    ("characters", "pair_character"): "characters.pair_character",
    ("localization", "chern_series_coefficient"): "localization.chern",
    ("localization", "volume_coefficient"): "localization.volume",
    ("localization", "chern_matrix_element"): "localization.matrix_element",
    ("localization", "evaluate_weight"): "localization.evaluate_weight",
    ("eigenfunctions", "cs_coefficients"): "eigenfunctions.cs",
    ("eigenfunctions", "cs_product_series"): "eigenfunctions.cs",
    ("eigenfunctions", "apply_cs_operator"): "eigenfunctions.cs",
    ("eigenfunctions", "toda_coefficients"): "eigenfunctions.toda",
    ("eigenfunctions", "toda_limit_ratios"): "eigenfunctions.toda_limit",
    ("series", "series_mul"): "series.cauchy",
    ("series", "denominator_power_series"): "series.weyl_denominator",
    ("verify", "verify_main"): "verify.run",
    ("verify", "verify_toda"): "verify.run",
    ("verify", "run_properties"): "verify.run",
    ("hall", "indecomposable_matrix"): "hall.indecomposable_matrix",
    ("hall", "unipotent_product"): "hall.unipotent_product",
    ("hall", "root_exponential_product"): "hall.root_exponential_product",
    ("hall", "all_ones_unitriangular"): "hall.all_ones_unitriangular",
    ("hall", "hall_count"): "hall.hall_count",
    ("hall", "check_product_identity"): "hall.check_product_identity",
    ("hall", "conjugator_check"): "hall.conjugator_check",
}

# verify draws one torus point per verification attempt, so each call marks
# the start of a new attempt; the benchmark matches attempts to the report's
# per-trial resample counts.
ATTEMPT_MARKER = ("verify", "sampling", "sample_zero_sum_integers")


def _count_fixed_points(state, caller, args, result):
    state.add("tableaux.fixed_points", len(result))


def _count_tangent(state, caller, args, result):
    state.tangent_args.add(args)
    if caller == "localization":
        state.add("localization.weights_evaluated", len(result))


def _count_term_pairs(state, caller, args, result):
    a, b, degree = args
    by_degree = [0] * (degree + 1)
    for gamma in b.coeffs:
        if sum(gamma) <= degree:
            by_degree[sum(gamma)] += 1
    at_most = list(itertools.accumulate(by_degree))
    state.add("series.cauchy.term_pairs",
              sum(at_most[degree - sum(g)] for g in a.coeffs if sum(g) <= degree))


def _count_coefficients(state, caller, args, result):
    if isinstance(result, list):
        count = len(result)
    else:
        count = len(getattr(result, "tail", result).coeffs)
    state.add("eigenfunctions.coefficients", count)


HOOKS = {
    "tableaux.enumerate": _count_fixed_points,
    "characters.tangent_weights": _count_tangent,
    "series.cauchy": _count_term_pairs,
    "eigenfunctions.cs": _count_coefficients,
    "eigenfunctions.toda": _count_coefficients,
    "eigenfunctions.toda_limit": _count_coefficients,
}


class _ThreadState:
    """Span stack and totals of one thread; merged when the run ends."""

    def __init__(self):
        self.stack = []          # open spans: [span id, parent id, child cpu, name]
        self.self_cpu = {}       # (span name, attempt) -> seconds
        self.calls = {}          # span name -> calls
        self.counts = {}         # work counter -> count
        self.tangent_args = set()
        self.last_root_end = None

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount


class Tracer:
    def __init__(self):
        self.attempt = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []
        self._main_stack = self._state().stack

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def wrap(self, name, fn, caller):
        """fn with a span called `name` around each call made from `caller`."""
        hook = HOOKS.get(name)
        clock = time.thread_time
        main_stack = self._main_stack

        def span(*args, **kwargs):
            state = self._state()
            stack = state.stack
            start = clock()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack and stack is not main_stack else None
                if parent is not None and state.last_root_end is not None:
                    key = (parent[3], self.attempt)
                    state.self_cpu[key] = (state.self_cpu.get(key, 0.0)
                                           + start - state.last_root_end)
            frame = [next(self._ids), parent[0] if parent else 0, 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                else:
                    state.last_root_end = end
                key = (name, self.attempt)
                state.self_cpu[key] = state.self_cpu.get(key, 0.0) + end - start - frame[2]
                state.calls[name] = state.calls.get(name, 0) + 1
            if hook is not None:
                hook(state, caller, args, result)
            return result

        return span

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self, modules):
        """Patch the layer boundaries; modules maps short names ('' for the
        package itself) to imported quasiflags modules."""
        for (home, attr), name in SPANS.items():
            original = getattr(modules[home], attr)
            for caller, module in modules.items():
                if caller != home and vars(module).get(attr) is original:
                    self._patch(module, attr, self.wrap(name, original, caller))

        caller, home, attr = ATTEMPT_MARKER
        draw = getattr(modules[home], attr)

        def new_attempt(*args, **kwargs):
            self.attempt += 1
            return draw(*args, **kwargs)

        self._patch(modules[caller], attr, new_attempt)

        matrix = modules["matrices"].Matrix
        for attr, value in list(vars(matrix).items()):
            name = "matrices." + attr.strip("_")
            if isinstance(value, classmethod):
                self._patch(matrix, attr, classmethod(self.wrap(name, value.__func__, "")))
            elif isinstance(value, types.FunctionType) and attr not in ("__hash__", "__repr__"):
                self._patch(matrix, attr, self.wrap(name, value, ""))

    def restore(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def summary(self) -> dict:
        self_cpu, calls, counts, tangent_args = {}, {}, {}, set()
        with self._lock:
            states = list(self._states)
        for state in states:
            for (name, attempt), seconds in state.self_cpu.items():
                per_attempt = self_cpu.setdefault(name, {})
                per_attempt[attempt] = per_attempt.get(attempt, 0.0) + seconds
            for table, into in ((state.calls, calls), (state.counts, counts)):
                for key, value in table.items():
                    into[key] = into.get(key, 0) + value
            tangent_args |= state.tangent_args
        return {"self_cpu": self_cpu, "calls": calls, "counts": counts,
                "tangent_distinct": len(tangent_args), "attempts": self.attempt,
                "spans": next(self._ids) - 1}


def main(argv) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    import quasiflags.cli  # imports every module of the package

    modules = {name.partition(".")[2]: module for name, module in sys.modules.items()
               if name == "quasiflags" or name.startswith("quasiflags.")}
    tracer = Tracer()
    tracer.install(modules)
    try:
        return tracer.wrap("cli.main", quasiflags.cli.main, "")(cli_args)
    finally:
        tracer.restore()
        sys.stdout.flush()
        with open(summary_path, "w") as out:
            json.dump(tracer.summary(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
