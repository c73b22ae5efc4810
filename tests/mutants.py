"""Mutation gate: each row breaks the package on purpose, and the tests it
names must catch the break.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

A row is (module under src/quasiflags, exact source snippet, replacement,
test node ids).  For each row the script copies src/, tests/ and
pyproject.toml into a fresh temporary directory, replaces the snippet, which
must occur exactly once, and runs the named tests against the copy.  The row
passes only when those tests fail.  First, every named test must pass on an
unmutated copy, so no row is killed by a test that is broken anyway.  A
snippet that no longer matches fails the gate: a rewrite re-targets its
mutants in the same change.  Nothing is written inside the checkout.

pytest does not collect this file (its name does not match test_*.py).
Exit status: 0 when every mutant is killed, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # each run's weights start one step late: k from lo, not lo + 1
    ("localization.py",
     "first = u[j] - u[j_prime] + (lo + 1) * scale",
     "first = u[j] - u[j_prime] + lo * scale",
     ["tests/test_localization.py::test_step_factors_equal_products_at_special_points"]),
    # the class key shifts the upper row but not the lower one
    ("localization.py",
     "key = tuple(map(upper[0].__rsub__, upper + lower))",
     "key = tuple(map(upper[0].__rsub__, upper)) + lower",
     ["tests/test_localization.py::test_every_move_runs_as_its_own_flag_step",
      "tests/test_localization.py::test_class_build_sums_as_the_per_step_build"]),
    # the grouped loop pairs every member with the first member's row sums
    ("localization.py",
     "for source, sums in members:",
     "for source, sums in [(source, members[0][1]) for source, _ in members]:",
     ["tests/test_localization.py::test_every_move_runs_as_its_own_flag_step"]),
    # the fold forgets to rescale the degree-zero entry
    ("series.py",
     "        H[0] *= scale\n",
     "",
     ["tests/test_eigenfunctions.py::test_normalization_and_eigenvalue"]),
    # the resonance gaps add the pairing unscaled by L
    ("eigenfunctions.py",
     "- 2 * scale * pairing[s]",
     "- 2 * pairing[s]",
     ["tests/test_eigenfunctions.py::test_integer_gaps_match_the_embedding_formula"]),
    # the kernel names the greatest vanishing weight, not the least
    ("localization.py",
     "w = min(pair_weight(",
     "w = max(pair_weight(",
     ["tests/test_localization.py::"
      "test_vanishing_weight_is_named_as_the_sorted_expansion_names_it"]),
    # the strong-coupling witness prints the list of Fraction reprs
    ("verify.py",
     '", ".join(map(format_rational, ratios))',
     "str(ratios)",
     ["tests/test_verify.py::test_property_record_names_an_injected_fault[strong-coupling]"]),
    # the CS tail is folded back at -m - 1, not -m - 2
    ("eigenfunctions.py",
     "*cs_product_pairs(checked, m), -m - 2))",
     "*cs_product_pairs(checked, m), -m - 1))",
     ["tests/test_eigenfunctions.py::test_operator_fixes_eigen_series"]),
    # the rank table counts a copy that ends at b, not only one past it
    ("hall.py",
     "if i <= a and b < i + l)",
     "if i <= a and b <= i + l)",
     ["tests/test_hall.py::test_hall_counts_match_the_pinned_sweep"]),
    # the count layout's fields lose the sign bit
    ("characters.py",
     "window, bound.bit_length() + 1",
     "window, bound.bit_length()",
     ["tests/test_characters.py::"
      "test_count_layout_round_trips_the_bound_at_the_first_and_last_fields"]),
    # a merge cross-multiplies the numerators but keeps the old denominator
    ("localization.py",
     "            dens[target] *= bottom\n",
     "",
     ["tests/test_localization.py::test_row_transfer_matches_kernel"]),
    # the layer's gcd divides the denominators but not the numerators
    ("localization.py",
     "tops = [a // g for a, g in zip(nums, divisors)]",
     "tops = nums",
     ["tests/test_localization.py::test_row_transfer_matches_kernel"]),
    # a merge adds the incoming numerator without cross-multiplying the sum so far
    ("localization.py",
     "nums[target] = nums[target] * bottom + top * dens[target]",
     "nums[target] = nums[target] + top * dens[target]",
     ["tests/test_localization.py::test_pairs_match_the_kernel"]),
    # the product's pairs keep the sign of the gap in their denominators
    ("eigenfunctions.py",
     "        g = -gcd(num, den) if den < 0 else gcd(num, den)\n        bn[i], bd[i]",
     "        g = gcd(num, den)\n        bn[i], bd[i]",
     ["tests/test_eigenfunctions.py::test_product_and_toda_pairs_match_the_dict_references",
      "tests/test_verify.py::test_verify_main_passes_small_scales"]),
    # rows are compared on their numerators only
    ("verify.py",
     '"equal": a == c and b == d',
     '"equal": a == c',
     ["tests/test_verify.py::test_a_row_differing_only_in_its_denominator_fails"]),
]


def copy_checkout(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(where: Path, node_ids) -> int:
    """pytest's exit status on node_ids, importing the package from the copy."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    found = subprocess.run([sys.executable, "-c", "import quasiflags; print(quasiflags.__file__)"],
                           cwd=where, env=env, capture_output=True, text=True, check=True)
    if not Path(found.stdout.strip()).resolve().is_relative_to(where):
        sys.exit(f"the tests would import {found.stdout.strip()}, not the copy under {where}")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *node_ids], cwd=where, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp).resolve()
        base = tmp / "base"
        copy_checkout(base)
        named = sorted({node for *_, node_ids in MUTANTS for node in node_ids})
        status = run_tests(base, named)
        if status != 0:
            print(f"the named tests do not pass unmutated (pytest exit {status})")
            return 1
        for number, (module, snippet, replacement, node_ids) in enumerate(MUTANTS):
            where = tmp / f"mutant-{number}"
            copy_checkout(where)
            path = where / "src" / "quasiflags" / module
            text = path.read_text()
            label = f"{module}: {snippet.strip()!r} -> {replacement.strip()!r}"
            if text.count(snippet) != 1:
                failures.append(f"{label}: the snippet occurs {text.count(snippet)} times")
                print(f"STALE    {label}")
                continue
            path.write_text(text.replace(snippet, replacement))
            status = run_tests(where, node_ids)
            # 1 is "tests failed"; any other status is no kill (5: nothing collected)
            print(f"{'killed' if status == 1 else 'SURVIVED':8} {label} (pytest exit {status})")
            if status != 1:
                failures.append(label)
            shutil.rmtree(where)
    for failure in failures:
        print(f"not killed: {failure}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
