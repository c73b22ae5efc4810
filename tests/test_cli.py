import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiflags.cli as cli
import quasiflags.verify as verify
from quasiflags.errors import NonGenericParameter
from quasiflags.verify import verify_main


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_main_command(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--n", "2", "--max-degree", "4",
                           "--trials", "2", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["command"] == "verify-main"


def test_report_is_written_as_the_dumps_bytes(capsys):
    _, out, _ = run_cli(capsys, "verify-main", "--n", "3", "--max-degree", "12",
                        "--trials", "5", "--seed", "5")
    report = verify_main(3, 12, 5, 5)
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    assert sum(1 for _ in tokens) > 2 * 4096     # _emit writes three pieces
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_verify_toda_command(capsys):
    code, out, _ = run_cli(capsys, "verify-toda", "--n", "2", "--max-degree", "4",
                           "--trials", "2", "--seed", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_properties_command(capsys):
    code, out, _ = run_cli(capsys, "properties", "--n", "3", "--max-degree", "3",
                           "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert all(rec["passed"] for rec in report["records"])


def test_explicit_point_flags(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--n", "2", "--max-degree", "5",
                           "--seed", "1", "--a", "7/3,-7/3", "--m", "3/2")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["explicit_point"]["m"] == "3/2"
    assert report["parameters"]["trials"] == len(report["trials"]) == 1


def test_verify_main_finishes_when_n_outgrows_the_draw_range():
    """102 distinct integers do not fit in [-50, 50]; the sampler widens its
    range with n, so the run ends (in a child, so a hang is a timeout)."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "quasiflags", "verify-main", "--n", "102",
                          "--max-degree", "1", "--trials", "1"],
                         capture_output=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["verdict"] == "pass"


def test_exit_code_nongeneric(capsys):
    code, out, err = run_cli(capsys, "verify-main", "--n", "2", "--max-degree", "4",
                             "--seed", "1", "--a", "1,-1", "--m", "1")
    assert code == 2
    assert out == ""
    assert "genericity" in err


def test_inspect_at_a_resonant_point_exits_2_with_one_line(capsys):
    """(lam, lam) = s at gamma = (2,) for a = (1, -1)."""
    code, out, err = run_cli(capsys, "inspect", "series", "--kind", "cs", "--n", "2",
                             "--max-degree", "4", "--a", "1,-1", "--m", "1")
    assert code == 2
    assert out == ""
    assert err == ("non-generic parameters: (lam, lam) = s at gamma=(2,); "
                   "highest weight is not generic\n")


def test_properties_exit_2_when_genericity_is_exhausted(capsys, monkeypatch):
    def never_generic(*args):
        raise NonGenericParameter("injected")

    monkeypatch.setattr(verify, "twist_constant", never_generic)
    code, out, err = run_cli(capsys, "properties", "--n", "3", "--max-degree", "3")
    assert code == 2
    assert out == ""
    assert err == "genericity exhausted: no generic point found in 64 resamples\n"


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify-main", "--a", "1,2,3"])   # wrong length and sum
    assert excinfo.value.code == 3


def test_exit_code_identity_failure(capsys, monkeypatch):
    fake = {"command": "verify-main", "parameters": {}, "trials": [],
            "verdict": "fail"}
    monkeypatch.setattr(cli, "verify_main", lambda *a, **k: fake)
    code, out, err = run_cli(capsys, "verify-main", "--n", "2")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_inspect_fixed_points(capsys):
    code, out, _ = run_cli(capsys, "inspect", "fixed-points", "--n", "3",
                           "--gamma", "1,1")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    assert report["tableaux"] == [[1, 0, 1], [1, 1, 0]]


def test_inspect_tangent_weights(capsys):
    code, out, _ = run_cli(capsys, "inspect", "tangent-weights", "--n", "2",
                           "--tableau", "1")
    assert code == 0
    report = json.loads(out)
    weights = {(tuple(w["a_coeffs"]), w["x_coeff"]) for w in report["weights"]}
    assert weights == {((0, 0), 1), ((-1, 1), 1)}


def test_inspect_character(capsys):
    code, out, _ = run_cli(capsys, "inspect", "character", "--n", "2",
                           "--tableau", "2", "--tableau2", "1")
    assert code == 0
    report = json.loads(out)
    assert report["total_multiplicity"] == 3


def test_inspect_series_cs(capsys):
    code, out, _ = run_cli(capsys, "inspect", "series", "--kind", "cs", "--n", "2",
                           "--max-degree", "2", "--a", "7/3,-7/3", "--m", "3/2")
    assert code == 0
    report = json.loads(out)
    gammas = [c["gamma"] for c in report["coefficients"]]
    assert gammas == ["0", "1", "2"]
    assert report["coefficients"][0]["value"] == "1"


def test_inspect_series_denominator(capsys):
    code, out, _ = run_cli(capsys, "inspect", "series", "--kind", "denominator",
                           "--n", "2", "--max-degree", "3", "--m", "2")
    assert code == 0
    report = json.loads(out)
    values = {c["gamma"]: c["value"] for c in report["coefficients"]}
    assert values == {"0": "1", "1": "3", "2": "6", "3": "10"}


@pytest.mark.parametrize("argv", [
    ["inspect", "tangent-weights", "--n", "2", "--tableau", "1", "--a", "1,2"],
    ["inspect", "fixed-points", "--n", "3", "--gamma", "1"],
    ["inspect", "character", "--n", "2", "--tableau", "1", "--tableau2", "-1"],
    ["inspect", "series", "--n", "2", "--a", "1,-1", "--x", "0"],
    # each inspect subject without the flag it needs
    ["inspect", "fixed-points", "--n", "3"],
    ["inspect", "tangent-weights", "--n", "2"],
    ["inspect", "character", "--n", "2", "--tableau", "1"],
    ["inspect", "series", "--n", "2", "--kind", "cs"],
    ["verify-main", "--n", "1"],
    ["verify-main", "--max-degree", "-1"],
    ["verify-toda", "--trials", "0"],
    # --x, like --m, sets part of an explicit point and needs --a
    ["verify-toda", "--x", "2"],
    ["verify-main", "--x", "0"],
    # verify-toda has no coupling, so a report echoing --m would state an unused input
    ["verify-toda", "--n", "2", "--max-degree", "2", "--trials", "1", "--a", "3,-3",
     "--m", "5"],
    ["properties", "--n", "1"],
    ["properties", "--a", "garbage"],
    ["properties", "--m", "1"],
    ["properties", "--jobs", "2"],
    # the stream keeps 64 bits: these would alias seeds 1 and 2^64 - 1
    ["verify-main", "--seed", "18446744073709551617"],
    ["verify-main", "--seed", "-1"],
])
def test_usage_errors_exit_3_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("error: ")
