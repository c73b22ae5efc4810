import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    # a main-wide-size report goes out in pieces, none of them the whole report
    writes = emitted_writes(verify_main(8, 5, 3, 1))
    assert len(writes) > 1
    assert max(map(len, writes)) < len("".join(writes))


class _Recorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def emitted_writes(document) -> list[str]:
    """The pieces cli._emit writes to standard output for document."""
    stream = _Recorder()
    with contextlib.redirect_stdout(stream):
        cli._emit(document)
    return stream.writes


def assert_emits_the_dumps_bytes(document):
    assert "".join(emitted_writes(document)) == json.dumps(
        document, indent=2, sort_keys=True) + "\n"


TRICKY = ["}", "{", ",", '"', "\n", "é", "\ud800", "},\n      {", 'a"}, {"b']
FLAT = {"equal": True, "gamma": "1,0", "lhs": "-3/7", "rhs": "-3/7"}


@pytest.mark.parametrize("document", [
    {}, [], "text", 7, None,
    {"a": {}, "b": [], "c": [[], {}], "d": [{}], "e": {"f": {}, "g": []}},
    [FLAT, {}, FLAT],                     # a list of flat dicts holding an empty dict
    [{"a": {}}], [[FLAT]], [FLAT, {"x": [1]}],
    [[1, 2], [3], [[4, 5], [6]], ["x"]],  # nested lists of flat lists
    {"tuples": (1, (2, ()), (FLAT, FLAT), [(FLAT,)])},
    {"none": None, "yes": True, "no": False, "big": -3 ** 200, "float": 0.1, "int": 0},
    {key: [key, {key: key}] for key in TRICKY},
    {"rows": [{key: key for key in TRICKY}, dict.fromkeys(TRICKY)] * 3},
    {"rows": [FLAT] * (2 * cli._ROWS + 5), "tail": [FLAT]},
], ids=lambda document: repr(document)[:40])
def test_emit_writes_the_dumps_bytes(document):
    assert_emits_the_dumps_bytes(document)


def test_emit_writes_rows_holding_empty_containers_in_one_piece():
    """An empty list or dict is a leaf: a list of records whose witnesses are
    [] (as in every passing properties record) takes the row path, one piece
    for all rows, and an empty value closing a row splits no row."""
    rows = [{"name": "a", "passed": True, "witnesses": []},
            {"detail": {}, "name": "b", "witnesses": [], "z": {}},
            {"name": "c", "witnesses": [], "z": []}]
    document = {"records": rows, "verdict": "pass"}
    assert_emits_the_dumps_bytes(document)
    pieces = [piece for piece in emitted_writes(document) if '"name"' in piece]
    assert len(pieces) == 1 and all(f'"{row["name"]}"' in pieces[0] for row in rows)


_text = st.one_of(st.sampled_from(TRICKY), st.text(
    st.one_of(st.characters(), st.sampled_from("}{,\"\né\ud800")), max_size=6))
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.recursive(_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.dictionaries(_text, children, max_size=4),
    st.lists(st.dictionaries(_text, _scalars, min_size=1, max_size=3), min_size=1, max_size=3),
), max_leaves=20))
def test_emit_matches_dumps_on_random_documents(document):
    assert_emits_the_dumps_bytes(document)


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


def run_child(*argv):
    """The quasiflags command in a child process, on this checkout's package."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "quasiflags", *argv],
                          capture_output=True, env=env, timeout=60)


def test_verify_main_finishes_when_n_outgrows_the_draw_range():
    """102 distinct integers do not fit in [-50, 50]; the sampler widens its
    range with n, so the run ends (in a child, so a hang is a timeout)."""
    run = run_child("verify-main", "--n", "102", "--max-degree", "1", "--trials", "1")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["verdict"] == "pass"


def test_reports_render_values_past_the_int_str_digit_limit(capsys):
    """Rank-two volume and Toda coefficients pass 4,300 digits near D = 850;
    the child runs under the interpreter's default limit."""
    run = run_child("verify-toda", "--n", "2", "--max-degree", "850", "--trials", "1",
                    "--seed", "1")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["verdict"] == "pass"
    code, out, err = run_cli(capsys, "inspect", "series", "--kind", "toda", "--n", "2",
                             "--a", "1/3,-1/3", "--max-degree", "900")
    assert (code, err) == (0, "")
    assert max(len(c["value"]) for c in json.loads(out)["coefficients"]) > 4300


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
    # malformed or mis-sized explicit points and inspect inputs
    ["verify-main", "--n", "2", "--a", "1,-1", "--m", "1/0"],
    ["inspect", "fixed-points", "--n", "3", "--gamma", "1,x"],
    ["verify-main", "--n", "3", "--a", "1,-1", "--m", "1"],
    ["verify-main", "--n", "2", "--a", "1,x", "--m", "1"],
    ["verify-toda", "--n", "2", "--a", "1,-1", "--x", "abc"],
    # parsing keeps the interpreter's default limit of 4,300 digits (reports do not)
    pytest.param(["inspect", "series", "--kind", "cs", "--n", "2", "--a", "1/3,-1/3",
                  "--m", "1" * 4301, "--max-degree", "2"],
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no int-to-str digit limit before 3.10.7")),
])
def test_usage_errors_exit_3_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("error: ")


def test_a_value_error_while_computing_is_no_usage_error(monkeypatch, capsys):
    """Only the inputs (--gamma, --tableau, --tableau2, --a) are read as usage
    errors, before anything is computed: a ValueError from the computation
    itself propagates, and nothing is written."""
    def broken(*args):
        raise ValueError("injected")

    monkeypatch.setattr(cli, "cs_coefficients", broken)
    with pytest.raises(ValueError, match="^injected$"):
        cli.main(["inspect", "series", "--kind", "cs", "--n", "2", "--a", "7/3,-7/3",
                  "--m", "3/2"])
    assert capsys.readouterr() == ("", "")
