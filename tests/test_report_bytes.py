"""Golden report bytes: the sha256 of the exact standard output of a few
small CLI runs.  Any change to the mathematics, the sampling stream or the
rendering of a report shows up here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiflags

SRC = str(Path(quasiflags.__file__).resolve().parent.parent)

GOLDEN = [
    ("verify-main --n 3 --max-degree 6 --trials 2 --seed 1",
     "9782534f9e81331a412380b144527ec1a5ced6a705f8e1eecb779e3f5c1a48d6"),
    ("verify-toda --n 3 --max-degree 4 --trials 2 --seed 1",
     "fc6151e5602722ef31bbcbc8dd6d167921e070bcef34239cda47f30a029c5fd8"),
    ("properties --n 3 --max-degree 3 --seed 3",
     "e955d71a8ce88701443bb521b813e6cde4da69ede97f8099c411573f36814a83"),
    # the benchmark's properties command
    ("properties --n 4 --max-degree 5 --seed 3",
     "cf45784f67bb4c0c455e2752651d98316e8585131e4bfa273eb95a1bb39b6acb"),
    # pair characters at ranks 2..5: 106,796 pairs
    ("properties --n 5 --max-degree 5 --seed 3",
     "d22e55e1606dc4923951b0f9798fb998ae096a785ce1b7a3efb290d4705ee437"),
    # pair characters at ranks 2..6: 496,172 pairs
    ("properties --n 6 --max-degree 5 --seed 3",
     "b51bfa040e69ffb47a16ceda656f3c2e21dcd1007f5d07d9598bf3b93482157d"),
    # n=8: many fixed points share flag-step rows
    ("verify-main --n 8 --max-degree 3 --trials 1 --seed 1",
     "ed4c181f327ebbe10673f121263f9751f217a8d29ffb5c9153485ecb4f8ea7ec"),
    # the benchmark's main-wide size: five row-transfer layers, 792 degrees
    ("verify-main --n 8 --max-degree 5 --trials 3 --seed 1",
     "97f3c3b8ce4772d384c02e8f5aea12817b2a1fd7cd31229286075e936c8ad145"),
    # generic points where a flag-step factor has a local pole
    ("verify-main --n 8 --max-degree 3 --trials 1 --seed 8",
     "6705515cbad937c3c6882bd7deae810b0bc1528a032f0742bc779d1e58912770"),
    ("verify-main --n 4 --max-degree 5 --trials 2 --seed 11",
     "97680f9fd880c0d50d0ff2a8f80d98084b996058cd731de0f4059514245ec2d6"),
    # the benchmark's main-wide size: the trials hand 239 degrees to the
    # per-point kernel
    ("verify-main --n 8 --max-degree 5 --trials 3 --seed 3002",
     "2efad6619bc031cd9aa86ba796f7d21c02450bd1c314b0cdf20ebea5037bc46c"),
    # the benchmark's main-deep and main-wide commands at two more of their seeds
    ("verify-main --n 3 --max-degree 24 --trials 3 --seed 1001",
     "f114276b91ce6e7d85e33e9c7df5c370778a6c1bea7f7973004656abc8895693"),
    ("verify-main --n 3 --max-degree 24 --trials 3 --seed 2001",
     "cd9812c563bc295485bcc01b50af08404e4354ab95350d0c80b173c2d353a650"),
    ("verify-main --n 8 --max-degree 5 --trials 3 --jobs 2 --seed 1001",
     "466abfc77cedd416bcb69ee6bacb8c5231e6c6f6d36a94316f3c6da15eab9881"),
    ("verify-main --n 8 --max-degree 5 --trials 3 --jobs 2 --seed 2001",
     "05c3b75dc717b911e917e649e9ed2d82adfcebe94516503eace08a602ca85e30"),
    # the benchmark's main-deep size: the trials hand 3 degrees to the
    # per-point kernel
    ("verify-main --n 3 --max-degree 24 --trials 3 --seed 4",
     "05ce3e5bc41a614a02a9f975808076d5976f0752487e9bb8295ac6718b6f0150"),
    ("verify-toda --n 4 --max-degree 6 --trials 2 --seed 11",
     "5bb75761c06648be807f7c48278717afa77f9751e37fffd3a58f48506d8eaa8d"),
    # one non-generic point resampled
    ("verify-main --n 3 --max-degree 6 --trials 2 --seed 52",
     "c2d6aad3c34b3225777eccbd766e87d7c06e28b7ece6c1f840d57d6dcc214f7e"),
    ("verify-toda --n 4 --max-degree 6 --trials 2 --seed 12",
     "ad59fe54e768efbed87c69e31cf5c870a68b45044120ac81a4645253797a564c"),
    # m = -9: the binomials of the Weyl fold vanish from the ninth on
    ("verify-main --n 3 --max-degree 24 --trials 1 --seed 1",
     "08e9373ea3f5013f725a99c6218a5bef9e2e53b2e86f110510f81894632342d4"),
    # the deep rung: 1,225 degrees, step factors of several hundred bits
    ("verify-main --n 3 --max-degree 48 --trials 1 --seed 1",
     "8d71989f71c0a56aca9a6ef30f9d34cbed35bc4938289631f6f8f6e8834c4545"),
    # the product side at negative integer, zero-fold and rational couplings
    ("inspect series --n 3 --max-degree 10 --kind product --a=5/3,1/2,-13/6 --m=-4",
     "05dea9ee4d5cfce457d4f04d44b6ace2e06b3b85c7d6f641eb9fd51edacb50aa"),
    ("inspect series --n 3 --max-degree 10 --kind product --a=5/3,1/2,-13/6 --m=-1",
     "015457d852d1b4c5e40b3f0dac218f9a4770d4ddd1fd65e639ad46d64dc83b53"),
    ("inspect series --n 4 --max-degree 6 --kind product --a=3/7,1/2,-1/3,-25/42 --m=-3/5 --x 2",
     "6cfb6551cdd11b86d7af781d065956962a3838404f3b600c2a9262fdcfcf8288"),
    # the CS tail, the product folded back, at the same points
    ("inspect series --n 3 --max-degree 10 --kind cs --a=5/3,1/2,-13/6 --m=-4",
     "0bcb782a00e8537e6629f000ad4bee2b3ac29c93803d5c0462a2be0687346f72"),
    ("inspect series --n 3 --max-degree 10 --kind cs --a=5/3,1/2,-13/6 --m=-1",
     "db29a35438f842129f9136462805317505de63d82ded83a371eec6736fa3f74f"),
    ("inspect series --n 4 --max-degree 6 --kind cs --a=3/7,1/2,-1/3,-25/42 --m=-3/5 --x 2",
     "52739bbe97c3a8ffc02328dc7f94fae8f99da2da641b3bd88f333034ad9a1fd3"),
    ("inspect series --n 4 --max-degree 5 --kind denominator --m=7/3",
     "3bc1dc356f2c48171bbc33d5806e2b46add1eca26f895beda3eb1642247f59e8"),
    # the Toda tail alone, at x != 1
    ("inspect series --n 3 --max-degree 3 --kind toda --a=5/3,1/2,-13/6 --x 2",
     "7a1e5e651810e1add60d0fb9373023120b5e3d22a745436ffda9d8e73b1379fc"),
    ("inspect character --n 3 --tableau 1,0,1 --tableau2 1,1,0",
     "e922ba543705b3c41a62aa0f0385786cf5cde283169182477eeda3604b8de373"),
    ("inspect tangent-weights --n 3 --tableau 2,1,1 --a 5,1,-6",
     "c8a09d2e28d8d561499244c9e5a7abc7ff232b1e06213c1d5148bb4d12eda04d"),
    ("inspect fixed-points --n 4 --gamma 2,1,1",
     "fcd6563d41b8f691646a45ed9b841dd4e84c4c36c824fc502f38bc1915607f74"),
    # empty containers: "weights": [] at the top, "terms": [] beside flat
    # lists, "limit_diagnostics": [] inside a trial
    ("inspect tangent-weights --n 2 --tableau 0",
     "d687a04c57c9fa4f6da901a1351de55fa5e09ca1dbcb72ed865c9504940a71bf"),
    ("inspect character --n 2 --tableau 0 --tableau2 0",
     "8655f2639870689cc98005672919829572a9447884c2857043c66b73f0b20465"),
    ("verify-toda --n 2 --max-degree 0 --trials 1",
     "e7e7fc7e9e8b479e896f15a4205f8782aeb84fd6ec9ff538c500049f4ef032be"),
    # explicit points with x != 1: the strong-coupling targets are rescaled
    ("verify-toda --n 3 --max-degree 6 --trials 1 --a 5/3,1/2,-13/6 --x 2",
     "5d1abad2acb01a927b39b3e613acd0661207e9e434f80bfed3c26a0891c864aa"),
    ("verify-toda --n 4 --max-degree 5 --trials 1 --a 3/7,1/2,-1/3,-25/42 --x=-3/5",
     "52e43e8c8e7fabcbdc33d0381f4c9ab6e952a97a709872b40feb1aa182acadd9"),
    # census and Kostant counts up to rank 6
    ("properties --n 6 --max-degree 3 --seed 5",
     "34f2e3af99161dd8033422e000c35d320c96761aec87b991e359c255e7031583"),
    # the twist record redraws once at n=2, m=2; its y values echo the new point
    ("properties --n 3 --max-degree 3 --seed 30",
     "b4dcaba15e908e512eac2ca72898a5c63b45ea0f2f5ac6ef57079b93cdb41605"),
]

# the first vanishing weight is named in TorusWeight order
NON_GENERIC_STDERR = (
    "genericity exhausted: explicit point is not generic: weight "
    "TorusWeight(a_coeffs=(-1, 1, 0), x_coeff=0) vanishes at ParameterPoint("
    "a=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), x=Fraction(1, 1), "
    "m=Fraction(1, 1))\n")


def _argv_env(command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "quasiflags", *command.split()], env


def _run(command, check):
    argv, env = _argv_env(command)
    return subprocess.run(argv, capture_output=True, env=env, check=check)


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_report_bytes_are_pinned(command, digest):
    run = _run(command, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == digest


def test_non_generic_point_message_is_pinned():
    run = _run("verify-main --n 3 --max-degree 2 --a 0,0,0 --m 1", check=False)
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode() == NON_GENERIC_STDERR


# a ~134 KB report, more than a pipe buffer holds
LARGE_REPORT = "verify-main --n 8 --max-degree 5 --trials 1"


def _assert_report_not_written(code, stderr):
    assert code == 4
    assert "Traceback" not in stderr
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("error: report not written: ")


def test_a_closed_pipe_exits_4_with_one_line():
    argv, env = _argv_env(LARGE_REPORT)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
    _assert_report_not_written(proc.returncode, stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_exits_4_with_one_line():
    argv, env = _argv_env(LARGE_REPORT)
    with open("/dev/full", "wb") as full:
        run = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env)
    _assert_report_not_written(run.returncode, run.stderr.decode())


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_a_closed_descriptor_exits_4_with_one_line():
    argv, env = _argv_env(LARGE_REPORT)
    run = subprocess.run(argv, stderr=subprocess.PIPE, env=env,
                         preexec_fn=lambda: os.close(1))
    _assert_report_not_written(run.returncode, run.stderr.decode())
