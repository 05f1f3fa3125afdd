"""Golden outputs: the hashes of files the command line writes.

Speed work must leave every output byte-identical.  These pins catch a
change in any of them: the reproduce bundles at two dimension lists, the
files of pack build in each mode, and the files of online adversary,
online run, game dynamics, game poa and game spoa on the fixtures of
test_cli.  A deliberate output change updates its pin and says so.
"""

import hashlib
import json

import pytest

from test_cli import (  # noqa: F401  (fixtures)
    _break_one_bin,
    equilibrium_file,
    instance_file,
    packing_file,
    pow_packing_file,
    read,
    run,
)


def _bundle_hash(out):
    last = (out / "bundle.sha256").read_text().strip().splitlines()[-1]
    return last.split()[1]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "d_list, bundle",
    [
        ((), "d0f224b4f22be824a0841e19db57e8a5b37dac69dd928aea90c43febca36527a"),
        ((5,), "a09c22a5bcd5e75ff6849b4e4ed6619ee3711868392bd36e567ff7dfae3eb284"),
    ],
)
def test_reproduce_bundle_hash_is_pinned(tmp_path, d_list, bundle):
    out = tmp_path / "bundle"
    flags = ("--d-list", *d_list) if d_list else ()
    assert run("--out-dir", out, "reproduce", *flags) == 0
    assert _bundle_hash(out) == bundle


@pytest.mark.parametrize(
    "flags, digest",
    [
        (("--d", 4, "--eps", "1/16", "--per-class-cap", 5),
         "048ed93a03caf7964d59ef99674b91f1e415a78228abc92c27d8df57d52b3dfc"),
        (("--d", 4, "--mode", "lemmaA"),  # warm-up fallback
         "0ca676e82618cd31f4180007b908056c7ca7548b4da2d3ae39b5beb682f353b8"),
        (("--d", 30, "--mode", "lemmaA", "--per-class-cap", 20),  # randomized
         "09562343b42d6b07fddd98bc507334f3986c88a104d5419c4211b90e9a52e1ad"),
        (("--d", 3, "--mode", "lemmaB"),  # degenerate
         "55596836e1ba76d834a4986dce83924bc20ccf4642ebe39bb8c927f9a57757ee"),
    ],
    ids=["warmup", "lemmaA-fallback", "lemmaA-randomized", "lemmaB-degenerate"],
)
def test_pack_build_file_is_pinned(tmp_path, flags, digest):
    out = tmp_path / "packing.json"
    assert run("pack", "build", *flags, "--out", out) == 0
    assert _sha256(out) == digest


def test_online_adversary_descending_file_is_pinned(tmp_path, packing_file):
    out = tmp_path / "adv.json"
    code = run("online", "adversary", "--packing", packing_file, "--M", 2,
               "--order", "descending", "--out", out)
    assert code == 0
    assert _sha256(out) == (
        "690dedb26b3bc74ac4b29856841b80a2a3da823487b44a10ece1c7d6f1b1d95a"
    )


def test_online_adversary_file_is_pinned(instance_file):
    assert _sha256(instance_file) == (
        "0942643066d452a37f147dcbff6f6876c92469b7b4fe6bdd98e570d4d6de0e72"
    )


def test_online_run_report_is_pinned(tmp_path, instance_file):
    report = tmp_path / "report.json"
    code = run("online", "run", "--alg", "class-harmonic",
               "--instance", instance_file, "--M", 1, "--report", report)
    assert code == 0
    assert _sha256(report) == (
        "a81bf023c7f0caba87970fa0464937ae49308cda17b9638efa9f7e3264267237"
    )


def test_game_poa_file_is_pinned(tmp_path, packing_file):
    out = tmp_path / "poa.json"
    assert run("game", "poa", "--packing", packing_file, "--out", out) == 0
    assert _sha256(out) == (
        "2131511ac7a3cb69aab4019d6ed9a2ff8dd8288919dcdb0f43aec8feaa5785f8"
    )


def test_game_spoa_file_is_pinned(tmp_path, pow_packing_file):
    out = tmp_path / "spoa.json"
    assert run("game", "spoa", "--packing", pow_packing_file, "--out", out) == 0
    assert _sha256(out) == (
        "f21e9219826d23277d790823c0790c65b30c9df9f5f25ba60591f74f9bd03547"
    )


@pytest.mark.parametrize(
    "policy, digest",
    [
        ("best", "b2958c3c636bb8e77420291612080d0cfc3accfb56638988232bd52a922272c3"),
        ("first", "2a8528220c60a904ac1a3ff194b5db29b01087ffdbcd756f3749c11852c8cd69"),
        ("random", "d9ed605567b02caecf2f0b989672deec75f1068e7b9311df40ab290156462d13"),
    ],
)
def test_game_dynamics_file_is_pinned(tmp_path, equilibrium_file, policy, digest):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(_break_one_bin(read(equilibrium_file))))
    out = tmp_path / "settled.json"
    code = run("game", "dynamics", broken, "--policy", policy, "--seed", 7,
               "--out", out)
    assert code == 0
    assert _sha256(out) == digest
