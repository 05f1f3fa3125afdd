"""Golden outputs: the hashes of files the command line writes.

Speed work must leave every output byte-identical.  These pins catch a
change in any of them: the reproduce bundles at three dimension lists, the
files of pack build in each mode, and the files of online adversary,
online run, game dynamics, game poa and game spoa on the fixtures of
test_cli.  The enumerate-mode families, their capped packings, letter
masks and separation verdicts are pinned too, as are the cubes of the
full grids H_k and a game config built from them.  A deliberate output
change updates its pin and says so.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from cubepack.game import config_to_dict, homogeneous_mixture
from cubepack.languages import are_separated, build_separated_family, family_to_dict
from cubepack.packing import build_homogeneous, build_packing

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
        ((), "f73816690eca03495ebf305f0b703737d1027b6986e362920e21a14b98342ba5"),
        ((5,), "d53f2d18388b3588686c8ef9976d882bb1437a347c59c0f604bc6afb4968af56"),
        ((6,), "b7a85044cee30b85cb52159cb0fa76d52dea192535bef79cc78239430de2b10b"),
    ],
    ids=["default", "d5", "d6"],
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
         "4d00459a2339e14f76045e3ff259944aada162ffb6d6dec6f911b2cdd6177df2"),
        (("--d", 30, "--mode", "lemmaA", "--per-class-cap", 20),  # randomized
         "08fddb3547ae239b876035a63f832734437d5ea69146d1b3318f8fbe1a6d31fd"),
        (("--d", 3, "--mode", "lemmaB"),  # degenerate
         "55596836e1ba76d834a4986dce83924bc20ccf4642ebe39bb8c927f9a57757ee"),
        (("--d", 2, "--mode", "lemmaB", "--s-prime", 3),  # built
         "3958d3916bbd12e5692463cca864c80c3046a1ef22d71b099e7e9b0a6f392469"),
    ],
    ids=["warmup", "lemmaA-fallback", "lemmaA-randomized", "lemmaB-degenerate",
         "lemmaB-built"],
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
        "4dcb9b131a297ff2c13b43e26ceb249961abbf741934dfa1210272dcc3c0d152"
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


# -- enumerate-mode families ---------------------------------------------------
#
# The construction layer must give the same families, packings, letter masks
# and separation verdicts however it builds them.  Each pin is the sha256 of
# a canonical JSON rendering; the cross-family pairs below are not separated,
# so their pins cover the witnesses too.

_FAMILIES = {
    "d4-six-class-seed0": (4, (2, 3, 4, 5, 6, 7), 0),
    "d4-six-class-seed5": (4, (2, 3, 4, 5, 6, 7), 5),
    "d14-seed3": (14, (2, 3, 4, 5), 3),
    "d14-seed8": (14, (2, 3, 4, 5), 8),
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _family(name):
    d, classes, seed = _FAMILIES[name]
    return build_separated_family(d, classes, seed)


def _separation(res):
    return [bool(res), res.method, res.pairs_checked,
            None if res.witness is None else [list(w) for w in res.witness]]


def _family_pins(family):
    epsilon = Fraction(1, max(family.classes) ** 2)
    packing = build_packing(family, epsilon, per_class_cap=200)
    langs = family.languages
    return {
        "family": _digest(family_to_dict(family)),
        "packing": _digest([[c.cls.k, str(c.cls.epsilon), [str(x) for x in c.base]]
                            for c in packing.bin.cubes]),
        "masks": _digest([[k, [[m, list(w)] for m, w in langs[k]._letter_masks.items()]]
                          for k in family.classes]),
        "separated": _digest([_separation(are_separated(langs[k], langs[kp]))
                              for k in family.classes for kp in family.classes
                              if k < kp]),
    }


@pytest.mark.parametrize(
    "name, pins",
    [
        ("d4-six-class-seed0", {
            "family": "aaef768b65ea2e09316066de94b469cbe563e36074cec46c1af8f96e2f52c635",
            "packing": "e77491eafd20a192adcc49d7c6fb496a9f45c744579d0903eed90c062a7990bf",
            "masks": "5df728a7f57c6d5b5f55ff14f470fbb68568eb34bc362c8554f0085d0062cdc5",
            "separated": "5c3fe5557101aa53092df27bae7bdc5e67e93539c49c632f46e57ccc2acdf104",
        }),
        ("d4-six-class-seed5", {
            "family": "acb5d7628e7fe1e8a58d17280c2fe90134298fb06c0c794b43d31bb432031f8a",
            "packing": "261228d3a037e40ff5f0bca67bf5bbd1f9b0bd9261f0f735a116e58eeadac468",
            "masks": "e7c6bdbbe17bd7fc52e2379f5ce9e59753dabde4d3f73efa10e0dd50eb2bc4cf",
            "separated": "65932e7c7d0d1c6aed62b9cf1060e3522780f5e6888a634f19e4f6b48af3c08d",
        }),
        ("d14-seed3", {
            "family": "f76ce3c7172e1a1a8bfbee243d82dfc827f6e6a13d553f867f420fd5cb9ab24b",
            "packing": "015ff2470513e695b1d3cad3e9574f1a44d0dd7cd940b42878f9bf76df3a1085",
            "masks": "1a9d8059f5498674712a32642aac144c615bf99413066a823334f1b2da753a89",
            "separated": "d4761fb7bec0f090d084834bd85c4b2f356f9b4d071505f6c193e9363948662e",
        }),
        ("d14-seed8", {
            "family": "e3389f209ed8fcf75698abbd3b4886109eb69f4e6c7c7fe34122aaa3d2146bf7",
            "packing": "ade50a8498b87f27f93dc19f799c4b9caaeae8b2e894b31022a127c095580f31",
            "masks": "ef31df2fcc05eb0bea3d54b80f98a9c2b33ff0f8f82bd19f75b3a9f31a77f80a",
            "separated": "d4761fb7bec0f090d084834bd85c4b2f356f9b4d071505f6c193e9363948662e",
        }),
    ],
)
def test_enumerate_family_is_pinned(name, pins):
    assert _family_pins(_family(name)) == pins


def test_cross_family_separation_is_pinned():
    a, b = _family("d14-seed3"), _family("d14-seed8")
    results = [_separation(are_separated(x.languages[k], y.languages[kp]))
               for x, y in ((a, b), (b, a))
               for k in x.classes for kp in y.classes if k < kp]
    assert not all(r[0] for r in results)
    assert _digest(results) == (
        "ffdc677603a21af066fc6778ce1eca043c72e2cedf68d631a82337ae4129202f"
    )


# -- full grids ----------------------------------------------------------------
#
# However a grid bin holds its cubes, reading them gives the same cubes in
# the same order, and a game config built from grids is the same file.


@pytest.mark.parametrize(
    "k, d, digest",
    [
        (2, 3, "7c6d5962dcc93b2e6abc32389652fb80640c4bde2d13769ef39933bc0c1c2352"),
        (4, 3, "49bbd8756bc02399de23f70ee5e1dfa87a220dd6fe3053a040df98ac23ddc696"),
        (7, 4, "7fa3c01c93e3cdb06b8dea6a6e67b2e3a7bad967a944e63d25a7848e97156114"),
        (7, 6, "18fa92d41a4515e997b351c1a40625060d0aac9affedd778eafa1790716d7a12"),
    ],
)
def test_grid_cubes_are_pinned(k, d, digest):
    cubes = build_homogeneous(k, d, Fraction(1, k - 1)).bin.cubes
    assert _digest([[c.cls.k, [str(x) for x in c.base]] for c in cubes]) == digest


def test_homogeneous_mixture_config_is_pinned():
    config = homogeneous_mixture([2, 4], 3, Fraction(1, 3))
    assert _digest(config_to_dict(config)) == (
        "feed79aaabefb0e2b545e644e09f0744feb367b0ce3112f281e6958ddfab9bc3"
    )
