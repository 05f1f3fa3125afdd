"""End-to-end command line tests: every subcommand, exit codes, manifests."""

import copy
import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubepack import cli
from cubepack.cli import main
from cubepack.game import (
    CoalitionSearchError,
    RepackSearchError,
    config_to_dict,
    homogeneous_mixture,
)
from cubepack.languages import (
    FamilyCertificate,
    FamilyConstructionError,
    FSetsSamplingError,
    SeparatedFamily,
    warmup_family,
)
from cubepack.online import (
    HarnessViolation,
    Instance,
    InvalidScaleError,
    Segment,
    instance_to_dict,
)
from cubepack.packing import (
    PackingVerificationError,
    build_packing,
    packing_from_dict,
    packing_to_dict,
)


def run(*argv):
    return main([str(a) for a in argv])


def read(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def packing_file(tmp_path):
    out = tmp_path / "packing.json"
    assert run("pack", "build", "--d", 3, "--mode", "warmup", "--out", out) == 0
    return out


@pytest.fixture()
def pow_packing_file(tmp_path):
    out = tmp_path / "pow.json"
    code = run("pack", "build", "--d", 2, "--mode", "lemmaB",
               "--s-prime", 3, "--out", out)
    assert code == 0
    return out


# -- pack ----------------------------------------------------------------------


def test_pack_build_warmup_writes_remark_packing(packing_file):
    doc = read(packing_file)
    assert doc["d"] == 3
    assert doc["epsilon"] == "1/9"
    assert sorted(doc["words"]) == ["2", "3"]
    assert len(doc["words"]["2"]) == 1 and len(doc["words"]["3"]) == 4
    assert doc["report"]["weight_placed"] == "3/2"
    assert doc["manifest"]["version"]
    assert "timestamp" not in json.dumps(doc["manifest"]).lower()


def test_pack_build_output_round_trips(packing_file):
    doc = read(packing_file)
    packing = packing_from_dict(doc)
    again = packing_to_dict(packing)
    stripped = {k: v for k, v in doc.items() if k not in ("manifest", "report")}
    assert again == stripped


def test_pack_verify_ok(packing_file, capsys):
    assert run("pack", "verify", packing_file) == 0
    assert "OK" in capsys.readouterr().out


def test_pack_verify_rejects_overlap(packing_file, tmp_path, capsys):
    doc = read(packing_file)
    doc["words"]["3"].append(doc["words"]["3"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("pack", "verify", bad) == 1
    assert "FAIL" in capsys.readouterr().err


def test_pack_weight_prints_exact_values(packing_file, capsys):
    assert run("pack", "weight", packing_file) == 0
    out = capsys.readouterr().out
    assert "3/2" in out


def test_pack_build_lemma_b_override(pow_packing_file):
    doc = read(pow_packing_file)
    assert doc["report"]["classes"] == [2, 4]
    assert doc["epsilon"] == "1/16"
    assert doc["report"]["s_prime_overridden"] is True


def test_pack_build_lemma_b_degenerate_at_small_d(tmp_path, capsys):
    out = tmp_path / "degenerate.json"
    assert run("pack", "build", "--d", 3, "--mode", "lemmaB", "--out", out) == 0
    doc = read(out)
    assert doc["status"] == "degenerate"
    assert "degenerate" in capsys.readouterr().out


def test_pack_build_refuses_more_disjoint_f_sets_than_fit_as_bad_input(tmp_path, capsys):
    # at d=2 the lemma's three classes need three pairwise disjoint
    # 1-subsets of [1..2]: no draw can meet that, so it is bad input (exit
    # 2), not a failed certificate (exit 1)
    out = tmp_path / "p.json"
    assert run("pack", "build", "--d", 2, "--mode", "lemmaB", "--s-prime", 4,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pairwise disjoint" in err
    assert not out.exists()


def test_pack_build_rejects_zero_per_class_cap(tmp_path, capsys):
    # a cap of 0 wrote a packing with no cubes
    out = tmp_path / "p.json"
    assert run("pack", "build", "--d", 3, "--per-class-cap", 0, "--out", out) == 2
    assert "each placing a word" in capsys.readouterr().err
    assert not out.exists()


def test_pack_build_rejects_eps_outside_warmup(tmp_path):
    out = tmp_path / "x.json"
    code = run("pack", "build", "--d", 4, "--mode", "lemmaA",
               "--eps", "1/9", "--out", out)
    assert code == 2


def test_missing_input_file_is_bad_input(tmp_path):
    assert run("pack", "verify", tmp_path / "nope.json") == 2


def test_seed_flag_works_globally_and_per_subcommand(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("--seed", 5, "pack", "build", "--d", 3, "--out", a) == 0
    assert run("pack", "build", "--d", 3, "--seed", 9, "--out", b) == 0
    assert read(a)["manifest"]["seed"] == 5
    assert read(b)["manifest"]["seed"] == 9


# -- online --------------------------------------------------------------------


@pytest.fixture()
def instance_file(tmp_path, packing_file):
    out = tmp_path / "instance.json"
    code = run("online", "adversary", "--packing", packing_file,
               "--M", 1, "--out", out)
    assert code == 0
    return out


def test_adversary_emits_certified_instance(instance_file):
    doc = read(instance_file)
    assert doc["scale"] == 16
    assert doc["lower_bound"] == 12
    assert doc["offline_bin_count"] == 16
    assert [s["k"] for s in doc["segments"]] == [2, 3]
    assert [s["count"] for s in doc["segments"]] == [16, 64]
    assert doc["manifest"]["inputs"]["packing"]


def test_adversary_rejects_odd_scale(tmp_path, packing_file, capsys):
    code = run("online", "adversary", "--packing", packing_file,
               "--M", 1, "--scale", 7, "--out", tmp_path / "x.json")
    assert code == 2
    assert "even" in capsys.readouterr().err


def test_adversary_rejects_a_packing_that_fails_verification(tmp_path, packing_file,
                                                             capsys):
    doc = read(packing_file)
    doc["words"]["3"].append(doc["words"]["3"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "adv.json"
    assert run("online", "adversary", "--packing", bad, "--M", 1, "--out", out) == 1
    assert "loaded packing fails verification" in capsys.readouterr().err
    assert not out.exists()


def test_online_run_beats_the_certified_floor(tmp_path, instance_file, capsys):
    report = tmp_path / "report.json"
    code = run("online", "run", "--alg", "class-harmonic",
               "--instance", instance_file, "--M", 1, "--report", report)
    assert code == 0
    doc = read(report)
    assert doc["bins_used"] == 24
    assert doc["bins_used"] >= doc["ratio_report"]["certified_lower_bound"]
    assert doc["ratio_report"]["ratio"] == "3/2"
    assert "24 bins" in capsys.readouterr().out


# -- game ----------------------------------------------------------------------


@pytest.fixture()
def equilibrium_file(tmp_path, packing_file):
    out = tmp_path / "poa.json"
    code = run("game", "poa", "--packing", packing_file, "--out", out)
    assert code == 0
    doc = read(out)
    eq = tmp_path / "equilibrium.json"
    eq.write_text(json.dumps(doc["p_prime"]))
    return eq


def test_game_poa_matches_hand_count(tmp_path, packing_file, capsys):
    out = tmp_path / "poa.json"
    assert run("game", "poa", "--packing", packing_file, "--out", out) == 0
    doc = read(out)
    assert doc["optimum_bins"] == 8
    assert doc["equilibrium_bins"] == 12
    assert doc["ratio"] == "3/2"
    assert doc["equilibrium_certified"] is True
    assert "3/2" in capsys.readouterr().out


def test_game_poa_without_out_writes_no_file(tmp_path, packing_file, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run("game", "poa", "--packing", packing_file) == 0
    assert sorted(tmp_path.rglob("*")) == before
    out = capsys.readouterr().out
    assert "ratio 3/2" in out and "wrote" not in out


def test_game_poa_refuses_an_instance_past_the_item_cap(tmp_path, packing_file,
                                                        monkeypatch, capsys):
    # the remark instance is 8 copies of 5 cubes: 40 items
    monkeypatch.setattr("cubepack.game.ANARCHY_ITEM_CAP", 39)
    out = tmp_path / "poa.json"
    assert run("game", "poa", "--packing", packing_file, "--out", out) == 2
    assert "8 copies of 5 cubes exceed the 39 items" in capsys.readouterr().err
    assert not out.exists()


def test_game_spoa_certifies_power_of_two_toy(tmp_path, pow_packing_file, capsys):
    out = tmp_path / "spoa.json"
    code = run("game", "spoa", "--packing", pow_packing_file, "--out", out)
    assert code == 0
    doc = read(out)
    assert doc["ratio"] == "4/3"
    assert doc["coalition_proof"] is True
    assert doc["max_coalition_size"] == 3
    assert "4/3" in capsys.readouterr().out


def test_game_spoa_rejects_odd_classes(tmp_path, packing_file):
    code = run("game", "spoa", "--packing", packing_file,
               "--out", tmp_path / "x.json")
    assert code == 2


def test_nash_check_accepts_equilibrium(equilibrium_file, capsys):
    assert run("game", "nash-check", equilibrium_file) == 0
    assert "Nash" in capsys.readouterr().out


def _break_one_bin(eq_doc):
    """Move one cube of the fullest bin into a fresh under-filled bin."""
    from collections import Counter

    counts = Counter(row["bin"] for row in eq_doc["cubes"])
    big = counts.most_common(1)[0][0]
    fresh = max(counts) + 1
    for row in eq_doc["cubes"]:
        if row["bin"] == big:
            row["bin"] = fresh
            row["base"] = ["0"] * eq_doc["d"]
            break
    return eq_doc


def test_nash_check_flags_broken_config(tmp_path, equilibrium_file, capsys):
    doc = _break_one_bin(read(equilibrium_file))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert run("game", "nash-check", broken) == 1
    assert "not an equilibrium" in capsys.readouterr().err


def test_dynamics_settles_broken_config(tmp_path, equilibrium_file, capsys):
    doc = _break_one_bin(read(equilibrium_file))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    settled = tmp_path / "settled.json"
    code = run("game", "dynamics", broken, "--policy", "best", "--out", settled)
    assert code == 0
    assert "nash" in capsys.readouterr().out
    assert run("game", "nash-check", settled) == 0
    assert read(settled)["dynamics"]["status"] == "nash"


def test_dynamics_negative_budget_is_bad_input(equilibrium_file, capsys):
    assert run("game", "dynamics", equilibrium_file, "--max-steps", -1) == 2
    assert "max_steps" in capsys.readouterr().err


def test_game_prop1_sweep_passes(capsys):
    assert run("game", "prop1", "--kmax", 20, "--dmax", 6) == 0
    assert "OK" in capsys.readouterr().out


def test_game_prop1_reports_a_failing_triple(monkeypatch, capsys):
    monkeypatch.setattr("cubepack.game.prop1_check", lambda k, l, d: (k, l, d) != (2, 3, 2))
    assert run("game", "prop1", "--kmax", 3, "--dmax", 2) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == ("FAIL: 1 of 1 triples violate the regrouping "
                                    "inequality, first (2, 3, 2)")
    assert "OK" not in captured.out


@pytest.mark.parametrize("flags", [("--kmax", 2), ("--kmax", 5, "--dmax", 1)])
def test_game_prop1_rejects_an_empty_sweep(capsys, flags):
    # a range holding no (k, l, d) triple certifies nothing: bad input, and
    # no OK line
    assert run("game", "prop1", *flags) == 2
    captured = capsys.readouterr()
    assert "k_max >= 3 and d_max >= 2" in captured.err
    assert "OK" not in captured.out


# -- reproduce -----------------------------------------------------------------


def test_reproduce_emits_expected_row_and_bundle(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = run("--out-dir", out, "reproduce", "--d-list", 3, "--seed", 0)
    assert code == 0
    summary = read(out / "summary.json")
    row = summary["rows"][0]
    assert row["family"]["weight"] == "3/2"
    assert row["family"]["sizes"] == {"2": 1, "3": 4}
    assert row["adversary"]["lower_bound"] == 12
    assert row["online"]["bins_used"] == 24
    assert row["online"]["bins_used"] >= row["adversary"]["lower_bound"]
    assert row["poa"]["ratio"] == "3/2"
    assert row["spoa"]["status"] == "skipped"
    for name in ("family_d3.json", "packing_d3.json", "instance_d3.json",
                 "online_d3.json", "poa_d3.json", "summary.csv",
                 "bundle.sha256"):
        assert (out / name).exists()
    csv_text = (out / "summary.csv").read_text()
    assert "3,2,1/9" in csv_text
    assert "bundle" in capsys.readouterr().out


def test_reproduce_certifies_poa_and_spoa_at_cap_three(tmp_path):
    # every d takes one path: the equilibrium is certified Nash and
    # coalition-proof up to size 3 at d=5 as at d=4, with no note
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", 4, 5) == 0
    for row in read(out / "summary.json")["rows"]:
        for stage in ("poa", "spoa"):
            assert row[stage]["status"] == "ok"
            assert row[stage]["certified"] is True
            assert "note" not in row[stage]
        assert row["spoa"]["coalition_cap"] == 3
    assert read(out / "poa_d5.json")["equilibrium_certified"] is True
    spoa = read(out / "spoa_d5.json")
    assert spoa["coalition_proof"] is True
    assert spoa["max_coalition_size"] == 3


def test_reproduce_is_bit_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("--out-dir", a, "reproduce", "--d-list", 2, 3, "--seed", 4) == 0
    assert run("--out-dir", b, "reproduce", "--d-list", 2, 3, "--seed", 4) == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("d_list", [(3, 3), (1,), (4, 0, 3)])
def test_reproduce_rejects_bad_d_list_before_writing(tmp_path, capsys, d_list):
    # a repeated d listed its files twice in bundle.sha256; d < 2 wrote
    # error rows and exited 0
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", *d_list) == 2
    assert "--d-list" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_continues_past_stage_errors(tmp_path):
    # d=3 has no power-of-two pair: the spoa stage records a skip, the
    # pipeline still exits 0 and the other stages fill their rows
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", 3) == 0
    row = read(out / "summary.json")["rows"][0]
    assert row["spoa"]["status"] == "skipped"
    assert row["online"]["status"] == "ok"


def _raise_boom(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize("error, code", [
    (PackingVerificationError, 1),
    (HarnessViolation, 1),
    (FamilyConstructionError, 1),
    (FSetsSamplingError, 1),
    (CoalitionSearchError, 1),
    (RepackSearchError, 1),
    (AssertionError, 1),
    (InvalidScaleError, 2),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_each_failure_class_maps_to_its_exit_code(monkeypatch, capsys, error, code):
    # a certifier or search budget failing is exit 1 and bad input exit 2,
    # each reported on one stderr line, never as a traceback
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "prop1_sweep", fail)
    assert run("game", "prop1") == code
    assert capsys.readouterr().err.strip().endswith(": boom")


def test_reproduce_fails_the_run_when_a_stage_fails(tmp_path, monkeypatch, capsys):
    # a failed certificate once left an error row behind an exit 0; every
    # stage still runs and the bundle is still written
    monkeypatch.setattr(cli, "poa_instance", _raise_boom)
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", 3) == 1
    row = read(out / "summary.json")["rows"][0]
    assert row["poa"] == {"status": "error", "error": "boom"}
    assert row["online"]["status"] == "ok"
    assert row["spoa"]["status"] == "skipped"
    for name in ("summary.csv", "bundle.sha256", "online_d3.json"):
        assert (out / name).exists()
    assert not (out / "poa_d3.json").exists()
    assert "poa: boom" in capsys.readouterr().err


def test_reproduce_names_the_failed_upstream_stage(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "warmup_family", _raise_boom)
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", 3, 4) == 1
    d3, d4 = read(out / "summary.json")["rows"]
    for row in (d3, d4):
        assert row["family"] == {"status": "error", "error": "boom"}
        for stage in ("packing", "adversary", "poa"):
            assert row[stage] == {"status": "error", "error": "family stage failed"}
        assert row["online"] == {"status": "error", "error": "adversary stage failed"}
    assert d3["spoa"]["status"] == "skipped"
    assert d4["spoa"] == {"status": "error", "error": "family stage failed"}
    assert sorted(p.name for p in out.iterdir()) == [
        "bundle.sha256", "summary.csv", "summary.json",
    ]


def _uncertified(*args, **kwargs):
    return FamilyCertificate(((2, 3, False),))


@pytest.mark.parametrize("certify, error", [
    (_raise_boom, "boom"),
    (_uncertified, "family certificate failed: not separated"),
])
def test_reproduce_hands_on_only_a_certified_family(tmp_path, monkeypatch, certify, error):
    # a family whose certificate raises or fails feeds no later stage
    monkeypatch.setattr(SeparatedFamily, "certify", certify)
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", 3, 4) == 1
    for row in read(out / "summary.json")["rows"]:
        assert row["family"] == {"status": "error", "error": error}
        for stage in ("packing", "adversary", "poa"):
            assert row[stage] == {"status": "error", "error": "family stage failed"}
        assert row["online"] == {"status": "error", "error": "adversary stage failed"}
    assert sorted(p.name for p in out.iterdir()) == [
        "bundle.sha256", "summary.csv", "summary.json",
    ]


def test_reproduce_runs_poa_when_the_adversary_fails(tmp_path, monkeypatch):
    # the slim packing is handed on before the adversary runs
    monkeypatch.setattr(cli, "adversarial_instance", _raise_boom)
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", 4) == 1
    row = read(out / "summary.json")["rows"][0]
    assert row["adversary"] == {"status": "error", "error": "boom"}
    assert row["online"] == {"status": "error", "error": "adversary stage failed"}
    for stage in ("family", "packing", "poa", "spoa"):
        assert row[stage]["status"] == "ok"


# -- process level -------------------------------------------------------------


def test_module_entry_point_exit_codes(tmp_path):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cubepack.cli", "pack", "build",
         "--d", "3", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "cubepack.cli", "pack", "verify",
         str(tmp_path / "missing.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2



# -- hostile input -------------------------------------------------------------
#
# Outside JSON reaches the library only through cli.read_json.  A document
# that breaks the schema must end in exit 2 with a one-line error: never a
# traceback, a "verification failure", or a verdict about a silently
# coerced document.

PACKING_COMMANDS = [
    ("pack", "verify", "IN"),
    ("pack", "weight", "IN"),
    ("online", "adversary", "--packing", "IN", "--M", "1", "--out", "OUT"),
    ("game", "poa", "--packing", "IN", "--out", "OUT"),
]
CONFIG_COMMANDS = [("game", "nash-check", "IN")]
INSTANCE_COMMANDS = [
    ("online", "run", "--alg", "class-harmonic", "--instance", "IN",
     "--M", "1", "--report", "OUT"),
]


def _argv(template, src, out):
    return [src if a == "IN" else out if a == "OUT" else a for a in template]


EXPONENT = "1e-10000000"


def _hostile_packings(packing_file):
    """Files that once ended in a traceback, in exit 1 or in a wrong weight,
    or whose letters or epsilon the class placer must refuse: the warm-up
    d=3 packing (family sizes {2: 1, 3: 4}) made malformed."""
    doc = read(packing_file)
    sizes = doc["family_sizes"]
    words = doc["words"]
    return {
        "deep": "[" * 100_000 + "]" * 100_000,
        "family_sizes": json.dumps(dict(doc, family_sizes=[1, 2])),
        "zero_denominator": json.dumps(dict(doc, epsilon="1/0")),
        # Fraction expanded the exponent past the int/str limit: pack weight
        # ran until a 120 s timeout
        "exponent": json.dumps(dict(doc, epsilon=EXPONENT)),
        # (k-1)^d = 0 for class 1: a ZeroDivisionError traceback
        "sizes_class_1": json.dumps(dict(doc, family_sizes=dict(sizes, **{"1": 4}))),
        # printed a full weight of -4
        "sizes_negative": json.dumps(dict(doc, family_sizes={"2": -5, "3": 8})),
        # a class with no placed words inflated the full weight
        "sizes_extra_class": json.dumps(
            dict(doc, family_sizes=dict(sizes, **{"9": 100_000}))
        ),
        # below the placed words: printed 0 under the placed weight 3/2
        "sizes_below_placed": json.dumps(dict(doc, family_sizes={"2": 0, "3": 0})),
        # a placed class with no family size: the full weight left it out
        "sizes_missing_class": json.dumps(dict(doc, family_sizes={"2": 1})),
        # "3" and "03" name one class: one of the two word lists was dropped
        "words_class_twice": json.dumps(
            dict(doc, words=dict(doc["words"], **{"03": doc["words"]["3"]}))
        ),
        # "3" and "03" name one class: the last size was kept, the first dropped
        "sizes_class_twice": json.dumps(
            dict(doc, family_sizes=dict(sizes, **{"3": 1, "03": 4}))
        ),
        # letters outside [1..3] in place of a class-3 word
        "letter_above_k": json.dumps(
            dict(doc, words=dict(words, **{"3": [[4, 1, 1], *words["3"][1:]]}))
        ),
        "letter_zero": json.dumps(
            dict(doc, words=dict(words, **{"3": [[0, 1, 1], *words["3"][1:]]}))
        ),
        # class 3 needs epsilon < 1/2 for its base points
        "epsilon_at_class_bound": json.dumps(dict(doc, epsilon="1/2")),
        # an empty bin in dimension -1: pack verify printed OK
        "d_below_1": json.dumps({"d": -1, "epsilon": "1/9", "words": {}}),
        # no classes: online adversary wrote a 0-item stream, bound 0 bins
        "no_classes": json.dumps({"d": 3, "epsilon": "1/9", "words": {}}),
        # a class placing no words: pack verify printed OK
        "class_without_words": json.dumps({"d": 3, "epsilon": "1/9", "words": {"2": []}}),
        # a word of d+1 letters: pack verify printed OK for a bin holding a
        # cube of dimension d+1; one of 1 letter ended in an IndexError
        "word_too_long": json.dumps(
            dict(doc, words=dict(words, **{"3": [[1, 1, 1, 1], *words["3"][1:]]}))
        ),
        "word_too_short": json.dumps(
            dict(doc, words=dict(words, **{"3": [[1], *words["3"][1:]]}))
        ),
    }


HOSTILE_PACKINGS = ["deep", "family_sizes", "zero_denominator", "exponent",
                    "sizes_class_1", "sizes_negative", "sizes_extra_class", "sizes_below_placed",
                    "sizes_missing_class", "sizes_class_twice", "words_class_twice",
                    "d_below_1", "no_classes", "class_without_words",
                    "letter_above_k", "letter_zero", "epsilon_at_class_bound",
                    "word_too_long", "word_too_short"]


@pytest.mark.parametrize("template", PACKING_COMMANDS, ids=lambda t: " ".join(t[:2]))
@pytest.mark.parametrize("name", HOSTILE_PACKINGS)
def test_hostile_packing_is_bad_input(tmp_path, packing_file, capsys, template, name):
    src = tmp_path / f"{name}.json"
    src.write_text(_hostile_packings(packing_file)[name])
    start = time.perf_counter()
    assert run(*_argv(template, src, tmp_path / "out.json")) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "verification failure" not in err


# Configs with no cubes: nash-check printed "Nash equilibrium: no improving
# insertion move among 0 items in 0 bins" and dynamics "nash after 0 steps".
HOSTILE_CONFIGS = {
    "d_below_1": {"d": -1, "cubes": []},
    "no_cubes": {"d": 3, "cubes": []},
    "short_base": {"d": 2, "cubes": [{"id": 0, "bin": 0, "k": 2, "epsilon": "1/9",
                                      "base": ["0"]}]},
    "exponent": {"d": 1, "cubes": [{"id": 0, "bin": 0, "k": 2, "epsilon": EXPONENT,
                                    "base": ["0"]}]},
}
GAME_CONFIG_COMMANDS = [*CONFIG_COMMANDS, ("game", "dynamics", "IN", "--out", "OUT")]


@pytest.mark.parametrize("template", GAME_CONFIG_COMMANDS, ids=lambda t: " ".join(t[:2]))
@pytest.mark.parametrize("name", sorted(HOSTILE_CONFIGS))
def test_hostile_config_is_bad_input(tmp_path, capsys, template, name):
    src = tmp_path / f"{name}.json"
    src.write_text(json.dumps(HOSTILE_CONFIGS[name]))
    start = time.perf_counter()
    assert run(*_argv(template, src, tmp_path / "out.json")) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("template", GAME_CONFIG_COMMANDS, ids=lambda t: " ".join(t[:2]))
def test_float_base_in_config_is_bad_input(tmp_path, capsys, template):
    doc = config_to_dict(homogeneous_mixture([2, 3], 2, F(1, 9)))
    doc["cubes"][0]["base"][0] = 0.5
    src = tmp_path / "float.json"
    src.write_text(json.dumps(doc))
    assert run(*_argv(template, src, tmp_path / "out.json")) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.json").exists()


def test_zero_denominator_is_bad_input_in_every_reader(tmp_path, capsys):
    config = config_to_dict(homogeneous_mixture([2, 3], 2, F(1, 9)))
    config["cubes"][1]["base"][0] = "3/0"
    instance = instance_to_dict(Instance(2, F(1, 4), (Segment(2, 2),)))
    cases = [
        (config, CONFIG_COMMANDS, "zero denominator"),
        (dict(instance, epsilon="1/0"), INSTANCE_COMMANDS, "zero denominator"),
        # the ratio's denominator: bins used over the offline bin count
        (dict(instance, offline_bin_count=0, lower_bound=0), INSTANCE_COMMANDS,
         "offline bin count"),
    ]
    for doc, templates, message in cases:
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc))
        for template in templates:
            assert run(*_argv(template, src, tmp_path / "out.json")) == 2
            assert message in capsys.readouterr().err


def test_hostile_files_exit_2_without_traceback(tmp_path, packing_file):
    for name, text in _hostile_packings(packing_file).items():
        src = tmp_path / f"{name}.json"
        src.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "cubepack.cli", "pack", "verify", str(src)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, (name, proc.stderr)
        assert "Traceback" not in proc.stderr, name
        assert proc.stderr.startswith("error: "), name


def test_pack_weight_prints_rationals_past_the_int_string_limit(tmp_path, capsys):
    # one warm-up word per class 2..32 at d = 700: the weight, the sum of
    # 1/(k-1)^700, has a denominator of more than 4,300 digits
    d, classes = 700, range(2, 33)
    words = {str(k): [[k if i == k else 1 for i in range(1, d + 1)]] for k in classes}
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({"d": d, "epsilon": "1/1024", "words": words}))
    limit = sys.get_int_max_str_digits()
    assert run("pack", "weight", src) == 0
    assert sys.get_int_max_str_digits() == limit
    weight = sum((F(1, (k - 1) ** d) for k in classes), F(0))
    assert weight.denominator.bit_length() > 4 * limit
    sys.set_int_max_str_digits(0)
    try:
        expected = f"weight (placed cubes): {weight}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert expected in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "field, value",
    [("d", "9" * 5000), ("epsilon", '"1/' + "9" * 5000 + '"')],
    ids=["integer", "rational"],
)
def test_numbers_past_the_int_string_limit_are_bad_input(tmp_path, packing_file, field,
                                                         value):
    # outside files are read under Python's limit, which main lifts only
    # for what it prints and writes
    doc = read(packing_file)
    doc[field] = "@"
    src = tmp_path / "wide.json"
    src.write_text(json.dumps(doc).replace('"@"', value))
    proc = subprocess.run(
        [sys.executable, "-m", "cubepack.cli", "pack", "weight", str(src)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    limit = sys.get_int_max_str_digits()
    assert run("pack", "weight", src) == 2
    assert sys.get_int_max_str_digits() == limit


def test_oversized_stream_exits_2_before_replay(tmp_path):
    # A well-typed instance of a billion items would replay for days; the
    # timeout turns a hang into a failure.
    doc = dict(instance_to_dict(_STREAM), segments=[{"k": 2, "count": 10**9}])
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(doc))
    argv = _argv(INSTANCE_COMMANDS[0], str(src), str(tmp_path / "out.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "cubepack.cli", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "1000000000 items" in proc.stderr
    assert not (tmp_path / "out.json").exists()


def test_a_wide_stream_exits_2_before_replay(tmp_path, monkeypatch, capsys):
    # 100 items at d = 20,000 are 2,000,000 coordinates, past the cap of
    # 700,000: about 0.15 s of replay per item at that d
    doc = dict(instance_to_dict(_STREAM), d=20_000, segments=[{"k": 2, "count": 100}])
    src = tmp_path / "wide.json"
    src.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_bounded_space", lambda *a, **k: pytest.fail("replayed"))
    assert run(*_argv(INSTANCE_COMMANDS[0], str(src), str(tmp_path / "out.json"))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "100 items of 20000 coordinates" in err
    assert not (tmp_path / "out.json").exists()


def test_reproduce_caps_the_stream_it_replays(tmp_path, monkeypatch, capsys):
    # reproduce replays the adversary's stream under online run's cap: at
    # d = 9 the stream is 263,168 items, which once replayed for minutes
    monkeypatch.setattr(cli, "STREAM_COORDINATE_CAP", 100)
    monkeypatch.setattr(cli, "run_bounded_space", lambda *a, **k: pytest.fail("replayed"))
    out = tmp_path / "bundle"
    assert run("--out-dir", out, "reproduce", "--d-list", 3) == 1
    row = read(out / "summary.json")["rows"][0]
    assert row["online"]["status"] == "error"
    assert "80 items of 3 coordinates" in row["online"]["error"]
    assert "at most 100 coordinates" in row["online"]["error"]
    assert row["poa"]["status"] == "ok"
    assert not (out / "online_d3.json").exists()
    assert "online: instance holds 80 items" in capsys.readouterr().err


# Valid documents holding only keys their readers look at (no manifest or
# report), so that every site a mutation can reach is part of the schema.
_STREAM = Instance(2, F(1, 4), (Segment(2, 2), Segment(3, 4)))
VALID_DOCS = {
    "packing": (packing_to_dict(build_packing(warmup_family(3), F(1, 9))),
                PACKING_COMMANDS[:2]),
    "config": (config_to_dict(homogeneous_mixture([2, 3], 2, F(1, 9))),
               CONFIG_COMMANDS),
    "instance": (dict(instance_to_dict(_STREAM), lower_bound=1, offline_bin_count=2),
                 INSTANCE_COMMANDS),
}
# keys a document may omit or set to null
OPTIONAL = {"family_sizes", "lower_bound", "offline_bin_count"}
# objects keyed by class, not by field name: no key of theirs is required
MAPS = {"words", "family_sizes"}
# one value of each JSON type but integer; a swap picks one of another type
SWAPS = (None, True, 2.5, "x", [], {})


def _sites(node, path=()):
    """(path, value) for every value below the root, in document order."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _sites(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def hostile_documents(draw, doc):
    """(JSON text, whether the mutation breaks the schema) for a valid doc."""
    doc = copy.deepcopy(doc)
    sites = list(_sites(doc))
    mutation = draw(st.sampled_from(("drop", "swap", "nest", "zero")))
    if mutation == "drop":
        path = draw(st.sampled_from([
            p for p, _ in sites
            if isinstance(_parent(doc, p), dict) and p[-1] not in OPTIONAL
            and (len(p) == 1 or p[-2] not in MAPS)
        ]))
        del _parent(doc, path)[path[-1]]
        return json.dumps(doc), True
    if mutation == "swap":
        path, value = draw(st.sampled_from(sites))
        new = draw(st.sampled_from([v for v in SWAPS if type(v) is not type(value)]))
        _parent(doc, path)[path[-1]] = new
        return json.dumps(doc), not (new is None and path[-1] in OPTIONAL)
    if mutation == "zero":
        path = draw(st.sampled_from([p for p, v in sites if isinstance(v, str)]))
        _parent(doc, path)[path[-1]] = f"{draw(st.integers(-9, 9))}/0"
        return json.dumps(doc), True
    depth = draw(st.sampled_from((1, 2, 500, 100_000)))
    opener, closer = draw(st.sampled_from((("[", "]"), ('{"d": ', "}"))))
    return opener * depth + json.dumps(doc) + closer * depth, True


@pytest.mark.parametrize("kind", sorted(VALID_DOCS))
def test_fuzz_base_documents_are_valid(tmp_path, kind):
    doc, templates = VALID_DOCS[kind]
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    for template in templates:
        assert run(*_argv(template, src, tmp_path / "out.json")) in (0, 1)


@pytest.mark.parametrize("kind", sorted(VALID_DOCS))
@given(data=st.data())
def test_mutated_documents_never_raise_and_schema_breaks_exit_2(
    tmp_path_factory, kind, data
):
    doc, templates = VALID_DOCS[kind]
    text, breaks = data.draw(hostile_documents(doc))
    tmp = tmp_path_factory.getbasetemp()
    src = tmp / f"fuzz_{kind}.json"
    src.write_text(text)
    for template in templates:
        code = run(*_argv(template, src, tmp / f"fuzz_{kind}_out.json"))
        assert code == 2 if breaks else code in (0, 1, 2), (template[:2], text[:300])
