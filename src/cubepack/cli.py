"""Command line front end: build, verify, attack, play, reproduce.

Every artifact is JSON with a "manifest" block (command, seed, log-base
convention, package version, input hashes) so a rerun with the same
manifest regenerates the file byte for byte.  Manifests carry no
timestamps and path arguments are reduced to basenames for that reason.

Exit codes: 0 ok, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, TypeVar

from . import __version__
from .game import (
    COPIES_CAP,
    best_response_dynamics,
    config_from_dict,
    config_to_dict,
    is_nash,
    poa_instance,
    prop1_sweep,
    spoa_instance,
)
from .geometry import _int_digits, as_rational, expect_type, format_rational, verify_bin
from .languages import (
    SeparatedFamily,
    build_separated_family,
    family_to_dict,
    warmup_family,
)
from .online import (
    ClassHarmonicBaseline,
    adversarial_instance,
    instance_from_dict,
    instance_to_dict,
    run_bounded_space,
)
from .packing import (
    build_packing,
    dense_packing_report,
    packing_from_dict,
    packing_to_dict,
    power_of_two_packing_report,
)

OK, VERIFY_FAIL, BAD_INPUT = 0, 1, 2

# Most coordinates (items times d) `online run` replays from an outside
# instance file.  The largest stream this package generates has 16,640
# items (`reproduce --d-list 7`), which `online run` replays at about
# 250 us per item (2 cores, Python 3.11.7): 4.2 s.  An item's cost grows
# with d, to about 0.15 s at d = 20,000, so the cap bounds items times d
# at six times that stream's 116,480 coordinates (100,000 items at d = 7):
# a hostile count or dimension ends in exit 2 instead of hours of replay.
STREAM_COORDINATE_CAP = 700_000

T = TypeVar("T")

_READ_DIGITS = sys.get_int_max_str_digits()  # read_json's limit; main lifts it


# ---------------------------------------------------------------------------
# manifests and deterministic writers


def _hasher(data: bytes = b""):
    """A sha256 object over `data`.  hashlib is imported here, on first use,
    because it loads OpenSSL: about 3.4 MB of resident memory that a
    process importing cubepack for its library calls should not pay."""
    import hashlib

    return hashlib.sha256(data)


def _sha256(path: Path) -> str:
    h = _hasher()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, doc: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, path: Path, doc: dict, command: Sequence[str],
          inputs: Optional[Mapping[str, Path]] = None, **extra) -> Path:
    """The one writer of every artifact: `doc` plus its manifest at `path`."""
    doc["manifest"] = {
        "command": list(command),
        "seed": args.seed,
        "log_base": args.log_base,
        "version": __version__,
        "inputs": {name: _sha256(p) for name, p in (inputs or {}).items()},
        **extra,
    }
    write_json(path, doc)
    return path


def _fields(result, *omit: str) -> dict:
    """A result dataclass as a JSON block: every field but `omit`, with
    each Fraction rendered as "p/q"."""
    values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
              if f.name not in omit}
    return {name: format_rational(v) if isinstance(v, Fraction) else v
            for name, v in values.items()}


def read_json(path: Path, from_dict: Callable[..., T], **kw) -> T:
    """Decode one input file and convert it with `from_dict(doc, **kw)`.

    This is the only door for outside JSON.  A hostile document fails
    structurally: it nests too deep to decode, lacks a key, or holds a
    value of the wrong JSON type where the converter expects another.
    Each is bad input (exit 2), not a failed verification.
    """
    with open(path, encoding="utf-8") as fh, _int_digits(_READ_DIGITS):
        try:
            return from_dict(json.load(fh), **kw)
        except (RecursionError, KeyError, AttributeError, TypeError, IndexError) as exc:
            raise ValueError(
                f"malformed {Path(path).name}: {type(exc).__name__}: {exc}"
            ) from exc


def _sub_seed(seed: int, stage: str, d: int) -> int:
    """Named sub-stream: one master seed fans out per (stage, dimension)."""
    digest = _hasher(f"{seed}:{stage}:{d}".encode()).hexdigest()
    return int(digest[:12], 16)


# ---------------------------------------------------------------------------
# pack


def cmd_pack_build(args) -> int:
    d, mode, seed, log_base = args.d, args.mode, args.seed, args.log_base
    command = ["pack", "build", "--d", str(d), "--mode", mode,
               "--seed", str(seed), "--out", Path(args.out).name]
    for flag, value in (("--eps", args.eps or None),
                        ("--per-class-cap", args.per_class_cap),
                        ("--s-prime", args.s_prime)):
        if value is not None:
            command += [flag, str(value)]
    cap_kw = {}
    if args.per_class_cap is not None:
        cap_kw["per_class_cap"] = args.per_class_cap
    report: dict
    if mode == "warmup":
        family = warmup_family(d)
        eps = as_rational(args.eps) if args.eps else Fraction(1, d * d)
        packing = build_packing(family, eps, **cap_kw)
        report = {
            "mode": "warmup",
            "classes": list(packing.classes),
            "weight_full": format_rational(packing.full_counts.weight()),
        }
    elif args.eps is not None:
        raise ValueError("--eps only applies to warmup mode; lemma modes fix epsilon")
    elif mode == "lemmaA":
        rep = dense_packing_report(d, seed, log_base=log_base, **cap_kw)
        packing = rep.packing
        report = {"mode": mode, **_fields(rep, "d", "log_base", "epsilon", "packing")}
    else:
        rep = power_of_two_packing_report(
            d, seed, log_base=log_base, s_prime=args.s_prime, **cap_kw
        )
        if rep.status == "degenerate":
            report = {"mode": mode, "s_prime": rep.s_prime,
                      "target_log_d": rep.target_log_d}
            _emit(args, args.out, {"status": "degenerate", "report": report}, command)
            print(
                f"d={d}: S' = {rep.s_prime} < 2 leaves no power-of-two classes; "
                f"wrote degenerate report to {args.out}"
            )
            return OK
        packing = rep.packing
        report = {"mode": mode,
                  **_fields(rep, "d", "log_base", "epsilon", "packing", "status")}
    weight = packing.weight()
    if mode == "warmup":
        report["weight_placed"] = format_rational(weight)  # the file sorts its keys
    _emit(args, args.out, {**packing_to_dict(packing), "report": report}, command)
    cubes = sum(packing.nu.values())
    print(
        f"wrote {args.out}: d={d} mode={mode} classes={list(packing.classes)} "
        f"cubes={cubes} weight={weight}"
    )
    return OK


def cmd_pack_verify(args) -> int:
    packing = read_json(args.packing, packing_from_dict, verify=False)
    result = verify_bin(packing.bin)
    cubes = sum(packing.nu.values())
    if result:
        print(
            f"OK: {cubes} cubes in the unit bin, d={packing.d}, "
            f"epsilon={packing.epsilon}, occupied={packing.occupied()}, "
            f"all inside and pairwise disjoint"
        )
        return OK
    print(
        f"FAIL: bad_cube={result.bad_cube} offending_pair={result.offending_pair}",
        file=sys.stderr,
    )
    return VERIFY_FAIL


def cmd_pack_weight(args) -> int:
    packing = read_json(args.packing, packing_from_dict, verify=False)
    print(f"classes: {list(packing.classes)}")
    print(f"weight (placed cubes): {packing.weight()}")
    print(f"weight (full family):  {packing.full_counts.weight()}")
    print(f"occupied volume:       {packing.occupied()}")
    return OK


# ---------------------------------------------------------------------------
# online


def _adversary_doc(result) -> dict:
    return {**instance_to_dict(result.instance), **_fields(result, "instance")}


def _run_doc(algorithm: str, m: int, run) -> dict:
    doc = {
        "algorithm": algorithm,
        "m": m,
        "bins_used": run.bins_used,
        "per_segment_new_bins": list(run.per_segment_new_bins),
        "placements": len(run.placements),
    }
    if run.report is not None:
        doc["ratio_report"] = {**_fields(run.report),
                               "ratio": format_rational(run.report.ratio)}
    return doc


def cmd_online_adversary(args) -> int:
    packing = read_json(args.packing, packing_from_dict)
    result = adversarial_instance(packing, args.m, scale=args.scale, order=args.order)
    command = ["online", "adversary", "--packing", Path(args.packing).name,
               "--M", str(args.m), "--scale", str(result.scale),
               "--out", Path(args.out).name]
    _emit(args, args.out, _adversary_doc(result), command, {"packing": args.packing})
    print(
        f"wrote {args.out}: {result.instance.total_items} items in "
        f"{len(result.instance.segments)} segments, scale={result.scale}, "
        f"certified lower bound {result.lower_bound} bins, "
        f"offline {result.offline_bin_count} bins"
    )
    return OK


def _instance_with_bounds(doc: Mapping) -> tuple:
    """The stream plus the adversary's bin counts, when the file has them."""
    bounds = (doc.get("offline_bin_count"), doc.get("lower_bound"))
    return (instance_from_dict(doc),
            *(None if b is None else expect_type(b, int) for b in bounds))


def _replay(instance, m: int, opt: Optional[int], lower: Optional[int]):
    """The class-harmonic baseline's run on `instance` with M = m open
    bins, once the stream is checked against STREAM_COORDINATE_CAP."""
    if instance.total_items * instance.d > STREAM_COORDINATE_CAP:
        raise ValueError(
            f"instance holds {instance.total_items} items of {instance.d} "
            f"coordinates each; online run replays at most "
            f"{STREAM_COORDINATE_CAP} coordinates (items times d)"
        )
    return run_bounded_space(ClassHarmonicBaseline(m), instance, m,
                             opt_upper_bound=opt, certified_lower_bound=lower)


def cmd_online_run(args) -> int:
    instance, opt, lower = read_json(args.instance, _instance_with_bounds)
    result = _replay(instance, args.m, opt, lower)
    command = ["online", "run", "--alg", args.alg,
               "--instance", Path(args.instance).name,
               "--M", str(args.m), "--report", Path(args.report).name]
    doc = {**_run_doc(args.alg, args.m, result),
           "open_bins": len(result.open_bin_ids),
           "closed_bins": len(result.closed_bin_ids)}
    _emit(args, args.report, doc, command, {"instance": args.instance})
    line = f"{args.alg}: {result.bins_used} bins for {len(result.placements)} items"
    if result.report is not None:
        line += (
            f", ratio {result.report.ratio} against the offline bound "
            f"{result.report.opt_upper_bound} "
            f"(certified floor {result.report.certified_lower_bound})"
        )
    print(line)
    print(f"wrote {args.report}")
    return OK


# ---------------------------------------------------------------------------
# game


def cmd_game_nash_check(args) -> int:
    config = read_json(args.config, config_from_dict)
    config.validate()
    result = is_nash(config, mode=args.mode)
    if result:
        print(
            f"Nash equilibrium: no improving {args.mode} move among "
            f"{len(config.items)} items in {len(config.bins_map)} bins"
        )
        return OK
    move = result.moves[0]
    print(
        f"not an equilibrium: item {move.item_id} moves bin "
        f"{move.source_bin} -> {move.target_bin}, cost "
        f"{move.cost_before} -> {move.cost_after} "
        f"({len(result.moves)} improving moves total)",
        file=sys.stderr,
    )
    return VERIFY_FAIL


def cmd_game_dynamics(args) -> int:
    config = read_json(args.config, config_from_dict)
    config.validate()
    before = config.social_cost()
    result = best_response_dynamics(
        config,
        args.policy,
        max_steps=args.max_steps,
        seed=args.seed,
        mode=args.mode,
    )
    after = result.config.social_cost()
    print(
        f"{result.status} after {result.steps} steps: social cost "
        f"{before} -> {after}"
    )
    if args.out is not None:
        command = ["game", "dynamics", "--policy", args.policy,
                   "--seed", str(args.seed), Path(args.config).name,
                   "--out", Path(args.out).name]
        doc = config_to_dict(result.config)
        doc["dynamics"] = {"policy": args.policy, "steps": result.steps,
                           "status": result.status}
        _emit(args, args.out, doc, command, {"config": args.config})
        print(f"wrote {args.out}")
    return OK if result.status == "nash" else VERIFY_FAIL


def _anarchy_doc(inst, kind: str) -> dict:
    doc = {
        "kind": kind,
        "copies": inst.copies,
        "scaled": inst.scaled,
        "optimum_bins": inst.copies,
        "equilibrium_bins": int(inst.ratio * inst.copies),
        "items": inst.copies * len(inst.source_bin.cubes),
        "ratio": format_rational(inst.ratio),
        "equilibrium_certified": inst.nash is not None and bool(inst.nash),
    }
    if inst.strong is not None:
        doc["coalition_proof"] = bool(inst.strong)
        doc["max_coalition_size"] = inst.strong.max_coalition_size
    return doc


def _anarchy_row(doc: dict) -> dict:
    """A reproduce row of a poa or spoa document, whose certificate it names."""
    row = {key: doc[key] for key in ("ratio", "optimum_bins", "equilibrium_bins")}
    if "coalition_proof" in doc:
        row.update(certified=doc["coalition_proof"],
                   coalition_cap=doc["max_coalition_size"])
    else:
        row["certified"] = doc["equilibrium_certified"]
    return row


def _write_anarchy(args, inst, doc: dict, subcommand: str, *flags: str) -> None:
    """The --out tail of poa and spoa: both configurations plus a manifest."""
    if args.out is None:
        return
    command = ["game", subcommand, "--packing", Path(args.packing).name, *flags,
               "--out", Path(args.out).name]
    doc["p"] = config_to_dict(inst.p)
    doc["p_prime"] = config_to_dict(inst.p_prime)
    _emit(args, args.out, doc, command, {"packing": args.packing})
    print(f"wrote {args.out}")


def cmd_game_poa(args) -> int:
    packing = read_json(args.packing, packing_from_dict)
    inst = poa_instance(
        packing, copies_cap=args.copies_cap, certify=not args.no_certify
    )
    doc = _anarchy_doc(inst, "price-of-anarchy")
    print(
        f"optimum {doc['optimum_bins']} bins vs equilibrium "
        f"{doc['equilibrium_bins']} bins: ratio {inst.ratio}"
        + (" (certified Nash)" if doc["equilibrium_certified"] else "")
    )
    _write_anarchy(args, inst, doc, "poa")
    return OK


def cmd_game_spoa(args) -> int:
    packing = read_json(args.packing, packing_from_dict)
    inst = spoa_instance(
        packing,
        coalition_cap=args.coalition_cap,
        copies_cap=args.copies_cap,
        certify=not args.no_certify,
    )
    doc = _anarchy_doc(inst, "strong-price-of-anarchy")
    line = (
        f"optimum {doc['optimum_bins']} bins vs equilibrium "
        f"{doc['equilibrium_bins']} bins: ratio {inst.ratio}"
    )
    if doc.get("coalition_proof"):
        line += f" (no improving coalition up to size {args.coalition_cap})"
    print(line)
    _write_anarchy(args, inst, doc, "spoa", "--coalition-cap", str(args.coalition_cap))
    return OK


def cmd_game_prop1(args) -> int:
    checked, failures = prop1_sweep(args.kmax, args.dmax)
    if failures:
        print(
            f"FAIL: {len(failures)} of {checked} triples violate the "
            f"regrouping inequality, first {failures[0]}",
            file=sys.stderr,
        )
        return VERIFY_FAIL
    print(
        f"OK: regrouping inequality holds for all {checked} triples "
        f"(2 <= k < l <= {args.kmax}, 2 <= d <= {args.dmax})"
    )
    return OK


# ---------------------------------------------------------------------------
# reproduce


def _slice_family(family: SeparatedFamily, classes: tuple) -> SeparatedFamily:
    langs = {k: family.languages[k] for k in classes}
    return SeparatedFamily(
        family.d, classes, langs, family.fsets, family.seed, family.mode
    )


def _reproduce_dimension(args, d: int, base_command: list, artifacts: list) -> dict:
    """One summary row: each stage ok, skipped, or failed with its reason."""
    row: dict = {"d": d}
    built: dict = {}  # family, slim packing, adversary and its instance file

    def run(stage: str, body: Callable[[], dict]) -> None:
        # a body that skips its stage returns its own status
        try:
            row[stage] = {"status": "ok", **body()}
        except Exception as exc:
            row[stage] = {"status": "error", "error": str(exc)}

    def need(stage: str):
        if stage not in built:
            raise RuntimeError(f"{stage} stage failed")
        return built[stage]

    def emit(name: str, stage: str, doc: dict, inputs=None) -> Path:
        path = _emit(args, args.out_dir / f"{name}_d{d}.json", doc, base_command,
                     inputs, stage=f"{stage}_d{d}")
        artifacts.append(path)
        return path

    def family() -> dict:
        # the hand-built family, handed on only once its certificate holds
        fam = warmup_family(d)
        cert = fam.certify()
        if not cert:
            raise RuntimeError("family certificate failed: not separated")
        built["family"] = fam
        emit("family", "family", family_to_dict(fam))
        return {"S": len(fam.classes), "classes": list(fam.classes),
                "sizes": {str(k): v for k, v in sorted(fam.sizes().items())},
                "weight": format_rational(fam.weight())}

    def packing() -> dict:
        # the induced packing, verified cube by cube
        fam = need("family")
        cap = None if sum(fam.sizes().values()) <= 20_000 else 200
        epsilon = Fraction(1, d * d)
        pk = build_packing(fam, epsilon, per_class_cap=cap)
        emit("packing", "packing", packing_to_dict(pk))
        return {"epsilon": format_rational(epsilon), "cubes": sum(pk.nu.values()),
                "truncated": cap is not None, "weight": format_rational(pk.weight()),
                "occupied": format_rational(pk.occupied())}

    def adversary() -> dict:
        # the adversarial stream at M=1 on the two smallest classes, whose
        # packing the poa stage reuses
        classes = (2, 3) if d >= 3 else (2,)
        slim = _slice_family(need("family"), classes)
        built["slim"] = build_packing(slim, Fraction(1, max(classes) ** 2))
        adv = built["adversary"] = adversarial_instance(built["slim"], 1)
        built["instance"] = emit("instance", "adversary", _adversary_doc(adv))
        return {"classes": list(classes), "m": 1, "scale": adv.scale,
                "items": adv.instance.total_items, "lower_bound": adv.lower_bound,
                "offline_bins": adv.offline_bin_count}

    def online() -> dict:
        # the one-bin-per-class baseline against that stream
        adv = need("adversary")
        result = _replay(adv.instance, 1, adv.offline_bin_count, adv.lower_bound)
        path = built.get("instance")
        emit("online", "online", _run_doc("class-harmonic", 1, result),
             {"instance": path} if path else None)
        return {"bins_used": result.bins_used,
                "ratio": format_rational(result.report.ratio)}

    def poa() -> dict:
        # optimum vs selfish regrouping on the adversary's classes
        if "slim" not in built:
            # the packing was not built: report why, as the adversary did
            raise RuntimeError(row["adversary"]["error"])
        doc = _anarchy_doc(poa_instance(built["slim"]), "price-of-anarchy")
        emit("poa", "poa", doc)
        return _anarchy_row(doc)

    def spoa() -> dict:
        # the same comparison under coalitions, power-of-two classes
        if d == 3:
            # class 4 pins letter 4 at coordinate 4 and the sampled index
            # sets cannot be disjoint inside [1..3]: no power-of-two pair
            return {"status": "skipped",
                    "reason": "no power-of-two class pair fits dimension 3"}
        if d == 2:
            fam = build_separated_family(d, (2, 4), _sub_seed(args.seed, "spoa", d))
        else:
            fam = _slice_family(need("family"), (2, 4))
        inst = spoa_instance(build_packing(fam, Fraction(1, 16)),
                             coalition_cap=3, copies_cap=16)
        doc = _anarchy_doc(inst, "strong-price-of-anarchy")
        emit("spoa", "spoa", doc)
        return _anarchy_row(doc)

    for stage, body in (("family", family), ("packing", packing),
                        ("adversary", adversary), ("online", online),
                        ("poa", poa), ("spoa", spoa)):
        run(stage, body)
    return row


_CSV_COLUMNS = (
    "d", "S", "epsilon", "sizes", "weight", "adversary_lower_bound",
    "online_bins", "online_ratio", "poa_ratio", "spoa_ratio",
)


def _csv_row(row: dict) -> dict:
    def get(stage: str, key: str):
        block = row.get(stage, {})
        return block.get(key, "") if block.get("status") == "ok" else ""

    sizes = get("family", "sizes")
    return {
        "d": row["d"],
        "S": get("family", "S"),
        "epsilon": get("packing", "epsilon"),
        "sizes": " ".join(f"{k}:{v}" for k, v in sizes.items()) if sizes else "",
        "weight": get("family", "weight"),
        "adversary_lower_bound": get("adversary", "lower_bound"),
        "online_bins": get("online", "bins_used"),
        "online_ratio": get("online", "ratio"),
        "poa_ratio": get("poa", "ratio"),
        "spoa_ratio": get("spoa", "ratio"),
    }


def cmd_reproduce(args) -> int:
    if min(args.d_list) < 2 or len(set(args.d_list)) < len(args.d_list):
        raise ValueError(f"--d-list needs distinct dimensions >= 2, got {args.d_list}")
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    base_command = ["reproduce", "--d-list", *map(str, args.d_list),
                    "--seed", str(args.seed), "--log-base", args.log_base]
    artifacts: list = []
    rows = [_reproduce_dimension(args, d, base_command, artifacts) for d in args.d_list]
    summary = {"d_list": list(args.d_list), "rows": rows}
    artifacts.append(_emit(args, out_dir / "summary.json", summary, base_command))

    csv_path = out_dir / "summary.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(_csv_row(row))
    artifacts.append(csv_path)

    hash_path = out_dir / "bundle.sha256"
    lines = [
        f"{_sha256(p)}  {p.name}"
        for p in sorted(artifacts, key=lambda p: p.name)
    ]
    bundle = _hasher("\n".join(lines).encode()).hexdigest()
    hash_path.write_text("\n".join(lines) + f"\nbundle {bundle}\n")

    failed = False
    for row in rows:
        stages = {s: block for s, block in row.items() if s != "d"}
        print(f"d={row['d']}: " + ", ".join(f"{s}={b['status']}" for s, b in stages.items()))
        for s, block in stages.items():
            if block["status"] == "error":
                failed = True
                print(f"  {s}: {block['error']}", file=sys.stderr)
    print(f"bundle {bundle} ({len(artifacts)} files in {out_dir})")
    return VERIFY_FAIL if failed else OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubepack",
        description="exact hypercube packings, online lower bounds, packing games",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    parser.add_argument("--log-base", choices=("natural", "2"), default="natural",
                        help="convention for the log in asymptotic targets")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for reproduce artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    pack = sub.add_parser("pack", help="build and inspect packings")
    psub = pack.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("build", help="construct a packing and write it as JSON")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--mode", choices=("warmup", "lemmaA", "lemmaB"),
                   default="warmup")
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--eps", default=None,
                   help="rational like 1/9; warmup mode only (default 1/d^2)")
    p.add_argument("--per-class-cap", type=int, default=None,
                   help="materialize at most this many cubes per class")
    p.add_argument("--s-prime", type=int, default=None,
                   help="override the class-count formula in lemmaB mode")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_pack_build)
    p = psub.add_parser("verify", help="re-check a packing file exactly")
    p.add_argument("packing", type=Path)
    p.set_defaults(func=cmd_pack_verify)
    p = psub.add_parser("weight", help="print the packing's exact weight")
    p.add_argument("packing", type=Path)
    p.set_defaults(func=cmd_pack_weight)

    online = sub.add_parser("online", help="bounded-space adversary and harness")
    osub = online.add_subparsers(dest="subcommand", required=True)
    p = osub.add_parser("adversary",
                        help="emit the segmented stream a packing induces")
    p.add_argument("--packing", type=Path, required=True)
    p.add_argument("--M", dest="m", type=int, required=True,
                   help="open-bin budget the bound is certified against")
    p.add_argument("--scale", type=int, default=None,
                   help="copies of the packing (default 2*M*prod (k-1)^d)")
    p.add_argument("--order", default="ascending",
                   choices=("ascending", "descending"))
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_online_adversary)
    p = osub.add_parser("run", help="replay an instance under the M-bin rule")
    p.add_argument("--alg", choices=("class-harmonic",), required=True)
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--M", dest="m", type=int, required=True)
    p.add_argument("--report", type=Path, required=True)
    p.set_defaults(func=cmd_online_run)

    game = sub.add_parser("game", help="selfish packing game analysis")
    gsub = game.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("nash-check",
                        help="exit 0 iff no item has an improving move")
    p.add_argument("config", type=Path)
    p.add_argument("--mode", choices=("insertion", "repack"), default="insertion")
    p.set_defaults(func=cmd_game_nash_check)
    p = gsub.add_parser("dynamics", help="run best-response dynamics")
    p.add_argument("config", type=Path)
    p.add_argument("--policy", default="best",
                   choices=("first", "best", "random"))
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--mode", choices=("insertion", "repack"), default="insertion")
    p.add_argument("--out", type=Path, default=None,
                   help="write the final configuration here")
    p.set_defaults(func=cmd_game_dynamics)
    p = gsub.add_parser("poa", help="optimum vs selfish regrouping of a packing")
    p.add_argument("--packing", type=Path, required=True)
    p.add_argument("--copies-cap", type=int, default=COPIES_CAP)
    p.add_argument("--no-certify", action="store_true")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_game_poa)
    p = gsub.add_parser("spoa", help="as poa, robust against coalitions")
    p.add_argument("--packing", type=Path, required=True)
    p.add_argument("--coalition-cap", type=int, default=3)
    p.add_argument("--copies-cap", type=int, default=COPIES_CAP)
    p.add_argument("--no-certify", action="store_true")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_game_spoa)
    p = gsub.add_parser("prop1", help="sweep the grid regrouping inequality")
    p.add_argument("--kmax", type=int, default=100)
    p.add_argument("--dmax", type=int, default=20)
    p.set_defaults(func=cmd_game_prop1)

    p = sub.add_parser("reproduce",
                       help="end-to-end pipeline per dimension, hashed bundle")
    p.add_argument("--d-list", type=int, nargs="+", default=[3, 4])
    p.add_argument("--seed", type=int, default=S)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _int_digits(0):
            return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except (RuntimeError, AssertionError) as exc:
        # every certifier and search budget fails with a RuntimeError
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
