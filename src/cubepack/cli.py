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
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, TypeVar

from . import __version__
from .game import (
    COPIES_CAP,
    CoalitionSearchError,
    RepackSearchError,
    best_response_dynamics,
    config_from_dict,
    config_to_dict,
    is_nash,
    poa_instance,
    prop1_sweep,
    spoa_instance,
)
from .geometry import as_rational, expect_type, format_rational, verify_bin
from .languages import (
    FamilyConstructionError,
    FSetsSamplingError,
    SeparatedFamily,
    build_separated_family,
    family_to_dict,
    warmup_family,
)
from .online import (
    ClassHarmonicBaseline,
    HarnessViolation,
    adversarial_instance,
    instance_from_dict,
    instance_to_dict,
    run_bounded_space,
)
from .packing import (
    PackingVerificationError,
    build_packing,
    dense_packing_report,
    packing_from_dict,
    packing_to_dict,
    power_of_two_packing_report,
)

OK, VERIFY_FAIL, BAD_INPUT = 0, 1, 2

# Most items `online run` replays from an outside instance file.  The
# largest stream this package generates has 16,640 items (`reproduce
# --d-list 7`), which `online run` replays at about 250 us per item
# (2 cores, Python 3.11.7): 4.2 s.  The cap is six times that stream, so
# a hostile count ends in exit 2 instead of hours of replay.
STREAM_ITEM_CAP = 100_000

T = TypeVar("T")


# ---------------------------------------------------------------------------
# manifests and deterministic writers


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def make_manifest(
    command: Sequence[str],
    seed: int,
    log_base: str,
    inputs: Optional[Mapping[str, Path]] = None,
    **extra,
) -> dict:
    manifest = {
        "command": list(command),
        "seed": seed,
        "log_base": log_base,
        "version": __version__,
        "inputs": {name: _sha256(p) for name, p in (inputs or {}).items()},
    }
    manifest.update(extra)
    return manifest


def write_json(path: Path, doc: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: Path, from_dict: Callable[..., T], **kw) -> T:
    """Decode one input file and convert it with `from_dict(doc, **kw)`.

    This is the only door for outside JSON.  A hostile document fails
    structurally: it nests too deep to decode, lacks a key, or holds a
    value of the wrong JSON type where the converter expects another.
    Each is bad input (exit 2), not a failed verification.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return from_dict(json.load(fh), **kw)
        except (RecursionError, KeyError, AttributeError, TypeError, IndexError) as exc:
            raise ValueError(
                f"malformed {Path(path).name}: {type(exc).__name__}: {exc}"
            ) from exc


def _sub_seed(seed: int, stage: str, d: int) -> int:
    """Named sub-stream: one master seed fans out per (stage, dimension)."""
    digest = hashlib.sha256(f"{seed}:{stage}:{d}".encode()).hexdigest()
    return int(digest[:12], 16)


# ---------------------------------------------------------------------------
# pack


def cmd_pack_build(args) -> int:
    d, mode, seed, log_base = args.d, args.mode, args.seed, args.log_base
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
            "weight_placed": format_rational(packing.weight()),
            "weight_full": format_rational(packing.full_counts.weight()),
        }
    elif args.eps is not None:
        raise ValueError("--eps only applies to warmup mode; lemma modes fix epsilon")
    elif mode == "lemmaA":
        rep = dense_packing_report(d, seed, log_base=log_base, **cap_kw)
        packing = rep.packing
        report = {
            "mode": "lemmaA",
            "s_formula": rep.s_formula,
            "s_effective": rep.s_effective,
            "family_mode": rep.family_mode,
            "fallback_reason": rep.fallback_reason,
            "weight_full": format_rational(rep.weight_full),
            "target_density": rep.target_density,
            "target_fraction": format_rational(rep.target_fraction),
            "meets_density": rep.meets_density,
            "meets_fraction": rep.meets_fraction,
            "asserted": rep.asserted,
        }
    else:
        rep = power_of_two_packing_report(
            d, seed, log_base=log_base, s_prime=args.s_prime, **cap_kw
        )
        if rep.status == "degenerate":
            doc = {
                "status": "degenerate",
                "report": {
                    "mode": "lemmaB",
                    "s_prime": rep.s_prime,
                    "target_log_d": rep.target_log_d,
                },
                "manifest": _build_manifest(args),
            }
            write_json(args.out, doc)
            print(
                f"d={d}: S' = {rep.s_prime} < 2 leaves no power-of-two classes; "
                f"wrote degenerate report to {args.out}"
            )
            return OK
        packing = rep.packing
        report = {
            "mode": "lemmaB",
            "s_prime": rep.s_prime,
            "s_prime_overridden": rep.s_prime_overridden,
            "classes": list(rep.classes),
            "weight_full": format_rational(rep.weight_full),
            "target_log_d": rep.target_log_d,
            "meets_target": rep.meets_target,
            "asserted": rep.asserted,
        }
    doc = packing_to_dict(packing)
    doc["report"] = report
    doc["manifest"] = _build_manifest(args)
    write_json(args.out, doc)
    cubes = sum(packing.nu.values())
    print(
        f"wrote {args.out}: d={d} mode={mode} classes={list(packing.classes)} "
        f"cubes={cubes} weight={packing.weight()}"
    )
    return OK


def _build_manifest(args) -> dict:
    command = ["pack", "build", "--d", str(args.d), "--mode", args.mode,
               "--seed", str(args.seed), "--out", Path(args.out).name]
    if args.eps:
        command += ["--eps", str(args.eps)]
    if args.per_class_cap is not None:
        command += ["--per-class-cap", str(args.per_class_cap)]
    if args.s_prime is not None:
        command += ["--s-prime", str(args.s_prime)]
    return make_manifest(command, args.seed, args.log_base)


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


def _adversary_doc(result, manifest: dict) -> dict:
    doc = instance_to_dict(result.instance)
    doc.update(
        m=result.m,
        scale=result.scale,
        lower_bound=result.lower_bound,
        offline_bin_count=result.offline_bin_count,
        per_segment_lower_bounds=list(result.per_segment_lower_bounds),
        manifest=manifest,
    )
    return doc


def _ratio_doc(report) -> dict:
    return {
        "bins_used": report.bins_used,
        "opt_upper_bound": report.opt_upper_bound,
        "certified_lower_bound": report.certified_lower_bound,
        "ratio": format_rational(report.ratio),
    }


def cmd_online_adversary(args) -> int:
    packing = read_json(args.packing, packing_from_dict)
    result = adversarial_instance(packing, args.m, scale=args.scale, order=args.order)
    command = ["online", "adversary", "--packing", Path(args.packing).name,
               "--M", str(args.m), "--scale", str(result.scale),
               "--out", Path(args.out).name]
    manifest = make_manifest(command, args.seed, args.log_base, {"packing": args.packing})
    write_json(args.out, _adversary_doc(result, manifest))
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


def cmd_online_run(args) -> int:
    instance, opt, lower = read_json(args.instance, _instance_with_bounds)
    if instance.total_items > STREAM_ITEM_CAP:
        raise ValueError(
            f"instance holds {instance.total_items} items; online run replays "
            f"at most {STREAM_ITEM_CAP}"
        )
    algorithm = ClassHarmonicBaseline(args.m)
    result = run_bounded_space(
        algorithm,
        instance,
        args.m,
        opt_upper_bound=opt,
        certified_lower_bound=lower,
    )
    command = ["online", "run", "--alg", args.alg,
               "--instance", Path(args.instance).name,
               "--M", str(args.m), "--report", Path(args.report).name]
    out = {
        "algorithm": args.alg,
        "m": args.m,
        "bins_used": result.bins_used,
        "open_bins": len(result.open_bin_ids),
        "closed_bins": len(result.closed_bin_ids),
        "per_segment_new_bins": list(result.per_segment_new_bins),
        "placements": len(result.placements),
        "manifest": make_manifest(
            command, args.seed, args.log_base, {"instance": args.instance}
        ),
    }
    if result.report is not None:
        out["ratio_report"] = _ratio_doc(result.report)
    write_json(args.report, out)
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
        doc["manifest"] = make_manifest(
            command, args.seed, args.log_base, {"config": args.config}
        )
        write_json(args.out, doc)
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


def _write_anarchy(args, inst, doc: dict, subcommand: str, *flags: str) -> None:
    """The --out tail of poa and spoa: both configurations plus a manifest."""
    if args.out is None:
        return
    command = ["game", subcommand, "--packing", Path(args.packing).name, *flags,
               "--out", Path(args.out).name]
    doc["p"] = config_to_dict(inst.p)
    doc["p_prime"] = config_to_dict(inst.p_prime)
    doc["manifest"] = make_manifest(
        command, args.seed, args.log_base, {"packing": args.packing}
    )
    write_json(args.out, doc)
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


def _reproduce_dimension(d: int, seed: int, log_base: str, out_dir: Path,
                         base_command: list, artifacts: list) -> dict:
    row: dict = {"d": d}

    def manifest(stage: str, inputs: Optional[Mapping[str, Path]] = None) -> dict:
        return make_manifest(base_command, seed, log_base, inputs,
                             stage=f"{stage}_d{d}")

    def emit(name: str, doc: Mapping) -> Path:
        path = out_dir / name
        write_json(path, doc)
        artifacts.append(path)
        return path

    # stage 1: the hand-built family, certified
    family = None
    try:
        family = warmup_family(d)
        cert = family.certify()
        sizes = family.sizes()
        doc = family_to_dict(family)
        doc["manifest"] = manifest("family")
        emit(f"family_d{d}.json", doc)
        row["family"] = {
            "status": "ok",
            "S": len(family.classes),
            "classes": list(family.classes),
            "sizes": {str(k): v for k, v in sorted(sizes.items())},
            "gapped": cert.gapped_ok,
            "separated": cert.separated_ok,
            "weight": format_rational(family.weight()),
        }
    except Exception as exc:
        row["family"] = {"status": "error", "error": str(exc)}

    # stage 2: the induced packing, verified cube by cube
    packing = None
    try:
        if family is None:
            raise RuntimeError("family stage failed")
        total = sum(family.sizes().values())
        cap = None if total <= 20_000 else 200
        epsilon = Fraction(1, d * d)
        packing = build_packing(family, epsilon, per_class_cap=cap)
        doc = packing_to_dict(packing)
        doc["manifest"] = manifest("packing")
        emit(f"packing_d{d}.json", doc)
        row["packing"] = {
            "status": "ok",
            "epsilon": format_rational(epsilon),
            "cubes": sum(packing.nu.values()),
            "truncated": cap is not None,
            "weight": format_rational(packing.weight()),
            "occupied": format_rational(packing.occupied()),
        }
    except Exception as exc:
        row["packing"] = {"status": "error", "error": str(exc)}

    # stage 3: adversarial stream at M=1 on the two smallest classes; stage
    # 5 reuses its packing
    instance_path = None
    adversary = None
    slim_packing = None
    try:
        if family is None:
            raise RuntimeError("family stage failed")
        classes = (2, 3) if d >= 3 else (2,)
        slim = _slice_family(family, classes)
        slim_packing = build_packing(slim, Fraction(1, max(classes) ** 2))
        adversary = adversarial_instance(slim_packing, 1)
        instance_path = emit(
            f"instance_d{d}.json", _adversary_doc(adversary, manifest("adversary"))
        )
        row["adversary"] = {
            "status": "ok",
            "classes": list(classes),
            "m": 1,
            "scale": adversary.scale,
            "items": adversary.instance.total_items,
            "lower_bound": adversary.lower_bound,
            "offline_bins": adversary.offline_bin_count,
        }
    except Exception as exc:
        row["adversary"] = {"status": "error", "error": str(exc)}

    # stage 4: the one-bin-per-class baseline against that stream
    try:
        if adversary is None:
            raise RuntimeError("adversary stage failed")
        run = run_bounded_space(
            ClassHarmonicBaseline(1),
            adversary.instance,
            1,
            opt_upper_bound=adversary.offline_bin_count,
            certified_lower_bound=adversary.lower_bound,
        )
        doc = {
            "algorithm": "class-harmonic",
            "m": 1,
            "bins_used": run.bins_used,
            "per_segment_new_bins": list(run.per_segment_new_bins),
            "placements": len(run.placements),
            "ratio_report": _ratio_doc(run.report),
            "manifest": manifest(
                "online", {"instance": instance_path} if instance_path else None
            ),
        }
        emit(f"online_d{d}.json", doc)
        row["online"] = {
            "status": "ok",
            "bins_used": run.bins_used,
            "ratio": format_rational(run.report.ratio),
            "meets_lower_bound": run.bins_used >= adversary.lower_bound,
        }
    except Exception as exc:
        row["online"] = {"status": "error", "error": str(exc)}

    # stage 5: optimum vs selfish regrouping on the adversary's classes
    try:
        if slim_packing is None:
            # the packing was not built: report why, as stage 3 did
            raise RuntimeError(row["adversary"]["error"])
        inst = poa_instance(slim_packing)
        doc = _anarchy_doc(inst, "price-of-anarchy")
        doc["manifest"] = manifest("poa")
        emit(f"poa_d{d}.json", doc)
        row["poa"] = {
            "status": "ok",
            "ratio": doc["ratio"],
            "optimum_bins": doc["optimum_bins"],
            "equilibrium_bins": doc["equilibrium_bins"],
            "certified": doc["equilibrium_certified"],
        }
    except Exception as exc:
        row["poa"] = {"status": "error", "error": str(exc)}

    # stage 6: the same comparison under coalitions, power-of-two classes
    try:
        if d >= 4:
            if family is None:
                raise RuntimeError("family stage failed")
            spoa_family = _slice_family(family, (2, 4))
        elif d == 2:
            spoa_family = build_separated_family(
                d, (2, 4), _sub_seed(seed, "spoa", d)
            )
        else:
            # class 4 pins letter 4 at coordinate 4 and the sampled index
            # sets cannot be disjoint inside [1..3]: no power-of-two pair
            row["spoa"] = {
                "status": "skipped",
                "reason": "no power-of-two class pair fits dimension 3",
            }
            return row
        spoa_packing = build_packing(spoa_family, Fraction(1, 16))
        inst = spoa_instance(spoa_packing, coalition_cap=3, copies_cap=16)
        doc = _anarchy_doc(inst, "strong-price-of-anarchy")
        doc["manifest"] = manifest("spoa")
        emit(f"spoa_d{d}.json", doc)
        row["spoa"] = {
            "status": "ok",
            "ratio": doc["ratio"],
            "optimum_bins": doc["optimum_bins"],
            "equilibrium_bins": doc["equilibrium_bins"],
            "certified": doc["coalition_proof"],
            "coalition_cap": doc["max_coalition_size"],
        }
    except Exception as exc:
        row["spoa"] = {"status": "error", "error": str(exc)}

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
    rows = [
        _reproduce_dimension(d, args.seed, args.log_base, out_dir,
                             base_command, artifacts)
        for d in args.d_list
    ]

    summary = {
        "d_list": list(args.d_list),
        "rows": rows,
        "manifest": make_manifest(base_command, args.seed, args.log_base),
    }
    summary_path = out_dir / "summary.json"
    write_json(summary_path, summary)
    artifacts.append(summary_path)

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
    bundle = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    hash_path.write_text("\n".join(lines) + f"\nbundle {bundle}\n")

    for row in rows:
        stages = [s for s in row if s != "d"]
        line = f"d={row['d']}: " + ", ".join(
            f"{s}={row[s].get('status')}" for s in stages
        )
        print(line)
        for s in stages:
            if row[s].get("status") == "error":
                print(f"  {s}: {row[s]['error']}", file=sys.stderr)
    print(f"bundle {bundle} ({len(artifacts)} files in {out_dir})")
    return OK


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
        return args.func(args)
    except (
        PackingVerificationError,
        HarnessViolation,
        FamilyConstructionError,
        FSetsSamplingError,
        CoalitionSearchError,
        RepackSearchError,
        AssertionError,
    ) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_FAIL
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
