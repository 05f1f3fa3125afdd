"""cubepack benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload games --seed 1 --seconds 20 --trace 0

Load model: one process, one thread, one client in a closed loop; each
job starts when the previous one returns.  A pass re-imports cubepack,
builds fresh inputs (timed as set-up) and runs the workload's jobs in a
seeded random order.  Whole passes repeat until --seconds are used up (the
pass that would overrun by more than half a pass is not started).

With --trace 0 the run prints every end-to-end metric; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead.  Either way every job's output is checked,
and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full record, with the
machine descriptor and output drift, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probe import REFERENCE_S, SpeedProbe
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Setting

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HELD_OUT_SEED = 7919  # reserved for confirming claims; never tune on it
MIN_SETUPS = 5
# A job's speed factor averages the probes taken during it, the one after
# it and the SMOOTHING probes before it.  A short job is bracketed by only
# two probes, and two samples of a millisecond kernel are noisier than
# the machine's drift over the few milliseconds they span.
SMOOTHING = 8
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest reported percentile with at least ten of a pass's jobs beyond it.

    Chosen from the jobs in one pass, not from the pooled samples, so the
    percentile is a property of the workload and does not move with the
    number of passes a run happens to fit.  A pass of fewer than twenty
    jobs has no such percentile; its tail is taken at p75 of the pooled
    passes.
    """
    fits = [q for q in PERCENTILES if jobs_per_pass * (100 - q) / 100 >= 10]
    return max(fits) if fits else 75.0


def percentile(samples: list, q: float, steps: int = 4000) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    It is a mean of all order statistics, weighted by a
    Beta((n+1)p, (n+1)(1-p)) distribution over their ranks.  A single order
    statistic jumps when two jobs of different sizes near the percentile
    swap places, as they do from seed to seed; this estimate moves smoothly.
    The Beta CDF is integrated numerically around its peak.
    """
    xs = sorted(samples)
    n, p = len(xs), q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    if n == 1 or b <= 0:
        return xs[-1]
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo, hi = max(0.0, mean - 12 * sd), min(1.0, mean + 12 * sd)
    grid = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    dens = [pdf(x) for x in grid]
    cdf = [0.0]
    for i in range(steps):
        cdf.append(cdf[-1] + (dens[i] + dens[i + 1]) * (grid[i + 1] - grid[i]) / 2)

    def cdf_at(x):
        if x <= lo:
            return 0.0
        if x >= hi:
            return cdf[-1]
        pos = (x - lo) / (hi - lo) * steps
        i = min(int(pos), steps - 1)
        return cdf[i] + (cdf[i + 1] - cdf[i]) * (pos - i)

    first = max(0, int(lo * n) - 1)
    last = min(n, int(hi * n) + 2)
    weights = [cdf_at((i + 1) / n) - cdf_at(i / n) for i in range(first, last)]
    return sum(w * x for w, x in zip(weights, xs[first:last])) / sum(weights)


def machine() -> dict:
    """Where the numbers were taken; a speed claim must name its machine."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import():
    """Import cubepack from this checkout's src/ as a user's process would."""
    for name in [n for n in sys.modules if n == "cubepack" or n.startswith("cubepack.")]:
        del sys.modules[name]
    cp = importlib.import_module("cubepack")
    cli = importlib.import_module("cubepack.cli")
    if Path(cp.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cubepack imported from {cp.__file__}, not from {SRC}")
    return cp, cli


class Run:
    """Accumulates the passes of one run."""

    def __init__(self, workload: str, seed: int, toy: bool, workdir: Path) -> None:
        self.workload, self.seed, self.toy, self.workdir = workload, seed, toy, workdir
        self.make_chains = WORKLOADS[workload][0]
        self.probe = SpeedProbe()
        self.setups: list[float] = []  # scaled seconds
        self.raw_setups: list[float] = []
        self.passes: list[dict] = []  # untraced passes
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.drift: dict[str, object] = {}

    def setup(self, index: int, tracer=None):
        """Re-import and build one pass's inputs; untraced set-ups are timed."""
        probe = self.probe
        first = len(probe.samples)
        probe.sample()
        t0 = probe.work_clock()
        cp, cli = fresh_import()
        if tracer is not None:
            tracer.install(cp)
            tracer.job = "setup"
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        setting = Setting(cp, cli, rng, self.seed, self.toy, self.workdir, probe.work_clock)
        chains = self.make_chains(setting)
        elapsed = probe.work_clock() - t0
        probe.sample()
        if tracer is None:
            self.raw_setups.append(elapsed)
            self.setups.append(elapsed * probe.scale_since(first))
        return chains, rng

    def run_pass(self, index: int, tracer=None) -> dict:
        """One pass; each job's time is scaled by the probes over that job."""
        probe = self.probe
        chains, rng = self.setup(index, tracer)
        rng.shuffle(chains)
        wall, raw_wall, units, samples = 0.0, 0.0, 0, []
        for chain in chains:
            previous = None
            for position, job in enumerate(chain):
                if tracer is not None:
                    tracer.job = f"{index}:{job.label}"
                error = None
                first = max(0, len(probe.samples) - SMOOTHING)
                t0 = probe.work_clock()
                try:
                    result = job.call(previous)
                except Exception as exc:  # a job that raises is a failed job
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = probe.work_clock() - t0
                probe.sample()
                factor = probe.scale_since(first)
                raw_wall += elapsed
                wall += elapsed * factor
                samples.extend(factor * x for x in
                               (job.samples if job.samples is not None else [elapsed]))
                self.attempted += job.count
                problems = [error] if error else self.audit(job, result)
                if problems:
                    self.failed += job.count
                    self.problems.extend(f"{job.label}: {p}" for p in problems)
                    # the rest of the chain has no input
                    for rest in chain[position + 1:]:
                        self.attempted += rest.count
                        self.failed += rest.count
                        self.problems.append(f"{rest.label}: skipped")
                    break
                units += job.units(result)
                previous = result
        if tracer is not None:
            tracer.job = None
        return {"wall_s": wall, "raw_wall_s": raw_wall, "units": units, "samples": samples}

    def audit(self, job, result) -> list:
        try:
            problems = []
            for name, value in job.drift(result).items():
                if self.drift.setdefault(name, value) != value:
                    problems.append(f"{name} differs between passes of one seed")
            return problems + job.check(result)
        except Exception as exc:  # an output the checks cannot read is wrong
            return [f"check raised {type(exc).__name__}: {exc}"]


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run passes for about `seconds`, then derive the metrics of the mode."""
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    run = Run(workload, seed, toy, workdir)
    tracer = Tracer(run.probe.work_clock) if trace else None
    start = time.perf_counter()
    pass_times: list[float] = []
    try:
        index = 0
        while True:
            t0 = time.perf_counter()
            with run.probe:
                if trace and index % 2 == 1:
                    run.traced.append(run.run_pass(index, tracer))
                else:
                    run.passes.append(run.run_pass(index))
            pass_times.append(time.perf_counter() - t0)
            index += 1
            if trace and not run.traced:
                continue
            expected_end = time.perf_counter() - start + statistics.median(pass_times) / 2
            if expected_end >= seconds:
                break
        while len(run.setups) < MIN_SETUPS:
            run.setup(index)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs_per_pass = len(run.passes[0]["samples"])
    walls = [p["wall_s"] for p in run.passes]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "toy": toy, "held_out_seed": HELD_OUT_SEED, "machine": machine(),
        "passes": len(run.passes), "traced_passes": len(run.traced),
        "jobs_per_pass": jobs_per_pass, "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "problems": run.problems[:50], "drift": drift_report(run.drift, seed),
        "probe": {"reference_s": REFERENCE_S, "samples": len(run.probe.samples),
                  "median_s": statistics.median(run.probe.samples),
                  "min_s": min(run.probe.samples), "max_s": max(run.probe.samples),
                  "spent_s": run.probe.spent},
    }
    if trace:
        overhead = statistics.median(p["wall_s"] for p in run.traced) - statistics.median(walls)
        metrics = layer_metrics(tracer.spans, len(run.traced))
        metrics["trace.overhead_s"] = overhead
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "job", "info"],
                       "spans": [s.as_row() for s in tracer.spans]}, fh)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        pooled = [x for p in run.passes for x in p["samples"]]
        tail_q = tail_percentile(jobs_per_pass)
        metrics = {
            "wall_s": statistics.median(walls),
            "work_per_s": statistics.median(p["units"] / p["wall_s"] for p in run.passes),
            "latency_p50_ms": 1e3 * percentile(pooled, 50),
            "latency_tail_ms": 1e3 * percentile(pooled, tail_q),
            "setup_s": statistics.median(run.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(latency_samples=len(pooled), tail_percentile=tail_q,
                      setup_samples=len(run.setups), walls=walls,
                      raw_walls=[p["raw_wall_s"] for p in run.passes],
                      raw_setups=run.raw_setups)
    record["metrics"] = metrics
    return record


def drift_report(observed: dict, seed: int) -> dict:
    """Compare named outputs with the anchors recorded from earlier code.

    An anchor is one value, or a table by workload seed for outputs that
    depend on it.
    """
    anchors = json.loads((HERE / "anchors.json").read_text())
    report = {}
    for name, value in sorted(observed.items()):
        expected = anchors.get(name)
        if isinstance(expected, dict):
            expected = expected.get(str(seed))
        if expected is None:
            status = "no anchor"
        else:
            status = "unchanged" if expected == value else "changed"
        report[name] = {"value": value, "anchor": expected, "status": status}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubepack" / "__init__.py").is_file():
        print(f"error: no cubepack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = record["metrics"]
    missing = set(names) - set(metrics)
    if missing:
        print(f"error: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"cubepack benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(f"passes: {record['passes']} untraced, {record['traced_passes']} traced; "
          f"jobs attempted {record['attempted']}, failed {record['failed']} "
          f"(fail_frac {record['fail_frac']:g})")
    probe = record["probe"]
    print(f"speed probe: median {1e3 * probe['median_s']:.3f} ms over {probe['samples']} "
          f"samples, reference {1e3 * probe['reference_s']:.3f} ms; times below are "
          f"in reference seconds")
    for problem in record["problems"][:10]:
        print(f"  failed: {problem}")
    for name in names:
        note = ""
        if name == "work_per_s":
            note = f"  ({WORKLOADS[args.workload][1]} per second)"
        elif name == "latency_p50_ms":
            note = f"  (p50 of {record['latency_samples']} job latencies)"
        elif name == "latency_tail_ms":
            note = (f"  (p{record['tail_percentile']:g} of {record['latency_samples']} "
                    f"job latencies)")
        elif name == "setup_s":
            note = f"  (median of {record['setup_samples']} set-ups)"
        print(f"{name} = {metrics[name]:.6g} {units[name]}{note}")
    for name, entry in record["drift"].items():
        print(f"drift {name}: {entry['status']} ({entry['value']})")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
