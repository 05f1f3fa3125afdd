"""Fast self-test of the benchmark: every workload at toy size.

    python3 perfbench/selftest.py

Each workload runs one untraced and one traced toy run.  The test fails
unless every metric BENCHMARK.json names is produced and no job failed.
It takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (needs the paths above)
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run.measure(workload, seed=1, seconds=0, trace=bool(trace), toy=True)
            missing = wanted[trace] - set(record["metrics"])
            if missing:
                failures.append(f"{workload} trace={trace}: missing {sorted(missing)}")
            if record["failed"] or record["fail_frac"] != 0:
                failures.append(f"{workload} trace={trace}: {record['problems']}")
            print(f"{workload} trace={trace}: {record['attempted']} jobs, "
                  f"fail_frac {record['fail_frac']:g}, {len(record['metrics'])} metrics")
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
