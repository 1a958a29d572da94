"""Smoke check of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

Runs every workload of ``workloads.py`` untraced and traced in one Spark
session, at tiny n, and fails unless each run is correct and emits every
metric ``BENCHMARK.json`` lists for its mode. Not part of the test suite.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run as bench

#: Tiny sizes for each workload.
TINY = {"ca-one-group": {"n": 240, "count": 5}, "sn-large": {"n": 300, "count": 10}, "asf-all-methods": {"n": 200, "count": 40}}


def main() -> int:
    bench.use_checkout()
    import workloads

    spec = json.loads(bench.SPEC.read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    listed = [w["name"] for w in spec["workloads"]]
    errors = []
    if sorted(listed) != sorted(workloads.WORKLOADS):
        errors.append(f"BENCHMARK.json lists {listed}, workloads.py defines {sorted(workloads.WORKLOADS)}")
    spark = bench.start_spark()
    try:
        for name in listed:
            wl = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
            for trace in (0, 1):
                run = workloads.Run(spark, wl, seed=1, seconds=0)
                measured = run.execute(trace=bool(trace))
                run.close()
                missing = [m for m in wanted[trace] if m not in measured]
                zero = [m for m in wanted[trace] if measured.get(m) == 0]
                status = "ok" if not (missing or zero or run.problems or run.failed) else "FAIL"
                print(f"{name} trace={trace}: {status} ({len(measured)} metrics, "
                      f"{run.failed}/{run.attempted} failed)", flush=True)
                for what, items in (("missing", missing), ("zero", zero), ("problems", run.problems)):
                    if items:
                        errors.append(f"{name} trace={trace} {what}: {items}")
    finally:
        bench.stop_spark(spark)
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
