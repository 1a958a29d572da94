"""Benchmark of the IIM reproduction: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload ca-table-v --seed 1 --seconds 10 --trace 0

The tree under test is imported from ``src/`` next to this directory, by
the driver and by Spark's Python workers; nothing needs installing. The
run starts a local Spark session with ``local[<cores>]``, runs the
workload (see ``workloads.py`` and ``README.md``), prints each metric
with its unit, writes the result with the environment it was measured in
to ``.perfbench_out/``, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = OUT / "tmp"
SPEC = ROOT / "BENCHMARK.json"
DRIVER_MEMORY = "2g"


def cores() -> int:
    return len(os.sched_getaffinity(0))


def commit() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def use_checkout() -> None:
    """Import ``repro`` from ``src/`` and keep temporary files inside the
    checkout, in this process and in the processes it starts. Runs before
    anything imports pyspark."""
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(TMP)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )


def start_spark():
    """A local session whose JVM, workers and scratch files stay inside
    the checkout (call :func:`use_checkout` first)."""
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    java_opts = f"-Djava.io.tmpdir={TMP} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM spark-submit starts first
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores()}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(TMP))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(OUT / 'warehouse'))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    # Same session settings as jobs/_session.py.
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("WARN")
    return spark


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            kids = [
                int(c)
                for t in os.listdir(f"/proc/{p}/task")
                for c in Path(f"/proc/{p}/task/{t}/children").read_text().split()
            ]
        except OSError:  # gone already
            continue
        out += kids
        todo += kids
    return out


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def stop_spark(spark) -> None:
    """Stop the session; wait for the JVM and the Python workers it
    started to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    workers = _descendants(proc.pid) if proc is not None else []
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30
    while (workers := [p for p in workers if _running(p)]) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in workers:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def worker_source(spark) -> str:
    """Where a Spark Python worker imports ``repro`` from."""
    return (
        spark.sparkContext.parallelize([0], 1)
        .map(lambda _: __import__("repro").__file__)
        .collect()[0]
    )


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    use_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.perf_counter()
    spark = start_spark()
    spark_start_s = time.perf_counter() - t0
    run = workloads.Run(spark, workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        src_seen = {__import__("repro").__file__, worker_source(spark)}
        if any(not f.startswith(str(SRC)) for f in src_seen):
            run.problems.append(f"repro imported from outside {SRC}: {sorted(src_seen)}")
        measured = run.execute(trace=bool(args.trace))
        env = {
            "commit": commit(),
            "cores": cores(),
            "spark_master": spark.sparkContext.master,
            "spark": spark.version,
            "numpy": __import__("numpy").__version__,
            "python": platform.python_version(),
            "driver_memory": DRIVER_MEMORY,
            "spark_start_s": spark_start_s,
        }
        run.close()
    finally:
        stop_spark(spark)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in measured
    }
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "rms": run.rms, "phases_s": run.phases, "pass_walls_s": run.walls, "environment": env, "problems": run.problems}, indent=2))

    for k, v in env.items():
        print(f"# {k}: {v}")
    for phase, secs in run.phases.items():
        print(f"# phase {phase}: {secs:.2f} s")
    for kind, walls in run.walls.items():
        print(f"# {kind} passes: {' '.join(f'{w:.2f}' for w in walls)} s")
    for method, rms in run.rms.items():
        print(f"# rms {method}: {rms:.6g}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(f"# failed_frac: {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} cells)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
