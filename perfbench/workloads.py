"""The benchmark's workloads and what one run of a workload does.

A run prepares the workload's data through ``eval.harness``, checks
adaptive learning against its reference on a slice of that data, warms
Spark up, then times whole imputation passes (``harness.impute_with``
over every missing-attribute group) until the run length is used. Every
pass is checked: each masked cell must come back finite, and the RMS of
every method must repeat exactly from pass to pass.

With tracing on, passes alternate between untraced and traced; the
traced ones record spans around the calls into each layer (see
``tracing.py``) and the per-tuple executor work is replayed on the
driver on a fixed sample of tuples.
"""
from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.baselines import METHODS
from repro.core import adaptive, linalg, nn
from repro.core.nn import ID, Relation
from repro.eval import harness

from tracing import Tracer

#: Neighbour count of every kNN-based method, as in ``harness.dataset_row``.
K = harness.DEFAULT_K
K_METHODS = ("IIM", "kNN", "kNNE", "ERACER")
BASELINES = tuple(m for m in METHODS if m != "IIM")

SETUP_REPS = 3
MIN_PASSES = 3
PROBE_TUPLES = 300
#: Largest row-wise relative difference of phi allowed by the probe.
PROBE_RTOL = 1e-4
REPLAY_TUPLES = 100
REPLAY_REPS = 3
MASKED_ATTR = "A1"


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n: int
    #: Tuples whose MASKED_ATTR is masked (one missing-attribute group).
    count: int
    #: Run every Table II method in a pass, not only IIM.
    all_methods: bool = False

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(METHODS) if self.all_methods else ("IIM",)

    def prepare(self, spark, seed: int) -> harness.Experiment:
        return harness.prepare_experiment(
            spark, self.dataset, n=self.n, frac=None, count=self.count,
            fixed_attr=MASKED_ATTR, seed=seed,
        )


# Why each workload was chosen, and how it was sized: README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("ca-one-group", "CA", n=4000, count=22),
        Workload("sn-large", "SN", n=5000, count=125),
        Workload("asf-all-methods", "ASF", n=600, count=100, all_methods=True),
    ]
}


def _params(method: str) -> dict:
    return {"k": K} if method in K_METHODS else {}


def _median(xs) -> float:
    return float(statistics.median(xs))


def _first_group(exp: harness.Experiment) -> harness.Experiment:
    """The experiment restricted to its first missing-attribute group."""
    g = exp.groups[0]
    return dataclasses.replace(
        exp, groups=[g], truth=exp.truth[exp.truth["attr"] == g.A_x].reset_index(drop=True)
    )


class Run:
    """One run of one workload: set-up, checks, timed passes, metrics."""

    def __init__(self, spark, workload: Workload, seed: int, seconds: float):
        self.spark = spark
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rms: dict[str, float] = {}
        self.exp: harness.Experiment | None = None
        #: Wall time of each phase of the run, for sizing the run.
        self.phases: dict[str, float] = {}
        self.walls: dict[str, list[float]] = {}

    # ------------------------------------------------------------- phases

    def setup(self, traced: bool) -> dict[str, float]:
        """Prepare the data SETUP_REPS times; keep the last copy."""
        totals: dict[str, list[float]] = {"setup_s": [], "datasets.generate_s": []}
        for _ in range(SETUP_REPS):
            if self.exp is not None:
                self.exp.complete.unpersist()
            self.tracer.reset()
            with self.tracer.installed() if traced else nullcontext():
                t0 = time.perf_counter()
                self.exp = self.wl.prepare(self.spark, self.seed)
                totals["setup_s"].append(time.perf_counter() - t0)
            totals["datasets.generate_s"].append(self.tracer.total("datasets.generate"))
        return {k: _median(v) for k, v in totals.items()}

    def exactness_probe(self) -> None:
        """adaptive_learn on a slice of r must equal adaptive_reference."""
        g = self.exp.groups[0]
        full = nn.collect_relation(self.exp.complete, g.F, g.A_x)
        rel = Relation(full.ids[:PROBE_TUPLES], full.X[:PROBE_TUPLES], full.y[:PROBE_TUPLES])
        pdf = pd.DataFrame({ID: rel.ids, **dict(zip(g.F, rel.X.T)), g.A_x: rel.y})
        h = adaptive.auto_step(rel.n, None)
        got = (
            adaptive.adaptive_learn(self.spark, self.spark.createDataFrame(pdf), g.F, g.A_x, k=K, h=h)
            .toPandas().sort_values(ID).reset_index(drop=True)
        )
        ref = adaptive.adaptive_reference(rel, k=K, h=h)
        if got[ID].tolist() != ref[ID].tolist():
            self.problems.append("probe: adaptive_learn returned other row ids")
            return
        if got["l_star"].tolist() != ref["l_star"].tolist():
            n_bad = int((got["l_star"] != ref["l_star"]).sum())
            self.problems.append(f"probe: l_star differs on {n_bad} of {rel.n} tuples")
        a, b = np.array(got["phi"].tolist()), np.array(ref["phi"].tolist())
        # Row-wise relative error: incremental and from-scratch U/V sum in
        # another order, and an ill-conditioned U amplifies the rounding.
        err = np.abs(a - b).max(axis=1) / np.maximum(np.abs(b).max(axis=1), 1e-300)
        if not err.max() <= PROBE_RTOL:
            self.problems.append(f"probe: phi differs by a relative {err.max():.3g}")

    def impute_pass(self, exp=None, traced: bool = False) -> float:
        """Impute every group with every method; check; return the wall."""
        exp = exp or self.exp
        span = self.tracer.span if traced else (lambda _: nullcontext())
        outs = {}
        with self.tracer.installed() if traced else nullcontext(), span("pass"):
            t0 = time.perf_counter()
            for m in self.wl.methods:
                name = "method.IIM" if m == "IIM" else f"baselines.{m}"
                with span(name):
                    outs[m] = harness.impute_with(self.spark, exp, m, **_params(m))
            wall = time.perf_counter() - t0
            with span("harness.score"):
                self.check(exp, outs)
        self.tracer.release()
        return wall

    def check(self, exp, outs: dict[str, pd.DataFrame | None]) -> None:
        for m, out in outs.items():
            if out is None:  # the paper's "-": unavailable on this dataset
                continue
            j = exp.truth.merge(out, on=[ID, "attr"], how="left")
            bad = int((~np.isfinite(j["imputed"].to_numpy(np.float64))).sum())
            self.attempted += len(exp.truth)
            self.failed += bad
            if len(j) != len(exp.truth):
                self.problems.append(f"{m}: duplicate imputations")
            if bad:
                continue
            rms = harness.score(exp, out)
            if exp is self.exp:
                prev = self.rms.setdefault(m, rms)
                if rms != prev:
                    self.problems.append(f"{m}: RMS {rms!r} differs from an earlier pass {prev!r}")

    def timed_passes(self, traced_run: bool) -> tuple[list[float], list[float], list[dict]]:
        """Passes until the run length is used; in a traced run every
        other pass is traced. Returns (untraced walls, traced walls,
        per-pass layer metrics). The Spark job and task counts come from
        the untraced passes, the spans from the traced ones."""
        plain, traced, work, layers = [], [], [], []
        start = time.perf_counter()
        i = 0
        while i < MIN_PASSES or time.perf_counter() - start < self.seconds:
            trace_this = traced_run and i % 2 == 1
            group = f"perfbench-pass-{i}"
            if traced_run:
                self.spark.sparkContext.setJobGroup(group, "perfbench pass")
            self.tracer.reset()
            wall = self.impute_pass(traced=trace_this)
            if trace_this:
                traced.append(wall)
                layers.append(self.layer_metrics(wall))
            else:
                plain.append(wall)
                if traced_run:
                    work.append(self.spark_work(group))
            i += 1
        for p, (jobs, tasks) in zip(layers, work):
            p.update({"spark.jobs": jobs, "spark.tasks": tasks})
        return plain, traced, layers

    def spark_work(self, group: str) -> tuple[int, int]:
        st = self.spark.sparkContext.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        tasks = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for s in info.stageIds if info else ():
                stage = st.getStageInfo(s)
                tasks += stage.numTasks if stage else 0
        return len(jobs), tasks

    def layer_metrics(self, wall: float) -> dict[str, float]:
        tr = self.tracer
        out = {
            "nn.collect_s": tr.total("nn.collect"),
            "nn.collect_calls": tr.counts["nn.collect_calls"],
            "nn.driver_knn_s": tr.total("nn.driver_knn"),
            "nn.driver_knn_pairs": tr.counts["nn.driver_knn_pairs"],
            "adaptive.prep_s": tr.total("adaptive.prep"),
            "adaptive.sweep_s": tr.total("adaptive.sweep"),
            "adaptive.models_learned": tr.counts["adaptive.models_learned"],
            "adaptive.grid_points": tr.gauges.get("adaptive.grid_points", 0),
            "linalg.solves": tr.counts["linalg.solves"],
            "iim.impute_s": tr.total("iim.impute"),
            "harness.score_s": tr.total("harness.score"),
            "trace.untraced_s": wall - tr.covered() + tr.total("harness.score"),
        }
        if self.wl.all_methods:
            out.update({f"baselines.{m}_s": tr.total(f"baselines.{m}") for m in BASELINES})
        return out

    def baseline_probe(self) -> dict[str, float]:
        """Time every baseline on the first missing-attribute group, for
        workloads whose passes run IIM only."""
        one = _first_group(self.exp)
        self.tracer.reset()
        outs = {}
        with self.tracer.installed():
            for m in BASELINES:
                with self.tracer.span(f"baselines.{m}"):
                    outs[m] = harness.impute_with(self.spark, one, m, **_params(m))
        self.check(one, outs)
        return {f"baselines.{m}_s": self.tracer.total(f"baselines.{m}") for m in BASELINES}

    def replay(self) -> dict[str, float]:
        """Per-tuple executor work of adaptive learning, replayed on the
        driver: neighbour ordering (nn.pairwise_dist + the (distance,
        row_id) sort) and the U/V sweep (linalg.prefix_params)."""
        g = self.exp.groups[0]
        rel = nn.collect_relation(self.exp.complete, g.F, g.A_x)
        grid = linalg.make_grid(rel.n, adaptive.auto_step(rel.n, None))
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(rel.n, size=min(REPLAY_TUPLES, rel.n), replace=False)
        order_t, sweep_t = [], []
        for _ in range(REPLAY_REPS):
            t0 = time.perf_counter()
            orders = []
            for p in sample:
                d = nn.pairwise_dist(rel.X[p], rel.X)[0]
                d[p] = -np.inf
                orders.append(np.lexsort((rel.ids, d)))
            t1 = time.perf_counter()
            for o in orders:
                linalg.prefix_params(rel.X[o], rel.y[o], grid)
            t2 = time.perf_counter()
            order_t.append((t1 - t0) / len(sample) * 1e3)
            sweep_t.append((t2 - t1) / len(sample) * 1e3)
        return {
            "adaptive.order_ms_per_tuple": _median(order_t),
            "linalg.sweep_ms_per_tuple": _median(sweep_t),
        }

    def consulted(self) -> dict[str, float]:
        """Distinct kNN neighbours of the queries (the models imputation
        reads) against the models adaptive learning learns."""
        consulted = learned = 0
        for g in self.exp.groups:
            rel = nn.collect_relation(self.exp.complete, g.F, g.A_x)
            Q = g.incomplete.select(*g.F).toPandas().to_numpy(np.float64)
            idx, _ = nn.knn_numpy(Q, rel.X, min(K, rel.n), r_ids=rel.ids)
            consulted += len(np.unique(idx))
            learned += rel.n
        return {"iim.models_consulted": consulted, "iim.consulted_ratio": consulted / learned}

    # ----------------------------------------------------------- the run

    def _phase(self, name: str, fn, *a, **kw):
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        self.phases[name] = time.perf_counter() - t0
        return out

    def execute(self, trace: bool) -> dict[str, float]:
        setup = self._phase("setup", self.setup, traced=trace)
        self._phase("probe", self.exactness_probe)
        self._phase("warm_up", self.impute_pass, _first_group(self.exp))
        plain, traced, layers = self._phase("passes", self.timed_passes, traced_run=trace)
        self.walls = {"untraced": plain, "traced": traced}
        if not trace:
            return {
                "setup_s": setup["setup_s"],
                "wall_s": _median(plain),
                "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        out = {k: _median([p[k] for p in layers]) for k in layers[0]}
        out["harness.rms_iim"] = self.rms["IIM"]
        out["trace.overhead_s"] = _median(traced) - _median(plain)
        out["harness.prepare_s"] = setup["setup_s"]
        out["datasets.generate_s"] = setup["datasets.generate_s"]
        out.update(self._phase("replay", self.replay))
        out.update(self._phase("consulted", self.consulted))
        if not self.wl.all_methods:
            out.update(self._phase("baseline_probe", self.baseline_probe))
        return out

    def close(self) -> None:
        if self.exp is not None:
            self.exp.complete.unpersist()
