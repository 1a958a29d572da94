"""Adaptive learning (Algorithm 3) with stepping and incremental U/V.

For every complete tuple t_i, candidate individual models are learned
over a grid of neighbor counts l in {1, 1+h, ...} (stepping, Section
V-A2). Every complete tuple t_j doubles as a validation tuple: its
value y_j is withheld and each of its k nearest neighbors t_i scores
cost[i][l] += (y_j - (1, t_j[F]) phi_i^(l))^2 (Line 7 of Algorithm 3).
Each tuple then keeps the candidate model with the lowest accumulated
validation cost.

Distribution strategy: the driver computes every tuple's k nearest
neighbors (validation assignments) and inverts them into reverse-kNN
lists (n*k ids — tiny); r, the grid and the lists are broadcast once,
and one Spark pass (:func:`~.nn.map_broadcast`) fans the per-tuple
candidate sweep out over executors, with the incremental prefix
computation of Proposition 3 inside each task. The sweep can be
restricted to a set of target tuples (the ones imputation consults);
the validation lists always come from the full self-kNN, so a target's
model is the one a full run learns. Fixed-l learning (Algorithm 1) is
the same pass over the one-point grid ``[l]``, without validation.

``adaptive_reference`` is a literal, driver-side O(n^2 * |grid|)
transcription of Algorithm 3 used by the tests to pin down the
distributed implementation exactly.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from . import linalg
from .nn import ID, Relation, collect_relation, knn_numpy, map_broadcast, pairwise_dist

ADAPTIVE_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("phi", ArrayType(DoubleType(), False), False),
        StructField("l_star", LongType(), False),
    ]
)

#: Default cap on the learning-neighbor grid: None = search l all the
#: way to n, as in Algorithm 3. (A finite cap trades the ability to
#: recover the global-regression regime, Prop. 2, for speed; the grid
#: stepping below already bounds the sweep cost.)
DEFAULT_L_MAX: int | None = None
#: Grid is thinned so it never exceeds this many candidate l values
#: unless the caller pins h explicitly (paper uses h=50 at n>=10k).
MAX_GRID_POINTS = 64


def auto_step(n: int, l_max: int | None) -> int:
    cap = n if l_max is None else min(n, l_max)
    return max(1, math.ceil(cap / MAX_GRID_POINTS))


def _sorted_neighbor_order(rel: Relation, pos: int) -> np.ndarray:
    """Positions of all tuples ordered by (distance to tuple #pos, id),
    with the tuple itself forced first (it is its own 1-NN)."""
    d = pairwise_dist(rel.X[pos], rel.X)[0]
    d[pos] = -np.inf
    return np.lexsort((rel.ids, d))


def _candidate_models(
    rel: Relation, pos: int, grid: np.ndarray, alpha: float, *, incremental: bool = True
) -> np.ndarray:
    order = _sorted_neighbor_order(rel, pos)
    fn = linalg.prefix_params if incremental else linalg.prefix_params_scratch
    return fn(rel.X[order], rel.y[order], grid, alpha)


def _best(rel: Relation, phis: np.ndarray, val_pos: np.ndarray) -> int:
    """Index of the candidate model with the lowest validation cost."""
    Xv = linalg.design(rel.X[val_pos])  # (V, m)
    err = Xv @ phis.T - rel.y[val_pos][:, None]  # (V, |grid|)
    cost = (err**2).sum(axis=0)
    return int(np.argmin(cost))  # ties -> smallest l (np.argmin is first-hit)


def _reverse_validation(rel: Relation, nn_idx: np.ndarray) -> list[np.ndarray]:
    """Invert per-tuple kNN assignments into reverse-kNN validation lists.

    ``nn_idx[j]`` holds positions of NN(t_j, F, k) excluding t_j itself.
    Tuple i's validation set is {j : i in NN(j, k)}; tuples nobody picked
    fall back to their own kNN (so every tuple is validated on *some*
    nearby data rather than defaulting to l=1).
    """
    rev: list[list[int]] = [[] for _ in range(rel.n)]
    for j in range(rel.n):
        for i in nn_idx[j]:
            rev[int(i)].append(j)
    out = []
    for i in range(rel.n):
        v = rev[i] if rev[i] else list(nn_idx[i])
        out.append(np.asarray(sorted(v), dtype=np.int64))
    return out


def _self_knn(rel: Relation, k: int, block: int = 2048) -> np.ndarray:
    """kNN of every tuple within r, excluding itself, computed in query
    blocks so the n x n distance matrix is never materialized at once."""
    kk = min(k, rel.n - 1) if rel.n > 1 else 1
    out = np.empty((rel.n, kk), dtype=np.int64)
    for s in range(0, rel.n, block):
        e = min(s + block, rel.n)
        idx, _ = knn_numpy(rel.X[s:e], rel.X, kk, r_ids=rel.ids, exclude_ids=rel.ids[s:e])
        out[s:e] = idx
    return out


def adaptive_learn(
    spark: SparkSession,
    r: DataFrame | Relation,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
    h: int | None = None,
    l_max: int | None = DEFAULT_L_MAX,
    alpha: float = linalg.DEFAULT_ALPHA,
    incremental: bool = True,
    targets: np.ndarray | None = None,
) -> DataFrame:
    """Distributed Algorithm 3. Returns ``(row_id, phi, l_star)``.

    ``r`` is the complete relation, as a DataFrame or already collected.
    ``targets`` (row ids of r) restricts the candidate sweep to those
    tuples, e.g. the neighbors imputation consults; None learns every
    tuple's model. Each target's validation list still comes from the
    full self-kNN over r, so its model is exactly the one a full run
    learns. ``incremental=False`` swaps in the from-scratch candidate
    sweep (the straightforward baseline of Table III / Fig. 12); results
    are identical, only slower — asserted by tests. k outside 1..|r|-1
    raises a ValueError (the validation kNN excludes the tuple itself).
    """
    rel = r if isinstance(r, Relation) else collect_relation(r, F, A_x)
    rel.check_count("k", k, rel.n - 1)
    grid = linalg.make_grid(rel.n, h or auto_step(rel.n, l_max), l_max)
    todo = np.arange(rel.n) if targets is None else rel.positions(np.unique(targets), "target")
    return _learn(spark, rel, grid, todo, alpha, k, incremental)


def _learn(
    spark: SparkSession, rel: Relation, grid: np.ndarray, todo: np.ndarray, alpha: float,
    k: int | None = None, incremental: bool = True,
) -> DataFrame:
    """The one learning pass: ``(row_id, phi, l_star)`` of the tuples at
    positions ``todo``. A one-point grid ``[l]`` (fixed l) has nothing to
    choose between: no self-kNN, validation lists or scoring (k unread)."""
    val_sets = _reverse_validation(rel, _self_knn(rel, k)) if len(grid) > 1 else None
    # Task input: the indices into ``todo``, split evenly without a shuffle.
    src = spark.range(len(todo), numPartitions=spark.sparkContext.defaultParallelism)
    payload = (rel, grid, val_sets, todo, alpha, incremental)
    return map_broadcast(spark, src, payload, _sweep, ADAPTIVE_SCHEMA)


def _sweep(payload: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
    """``(row_id, phi, l_star)`` of the targets at the task's indices."""
    rel, grid, val_sets, todo, alpha, incremental = payload
    rows = []
    for pos in todo[pdf["id"].to_numpy(np.int64)]:
        phis = _candidate_models(rel, pos, grid, alpha, incremental=incremental)
        g = _best(rel, phis, val_sets[pos]) if len(grid) > 1 else 0  # one point: no choice
        rows.append((int(rel.ids[pos]), phis[g].tolist(), int(grid[g])))
    return pd.DataFrame(rows, columns=[ID, "phi", "l_star"])


def adaptive_reference(
    rel: Relation,
    *,
    k: int = 10,
    h: int = 1,
    l_max: int | None = None,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> pd.DataFrame:
    """Literal driver-side Algorithm 3 (test oracle for adaptive_learn).

    Learns all candidate models from scratch for every l in the grid,
    accumulates cost[i][l] over all validation tuples, falls back to a
    tuple's own kNN when its reverse-kNN set is empty, and returns a
    pandas frame (row_id, phi, l_star).
    """
    n = rel.n
    grid = linalg.make_grid(n, h, l_max)
    # Phi[g][i] = model of tuple i learned over grid[g] neighbors.
    phis = np.empty((len(grid), n, rel.X.shape[1] + 1))
    for i in range(n):
        phis[:, i, :] = _candidate_models(rel, i, grid, alpha, incremental=False)

    nn_idx = _self_knn(rel, k)
    cost = np.zeros((n, len(grid)))
    hit = np.zeros(n, dtype=bool)
    for j in range(n):  # each tuple as validation tuple
        xj = linalg.design(rel.X[j][None, :])[0]
        for i in nn_idx[j]:
            pred = phis[:, int(i), :] @ xj
            cost[int(i)] += (rel.y[j] - pred) ** 2
            hit[int(i)] = True
    for i in np.where(~hit)[0]:  # fallback: validate on own kNN
        xv = linalg.design(rel.X[nn_idx[i]])
        cost[i] = ((xv @ phis[:, i, :].T - rel.y[nn_idx[i]][:, None]) ** 2).sum(axis=0)

    best = cost.argmin(axis=1)
    return pd.DataFrame(
        {
            ID: rel.ids,
            "phi": [phis[best[i], i, :].tolist() for i in range(n)],
            "l_star": grid[best].astype(np.int64),
        }
    )
