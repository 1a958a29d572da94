"""Nearest-neighbor search over the complete relation r, and the one
way the package fans work out over Spark's Python workers.

Both kNN paths use the paper's Formula 1 distance (root mean squared
difference over the complete attributes F; the 1/|F| factor does not
change the ranking but is kept so distances match the paper's
examples):

* :func:`knn_join` — a pure Catalyst plan (crossJoin + window) returning
  the (query, neighbor, rank, distance) pairs. This is the
  "nearest-neighbor lookup via joins" path; quadratic, used at test
  scale and checked against the DuckDB oracle.
* :func:`knn_numpy` — vectorized numpy kNN against a :class:`Relation`
  (r collected by :func:`collect_relation`), on the driver or inside
  the tasks of :func:`map_broadcast`.

Both break ties by (distance, neighbor row_id). They round distances
differently, so only near-ties can come out in another order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F_
from pyspark.sql.types import StructType


ID = "row_id"


def distance_expr(F: Sequence[str], left: str = "q_", right: str = "n_"):
    """Column expression for Formula 1 over per-side prefixed columns.

    Columns are renamed (``q_A1`` vs ``n_A1``) rather than aliased
    because a crossJoin of a relation with itself cannot disambiguate
    ``q.A1``/``r.A1`` — both resolve to the same plan node.
    """
    sq = sum(
        (F_.col(f"{left}{a}") - F_.col(f"{right}{a}")) ** 2 for a in F
    )
    return F_.sqrt(sq / F_.lit(float(len(F))))


def knn_join(
    queries: DataFrame,
    r: DataFrame,
    F: Sequence[str],
    k: int,
    *,
    exclude_self: bool = False,
    id_col: str = ID,
) -> DataFrame:
    """k nearest neighbors of every query tuple from r, as a DataFrame.

    Returns columns ``q_id, n_id, rank, dist`` (rank 1 = closest).
    ``exclude_self`` drops pairs with equal ids — used when the queries
    are themselves members of r (validation in adaptive learning).
    """
    q = queries.select(
        F_.col(id_col).alias("q_id"), *[F_.col(a).alias(f"q_{a}") for a in F]
    )
    n = r.select(
        F_.col(id_col).alias("n_id"), *[F_.col(a).alias(f"n_{a}") for a in F]
    )
    pairs = q.crossJoin(n)
    if exclude_self:
        pairs = pairs.where(F_.col("q_id") != F_.col("n_id"))
    pairs = pairs.select(
        "q_id", "n_id", distance_expr(F).alias("dist")
    )
    w = Window.partitionBy("q_id").orderBy(F_.col("dist").asc(), F_.col("n_id").asc())
    return (
        pairs.withColumn("rank", F_.row_number().over(w))
        .where(F_.col("rank") <= k)
        .select("q_id", "n_id", "rank", "dist")
    )


def pairwise_dist(Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(|Q| x |R|) Formula-1 distances, vectorized."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    # ||q-r||^2 = ||q||^2 + ||r||^2 - 2 q.r ; clamp fp negatives.
    sq = (
        (Q**2).sum(1)[:, None] + (R**2).sum(1)[None, :] - 2.0 * (Q @ R.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq / Q.shape[1])


def knn_numpy(
    Q: np.ndarray,
    R: np.ndarray,
    k: int,
    *,
    r_ids: np.ndarray | None = None,
    exclude_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (into R) and distances of the k nearest rows of R per query.

    Tie-break: (distance, r_id) ascending, matching :func:`knn_join`.
    ``exclude_ids`` (one per row of Q) removes the query's own row from
    candidacy (validation mode).
    """
    R = np.atleast_2d(np.asarray(R, dtype=np.float64))
    n = R.shape[0]
    if r_ids is None:
        r_ids = np.arange(n)
    d = pairwise_dist(Q, R)
    if exclude_ids is not None:
        for qi, ex in enumerate(np.asarray(exclude_ids)):
            d[qi, r_ids == ex] = np.inf
    k = min(k, n)
    if k * 4 < n:
        # Exact fast path: argpartition to the k-th distance, widen to all
        # exact ties at the boundary, then (dist, id)-lexsort the
        # candidates only — O(n) per row instead of O(n log n).
        order = np.empty((d.shape[0], k), dtype=np.int64)
        for qi in range(d.shape[0]):
            row = d[qi]
            kv = np.partition(row, k - 1)[k - 1]
            cand = np.flatnonzero(row <= kv)
            top = cand[np.lexsort((r_ids[cand], row[cand]))[:k]]
            order[qi] = top
    else:
        order = np.lexsort((np.broadcast_to(r_ids, d.shape), d), axis=1)[:, :k]
    rows = np.arange(d.shape[0])[:, None]
    return order, d[rows, order]


@dataclass(frozen=True)
class Relation:
    """A materialized copy of a relation for numpy-side NN work."""

    ids: np.ndarray  # (n,) int64 row ids, ascending
    X: np.ndarray  # (n, |F|) complete-attribute matrix
    y: np.ndarray  # (n,) incomplete-attribute values

    @property
    def n(self) -> int:
        return len(self.ids)

    def positions(self, ids: np.ndarray, what: str) -> np.ndarray:
        """Positions of ``ids`` in this relation; a ValueError names the
        first id that is not in it (``what`` says whose id it is)."""
        ids = np.asarray(ids, dtype=np.int64)
        unknown = ids[~np.isin(ids, self.ids)]
        if len(unknown):
            raise ValueError(f"{what} row_id {unknown[0]} is not in the complete relation r")
        return np.searchsorted(self.ids, ids)

    def check_count(self, name: str, value: int, hi: int) -> None:
        """Raise a ValueError naming ``name``'s value and |r| unless
        1 <= value <= hi."""
        if not 1 <= value <= hi:
            raise ValueError(
                f"{name}={value} is outside 1..{hi} for the complete relation r of {self.n} tuples"
            )


def finite_matrix(pdf: pd.DataFrame, cols: Sequence[str], what: str, id_col: str = ID) -> np.ndarray:
    """``pdf[cols]`` as a float matrix. A NaN or infinite value raises a
    ValueError naming its column and row id (``what`` names the relation)."""
    M = pdf[list(cols)].to_numpy(np.float64)
    bad = ~np.isfinite(M)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"{what} has a NaN or infinite value in column {cols[j]!r} "
            f"(row_id {pdf[id_col].iloc[i]})"
        )
    return M


def collect_relation(df: DataFrame, F: Sequence[str], A_x: str, id_col: str = ID) -> Relation:
    """Collect (id, F, A_x) columns of a Spark relation into numpy arrays,
    sorted by id for determinism. The relation is the complete relation
    r: a duplicate id or a NaN/infinite value raises a ValueError that
    names it."""
    cols = [id_col, *F] + ([A_x] if A_x not in F else [])
    pdf = df.select(*cols).toPandas().sort_values(id_col)
    ids = pdf[id_col].to_numpy(np.int64)
    dup = ids[1:][ids[1:] == ids[:-1]]
    if len(dup):
        raise ValueError(f"duplicate row_id {dup[0]} in the complete relation r")
    return Relation(
        ids=ids,
        X=finite_matrix(pdf, F, "the complete relation r", id_col),
        y=finite_matrix(pdf, [A_x], "the complete relation r", id_col)[:, 0],
    )


def map_broadcast(
    spark: SparkSession, src: DataFrame, payload, fn: Callable, schema: StructType
) -> DataFrame:
    """Broadcast ``payload`` once and map every non-empty batch of
    ``src`` to ``fn(payload, batch)``, a pandas frame with ``schema``'s
    columns, in Spark's Python workers. ``src`` decides the tasks, so the
    caller partitions it."""
    b = spark.sparkContext.broadcast(payload)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pl = b.value
        for pdf in batches:
            if len(pdf):
                yield fn(pl, pdf)

    return src.mapInPandas(run, schema)
