"""IIM — Imputation via Individual Models (Algorithms 1 and 2).

Learning phase (:func:`learn_models`): for each complete tuple t_i in r,
take its l nearest neighbors on the complete attributes F (the tuple
itself first, as in the paper's Example 2, then by distance and row id)
and fit an individual ridge regression F -> A_x (Formula 5); l=1 uses
the single-neighbor rule, phi[C] = t_i[A_x].

Imputation phase (:func:`impute`): for each incomplete tuple t_x, take
its k nearest complete neighbors, let each neighbor's individual model
predict a candidate (Formula 9), and combine candidates with the
vote weights of Formulas 10-12 (candidates close to the other
candidates get more weight; the all-equal case degenerates to uniform
weights, which keeps Propositions 1-2 exact).

Spark layout: r is collected to the driver as numpy
(:func:`~.nn.collect_relation`). Fixed-l learning is the one-point grid
``[l]`` of adaptive learning's candidate sweep, so both fan out through
the one learning pass of :mod:`.adaptive`. Imputation finds the queries'
k nearest neighbors and votes on the driver, in one query kNN that also
decides which models :func:`iim_impute` learns.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from . import adaptive, linalg
from .nn import ID, Relation, collect_relation, finite_matrix, knn_numpy

MODEL_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("phi", ArrayType(DoubleType(), False), False),
    ]
)

IMPUTED_SCHEMA = StructType(
    [
        StructField(ID, LongType(), False),
        StructField("imputed", DoubleType(), False),
    ]
)

#: Queries per driver-side kNN call: keeps each |block| x n distance
#: temporary small (all 125 queries of SN at n=5000 at once raised the
#: driver's peak RSS by 12 MB).
QUERY_BLOCK = 32


# ---------------------------------------------------------------- learning


def learn_models(
    spark: SparkSession,
    r: DataFrame,
    F: Sequence[str],
    A_x: str,
    l: int,
    *,
    alpha: float = linalg.DEFAULT_ALPHA,
) -> DataFrame:
    """Algorithm 1: individual model per complete tuple, fixed l.

    Returns a DataFrame ``(row_id, phi)`` where ``phi`` is the
    (1+|F|)-vector [intercept, slopes...] of t_i's individual model.
    Learned as the one-point grid ``[l]`` of the adaptive candidate
    sweep; l outside 1..|r| raises a ValueError.
    """
    rel = collect_relation(r, F, A_x)
    return _learn_fixed(spark, rel, l, np.arange(rel.n), alpha)


def _learn_fixed(
    spark: SparkSession, rel: Relation, l: int, todo: np.ndarray, alpha: float
) -> DataFrame:
    """``(row_id, phi)`` of the tuples at positions ``todo``, fixed l."""
    rel.check_count("l", l, rel.n)
    return adaptive._learn(spark, rel, np.array([l]), todo, alpha).select(ID, "phi")


# --------------------------------------------------------------- combining


def combine_candidates(C: np.ndarray, *, weighting: str = "vote", tol: float = 1e-12) -> np.ndarray:
    """Aggregate candidate matrices (q x k) into imputations (Formulas 10-12).

    vote: w_i proportional to 1 / sum_j |c_i - c_j|; rows whose candidates are
    all (numerically) equal fall back to uniform weights — the c=0 case,
    which also makes the l=n setting coincide exactly with GLR (Prop. 2).
    """
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    q, k = C.shape
    if weighting == "uniform" or k == 1:
        return C.mean(axis=1)
    if weighting != "vote":
        raise ValueError(f"unknown weighting {weighting!r}")
    c = np.abs(C[:, :, None] - C[:, None, :]).sum(axis=2)  # (q, k) distances c_xi
    out = np.empty(q)
    degenerate = c.max(axis=1) <= tol
    out[degenerate] = C[degenerate].mean(axis=1)
    ok = ~degenerate
    if ok.any():
        inv = 1.0 / np.maximum(c[ok], tol)
        w = inv / inv.sum(axis=1, keepdims=True)
        out[ok] = (C[ok] * w).sum(axis=1)
    return out


# --------------------------------------------------------------- imputation


def impute(
    spark: SparkSession,
    r: DataFrame | Relation,
    incomplete: DataFrame,
    models: DataFrame,
    F: Sequence[str],
    A_x: str,
    k: int,
    *,
    weighting: str = "vote",
) -> DataFrame:
    """Algorithm 2: impute ``incomplete[A_x]`` from the individual models.

    ``models`` may cover any subset of r: every model id must be in r,
    and every neighbor a query consults must have a model, or a
    ValueError names the id. ``r`` may be passed already collected.
    Returns ``(row_id, imputed)`` with one row per incomplete tuple.
    k outside 1..|r| raises a ValueError.
    """
    rel = r if isinstance(r, Relation) else collect_relation(r, F, A_x)
    q_ids, Q, idx = _query_neighbors(rel, incomplete, F, k)
    mp = models.select(ID, "phi").toPandas()
    pos = rel.positions(mp[ID].to_numpy(np.int64), "model")
    seen, count = np.unique(pos, return_counts=True)
    if (count > 1).any():
        raise ValueError(f"more than one model for row_id {rel.ids[seen[count > 1][0]]}")
    Phi = np.zeros((rel.n, len(F) + 1))  # rows of r without a model stay unread
    Phi[pos] = np.array(mp["phi"].tolist(), dtype=np.float64).reshape(len(pos), len(F) + 1)
    has = np.zeros(rel.n, dtype=bool)
    has[pos] = True
    lacking = ~has[idx]
    if lacking.any():
        qi, j = np.argwhere(lacking)[0]
        raise ValueError(
            f"neighbor row_id {rel.ids[idx[qi, j]]} of incomplete tuple "
            f"row_id {q_ids[qi]} has no model"
        )
    # candidates: (q, k) — each neighbor's model applied to t_x[F] (Formula 9)
    P = Phi[idx]  # (q, k, m)
    cand = P[:, :, 0] + np.einsum("qkm,qm->qk", P[:, :, 1:], Q)
    vals = combine_candidates(cand, weighting=weighting)
    return spark.createDataFrame(pd.DataFrame({ID: q_ids, "imputed": vals}), IMPUTED_SCHEMA)


def _query_neighbors(
    rel: Relation, incomplete: DataFrame, F: Sequence[str], k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The incomplete tuples' ids and F-values (ordered by id) and the
    positions in ``rel`` of their k nearest complete neighbors.

    Computed on the driver in fixed blocks, so the neighbors that
    decide which models are learned are the very ones imputation reads
    (the rounding of the distance expansion depends on the shape of the
    query block, so a per-partition kNN can break near-ties otherwise).
    """
    pdf = incomplete.select(ID, *F).toPandas().sort_values(ID)
    Q = finite_matrix(pdf, F, "the incomplete relation")
    rel.check_count("k", k, rel.n)
    idx = np.empty((len(Q), k), dtype=np.int64)
    for s in range(0, len(Q), QUERY_BLOCK):
        idx[s : s + QUERY_BLOCK], _ = knn_numpy(
            Q[s : s + QUERY_BLOCK], rel.X, k, r_ids=rel.ids
        )
    return pdf[ID].to_numpy(np.int64), Q, idx


def iim_impute(
    spark: SparkSession,
    r: DataFrame,
    incomplete: DataFrame,
    F: Sequence[str],
    A_x: str,
    *,
    k: int = 10,
    l: int | None = None,
    h: int | None = None,
    l_max: int | None = None,
    alpha: float = linalg.DEFAULT_ALPHA,
    weighting: str = "vote",
) -> DataFrame:
    """One-shot IIM: learn (fixed-l or adaptive) then impute.

    ``l`` set -> fixed-l Algorithm 1; None -> adaptive Algorithm 3 (the
    paper's recommended mode) with stepping ``h`` (auto if None). The
    queries' k nearest complete neighbors are found first and only their
    models are learned, exactly (adaptive ones still take their
    validation lists from the full self-kNN over r).
    """
    rel = collect_relation(r, F, A_x)  # learn and impute from one collected relation
    todo = np.unique(_query_neighbors(rel, incomplete, F, k)[2])
    if l is None:
        models = adaptive.adaptive_learn(
            spark, rel, F, A_x, k=k, h=h, l_max=l_max, alpha=alpha, targets=rel.ids[todo]
        )
    else:
        models = _learn_fixed(spark, rel, l, todo, alpha)
    return impute(spark, rel, incomplete, models, F, A_x, k, weighting=weighting)
