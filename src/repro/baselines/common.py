"""Shared plumbing for baseline imputation methods.

Every baseline has the signature

    fn(spark, r, incomplete, F, A_x, **params) -> DataFrame(row_id, imputed)

where ``r`` is the relation of complete tuples and ``incomplete`` holds
the tuples whose ``A_x`` is missing (their F columns are complete).
Model *fits* may collect r to the driver (every paper dataset is small;
see DESIGN.md), but *prediction* is always distributed: the fitted
model is broadcast and applied per partition (:func:`~..core.nn.map_broadcast`).
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.iim import IMPUTED_SCHEMA
from ..core.nn import ID, map_broadcast


def map_impute(
    spark: SparkSession,
    incomplete: DataFrame,
    F: Sequence[str],
    payload,
    batch_fn: Callable,
) -> DataFrame:
    """Distributed prediction: ``batch_fn(payload, Q) -> values`` is run
    per partition over the incomplete tuples' F-matrix Q."""
    cols = list(F)

    def predict(pl, pdf: pd.DataFrame) -> pd.DataFrame:
        vals = np.asarray(batch_fn(pl, pdf[cols].to_numpy(np.float64)), dtype=np.float64)
        return pd.DataFrame({ID: pdf[ID].to_numpy(np.int64), "imputed": vals})

    src = incomplete.select(ID, *cols).repartition(
        spark.sparkContext.defaultParallelism
    )
    return map_broadcast(spark, src, payload, predict, IMPUTED_SCHEMA)
