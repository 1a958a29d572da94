"""The local Spark set-up shared by the tests (``conftest.py``) and the
``jobs/`` entrypoints.

Master and driver memory are read at JVM launch, so they travel in
``PYSPARK_SUBMIT_ARGS``, which must be set before pyspark starts a JVM.
The session settings are honoured after launch. Broadcast joins are off
so that the Catalyst kNN joins exercise the shuffle path at test scale,
and console progress bars are off so they stay out of logs.
"""
import os


def submit_args(*extra: str) -> str:
    """``PYSPARK_SUBMIT_ARGS`` for a local run (``SPARK_MASTER``
    overrides ``local[*]``); ``extra`` adds spark-submit options."""
    return " ".join(
        [
            f"--master {os.environ.get('SPARK_MASTER', 'local[*]')}",
            *extra,
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "pyspark-shell",
        ]
    )


def get_spark(app: str):
    """The SparkSession, started with :func:`submit_args` unless
    ``PYSPARK_SUBMIT_ARGS`` is set already."""
    os.environ.setdefault("PYSPARK_SUBMIT_ARGS", submit_args())
    from pyspark.sql import SparkSession

    settings = {
        "spark.sql.shuffle.partitions": os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": -1,
        "spark.ui.showConsoleProgress": "false",
    }
    builder = SparkSession.builder.appName(app)
    for key, value in settings.items():
        builder = builder.config(key, value)
    return builder.getOrCreate()
