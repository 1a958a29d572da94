"""Shared SparkSession bootstrap for spark-submit entrypoints.

Mirrors the pytest fixture's config (tests use the conftest fixture and
must not import this).
"""
import os


def get_spark(app: str):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # Keep stage progress bars out of the results_*.log files.
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
