"""The one local SparkSession configuration, shared by the test fixture
(``conftest.py``) and the table/figure jobs (``jobs/_common.py``).

``spark.driver.memory`` is read at JVM launch, not from SparkConf, so the
master and driver memory go into ``PYSPARK_SUBMIT_ARGS`` before the first
session starts (:func:`set_submit_args`). The per-session configs that *are*
honoured after launch are set by :func:`get_spark`. Nothing here imports
pyspark at module load.
"""
from __future__ import annotations

import os


def driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback.

    The cgroup read is best-effort: a sandboxed runtime's sysfs emulation
    may not pass the host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent so the JVM
    is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def set_submit_args() -> None:
    """Put master (``SPARK_MASTER``, default ``local[*]``) and driver memory
    into ``PYSPARK_SUBMIT_ARGS`` unless the caller already set it."""
    os.environ.setdefault("SPARK_DRIVER_MEM", driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        f"--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.ui.enabled=false "
        "pyspark-shell",
    )


def get_spark(app: str):
    """Local SparkSession: shuffle partitions from ``SPARK_SHUFFLE_PARTITIONS``
    (default 64), Arrow transfers on, broadcast joins off.

    Broadcast joins are disabled so the joins exercise the shuffle path at
    SF~=0.1; a query that wants a broadcast join sets the threshold back.
    """
    set_submit_args()
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
