"""Shared plumbing for the table/figure jobs.

Each job exposes ``run(spark=None) -> pandas.DataFrame`` (the table the paper
prints) plus a ``main()`` wrapper so it can be launched either as
``python jobs/<name>.py`` or ``spark-submit jobs/<name>.py``. Results also
land in ``results/<name>.csv`` for EXPERIMENTS.md.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pandas as pd

from repro.sparkconf import get_spark  # noqa: F401  (the jobs' session builder)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"


def save_table(df: pd.DataFrame, name: str, title: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    df.to_csv(RESULTS_DIR / f"{name}.csv", index=False)
    print(f"== {title} ==", file=sys.stdout)
    print(df.to_string(index=False))
    print(f"[saved results/{name}.csv]")


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_flag(name: str, default: bool = False) -> bool:
    return os.environ.get(name, "1" if default else "0") not in ("0", "", "false")
