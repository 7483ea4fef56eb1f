"""Fig. 10 (as a table): distance percent of TSExplain vs the three
explanation-agnostic baselines on the synthetic corpus, per SNR level.

All methods receive the oracle ground-truth K (as in the paper). Expected
shape: TSExplain lowest at every SNR, approaching 0 for SNR > 35; Bottom-Up
the closest baseline.

Knobs: REPRO_FIG10_DATASETS (default 5, paper 20).
"""
from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import env_int, save_table  # noqa: E402

from repro.core.pipeline import Config, explain_series, moving_average  # noqa: E402
from repro.datasets import synthetic  # noqa: E402
from repro.eval.harness import run_baseline  # noqa: E402
from repro.eval.metrics import distance_percent  # noqa: E402
from repro.segbase import BASELINES  # noqa: E402

METHODS = ["TSExplain", *BASELINES]

# The paper smooths "very fuzzy datasets" with a moving average before
# explaining (Sec. 7.4); we apply the same preprocessing to every method at
# the noisy SNR levels so the comparison stays fair.
SMOOTH_BELOW_SNR = 35.0
SMOOTH_WINDOW = 5


def run(spark=None, n_datasets=None) -> pd.DataFrame:
    n_datasets = n_datasets or env_int("REPRO_FIG10_DATASETS", 5)
    acc = defaultdict(list)
    for d in range(n_datasets):
        for snr in synthetic.SNR_LEVELS:
            sd = synthetic.generate(n=100, snr_db=snr, seed=200 + d)
            smooth = SMOOTH_WINDOW if snr < SMOOTH_BELOW_SNR else 1
            S = moving_average(sd.S, smooth)
            total = moving_average(sd.total[None, :], smooth)[0]
            res = explain_series(
                S,
                sd.labels,
                list(sd.attrs),
                total,
                Config(K=sd.gt_k, use_filter=False, use_sketch=False),
            )
            acc[(snr, "TSExplain")].append(
                distance_percent(res.cuts, sd.gt_cuts, sd.n)
            )
            for name in BASELINES:
                cuts, _ = run_baseline(name, total, sd.gt_k)
                acc[(snr, name)].append(distance_percent(cuts, sd.gt_cuts, sd.n))
        print(f"[fig10] dataset {d + 1}/{n_datasets} done")
    rows = []
    for snr in synthetic.SNR_LEVELS:
        row = {"snr_db": snr}
        for mth in METHODS:
            row[mth] = round(float(np.mean(acc[(snr, mth)])), 3)
        rows.append(row)
    return pd.DataFrame(rows)


def main() -> None:
    save_table(run(), "fig10_effectiveness", "Fig. 10 — distance percent vs baselines")


if __name__ == "__main__":
    main()
