"""Fig. 6 (as a table): effectiveness of the within-segment variance designs.

For every synthetic dataset, rank the ground-truth segmentation's objective
among uniformly sampled K-segmentations under each of the eight metrics
(tse, dist1, dist2, allpair and their squared S-variants), then rank the
metrics against each other; report the average metric rank per SNR level.
Expected shape: ``tse`` has the best (lowest) average rank at every SNR.

Knobs: REPRO_FIG6_DATASETS (default 5, paper 20), REPRO_FIG6_SAMPLES
(default 2000, paper 10000).
"""
from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import env_int, save_table  # noqa: E402

from repro.core.kseg import all_segments  # noqa: E402
from repro.core.pipeline import _aligned_matrix  # noqa: E402
from repro.core.segcost import ALL_METRICS, costs_for_segments  # noqa: E402
from repro.core.space import ExplanationSpace  # noqa: E402
from repro.core.toplists import compute_toplists, object_segments  # noqa: E402
from repro.datasets import synthetic  # noqa: E402
from repro.eval.metrics import (  # noqa: E402
    ground_truth_rank,
    rank_across_metrics,
    sample_segmentations,
)


def metric_cost_tables(sd: synthetic.SynthData):
    """Cost dict per metric for every segment of one dataset."""
    space = ExplanationSpace(sd.labels, sd.attrs)
    S_al = _aligned_matrix(sd.S, sd.labels, space)
    segs = all_segments(range(sd.n))
    obj_tl = compute_toplists(S_al, space, object_segments(sd.n), m=3, use_gv=False)
    cen_tl = compute_toplists(S_al, space, segs, m=3, use_gv=False)
    costs = costs_for_segments(S_al, obj_tl, cen_tl, ALL_METRICS)
    return {mt: dict(zip(segs, arr)) for mt, arr in costs.items()}


def run(spark=None, n_datasets=None, n_samples=None) -> pd.DataFrame:
    n_datasets = n_datasets or env_int("REPRO_FIG6_DATASETS", 5)
    n_samples = n_samples or env_int("REPRO_FIG6_SAMPLES", 2000)
    acc = defaultdict(list)
    for d in range(n_datasets):
        for snr in synthetic.SNR_LEVELS:
            sd = synthetic.generate(n=100, snr_db=snr, seed=200 + d)
            tables = metric_cost_tables(sd)
            samples = sample_segmentations(sd.n, sd.gt_k, n_samples, seed=d)
            gt_ranks = {
                mt: ground_truth_rank(sd.gt_cuts, sd.n, tables[mt], samples)
                for mt in ALL_METRICS
            }
            for mt, r in rank_across_metrics(gt_ranks).items():
                acc[(snr, mt)].append(r)
        print(f"[fig6] dataset {d + 1}/{n_datasets} done")
    rows = []
    for snr in synthetic.SNR_LEVELS:
        row = {"snr_db": snr}
        for mt in ALL_METRICS:
            row[mt] = round(float(np.mean(acc[(snr, mt)])), 3)
        rows.append(row)
    return pd.DataFrame(rows)


def main() -> None:
    save_table(run(), "fig6_variance_rank", "Fig. 6 — average metric rank per SNR")


if __name__ == "__main__":
    main()
