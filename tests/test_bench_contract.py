"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches
``repro.core`` attributes by name and checks the span counts against the
pipeline's structure. This guards that contract: a rename or a moved call
under ``src/`` fails here instead of silently breaking the traced run."""
import sys
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.tracing import Tracer, check_trace  # noqa: E402

from repro.core.diff import topm_for_relations  # noqa: E402
from repro.core.pipeline import explain_series  # noqa: E402
from repro.datasets import synthetic  # noqa: E402


def test_traced_explain_and_diff_are_complete(spark):
    sd = synthetic.generate(n=60, seed=5)
    test = pd.DataFrame({"g": ["a", "b", "a"], "h": [1, 2, 2], "m": [3.0, 1.0, 2.0]})
    ctrl = pd.DataFrame({"g": ["a", "b"], "h": [1, 1], "m": [1.0, 4.0]})
    test_df, ctrl_df = spark.createDataFrame(test), spark.createDataFrame(ctrl)
    tr = Tracer()
    tr.install(spark=True)  # raises if a patched attribute is gone
    try:
        with tr.span("explain"):
            res = explain_series(sd.S, sd.labels, sd.attrs, sd.total)
        with tr.span("diff"):
            topm_for_relations(test_df, ctrl_df, ["g", "h"], "m", m=2)
        # An empty side still plans its cube: a diff is two cube plans.
        with tr.span("diff"):
            topm_for_relations(test_df, ctrl_df.limit(0), ["g", "h"], "m", m=2)
    finally:
        tr.uninstall()
    roots = tr.roots()
    assert [tr.spans[r].name for r in roots] == ["explain", "diff", "diff"]
    wall = sum(tr.spans[r].dur for r in roots)
    assert check_trace(tr, wall, [(roots[0], res)]) == []
