"""The in-memory cube ``series_matrix_pandas`` against a groupby/unstack
oracle, and the in-memory path's independence from pyspark."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import List, Sequence

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.precompute import SeriesMatrix, _attr_subsets, _labels, series_matrix_pandas
from repro.core.types import Explanation

SRC = Path(__file__).resolve().parents[1] / "src"


def series_matrix_groupby(
    pdf: pd.DataFrame,
    time_col: str,
    attrs: Sequence[str],
    measure_col: str,
    agg: str = "sum",
    beta_max: int = 3,
) -> SeriesMatrix:
    """Test oracle: the cube as one pandas groupby/unstack per grouping set
    (NULL keys kept by ``dropna=False``, rows in groupby's sorted order with
    NULL last)."""
    times = sorted(pdf[time_col].unique())
    t_index = {t: i for i, t in enumerate(times)}
    n = len(times)

    def agg_series(sub: pd.DataFrame) -> np.ndarray:
        g = sub.groupby(time_col)[measure_col]
        ser = g.sum() if agg == "sum" else g.count()
        out = np.zeros(n)
        out[[t_index[t] for t in ser.index]] = ser.to_numpy(dtype=float)
        return out

    total = agg_series(pdf)
    labels: List[Explanation] = []
    mats: List[np.ndarray] = []
    for sub_attrs in _attr_subsets(attrs, beta_max):
        if not sub_attrs:
            continue
        grp = pdf.groupby([time_col, *sub_attrs], dropna=False)[measure_col]
        ser = grp.sum() if agg == "sum" else grp.count()
        piv = ser.unstack(level=0).reindex(columns=times).fillna(0.0)
        labels += _labels(sub_attrs, piv.index)
        mats.append(piv.to_numpy(dtype=float))
    S = np.vstack(mats) if mats else np.zeros((0, n))
    return SeriesMatrix(S=S, labels=labels, total=total, times=list(times), attrs=tuple(attrs))


def assert_same_cube(got: SeriesMatrix, want: SeriesMatrix, scale: float) -> None:
    """Labels equal in order and value, times equal as strings, series equal
    up to summation order (relative to ``scale``, the summed |measure|)."""
    assert got.labels == want.labels
    assert [str(t) for t in got.times] == [str(t) for t in want.times]
    tol = 1e-12 * max(1.0, scale)
    np.testing.assert_allclose(got.S, want.S, rtol=1e-12, atol=tol)
    np.testing.assert_allclose(got.total, want.total, rtol=1e-12, atol=tol)


# One column of keys per kind, each with its NULL spelling(s), and the type
# of a non-NULL key in a label.
KINDS = {"int": int, "str": str, "Int64": int, "float": float}


def _column(kind: str, codes: List[int], nulls: List[int]):
    """Keys 0..3 with code 4 read as NULL; ``nulls`` picks the NULL spelling
    per row where a kind has more than one."""
    if kind == "int":  # Python ints and None in an object column
        return pd.Series([None if c == 4 else c for c in codes], dtype=object)
    if kind == "str":  # None and NaN mixed
        return pd.Series(
            [(None, np.nan)[z % 2] if c == 4 else f"v{c}" for c, z in zip(codes, nulls)],
            dtype=object,
        )
    if kind == "Int64":
        return pd.array([pd.NA if c == 4 else c for c in codes], dtype="Int64")
    return np.array([np.nan if c == 4 else c / 2 for c in codes], dtype=float)


@st.composite
def relations(draw):
    n_rows = draw(st.integers(1, 40))
    n_attrs = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(list(KINDS)), min_size=n_attrs, max_size=n_attrs))
    n_times = draw(st.integers(1, 5))
    spelling = st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)
    t = draw(st.lists(st.integers(0, n_times - 1), min_size=n_rows, max_size=n_rows))
    cols = {}
    for i, kind in enumerate(kinds):
        codes = draw(st.lists(st.integers(0, 4), min_size=n_rows, max_size=n_rows))
        cols[f"a{i}"] = _column(kind, codes, draw(spelling))
    v = draw(
        st.lists(
            st.one_of(st.just(np.nan), st.floats(-1e3, 1e3, allow_nan=False)),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    time_kind = draw(st.sampled_from(("int", "str")))
    rel = pd.DataFrame(
        {"t": [f"2020-0{x + 1}" for x in t] if time_kind == "str" else t, **cols, "v": v}
    )
    return rel, {f"a{i}": kind for i, kind in enumerate(kinds)}


@settings(max_examples=200, deadline=None)
@given(relations(), st.sampled_from(("sum", "count")), st.integers(1, 3))
def test_matches_groupby_oracle(rel_attrs, agg, beta_max):
    """NULL keys of every spelling, NaN measures, time values a slice skips,
    one row and one time value: the same labels in the same order, the same
    time axis and the same series as the groupby cube. A key keeps its type:
    the oracle labels the ints of an object column that holds None as
    floats (``a=0.0``), the cube as ints."""
    rel, kinds = rel_attrs
    attrs = list(kinds)
    got = series_matrix_pandas(rel, "t", attrs, "v", agg, beta_max)
    want = series_matrix_groupby(rel, "t", attrs, "v", agg, beta_max)
    assert_same_cube(got, want, float(np.nansum(np.abs(rel["v"]))))
    for e in got.labels:
        assert all(v is None or type(v) is KINDS[kinds[a]] for a, v in e.preds), e


@pytest.mark.parametrize(
    "rel",
    [
        pd.DataFrame({"t": [3], "a": ["x"], "b": [None], "v": [2.5]}),
        pd.DataFrame({"t": [1, 1, 1], "a": ["x", None, "y"], "b": [1, 2, 1], "v": [1.0, 2.0, 4.0]}),
        pd.DataFrame(
            {"t": [1, 2, 3, 3], "a": ["x", "y", "x", "z"], "b": [0, 0, 1, 1], "v": [1.0, 2.0, 3.0, 4.0]}
        ),
    ],
    ids=["one-row", "one-time", "value-at-some-times"],
)
@pytest.mark.parametrize("agg", ["sum", "count"])
def test_edge_shapes(rel, agg):
    got = series_matrix_pandas(rel, "t", ["a", "b"], "v", agg, beta_max=2)
    want = series_matrix_groupby(rel, "t", ["a", "b"], "v", agg, beta_max=2)
    assert_same_cube(got, want, float(rel["v"].abs().sum()))


def test_liquor_like_is_bitwise_equal():
    """An integer-valued measure sums exactly in any order: S and total are
    bit for bit the oracle's."""
    from repro.datasets import liquor_like

    data = liquor_like.generate(n=24, n_combos=80, seed=7)
    rel = data.relation_df
    got = series_matrix_pandas(rel, "date", data.attrs, "bottles")
    want = series_matrix_groupby(rel, "date", data.attrs, "bottles")
    assert [e.label for e in got.labels] == [e.label for e in want.labels]
    assert got.labels == want.labels and got.times == want.times
    np.testing.assert_array_equal(got.S, want.S)
    np.testing.assert_array_equal(got.total, want.total)


def test_null_time_is_an_error():
    rel = pd.DataFrame({"t": [1.0, np.nan], "a": ["x", "y"], "v": [1.0, 2.0]})
    with pytest.raises(ValueError, match="time column 't' holds NULL"):
        series_matrix_pandas(rel, "t", ["a"], "v")


GUARD = textwrap.dedent(
    """
    import sys
    from importlib.abc import MetaPathFinder

    class NoSpark(MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in ("pyspark", "py4j"):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, NoSpark())
    from repro.core.pipeline import Config, explain_series
    from repro.core.precompute import series_matrix_pandas
    from repro.datasets import liquor_like

    data = liquor_like.generate(n=24, n_combos=60, seed=3)
    sm = series_matrix_pandas(data.relation_df, "date", data.attrs, "bottles")
    res = explain_series(sm.S, sm.labels, data.attrs, sm.total, Config(), times=sm.times)
    assert res.K >= 1, res
    assert "pyspark" not in sys.modules and "py4j" not in sys.modules
    print("ok")
    """
)


def test_in_memory_path_needs_no_pyspark():
    """The in-memory cube and explain run with pyspark and py4j unimportable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
