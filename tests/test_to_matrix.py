"""``to_matrix`` is independent of the order of the collected cube rows,
and bins only the grouping sets present in them.

``series_matrix`` collects the Spark cube without sorting it, so the pivot
must give the same matrix for any row order Spark hands back."""
import itertools

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.precompute import TIME, VAL, _attr_subsets, _gcol, to_matrix

ATTRS = ("g", "h")
# Key domains with a NULL each: a string column (None) and an integer
# column, which ``to_pandas`` hands over as pandas' nullable Int64 (NA).
KEYS = {"g": ["x", "y", None], "h": [1, 2, None]}


@st.composite
def collected_cubes(draw):
    """Rows of a collected cube in the layout of ``to_pandas``: one row per
    (grouping set, key, time) present, a NULL VAL allowed, and a permutation
    of those rows."""
    time_kind = draw(st.sampled_from(("int", "str")))
    n = draw(st.integers(1, 4))
    times = [t if time_kind == "int" else f"2020-0{t + 1}" for t in range(n)]
    cells = [
        (sub, key, t)
        for r in range(len(ATTRS) + 1)
        for sub in itertools.combinations(ATTRS, r)
        for key in itertools.product(*(KEYS[a] for a in sub))
        for t in times
    ]
    present = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    rows = [cell for cell, keep in zip(cells, present) if keep]
    vals = draw(
        st.lists(
            st.one_of(st.just(np.nan), st.floats(-1e6, 1e6, allow_nan=False)),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    cols = {TIME: [t for _, _, t in rows]}
    for a in ATTRS:
        keys = [dict(zip(sub, key)).get(a) for sub, key, _ in rows]
        cols[a] = pd.array(keys, dtype="Int64") if a == "h" else keys
    for a in ATTRS:
        cols[_gcol(a)] = np.array([a not in sub for sub, _, _ in rows], dtype=np.int8)
    cols[VAL] = np.array(vals, dtype=float)
    pdf = pd.DataFrame(cols)
    if time_kind == "int":
        pdf[TIME] = pdf[TIME].astype(np.int32)
    perm = draw(st.permutations(range(len(rows))))
    return pdf, list(perm)


@settings(max_examples=200, deadline=None)
@given(collected_cubes())
def test_row_order_does_not_matter(cube):
    pdf, perm = cube
    want = to_matrix(pdf, ATTRS)
    got = to_matrix(pdf.iloc[perm].reset_index(drop=True), ATTRS)
    assert got.labels == want.labels
    assert got.times == want.times
    assert got.S.tobytes() == want.S.tobytes()
    assert got.total.tobytes() == want.total.tobytes()


def test_many_attributes_bin_only_the_sets_present():
    """30 attributes, one grouping set per attribute plus one pair: only the
    sets present in the rows are binned (2^30 subsets would not finish), in
    ``_attr_subsets`` order, by size and then by attribute position."""
    attrs = [f"a{i}" for i in range(30)]
    sets = [("a0", "a1"), *((a,) for a in reversed(attrs)), ()]
    rows = [
        {TIME: t, **{a: "x" for a in sub}, **{_gcol(a): int(a not in sub) for a in attrs},
         VAL: float(10 * len(sub) + t)}
        for sub in sets
        for t in (2, 1)
    ]
    pdf = pd.DataFrame(rows, columns=[TIME, *attrs, *map(_gcol, attrs), VAL])
    sm = to_matrix(pdf, attrs)
    want = [sub for sub in _attr_subsets(attrs, 2) if sub in sets[:-1]]
    assert [e.attrs for e in sm.labels] == want
    assert all(v == "x" for e in sm.labels for _, v in e.preds)
    assert sm.times == [1, 2]
    np.testing.assert_array_equal(sm.S, [[10 * len(sub) + 1, 10 * len(sub) + 2] for sub in want])
    np.testing.assert_array_equal(sm.total, [1.0, 2.0])
