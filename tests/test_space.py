"""Drill-down explanation space: closure, children maps, restriction."""
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.space import ExplanationSpace
from repro.core.types import Explanation


def _space_abc():
    labels = [
        Explanation.of(a=1),
        Explanation.of(a=2),
        Explanation.of(b=1),
        Explanation.of(a=1, b=1),
        Explanation.of(a=1, b=1, c=1),
    ]
    return ExplanationSpace(labels, ["a", "b", "c"]), labels


class TestConstruction:
    def test_candidates_takeable(self):
        space, labels = _space_abc()
        for e in labels:
            assert space.takeable[space.id_of[e]]

    def test_closure_added_non_takeable(self):
        # (a=1,c=1) and (b=1,c=1) and (c=1) appear only as closure prefixes.
        space, _ = _space_abc()
        for e in [
            Explanation.of(a=1, c=1),
            Explanation.of(b=1, c=1),
            Explanation.of(c=1),
        ]:
            nid = space.id_of[e]
            assert not space.takeable[nid]

    def test_n_candidates(self):
        space, labels = _space_abc()
        assert space.n_candidates == len(labels)
        assert space.n_nodes == len(labels) + 3  # three closure prefixes

    def test_input_order_is_id_order(self):
        space, labels = _space_abc()
        for i, e in enumerate(labels):
            assert space.id_of[e] == i

    def test_root_children(self):
        space, _ = _space_abc()
        a_kids = {space.explanations[i] for i in space.root_children["a"]}
        assert a_kids == {Explanation.of(a=1), Explanation.of(a=2)}
        assert Explanation.of(c=1) in {
            space.explanations[i] for i in space.root_children["c"]
        }

    def test_children_links(self):
        space, _ = _space_abc()
        a1 = space.id_of[Explanation.of(a=1)]
        kids_b = {space.explanations[i] for i in space.children[a1]["b"]}
        assert kids_b == {Explanation.of(a=1, b=1)}

    def test_every_multi_order_node_reachable_from_all_parents(self):
        space, _ = _space_abc()
        abc = space.id_of[Explanation.of(a=1, b=1, c=1)]
        parents = [
            space.id_of[Explanation.of(b=1, c=1)],
            space.id_of[Explanation.of(a=1, c=1)],
            space.id_of[Explanation.of(a=1, b=1)],
        ]
        for pid, attr in zip(parents, ["a", "b", "c"]):
            assert abc in space.children[pid][attr]

    def test_topo_children_first(self):
        space, _ = _space_abc()
        pos = {nid: i for i, nid in enumerate(space.topo_desc)}
        for nid in range(space.n_nodes):
            for kids in space.children[nid].values():
                for k in kids:
                    assert pos[k] < pos[nid]

    def test_rejects_unknown_attr(self):
        with pytest.raises(ValueError):
            ExplanationSpace([Explanation.of(z=1)], ["a"])

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            ExplanationSpace([Explanation(())], ["a"])

    def test_duplicate_labels_collapse(self):
        space = ExplanationSpace(
            [Explanation.of(a=1), Explanation.of(a=1)], ["a"]
        )
        assert space.n_nodes == 1


class TestRestrict:
    def test_restrict_keeps_only_selected_takeable(self):
        space, _ = _space_abc()
        keep = [space.id_of[Explanation.of(a=1, b=1, c=1)]]
        sub, old = space.restrict(keep)
        assert sub.n_candidates == 1
        # closure prefixes present but not takeable
        assert sub.n_nodes == 7  # abc + 3 pairs + 3 singles

    def test_restrict_mapping_roundtrip(self):
        space, _ = _space_abc()
        keep = [space.id_of[Explanation.of(a=2)], space.id_of[Explanation.of(b=1)]]
        sub, old = space.restrict(keep)
        for new_id, old_id in enumerate(old):
            assert sub.explanations[new_id] == space.explanations[old_id]

    def test_restrict_gamma_gather(self):
        space, _ = _space_abc()
        gamma = np.arange(space.n_nodes, dtype=float)
        keep = [space.id_of[Explanation.of(a=1, b=1)]]
        sub, old = space.restrict(keep)
        sub_gamma = gamma[old]
        for new_id in range(sub.n_nodes):
            assert sub_gamma[new_id] == gamma[space.id_of[sub.explanations[new_id]]]


def _reference_space(labels, attrs):
    """The space by its definition, with Explanation objects throughout
    (test-only): candidates in input order, then closure prefixes in
    first-seen order; children appended in node order, per node in
    attribute order; ``topo_desc`` a stable sort by descending order."""
    explanations, takeable, id_of = [], [], {}
    for e in labels:
        if e not in id_of:
            id_of[e] = len(explanations)
            explanations.append(e)
            takeable.append(True)
    for e in list(id_of):
        for r in range(1, e.order):
            for sub in itertools.combinations(e.preds, r):
                sub = Explanation(sub)
                if sub not in id_of:
                    id_of[sub] = len(explanations)
                    explanations.append(sub)
                    takeable.append(False)
    children = [{} for _ in explanations]
    root_children = {}
    for nid, e in enumerate(explanations):
        if e.order == 1:
            root_children.setdefault(e.attrs[0], []).append(nid)
        else:
            for a in e.attrs:
                children[id_of[e.drop(a)]].setdefault(a, []).append(nid)
    topo = sorted(range(len(explanations)), key=lambda i: -explanations[i].order)
    return explanations, takeable, children, root_children, topo


def _assert_same_space(got, labels, attrs):
    explanations, takeable, children, root_children, topo = _reference_space(labels, attrs)
    assert got.attrs == tuple(attrs)
    assert got.explanations == explanations
    assert got.takeable.dtype == bool and got.takeable.tolist() == takeable
    assert got.order.tolist() == [e.order for e in explanations]
    # Dict key order is part of the contract: CA's tie rule follows it.
    assert [list(c.items()) for c in got.children] == [list(c.items()) for c in children]
    assert list(got.root_children.items()) == list(root_children.items())
    assert got.topo_desc == topo
    assert got.n_candidates == sum(takeable)
    assert got.candidate_ids().tolist() == [i for i, t in enumerate(takeable) if t]
    assert got.id_of == {e: i for i, e in enumerate(explanations)}


@st.composite
def _space_and_keeps(draw):
    """A random space (2-3 attributes, candidates of order 1-3) and two
    restrictions: candidate ids of the space, then of the sub-space, in
    random order with repeats."""
    attrs = ["a", "b", "c"][: draw(st.integers(2, 3))]
    preds = st.lists(st.sampled_from(attrs), min_size=1, max_size=3, unique=True).flatmap(
        lambda ats: st.tuples(*[st.tuples(st.just(a), st.integers(0, 2)) for a in ats])
    )
    labels = [Explanation(p) for p in draw(st.lists(preds, min_size=1, max_size=12))]
    n_cand = len(set(labels))
    keep = draw(st.lists(st.integers(0, n_cand - 1), max_size=n_cand + 2))
    keep2 = draw(st.lists(st.integers(0, 20), max_size=6))
    return attrs, labels, keep, keep2


class TestRestrictIdentity:
    @settings(max_examples=150, deadline=None)
    @given(_space_and_keeps())
    def test_restrict_equals_rebuilt_space(self, case):
        attrs, labels, keep, keep2 = case
        space = ExplanationSpace(labels, attrs)
        _assert_same_space(space, list(dict.fromkeys(labels)), attrs)

        orig = Explanation.__post_init__
        with mock.patch.object(
            Explanation, "__post_init__", autospec=True, side_effect=orig
        ) as built:
            sub, old = space.restrict(keep)
            keep2 = [i for i in keep2 if i < sub.n_candidates]
            sub2, old2 = sub.restrict(keep2)
            assert built.call_count == 0  # restrict interns ids, builds no label
            Explanation.of(a=0)
            assert built.call_count == 1  # the spy sees a construction

        kept = [space.explanations[i] for i in keep]
        _assert_same_space(sub, kept, attrs)
        assert old.dtype == np.int64
        assert [space.explanations[i] for i in old] == sub.explanations

        _assert_same_space(sub2, [sub.explanations[i] for i in keep2], attrs)
        assert [sub.explanations[i] for i in old2] == sub2.explanations

    def test_restrict_rejects_non_candidate(self):
        space, _ = _space_abc()
        closure_only = space.id_of[Explanation.of(c=1)]
        for bad in (closure_only, -1, space.n_nodes):
            with pytest.raises(ValueError, match="not a candidate"):
                space.restrict([bad])

    def test_candidate_ids_read_only(self):
        space, _ = _space_abc()
        with pytest.raises(ValueError):
            space.candidate_ids()[0] = 3
