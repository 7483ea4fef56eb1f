"""Outside-in span tracer for the benchmark's traced runs.

Spans are recorded by replacing module attributes at the sites where the
pipeline looks them up, so nothing under ``src/`` changes. Each span is
(name, start, end, parent) plus counters; spans stay in memory until the run
ends, and are then written out as JSON lines. The ``mapInPandas`` workers of the distributed CA are separate Python
processes and are not traced: ``spark_ca`` is one opaque span.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for an op (root) span
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _object_or_centroid(args) -> str:
    """The pipeline calls ``compute_toplists`` first for the n-1 atomic
    objects (every segment has length 1) and then for the centroid segments."""
    segs = list(args[2])
    return "toplists.object" if all(e == s + 1 for s, e in segs) else "toplists.centroid"


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def wrap(
        self,
        owner,
        attr: str,
        name,
        count: Optional[Callable[[tuple, object], Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper. ``name`` is a span
        name or a function of the call's positional arguments."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name(args) if callable(name) else name) as sp:
                out = orig(*args, **kwargs)
                if count is not None:
                    sp.counts.update(count(args, out))
                return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self, spark: bool) -> None:
        """Patch every traced call site."""
        from repro.core import cascading, diff, pipeline, precompute, sketch, space, toplists

        nodes = lambda a, out: {"nodes": out.n_nodes}  # noqa: E731
        w = self.wrap
        w(pipeline, "support_mask", "filtering")
        w(pipeline, "ExplanationSpace", "space.build", nodes)
        w(pipeline, "compute_toplists", _object_or_centroid,
          lambda a, out: {"segments": len(a[2])})
        w(pipeline, "select_sketch", "sketch", lambda a, out: {"positions": len(out)})
        for mod in (pipeline, sketch):
            w(mod, "costs_for_segments", "segcost",
              lambda a, out: {"segments": len(a[2].segments)})
            w(mod, "build_cost_matrix", "kseg.matrix")
            w(mod, "dp_segment", "kseg.dp", lambda a, out: {"positions": len(a[1])})
        w(pipeline, "kneedle", "elbow", lambda a, out: {"K": out})
        w(sketch, "compute_toplists", "toplists.phase1",
          lambda a, out: {"segments": len(a[2])})
        w(toplists, "topm_guess_verify", "cascading.gv")
        w(toplists, "topm_nonoverlapping", "cascading.ca")
        w(cascading, "topm_nonoverlapping", "cascading.ca")
        w(space.ExplanationSpace, "restrict", "space.restrict")
        w(precompute, "series_matrix", "precompute")
        w(precompute, "candidate_series", "precompute.plan")
        w(precompute, "to_matrix", "precompute.pivot", lambda a, out: {"rows": len(a[0])})
        w(diff, "ExplanationSpace", "space.build", nodes)
        w(diff, "topm_nonoverlapping", "cascading.ca")
        w(diff, "grouping_sets_agg", "diff.plan")
        if spark:
            from repro.core import spark_ca

            w(spark_ca, "compute_toplists_spark", "spark_ca",
              lambda a, out: {"segments": len(a[3])})

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span a line, in start order;
        ``parent`` is the line number (from 0) of the enclosing span, -1 for
        an op span. Times are ``perf_counter`` seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps({"name": sp.name, "start": sp.start, "end": sp.end,
                                    "parent": sp.parent, "counts": sp.counts}) + "\n")

    # --- analysis -------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover
        (spans of one thread nest strictly)."""
        out = [sp.dur for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                out[sp.parent] -= sp.dur
        return out

    def roots(self) -> List[int]:
        return [i for i, sp in enumerate(self.spans) if sp.parent < 0]

    def root_of(self) -> List[int]:
        """Index of each span's op (root) span."""
        out = []
        for i, sp in enumerate(self.spans):
            out.append(i if sp.parent < 0 else out[sp.parent])
        return out


def layer_metrics(tr: Tracer, rounds: int) -> Dict[str, float]:
    """Per-layer metrics per round (the workload's ops, once each).

    ``*_s`` metrics are self times unless the name says otherwise:
    ``toplists.object_s``, ``toplists.centroid_s`` and ``sketch.s`` are
    inclusive. Counts are per round too.
    """
    selfs = tr.self_times()
    roots = tr.root_of()
    self_s: Dict[str, float] = {}
    incl_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    count: Dict[str, float] = {}
    for i, (sp, st) in enumerate(zip(tr.spans, selfs)):
        self_s[sp.name] = self_s.get(sp.name, 0.0) + st
        incl_s[sp.name] = incl_s.get(sp.name, 0.0) + sp.dur
        calls[sp.name] = calls.get(sp.name, 0) + 1
        under_explain = tr.spans[roots[i]].name == "explain"
        for k, v in sp.counts.items():
            key = f"{sp.name}:{k}"
            # Top-level (pipeline) DP and space, not sketch phase I or diff.
            if k in ("positions", "nodes") and not (under_explain and sp.parent == roots[i]):
                continue
            count[key] = count.get(key, 0.0) + v

    def per(x: float) -> float:
        return x / rounds

    S = lambda n: per(self_s.get(n, 0.0))  # noqa: E731
    I = lambda n: per(incl_s.get(n, 0.0))  # noqa: E731
    C = lambda n: per(calls.get(n, 0))  # noqa: E731
    N = lambda k: per(count.get(k, 0.0))  # noqa: E731
    gv_calls = calls.get("cascading.gv", 0)
    return {
        "precompute.s": S("precompute"),
        "precompute.plan_s": S("precompute.plan"),
        "precompute.pivot_s": S("precompute.pivot"),
        "filtering.s": S("filtering"),
        "space.build_s": S("space.build"),
        "space.nodes": N("space.build:nodes"),
        "space.restrict_s": S("space.restrict"),
        "space.restrict_calls": C("space.restrict"),
        "cascading.ca_s": S("cascading.ca"),
        "cascading.ca_calls": C("cascading.ca"),
        "cascading.gv_s": S("cascading.gv"),
        "cascading.gv_calls": C("cascading.gv"),
        "cascading.gv_rounds_per_call": (
            calls.get("space.restrict", 0) / gv_calls if gv_calls else 0.0
        ),
        "toplists.object_s": I("toplists.object"),
        "toplists.centroid_s": I("toplists.centroid") + I("spark_ca"),
        "toplists.segments": sum(
            N(f"{n}:segments")
            for n in ("toplists.object", "toplists.phase1", "toplists.centroid", "spark_ca")
        ),
        "toplists.self_s": sum(
            S(n) for n in ("toplists.object", "toplists.phase1", "toplists.centroid")
        ),
        "sketch.s": I("sketch"),
        "sketch.phase1_segments": N("toplists.phase1:segments"),
        "sketch.positions": N("sketch:positions"),
        "spark_ca.s": S("spark_ca"),
        "spark_ca.segments": N("spark_ca:segments"),
        "segcost.s": S("segcost"),
        "segcost.segments": N("segcost:segments"),
        "kseg.dp_s": S("kseg.dp"),
        "kseg.matrix_s": S("kseg.matrix"),
        "kseg.positions": N("kseg.dp:positions"),
        "elbow.s": S("elbow"),
        "elbow.K": N("elbow:K"),
        "diff.s": S("diff"),
        "diff.plan_s": S("diff.plan"),
        "pipeline.self_s": S("explain"),
    }


def check_trace(tr: Tracer, op_wall_s: float, explains) -> List[str]:
    """Problems found in the trace; empty when it is complete.

    ``explains`` pairs each explain root span index with its ExplainResult.
    Self times must be non-negative and add up to the measured op wall time;
    this guards span nesting and the loop's untraced overhead only, since
    the self times of strictly nested spans always sum to their roots. The
    span counts must match the pipeline's structure: they are what catches
    a wrapper patched at an import site the pipeline does not use.
    """
    from repro.core.kseg import all_segments
    from repro.core.sketch import sketch_params

    problems: List[str] = []
    selfs = tr.self_times()
    if min(selfs, default=0.0) < -1e-6:
        problems.append("a span's children cover more than the span")
    total = sum(selfs)
    if abs(total - op_wall_s) > 0.01 * op_wall_s + 1e-3:
        problems.append(f"self times sum to {total:.4f}s, op wall is {op_wall_s:.4f}s")

    roots = tr.root_of()
    per_root: Dict[int, Dict[str, float]] = {}
    for i, sp in enumerate(tr.spans):
        agg = per_root.setdefault(roots[i], {})
        agg[sp.name] = agg.get(sp.name, 0) + 1
        for k, v in sp.counts.items():
            agg[f"{sp.name}:{k}"] = agg.get(f"{sp.name}:{k}", 0) + v

    for r, res in explains:
        agg = per_root.get(r, {})
        n, P = res.n, len(res.positions)
        L, size = sketch_params(n)
        sketched = not (size >= n - 1 or L >= n)
        want = {
            "toplists.object:segments": n - 1,
            "centroid segments": P * (P - 1) // 2,
            "toplists.phase1:segments": len(all_segments(range(n), max_len=L)) if sketched else 0,
            "filtering": 1,
            "space.build": 1,
            "elbow": 1,
        }
        got = {k: agg.get(k, 0) for k in want}
        got["centroid segments"] = agg.get("toplists.centroid:segments", 0) + agg.get(
            "spark_ca:segments", 0
        )
        local = (
            got["toplists.object:segments"]
            + got["toplists.phase1:segments"]
            + agg.get("toplists.centroid:segments", 0)
        )
        want["cascading.gv"], got["cascading.gv"] = local, agg.get("cascading.gv", 0)
        want["cascading.ca"], got["cascading.ca"] = (
            agg.get("space.restrict", 0), agg.get("cascading.ca", 0)
        )
        for k in want:
            if got[k] != want[k]:
                problems.append(f"explain span {r}: {k} = {got[k]}, expected {want[k]}")

    for r in tr.roots():
        if tr.spans[r].name != "diff":
            continue
        agg = per_root.get(r, {})
        want = {"space.build": 1, "cascading.ca": 1, "diff.plan": 2}
        for k, v in want.items():
            if agg.get(k, 0) != v:
                problems.append(f"diff span {r}: {k} = {agg.get(k, 0)}, expected {v}")
    return problems
