"""TSExplain benchmark: one analyst in a closed loop asking for the evolving
explanations of a KPI, and on Spark also for the top explanations of a
two-relation diff.

    python3 perfbench/run.py --workload liquor --seed 13 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` gives the per-layer metrics from a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"  # every file a run writes
REFERENCE = HERE / "reference.json"
NAMES = ("liquor", "long-series", "tpch-relation")
SPARK_CORES = 4  # local[k], k <= nproc
PROBE_REPS = 8  # speed probes before the first timed op and after each one
PROBE_REF_S = 0.0055  # a probe's time at the reference speed; sets the unit only

E2E_UNITS = {
    "explain_s.p50": "s",
    "round_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "total_variance": "unitless",
}


def prepare_env(spark: bool) -> None:
    """Keep every write inside the checkout and make ``repro`` importable,
    in this process and in Spark's Python workers. Must run before pyspark
    starts its JVM."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    if not spark:
        return
    # Same derivation as the repository's test command: half of MemTotal in
    # GiB, clamped to [2, 8].
    half_gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1 << 31)
    mem = min(8, max(2, half_gib))
    cores = min(SPARK_CORES, os.cpu_count() or 1)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that builds the command
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {mem}g",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote('spark.sql.warehouse.dir=' + str(WORK / 'warehouse'))}",
            "pyspark-shell",
        ]
    )


class Tally:
    """Ops attempted and failed, with the wall time of each op that passed
    and of each round whose ops all passed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times = {"explain": [], "diff": [], "round": []}
        self.wall = 0.0  # summed wall time of the ops that passed
        self.last = {}
        self.probes = []  # speed probe times, taken between the timed ops

    def merge(self, other: "Tally", times: bool = True) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.last.update(other.last)
        self.wall += other.wall
        if times:
            for k in self.times:
                self.times[k] += other.times[k]
            self.probes += other.probes

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAIL {what}: {p}", file=sys.stderr)


def run_op(w, kind: str, tally: Tally, tracer=None):
    """One timed call of one op; its output is checked after the timed
    region. Returns the wall time, or None when the op failed."""
    fn = w.explain if kind == "explain" else w.diff
    tally.attempted += 1
    t = time.perf_counter()
    try:
        if tracer is None:
            out = fn()
        else:
            with tracer.span(kind):
                out = fn()
    except Exception:  # an op that raises fails; the loop goes on
        tally.fail(kind, [traceback.format_exc()])
        return None
    dt = time.perf_counter() - t
    problems = w.check(kind, out)
    if problems:
        tally.fail(kind, problems)
        return None
    tally.times[kind].append(dt)
    tally.wall += dt
    tally.last[kind] = out
    return dt


def loop(w, seconds: float, tally: Tally, tracer=None) -> int:
    """Closed loop, one client: the workload's ops in order, one round after
    another. A round starts only if a round as long as the last one still
    ends within ``seconds``; the first always runs. Returns rounds run.
    Without Spark, ``PROBE_REPS`` speed probes run before the first op and
    after each op, outside its timed region; see ``speed``."""
    reps = 0 if w.uses_spark else PROBE_REPS
    tally.probes += [probe() for _ in range(reps)]
    end = time.perf_counter() + seconds
    rounds = 0
    while True:
        t = time.perf_counter()
        dts = []
        for kind in w.ops:
            dts.append(run_op(w, kind, tally, tracer))
            tally.probes += [probe() for _ in range(reps)]
        if None not in dts:
            tally.times["round"].append(sum(dts))
        rounds += 1
        now = time.perf_counter()
        if now + (now - t) > end:
            return rounds


def probe() -> float:
    """Wall time of a fixed slice of the kind of work the in-process
    pipeline does: dict updates in the interpreter and numpy calls on a
    small array."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 256)
    t = time.perf_counter()
    d = {}
    for i in range(20000):
        d[i % 251] = d.get(i % 251, 0) + i
    b = a.copy()
    for _ in range(400):
        b = np.abs(a - b) * 0.5 + b.max()
    return time.perf_counter() - t


def speed(tally: Tally) -> float:
    """How fast the CPU ran during the timed loop, against the reference:
    ``PROBE_REF_S`` over the mean probe time, so below 1 on a slowed host.
    The mean, not the median: a probe runs either on a fast or on a slowed
    vCPU, and the median of such a mix jumps between the two; an op of
    seconds pays the mix in proportion. 1.0 when nothing was probed."""
    return PROBE_REF_S / statistics.fmean(tally.probes) if tally.probes else 1.0


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def run(args) -> dict:
    from perfbench.workloads import WORKLOADS

    W = WORKLOADS[args.workload]
    seed = W.default_seed if args.seed is None else args.seed
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = refs.get(W.name)
    w = W(seed)
    if ref is not None and ref["seed"] == seed and not args.record:
        w.reference = ref
    tally = Tally()
    metrics: dict = {}
    res = None
    try:
        w.open()
        t_open = time.perf_counter() - T0
        builds = []
        for _ in range(W.setup_builds):
            t = time.perf_counter()
            w.build()
            builds.append(time.perf_counter() - t)
        # One warm-up call of each op: checked, not timed as a sample.
        warm = Tally()
        t = time.perf_counter()
        for kind in w.ops:
            run_op(w, kind, warm)
        t_warm = time.perf_counter() - t
        setup_s = t_open + median(builds) + t_warm
        tally.merge(warm, times=False)

        if args.record:
            from perfbench.workloads import digest_diff, digest_explain

            refs[W.name] = {"seed": seed, "explain": digest_explain(tally.last["explain"])}
            if "diff" in w.ops:
                refs[W.name]["diff"] = digest_diff(tally.last["diff"])
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            return {"correct": tally.failed == 0, "attempted": tally.attempted,
                    "failed": tally.failed, "metrics": {}}

        t = time.perf_counter()
        if args.trace:
            metrics = traced(w, args.seconds, tally)
        else:
            loop(w, args.seconds, tally)
        t_loop = time.perf_counter() - t
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        t = time.perf_counter()
        res = tally.last.get("explain")
        if res is not None:
            for name, problems in w.oracles(res).items():
                tally.attempted += 1
                if problems:
                    tally.fail(f"oracle {name}", problems)
        t_oracles = time.perf_counter() - t
    finally:
        w.close()

    if res is None or not tally.times["round"]:  # no op passed: nothing to report
        return {"correct": False, "attempted": max(1, tally.attempted),
                "failed": max(1, tally.failed), "metrics": {}}
    if args.trace:
        metrics.update(
            {
                "precompute.rows": w.rows,
                "precompute.epsilon": res.epsilon,
                "precompute.pandas_s": median(w.pandas_cube_s),
                "filtering.kept_ratio": res.filtered_epsilon / res.epsilon,
            }
        )
        units = {k: _layer_unit(k) for k in metrics}
    else:
        sp = speed(tally)
        metrics = {
            "explain_s.p50": median(tally.times["explain"]) * sp,
            "round_s.p50": median(tally.times["round"]) * sp,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "total_variance": res.total_variance,
        }
        units = E2E_UNITS
    n_ops = {k: len(v) for k, v in tally.times.items()}
    diff_p50 = f" diff_s.p50={median(tally.times['diff']):.4f}s" if n_ops["diff"] else ""
    print(f"# workload={W.name} seed={seed} seconds={args.seconds} trace={args.trace} "
          f"explain_samples={n_ops['explain']} diff_samples={n_ops['diff']} "
          f"round_samples={n_ops['round']}{diff_p50} "
          f"error_rate={tally.failed / max(1, tally.attempted):.4f}")
    print(f"# wall time: explain p50 {median(tally.times['explain']):.4f}s, "
          f"round p50 {median(tally.times['round']):.4f}s; "
          f"speed {speed(tally):.4f} from {len(tally.probes)} probes")
    print(f"# phases: open {t_open:.2f}s, builds {' '.join(f'{b:.2f}s' for b in builds)}, "
          f"warm-up {t_warm:.2f}s, loop {t_loop:.2f}s, oracles {t_oracles:.2f}s")
    for k in sorted(metrics):
        print(f"# {k:32s} {metrics[k]:>14.6g} {units[k]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced(w, seconds: float, tally: Tally) -> dict:
    """Half the window untraced, half traced; per-layer metrics per round.
    The spans are written to ``WORK`` at the end."""
    from perfbench import tracing

    untraced = Tally()
    loop(w, seconds / 2, untraced)
    tr = tracing.Tracer()
    tr.install(spark=w.uses_spark)
    run = Tally()
    try:
        rounds = loop(w, seconds / 2, run, tr)
    finally:
        tr.uninstall()
    tally.merge(untraced)
    tally.merge(run)

    roots = tr.roots()
    wall = sum(tr.spans[r].dur for r in roots)
    explains = [r for r in roots if tr.spans[r].name == "explain"]
    if not run.failed:  # a failed op already counts; its spans need not add up
        # Every explain of a run returns the same result: the inputs are fixed.
        problems = tracing.check_trace(
            tr, run.wall, [(r, run.last["explain"]) for r in explains]
        )
        tally.attempted += 1
        if problems:
            tally.fail("trace completeness", problems)
    m = tracing.layer_metrics(tr, rounds)
    m["trace.round_s"] = wall / rounds
    m["trace.overhead_s"] = median(run.times["explain"]) - median(untraced.times["explain"])
    m["wall.explain_p50_s"] = median(untraced.times["explain"])
    m["wall.speed"] = speed(untraced)
    out = WORK / f"spans-{w.name}-{w.seed}.jsonl"
    tr.dump(out)
    print(f"# {len(tr.spans)} spans written to {out.relative_to(ROOT)}")
    return m


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("ratio", "per_call", "speed")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        ok = ok and proc.returncode == 0 and last.get("correct", False)
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's reference seed)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write the outputs at the reference seed to reference.json")
    args = p.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    prepare_env(spark=args.workload == "tpch-relation")
    out = run(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
