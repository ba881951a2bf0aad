"""Benchmark losscarto on one workload for a fixed time.

    python3 bench/run.py --workload attack-shallow --seed 7 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.
The inputs are made from ``--seed``: each case of the workload runs on
three instances, the first made from the seed itself (seed 7 gives the
instances of the ROADMAP baseline table).  Set-up (the package import,
instance generation and one small warm-up call) is repeated and timed
apart from the measured calls; the import is timed in fresh interpreters.

With ``--trace 0`` calls cycle over the cases and instances until another
call would end after ``--seconds``; every one is called at least once.
The end-to-end time is the median time of each case on each instance,
averaged.  With ``--trace 1`` only the seed's own instance of each case
runs, in rounds until another round would end after ``--seconds``: in
each round every case runs untraced and then traced.  The traced calls
give the per-layer metrics, their outputs must equal the untraced ones,
and the difference in time is the tracing overhead.

Human-readable figures go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the environment, goes to ``bench/out/``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import INSTANCES, WORKLOADS, instance_seeds, warm_up  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_losscarto():
    """Import the package from this checkout's src/."""
    # One caller, no added threads: BLAS runs on the calling thread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import losscarto

    if Path(losscarto.__file__).resolve().parent.parent != src:
        raise ImportError(f"losscarto imported from {losscarto.__file__}, not from {src}")
    return losscarto


def import_seconds() -> list[float]:
    """Time the package import in fresh interpreters, as a user pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import losscarto; print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                             text=True, timeout=120, check=True).stdout)
        for _ in range(SETUPS)
    ]


def environment(np, args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "losscarto").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "workloads": sorted(WORKLOADS),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(lc, workload, seeds: list[int]) -> list[tuple]:
    """(name, case, inputs) of every case on every instance seed, then the warm-up."""
    items = [(f"{case.name} seed {s}", case, case.prepare(lc, s))
             for s in seeds for case in workload.cases]
    warm_up(lc, workload.family)
    return items


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    i = n - 11
    return f"p{100 * i / (n - 1):.0f} {sorted(times)[i]:.4f} s (n={n}, 10 beyond)"


class Run:
    """Calls, outcomes and failures of one benchmark run."""

    def __init__(self, lc, items, tracer):
        self.lc, self.items, self.tracer = lc, items, tracer
        self.times = {name: [] for name, _, _ in items}
        self.traced_times = {name: [] for name, _, _ in items}
        self.last = {}  # item name -> seconds of its latest call
        self.first = {}  # item name -> Outcome of its first call
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []  # per-layer metrics of each traced round

    def call(self, name, case, prep, traced: bool):
        """One timed call and its checks; returns the Outcome or None."""
        self.attempted += 1
        wrap = self.tracer.oracle if traced else None
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed():
                    start = time.perf_counter()
                    result = case.run(self.lc, prep, wrap)
                    dt = time.perf_counter() - start
            else:
                result = case.run(self.lc, prep, wrap)
                dt = time.perf_counter() - start
            out = case.check(self.lc, prep, result)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.last[name] = time.perf_counter() - start
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.last[name] = dt
        (self.traced_times if traced else self.times)[name].append(dt)
        problems = list(out.problems)
        first = self.first.setdefault(name, out)
        if out.key != first.key:
            what = "traced" if traced else "repeated"
            problems.append(f"{name}: {what} output {out.key} != first {first.key}")
        if problems:
            self.failed += 1
            self.problems += problems
        return out

    def traced_round(self) -> None:
        tracer = self.tracer
        tracer.reset()
        outs = []
        for name, case, prep in self.items:
            self.call(name, case, prep, traced=False)
            outs.append(self.call(name, case, prep, traced=True))
        if any(o is None for o in outs):
            return
        queries = sum(o.queries for o in outs)
        staged, elsewhere = tracer.staged_queries()
        if staged != queries or elsewhere or tracer.calls["network.oracle"] != queries:
            self.failed += 1
            self.problems.append(
                f"traced queries by stage {staged} (+{elsewhere} elsewhere, "
                f"{tracer.calls['network.oracle']} oracle calls) != reported {queries}"
            )
        self.rounds.append(tracer.round_metrics(
            queries=queries,
            recovered=sum(o.recovered for o in outs),
            samples=sum(o.samples for o in outs),
            rejected=sum(o.rejected for o in outs),
        ))

    def check_counts(self) -> None:
        """Every count of a traced round must repeat exactly in the next."""
        for name, (unit, _better) in LAYER_METRICS.items():
            if unit != "count":
                continue
            seen = {r[name] for r in self.rounds}
            if len(seen) > 1:
                self.failed += 1
                self.problems.append(f"{name} differs between traced rounds: {sorted(seen)}")

    def measure(self, seconds: float) -> None:
        """Whole rounds when traced, else single calls cycling over the items,
        until the next would end after ``seconds``; every item runs once first."""
        start = time.perf_counter()
        if self.tracer is not None:
            while True:
                t0 = time.perf_counter()
                self.traced_round()
                now = time.perf_counter()
                if now - start + (now - t0) > seconds:
                    return
        cycle = 0
        while True:
            for name, case, prep in self.items:
                if cycle and time.perf_counter() - start + self.last[name] > seconds:
                    return
                self.call(name, case, prep, traced=False)
            cycle += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        lc = import_losscarto()
    except ImportError as exc:
        print(f"bench: cannot import losscarto: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    seeds = instance_seeds(args.seed, 1 if args.trace else INSTANCES)
    import_times = import_seconds()
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        items = set_up(lc, workload, seeds)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    tracer = None
    gen_s = None
    if args.trace:
        tracer = Tracer(lc)
        with tracer.installed():
            set_up(lc, workload, seeds)
        gen_s = tracer.incl["instances.gen"]

    run = Run(lc, items, tracer)
    run.measure(args.seconds)
    run.check_counts()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment(np, args)
    env["instance_seeds"] = seeds
    names = [name for name, _, _ in items]
    medians = {n: statistics.median(run.times[n]) for n in names if run.times[n]}
    op_s = statistics.fmean(medians.values()) if len(medians) == len(names) else float("nan")
    firsts = [run.first.get(n) for n in names]
    lines = [f"env: {json.dumps(env)}",
             f"workload {workload.name} ({workload.why}), seed {args.seed}, trace {args.trace}"]
    for n in names:
        ts = run.times[n]
        med = f"{medians[n]:.4f} s" if ts else "n/a"
        lines.append(f"  {n}: {len(ts)} calls, median {med}, {tail(ts)}")
    time_name = "attack_s" if workload.family == "attack" else "sheets_s"
    figures = {
        "setup_s": (setup_s, "s"),
        time_name: (op_s, "s"),
        "op_s": (op_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (run.failed / run.attempted, "ratio"),
    }
    if workload.family == "attack" and all(firsts):
        queries = sum(o.queries for o in firsts)
        recovered = sum(o.recovered for o in firsts)
        for n, o in zip(names, firsts):
            lines.append(f"  {n}: queries {o.queries}, recovered {o.recovered}/{o.samples}, "
                         f"rejected {o.rejected}")
        figures["queries"] = (queries / len(names), "count")
        figures["queries_per_recovered"] = (queries / recovered if recovered else float("inf"), "count")
        figures["recall"] = (recovered / sum(o.samples for o in firsts), "ratio")
    lines += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in figures.items()]

    layer = {}
    if tracer is not None and run.rounds:
        layer = {name: statistics.median(r[name] for r in run.rounds) for name in run.rounds[0]}
        layer["instances.gen.s"] = gen_s
        traced = sum(statistics.median(run.traced_times[n]) for n in names)
        layer["trace.overhead"] = traced / sum(medians.values()) - 1.0
        lines.append(f"tracing overhead: {100 * layer['trace.overhead']:.1f}% "
                     f"(traced {traced:.4f} s against untraced {sum(medians.values()):.4f} s per round)")
        lines += [f"  {name}: {layer[name]:.6g} {LAYER_METRICS[name][0]}" for name in LAYER_METRICS]
        tag = f"{workload.name}-seed{args.seed}"
        tracer.write_spans(OUT / f"{tag}.spans.jsonl")
    for p in run.problems:
        lines.append(f"CHECK FAILED: {p}")

    correct = not run.problems and run.failed == 0
    if args.trace:
        metrics = {name: {"value": layer.get(name, float("nan")), "unit": unit}
                   for name, (unit, _better) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": figures[name][0], "unit": figures[name][1]}
                   for name in ("op_s", "setup_s", "peak_rss_mb")}
    for m in metrics.values():  # only a failed run lacks a value; JSON has no NaN
        if m["value"] is None or not math.isfinite(m["value"]):
            m["value"] = None
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "result": result,
              "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
              "layer": layer, "times": run.times, "traced_times": run.traced_times,
              "setup_times": setup_times, "import_times": import_times, "problems": run.problems}
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
