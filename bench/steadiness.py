"""Run the benchmark over several seeds and report how steady it is.

    python3 bench/steadiness.py --workloads attack-deep --seeds 1-5 --out bench/out/a.json
    python3 bench/steadiness.py --workloads attack-deep --seeds 7,7,7,7,7
    python3 bench/steadiness.py --compare bench/out/a.json bench/out/b.json

``--seeds`` is a comma-separated list of seeds and ranges; a seed may
repeat, so that the spread of one instance (machine noise alone) can be
set apart from the spread over seeds (machine noise and instance cost).
For each workload and end-to-end metric this prints the median over the
runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from BENCHMARK.json.  ``--compare`` reports, per
metric, how far the second set's median is from the first's, as a share
of the first, and lists every exact figure of a seed (queries, recall
and, for ``--trace 1`` sets, every count metric) that did not repeat.
Sheet digests and recovered counts are checked inside each run against
references.json.  Runs are made one at a time, from the repository root,
each for BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    """'1-3,7,7' -> [1, 2, 3, 7, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"seed": seed, "exit": proc.returncode, "result": result,
            "figures": record["figures"], "env": record["env"]}


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def values_of(runs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def summarize(runs: dict, bounds: dict) -> list[str]:
    lines = []
    for workload, wruns in runs.items():
        ok = all(r["exit"] == 0 and r["result"]["correct"] for r in wruns)
        seeds = ",".join(str(r["seed"]) for r in wruns)
        lines.append(f"{workload}: {len(wruns)} runs (seeds {seeds}), all correct: {ok}")
        for metric, bound in bounds.items():
            if metric not in wruns[0]["result"]["metrics"]:
                continue  # a traced set has per-layer metrics only
            med, sp = spread(values_of(wruns, metric))
            lines.append(f"  {metric}: median {med:.4g}, spread {sp:.3f} (bound {bound})")
    return lines


def compare(a: dict, b: dict, bounds: dict) -> list[str]:
    """Median shift of each bounded metric, and every exact figure that changed."""
    lines = []
    for workload, runs_a in a["runs"].items():
        runs_b = b["runs"][workload]
        for metric, bound in bounds.items():
            if metric not in runs_a[0]["result"]["metrics"]:
                continue
            ma, _ = spread(values_of(runs_a, metric))
            mb, _ = spread(values_of(runs_b, metric))
            lines.append(f"{workload} {metric}: {ma:.4g} -> {mb:.4g} "
                         f"({100 * (mb / ma - 1):+.1f}%, bound {100 * bound:.0f}%)")
        same = 0
        by_seed = {r["seed"]: exact_figures(r) for r in runs_b}
        for ra in runs_a:
            again = by_seed.get(ra["seed"])
            if again is None:
                continue
            for name, fig in exact_figures(ra).items():
                if again.get(name) != fig:
                    lines.append(f"{workload} seed {ra['seed']}: {name} {fig} != {again.get(name)}")
                else:
                    same += 1
        if same:
            lines.append(f"{workload}: {same} exact figures repeat exactly")
    return lines


def exact_figures(run: dict) -> dict:
    """Queries, recall and every count metric: these must repeat exactly."""
    out = {k: v["value"] for k, v in run["figures"].items()
           if k in ("queries", "recall", "queries_per_recovered")}
    out.update({k: v["value"] for k, v in run["result"]["metrics"].items() if v["unit"] == "count"})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        print("\n".join(compare(a, b, bounds)))
        return 0
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs: dict = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds_of(args.seeds):
            r = run_once(workload, seed, seconds, args.trace)
            runs[workload].append(r)
            m = {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()
                 if k in bounds}
            print(f"{workload} seed {seed}: exit {r['exit']} {m}", flush=True)
    print("\n".join(summarize(runs, bounds)))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
