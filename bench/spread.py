"""Run each workload several times with different seeds and print the spreads.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b] [--trace 0]

For every end-to-end metric it prints the median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json; these
spreads are what the bounds are set from.  Each run is the benchmark
command exactly as BENCHMARK.json gives it, with that file's run length.
Raw results go to bench/results/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    (HERE / "results").mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            res = run_once(spec, workload, args.first_seed + i, args.trace)
            runs.append(res)
            print(f"{workload} seed {args.first_seed + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {args.runs} runs, failed shares {sorted(shares)}")
        print(f"{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}  within bound/3")
        for name, bound in bounds.items():
            med, spr = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if bound is None else ("yes" if spr < bound / 3 else "NO")
            print(f"{name:28} {med:14.6g} {spr:8.4f} {bound if bound is not None else '':>6}  {flag}")
        print(flush=True)
        path = HERE / "results" / f"spread-{workload}-trace{args.trace}.json"
        path.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
