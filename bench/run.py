"""numrad benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations (one at a time, in one
process, a closed loop) until ``--seconds`` have passed, checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the per-layer ones, from spans
recorded around calls into each numrad module (see tracing.py).  Details of
the run go to bench/results/.  Exit code 0 when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def setup_seconds(workload: str, seed: int) -> float:
    """Median of several cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds for ``seconds``; round 1's outputs are kept and checked.

    A round is not started when the median round so far says it would end
    past the deadline, so a run lasts about ``seconds`` whatever the round
    length; the first round always runs.
    """
    lat: list[float] = []
    round_s: list[float] = []
    failed = 0
    first = None
    problems: list[str] = []
    layers: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        outputs = []
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                out = None
            lat.append(time.perf_counter() - t0)
            outputs.append(out)
        extra = wl.finish(outputs)
        r1 = time.perf_counter()
        round_s.append(r1 - r0)
        failed += sum(1 for out in outputs if wl.failed(out))
        fp = wl.fingerprint(outputs, extra)
        if first is None:
            first = (outputs, extra, fp)
        elif fp != first[2]:
            problems.append(f"round {len(round_s)} output differs from round 1")
        if tracer is not None:
            for key, val in tracer.end_round().items():
                layers[key] = layers.get(key, 0.0) + val
        if r1 - start + statistics.median(round_s) > seconds:
            break
    total = time.perf_counter() - start
    problems += wl.check(first[0], first[1])
    n = len(round_s)
    return {
        "rounds": n, "lat": lat, "round_s": round_s, "total_s": total, "failed": failed,
        "problems": problems, "layers": {k: v / n for k, v in layers.items()},
        "op_ms": [statistics.median(lat[i::len(wl.ops)]) * 1e3 for i in range(len(wl.ops))],
    }


def host() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "numrad").is_dir():
        print(f"error: no numrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    import workloads  # sets the BLAS thread count before numpy loads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_s = setup_seconds(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = res["rounds"] * len(wl.ops)
    if args.trace:
        metrics = {name: {"value": res["layers"].get(name, 0.0), "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
        metrics["trace.run_s"] = {"value": statistics.median(res["round_s"]), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
            "ops_per_s": {"value": attempted / res["total_s"], "unit": "1/s"},
            "op_p50_ms": {"value": percentile(res["lat"], 50) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": percentile(res["lat"], 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "unit": "MB"},
        }
    correct = not res["problems"]
    for line in res["problems"][:50]:
        print(f"WRONG: {line}", file=sys.stderr)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host(), "rounds": res["rounds"],
        "ops_per_round": len(wl.ops), "round_s": res["round_s"], "problems": res["problems"],
        "metrics": metrics, "ops": dict(zip(wl.labels, res["op_ms"])),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracing.dump(tracer.first_round, out_dir / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
