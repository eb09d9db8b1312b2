"""Run the benchmark in alternating parent/change pairs and record the result.

    python3 tools/bench_pairs.py --workload radius-scan --seeds 1,2,3 --parent HEAD~1

The change side is this checkout as it would be committed (tracked files
and untracked files that git does not ignore); the parent side is a
``git archive`` copy of ``--parent``.  Each side gets its own directory, so
``bench/run.py`` runs unchanged from each side's own sources.  For every
seed the two sides run one after the other, the side that goes first
alternating from pair to pair, with the end-to-end metrics (``--trace 0``)
and the run length that BENCHMARK.json gives.  ``--trace-pairs N`` adds
one traced pair (``--trace 1``) for each of the first N seeds.

Writes ``BENCH_<workload>.json`` at the repo root: the host as ``bench/run.py``
reports it, both commits with a digest of the files each side ran, every
run, each side's median and quartiles (``statistics.quantiles(n=4)``) per
metric, and how many pairs the change won for each metric.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export_parent(ref: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", ref)), mode="r:") as tar:
        tar.extractall(dest, filter="data")


def export_change(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / name.decode()
        if src.is_file():  # a tracked file deleted in the checkout is left out
            (dest / src.relative_to(ROOT)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / src.relative_to(ROOT))


def digest(root: Path) -> str:
    """sha256 over the path and bytes of every file under src/ and bench/, before any run."""
    h = hashlib.sha256()
    for path in sorted(p for top in ("src", "bench") for p in (root / top).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(root: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=20 * spec["run_seconds"] + 300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {out.returncode}:\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: m["value"] for name, m in res["metrics"].items()}}


def pairs(roots: dict, spec: dict, workload: str, seeds: list[int], trace: int) -> list[dict]:
    done = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(roots[side], spec, workload, seed, trace)
        print(f"{workload} trace {trace} seed {seed}: " + "  ".join(
            f"{side} {pair[side]['metrics'].get('run_s', pair[side]['metrics'].get('trace.run_s')):.4g}"
            for side in SIDES), file=sys.stderr, flush=True)
        done.append(pair)
    return done


def summary(done: list[dict], better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    out = {}
    for name in done[0]["parent"]["metrics"]:
        row = {}
        for side in SIDES:
            vals = [p[side]["metrics"][name] for p in done]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            row[side] = {"median": med, "q1": q1, "q3": q3}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        diffs = [sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) for p in done]
        row["change_wins"] = sum(d > 0 for d in diffs)
        row["parent_wins"] = sum(d < 0 for d in diffs)
        row["change_over_parent"] = (row["change"]["median"] / row["parent"]["median"]
                                     if row["parent"]["median"] else None)
        out[name] = row
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", required=True, help="comma-separated, one pair per seed")
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--trace-pairs", type=int, default=0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        export_parent(args.parent, roots["parent"])
        export_change(roots["change"])
        commits = {
            "parent": {"ref": args.parent,
                       "commit": git("rev-parse", f"{args.parent}^{{commit}}").decode().strip(),
                       "digest": digest(roots["parent"])},
            "change": {"ref": "checkout", "commit": git("rev-parse", "HEAD").decode().strip(),
                       "uncommitted_changes": bool(git("status", "--porcelain").strip()),
                       "digest": digest(roots["change"])},
        }
        end_to_end = pairs(roots, spec, args.workload, seeds, 0)
        traced = pairs(roots, spec, args.workload, seeds[: args.trace_pairs], 1)
        results = roots["change"] / "bench" / "results"
        host = json.loads((results / f"{args.workload}-seed{seeds[0]}-trace0.json").read_text())["host"]

    record = {
        "workload": args.workload, "run_seconds": spec["run_seconds"], "seeds": seeds,
        "host": host, "commits": commits,
        "end_to_end": summary(end_to_end, better),
        "per_layer": summary(traced, better) if traced else None,
        "pairs": end_to_end, "traced_pairs": traced,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
