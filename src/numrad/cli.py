"""Command-line front end: verify, radius, bound, gen, compare.

Exit codes: 0 success, 1 usage or I/O error, 2 mathematical failure
(a pointwise violation or a certified violation in a verification run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import harness
from .errors import DomainError, NumradError
from .linalg import DIM_CAP
from .radius import SphereOptConfig, _require_lp_exponent, numerical_radius, wp_radius

REPORT_COLUMNS = (
    "theorem",
    "trial",
    "dim",
    "ensemble",
    "nu_or_alpha",
    "p",
    "q",
    "r",
    "N",
    "n_ops",
    "lhs_lower",
    "norm_term",
    "refinement_upper",
    "rhs_refined_est",
    "rhs_baseline",
    "refinement_gain",
    "pointwise_violations",
    "status",
    "seed",
)

GAIN_COLUMNS = ("theorem", "trials", "min_gain", "mean_gain", "max_gain", "violations")

# the keys of the JSON line ``bound`` prints for a BoundReport, in order
BOUND_KEYS = (
    "theorem", "dim", "n_ops", "nu_or_alpha", "p", "q", "r", "N", "lhs_lower",
    "norm_term", "refinement_upper", "rhs_refined_est", "rhs_baseline",
    "refinement_gain", "pointwise_violations", "pointwise_samples",
    "dominance_violations", "status", "extras",
)

# the record attribute a column or key reads, where the two names differ
_ATTRS = {"N": "levels", "violations": "pointwise_violations"}

MATRIX_FORMAT_VERSION = "1"


def fmt17(x: float) -> str:
    """17 significant digits: lossless round trip for doubles."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------


def write_matrix_file(path, named: list[tuple[str, np.ndarray]]) -> None:
    doc = {"format_version": MATRIX_FORMAT_VERSION, "matrices": []}
    for name, mat in named:
        m = np.asarray(mat, dtype=np.complex128)
        n = m.shape[0]
        data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        doc["matrices"].append({"name": name, "dim": n, "data": data})
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def read_matrix_file(path) -> dict[str, np.ndarray]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder's stack
        raise DomainError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"matrix file {path} does not hold a JSON object")
    if doc.get("format_version") != MATRIX_FORMAT_VERSION:
        raise DomainError(f"unsupported matrix file version {doc.get('format_version')!r}")
    entries = doc.get("matrices", [])
    if not isinstance(entries, list):
        raise DomainError("'matrices' must be a list")
    out: dict[str, np.ndarray] = {}
    for i, entry in enumerate(entries):
        name, mat = _parse_matrix_entry(i, entry)
        if name in out:
            raise DomainError(f"duplicate matrix name {name!r}")
        out[name] = mat
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_matrix_entry(index: int, entry) -> tuple[str, np.ndarray]:
    if not isinstance(entry, dict):
        raise DomainError(f"matrix entry {index} is not a JSON object")
    missing = [key for key in ("name", "dim", "data") if key not in entry]
    if missing:
        raise DomainError(f"matrix entry {index} lacks {', '.join(missing)}")
    name, n, data = entry["name"], entry["dim"], entry["data"]
    if not isinstance(name, str):
        raise DomainError(f"matrix entry {index}: name must be a string, got {name!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"matrix {name!r}: dim must be a positive integer, got {n!r}")
    if not isinstance(data, list):
        raise DomainError(f"matrix {name!r}: data must be a list of [re, im] pairs")
    if len(data) != n * n:
        raise DomainError(f"matrix {name!r}: expected {n * n} entries, got {len(data)}")
    for k, z in enumerate(data):
        if not (isinstance(z, list) and len(z) == 2 and all(_is_number(v) for v in z)):
            raise DomainError(f"matrix {name!r}: entry {k} is not a numeric [re, im] pair: {z!r}")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except OverflowError as exc:
        raise DomainError(f"matrix {name!r}: entry out of double range ({exc})") from exc
    if not np.isfinite(flat).all():
        raise DomainError(f"matrix {name!r} has non-finite entries")
    return name, flat.reshape(n, n)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    return fmt17(value) if isinstance(value, float) else str(value)


def record_row(rec: harness.TrialRecord) -> list[str]:
    return [_cell(getattr(rec, _ATTRS.get(c, c))) for c in REPORT_COLUMNS]


def report_csv(records) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    lines.extend(",".join(record_row(r)) for r in records)
    return "\n".join(lines) + "\n"


def gain_summary_csv(report: harness.SuiteReport) -> str:
    lines = [",".join(GAIN_COLUMNS)]
    for theorem in sorted(report.aggregates):
        agg = {"theorem": theorem, **report.aggregates[theorem]}
        lines.append(",".join(_cell(agg[_ATTRS.get(c, c)]) for c in GAIN_COLUMNS))
    return "\n".join(lines) + "\n"


def math_failures(records) -> int:
    bad = 0
    for rec in records:
        if rec.status == bnd.CERTIFIED_VIOLATION or rec.pointwise_violations > 0:
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError as exc:
        raise DomainError(f"dims must look like LO:HI, got {text!r}") from exc
    if not (1 <= lo <= hi):
        raise DomainError(f"bad dim range {text!r}")
    if hi > DIM_CAP:
        raise DomainError(f"dimension {hi} exceeds cap {DIM_CAP}")
    return tuple(range(lo, hi + 1))


def _require_seed(seed: int) -> None:
    """numpy seeds only from nonnegative integers."""
    if seed < 0:
        raise DomainError(f"--seed must be at least 0, got {seed}")


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError(f"--trials must be at least 1, got {trials}")


def cmd_verify(args) -> int:
    _require_trials(args.trials)
    _require_seed(args.seed)
    dims = _parse_dims(args.dims)
    cfg = harness.SuiteConfig(trials=args.trials, dims=dims, master_seed=args.seed)
    if args.suite == "bounds":
        report = harness.run_suite(cfg)
    elif args.suite == "lemmas":
        report = harness.lemma_suite(cfg)
    elif args.suite == "all":
        rep_b = harness.run_suite(cfg)
        rep_l = harness.lemma_suite(cfg)
        records = rep_b.records + rep_l.records
        report = harness.SuiteReport(
            config=cfg.echo(), records=records, aggregates=harness.aggregate(records)
        )
    else:
        raise DomainError(f"unknown suite {args.suite!r} (choose all, bounds, lemmas)")
    Path(args.output).write_text(report_csv(report.records), encoding="utf-8")
    bad = math_failures(report.records)
    total = len(report.records)
    print(f"{total} records written to {args.output}; {bad} with mathematical failures")
    return 2 if bad else 0


def cmd_radius(args) -> int:
    mats = read_matrix_file(args.input)
    names = [n.strip() for n in args.names.split(",") if n.strip()]
    if not names:
        raise DomainError("no matrix names given")
    missing = [n for n in names if n not in mats]
    if missing:
        raise DomainError(f"matrices not found in {args.input}: {', '.join(missing)}")
    _require_lp_exponent(args.p)
    if len(names) == 1:
        est = numerical_radius(mats[names[0]])
    else:
        cfg = SphereOptConfig(seed=args.seed)
        est = wp_radius([mats[n] for n in names], args.p, cfg)
    print(f"{est.value!r} ({est.bound_side})")
    parts = ", ".join(f"{fmt17(z.real)}{z.imag:+.17g}j" for z in est.witness)
    print(f"witness = [{parts}]")
    return 0


def _bound_dispatch(args, mats: dict[str, np.ndarray]) -> bnd.BoundReport | bnd.CartesianCheck:
    names = [n.strip() for n in args.operands.split(",") if n.strip()]
    missing = [n for n in names if n not in mats]
    if missing:
        raise DomainError(f"matrices not found: {', '.join(missing)}")
    ops = [mats[n] for n in names]
    cfg = SphereOptConfig(seed=args.seed)
    t = args.theorem
    rule = bnd.RULES.get(t)
    if rule is None:
        raise DomainError(f"unknown theorem id {t!r} (choose from {', '.join(bnd.RULES)})")
    if t == "cor2.15" and len(ops) == 1:
        return bnd.cartesian_check(ops[0], cfg)
    if not rule.takes(len(ops)):
        raise DomainError(f"{t} takes {rule.layout()}, got {len(ops)}")
    params = {name: getattr(args, "N" if name == "levels" else name) for name in rule.params}
    return getattr(bnd, rule.fn)(*rule.arrange(ops), cfg=cfg, **params)


def cmd_bound(args) -> int:
    mats = read_matrix_file(args.input)
    result = _bound_dispatch(args, mats)
    if isinstance(result, bnd.CartesianCheck):
        record = {"theorem": "cor2.15", **asdict(result)}
    else:
        record = {key: getattr(result, _ATTRS.get(key, key)) for key in BOUND_KEYS}
    print(json.dumps(_nan_to_null(record), allow_nan=False))
    return 0


def _nan_to_null(value):
    """Replace every non-finite float, at any depth, by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def cmd_gen(args) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be at least 1, got {args.count}")
    _require_seed(args.seed)
    if args.kind not in harness.ENSEMBLE_KINDS:
        raise DomainError(
            f"unknown kind {args.kind!r} (choose from {', '.join(harness.ENSEMBLE_KINDS)})"
        )
    named = []
    for i in range(args.count):
        seed_i = int(
            np.random.SeedSequence(args.seed, spawn_key=(i,)).generate_state(1)[0]
        )
        spec = harness.EnsembleSpec(kind=args.kind, dim=args.dim, seed=seed_i)
        named.append((f"{args.kind}{i}", harness.gen_matrix(spec)))
    write_matrix_file(args.output, named)
    print(f"{args.count} matrices written to {args.output}")
    return 0


def cmd_compare(args) -> int:
    _require_trials(args.trials)
    _require_seed(args.seed)
    dims = _parse_dims(args.dims)
    cfg = harness.SuiteConfig(trials=args.trials, dims=dims, master_seed=args.seed)
    report = harness.compare_refinements(cfg)
    text = report_csv(report.records) + "\n" + gain_summary_csv(report)
    Path(args.output).write_text(text, encoding="utf-8")
    bad = math_failures(report.records)
    print(f"{len(report.records)} comparison records written to {args.output}; {bad} failures")
    return 2 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="numrad")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite and write a report")
    p.add_argument("--suite", default="all")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--dims", default="2:6")
    p.add_argument("--seed", type=int, default=20250810)
    p.add_argument("--output", "-o", default="report.csv")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("radius", help="radius of named matrices from a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--names", required=True, help="comma-separated matrix names")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_radius)

    p = sub.add_parser("bound", help="evaluate one bound rule on named operands")
    p.add_argument("--theorem", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--operands", required=True, help="comma-separated matrix names")
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("gen", help="generate ensemble matrices into a matrix file")
    p.add_argument("--kind", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="matrices.json")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("compare", help="refined-versus-baseline gain report")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--dims", default="2:6")
    p.add_argument("--seed", type=int, default=20250810)
    p.add_argument("--output", "-o", default="compare.csv")
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except NumradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
