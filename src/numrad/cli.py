"""Command-line front end: verify, radius, bound, gen, compare.

Exit codes: 0 success, 1 usage or I/O error, 2 mathematical failure
(a pointwise violation or a certified violation in a verification run).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import harness
from .errors import DomainError, NumradError
from .radius import SphereOptConfig, numerical_radius, wp_radius

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
    except (OSError, json.JSONDecodeError) as exc:
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


def record_row(rec: harness.TrialRecord) -> list[str]:
    return [
        rec.theorem,
        str(rec.trial),
        str(rec.dim),
        rec.ensemble,
        fmt17(rec.nu_or_alpha),
        fmt17(rec.p),
        fmt17(rec.q),
        fmt17(rec.r),
        str(rec.levels),
        str(rec.n_ops),
        fmt17(rec.lhs_lower),
        fmt17(rec.norm_term),
        fmt17(rec.refinement_upper),
        fmt17(rec.rhs_refined_est),
        fmt17(rec.rhs_baseline),
        fmt17(rec.refinement_gain),
        str(rec.pointwise_violations),
        rec.status,
        str(rec.seed),
    ]


def report_csv(records) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    lines.extend(",".join(record_row(r)) for r in records)
    return "\n".join(lines) + "\n"


def gain_summary_csv(report: harness.SuiteReport) -> str:
    lines = [",".join(GAIN_COLUMNS)]
    for theorem in sorted(report.aggregates):
        agg = report.aggregates[theorem]
        lines.append(
            ",".join(
                [
                    theorem,
                    str(agg["trials"]),
                    fmt17(agg["min_gain"]),
                    fmt17(agg["mean_gain"]),
                    fmt17(agg["max_gain"]),
                    str(agg["pointwise_violations"]),
                ]
            )
        )
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
    return tuple(range(lo, hi + 1))


def cmd_verify(args) -> int:
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
    if t in ("thm2.3", "thm2.5"):
        if len(ops) != 3:
            raise DomainError(f"{t} needs operands A,B,X; got {len(ops)} names")
        fn = bnd.bound_thm23 if t == "thm2.3" else bnd.bound_thm25_heinz
        return fn(ops[0], ops[1], ops[2], nu=args.nu, r=args.r, levels=args.N, cfg=cfg)
    if t == "thm2.6":
        if len(ops) % 3 != 0:
            raise DomainError("thm2.6 needs operand triples A1,T1,B1,...")
        triples = [tuple(ops[i : i + 3]) for i in range(0, len(ops), 3)]
        return bnd.bound_thm26(
            triples, alpha=args.alpha, p=args.p, r=args.r, levels=args.N, cfg=cfg
        )
    if t == "cor2.7":
        if len(ops) % 2 != 0:
            raise DomainError("cor2.7 needs operand pairs A1,B1,...")
        pairs = [tuple(ops[i : i + 2]) for i in range(0, len(ops), 2)]
        return bnd.bound_cor27(pairs, p=args.p, r=args.r, levels=args.N, cfg=cfg)
    if t == "cor2.8":
        return bnd.bound_cor28(
            ops, alpha=args.alpha, p=args.p, r=args.r, levels=args.N, cfg=cfg
        )
    if t == "cor2.10":
        if len(ops) != 2:
            raise DomainError("cor2.10 needs exactly two operands")
        return bnd.bound_cor210(ops[0], ops[1], alpha=args.alpha, p=args.p, cfg=cfg)
    if t == "thm2.11":
        return bnd.bound_thm211(ops, alpha=args.alpha, p=args.p, levels=args.N, cfg=cfg)
    if t == "thm2.13":
        return bnd.bound_thm213(ops, alpha=args.alpha, p=args.p, levels=args.N, cfg=cfg)
    if t == "cor2.15":
        if len(ops) == 1:
            return bnd.cartesian_check(ops[0], cfg)
        if len(ops) == 2:
            return bnd.bound_cor215(ops[0], ops[1], p=args.p, cfg=cfg)
        raise DomainError("cor2.15 needs one operand (A) or two (B,C)")
    if t == "thm2.16":
        return bnd.bound_thm216(ops, p=args.p, q=args.q, r=args.r, levels=args.N, cfg=cfg)
    if t == "cor2.18":
        return bnd.bound_cor218(ops, levels=args.N, cfg=cfg)
    if t == "cor2.19":
        return bnd.bound_cor219(ops, cfg=cfg)
    raise DomainError(f"unknown theorem id {t!r}")


def cmd_bound(args) -> int:
    mats = read_matrix_file(args.input)
    result = _bound_dispatch(args, mats)
    if isinstance(result, bnd.CartesianCheck):
        record = {
            "theorem": "cor2.15",
            "w_squared": result.w_squared,
            "half_norm": result.half_norm,
            "identity_residual": result.identity_residual,
            "we_squared": result.we_squared,
        }
    else:
        record = {
            "theorem": result.theorem,
            "dim": result.dim,
            "n_ops": result.n_ops,
            "nu_or_alpha": result.nu_or_alpha,
            "p": result.p,
            "q": result.q,
            "r": result.r,
            "N": result.levels,
            "lhs_lower": result.lhs_lower,
            "norm_term": result.norm_term,
            "refinement_upper": result.refinement_upper,
            "rhs_refined_est": result.rhs_refined_est,
            "rhs_baseline": result.rhs_baseline,
            "refinement_gain": result.refinement_gain,
            "pointwise_violations": result.pointwise_violations,
            "pointwise_samples": result.pointwise_samples,
            "dominance_violations": result.dominance_violations,
            "status": result.status,
            "extras": result.extras,
        }
    print(json.dumps(record, allow_nan=True))
    return 0


def cmd_gen(args) -> int:
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
    dims = _parse_dims(args.dims)
    cfg = harness.SuiteConfig(trials=args.trials, dims=dims, master_seed=args.seed)
    report = harness.compare_refinements(cfg)
    if not report.records:
        raise DomainError("empty theorem selection for compare")
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
