"""The benchmark's workloads: inputs made from a seed, one round of operations each.

A round is a fixed list of operations; every run repeats whole rounds of
the same operations, so the share of failed operations cannot depend on
how long a run lasts.  The program only ever receives the generated
inputs.

verify-small   every rule at dims 2-6 (seven trials per parameter point, so
               every dim, ensemble and operand count appears), then the
               lemma sweep and the frozen CSV: ``numrad verify --suite all``
               on a reduced parameter grid.  One operation is one
               ``harness.run_trial``.
bounds-large   the same rules at one parameter point, one operand, dims 16
               to 64 weighted toward the low end; the round ends with the
               CSV.  One operation is one ``harness.run_trial``.
radius-scan    ``numerical_radius`` on every general ensemble at dims 2-64
               and resolutions 720 and 2880.  One operation is one call.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread (never more than nproc): set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import numrad  # noqa: E402
from numrad import cli, harness, radius  # noqa: E402
from numrad.harness import ALL_THEOREMS, GENERAL_KINDS, EnsembleSpec, SuiteConfig  # noqa: E402

import checks  # noqa: E402

if Path(numrad.__file__).resolve().parent != ROOT / "src" / "numrad":
    raise ImportError(f"numrad was imported from {numrad.__file__}, not from {ROOT / 'src'}")

WORKLOADS = ("verify-small", "bounds-large", "radius-scan")


@dataclass
class Workload:
    """One round of operations plus what the runner needs to judge them.

    ops          zero-argument calls, issued one at a time in order
    finish       end-of-round step on the list of op outputs (None for an op
                 that raised); its result is part of the round's output
    failed       whether an op output counts as a failed operation
    check        problems in one round's outputs (empty when correct)
    fingerprint  a value that must be equal for every round of a run
    labels       one line per op, naming its input
    """

    ops: list[Callable[[], object]]
    finish: Callable[[list], object]
    failed: Callable[[object], bool]
    check: Callable[[list, object], list[str]]
    fingerprint: Callable[[list, object], object]
    labels: list[str]


def _trial_failed(rec) -> bool:
    return rec is None or checks.failed_status(rec.status)


def _trial_op(theorem: str, point: dict, trial: int, pt_idx: int, cfg: SuiteConfig):
    # look the function up at call time, so a tracer's wrapper is used
    return lambda: harness.run_trial(theorem, point, trial, pt_idx, cfg)


def _records(outputs) -> list:
    return [rec for rec in outputs if rec is not None]


def verify_small(seed: int, tiny: bool = False) -> Workload:
    cfg = SuiteConfig(
        trials=2 if tiny else 7,
        nu_alpha_grid=(0.25,) if tiny else (0.25, 0.75),
        levels_grid=(2,),
        p_grid=(1.0, 2.0),
        master_seed=seed,
    )
    plan = [
        (theorem, point, trial, pt_idx)
        for theorem in ALL_THEOREMS
        for pt_idx, point in enumerate(harness.theorem_points(theorem, cfg))
        for trial in range(cfg.trials)
    ]
    ops = [_trial_op(*args, cfg) for args in plan]
    labels = [f"{t} {pt} dim {cfg.dims[k % len(cfg.dims)]} trial {k}" for t, pt, k, _ in plan]

    def finish(outputs):
        lemmas = harness.lemma_suite(cfg).records
        return lemmas, cli.report_csv(_records(outputs) + lemmas)

    def check(outputs, extra):
        lemmas, _ = extra
        return checks.check_records(_records(outputs), ALL_THEOREMS) + checks.check_lemmas(lemmas)

    return Workload(ops, finish, _trial_failed, check,
                    fingerprint=lambda outputs, extra: extra[1], labels=labels)


# dim -> rules run at that dim; low dims carry every rule, high dims a few
LARGE_PLAN = {
    16: ALL_THEOREMS,
    20: ALL_THEOREMS,
    24: ("thm2.3", "thm2.5", "thm2.11", "thm2.13", "cor2.19", "cor2.7"),
    32: ("thm2.6", "thm2.16"),
    48: ("thm2.13",),
    64: ("thm2.5",),
}
TINY_LARGE_PLAN = {16: ALL_THEOREMS}


def bounds_large(seed: int, tiny: bool = False) -> Workload:
    ops, labels = [], []
    k = 0
    for dim, rules in (TINY_LARGE_PLAN if tiny else LARGE_PLAN).items():
        cfg = SuiteConfig(
            dims=(dim,),
            nu_alpha_grid=(0.25,),
            levels_grid=(2,),
            p_grid=(2.0,),
            pqr_grid=((4.0, 4.0, 2.0),),
            n_ops_grid=(1,),
            master_seed=seed,
        )
        for theorem in rules:
            # the trial index picks the ensemble; a running count varies it
            point = harness.theorem_points(theorem, cfg)[0]
            ops.append(_trial_op(theorem, point, k, 0, cfg))
            labels.append(f"{theorem} {point} dim {dim} trial {k}")
            k += 1

    def check(outputs, extra):
        return checks.check_records(_records(outputs), ALL_THEOREMS)

    return Workload(ops, lambda outputs: cli.report_csv(_records(outputs)),
                    _trial_failed, check, fingerprint=lambda outputs, extra: extra, labels=labels)


SCAN_DIMS = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
SCAN_RESOLUTIONS = (720, 2880)


def radius_scan(seed: int, tiny: bool = False) -> Workload:
    dims = (2, 3, 16) if tiny else SCAN_DIMS
    cases = []
    for i, (dim, res) in enumerate((d, m) for d in dims for m in SCAN_RESOLUTIONS):
        kind = GENERAL_KINDS[i % len(GENERAL_KINDS)]
        mseed = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])
        cases.append((f"{kind} d={dim} m={res}", kind, res,
                      harness.gen_matrix(EnsembleSpec(kind, dim, seed=mseed))))

    def op(t, res):
        return lambda: radius.numerical_radius(t, resolution=res)

    refs: list = []

    def check(outputs, extra):
        if not refs:
            refs.extend(checks.radius_reference(kind, t) for _, kind, _, t in cases)
        problems = []
        for (tag, kind, res, t), est, ref in zip(cases, outputs, refs):
            if est is not None:
                problems += checks.check_radius(tag, t, est, ref)
        return problems

    def fingerprint(outputs, extra):
        return [None if e is None else (e.value, e.witness.tobytes()) for e in outputs]

    return Workload([op(t, res) for _, _, res, t in cases], lambda outputs: None,
                    lambda est: est is None, check, fingerprint,
                    labels=[tag for tag, *_ in cases])


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    builders = {"verify-small": verify_small, "bounds-large": bounds_large,
                "radius-scan": radius_scan}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
    return builders[name](seed, tiny)
