"""Span tracing of numrad's public functions, installed from outside the package.

Each wrapped function is replaced at the name its callers look up (for
example ``numrad.bounds.minimize_over_sphere``, because ``bounds`` imports
it directly), so the program itself carries no instrumentation.  Spans are
kept in memory; ``fold`` turns one round's spans into per-layer totals and
``dump`` writes spans out once the run is over.

A span's self time is its duration minus the durations of its direct child
spans; the process is single-threaded, so children never overlap.  A
group's call count and busy time cover only its outermost spans (a span
with no ancestor of the same group), so nested calls such as
``PsdMatrix.from_matrix`` -> ``hermitian_eigen`` are not counted twice.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from numrad import bounds, cli, harness, linalg, radius
from numrad.harness import ALL_THEOREMS

SPHERE, PAIR, NR = "radius.sphere", "radius.pair", "radius.nr"
QUAD, SPECTRAL, BRACKET = "linalg.quad", "linalg.spectral", "refine.bracket"
RULE, GEN, TRIAL, REPORT = "bounds.rule", "harness.gen", "harness.trial", "cli.report"


# Notes record what a span's group needs, as cheaply as possible: quad
# spans (rows, d), bracket spans rows, sphere spans whether the search
# converged, trial spans (theorem, status), report spans the bytes written.
def _rows_quad_many(args, out):
    return args[1].shape[0], args[0].mat.shape[0]


def _rows_forms(args, out):
    return args[1].shape[0], args[0].shape[0]


def _rows_bracket(args, out):
    return out.size


def _converged(args, out):
    return out.converged


def _theorem(args, out):
    return args[0], out.status


def _bytes(args, out):
    return len(out.encode("utf-8"))


# (owner, attribute, group, note): every name that a caller on the
# workloads' call paths looks up, the benchmark's own calls included.
# Functions defined in one module and imported by another are wrapped in
# the importing module.
def _targets():
    pm = linalg.PsdMatrix
    out = [
        (harness, "run_trial", TRIAL, _theorem),
        (harness, "gen_matrix", GEN, None),
        (harness, "abs_pair", SPECTRAL, None),
        (harness, "op_norm", SPECTRAL, None),
        (cli, "report_csv", REPORT, _bytes),
        (radius, "numerical_radius", NR, None),
        (radius, "quad_forms_many", QUAD, _rows_forms),
        (bounds, "numerical_radius", NR, None),
        (bounds, "wp_radius", SPHERE, _converged),
        (bounds, "we_radius", SPHERE, _converged),
        (bounds, "minimize_over_sphere", SPHERE, _converged),
        (bounds, "minimize_over_sphere_pair", PAIR, _converged),
        (bounds, "weighted_bracket_sum", BRACKET, _rows_bracket),
        (bounds, "abs_pair", SPECTRAL, None),
        (bounds, "op_norm", SPECTRAL, None),
        (bounds, "quad_forms_many", QUAD, _rows_forms),
        (bounds, "pair_forms_many", QUAD, _rows_forms),
        (linalg, "hermitian_eigen", SPECTRAL, None),
        (pm, "from_matrix", SPECTRAL, None),
        (pm, "power", SPECTRAL, None),
        (pm, "apply", SPECTRAL, None),
        (pm, "quad_many", QUAD, _rows_quad_many),
    ]
    out += [(bounds, name, RULE, None) for name in dir(bounds) if name.startswith("bound_")]
    return out


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list = []
        self.first_round: list = []

    def _wrap(self, fn, name: str, group: str, note):
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer = depth[group] == 0
            spans.append(None)
            stack.append(idx)
            depth[group] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                depth[group] -= 1
                stack.pop()
                spans[idx] = (name, group, parent, outer, t0, t1, None)
            if note:
                spans[idx] = (name, group, parent, outer, t0, t1, note(args, out))
            return out

        return traced

    def install(self) -> None:
        for owner, attr, group, note in _targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            name = f"{getattr(owner, '__name__', owner)}.{attr}".removeprefix("numrad.")
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, group, note))
            else:
                wrapped = self._wrap(raw, name, group, note)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def end_round(self) -> dict[str, float]:
        """Per-layer totals of the spans since the last call; keeps round 1's spans."""
        spans = list(self.spans)
        self.spans.clear()
        if not self.first_round:
            self.first_round = spans
        return fold(spans)


def _units(names: str, unit: str) -> dict[str, str]:
    return dict.fromkeys(names.split(), unit)


# per-layer metric -> unit; every value is a per-round average
PER_LAYER = {
    **_units("radius.sphere_calls radius.pair_calls", "count"),
    **_units("radius.sphere_s radius.sphere_self_s", "s"),
    **_units("radius.sphere_unconverged radius.nr_calls", "count"),
    **_units("radius.nr_s", "s"),
    **_units("linalg.quad_calls linalg.quad_rows", "count"),
    **_units("linalg.quad_s", "s"),
    **_units("linalg.quad_flops", "flop"),
    **_units("linalg.spectral_calls", "count"),
    **_units("linalg.spectral_s", "s"),
    **_units("refine.bracket_calls refine.bracket_rows", "count"),
    **_units("refine.bracket_s", "s"),
    **_units(" ".join(f"bounds.rule_s.{rule}" for rule in ALL_THEOREMS), "s"),
    **_units("bounds.self_s", "s"),
    **_units("bounds.inconclusive harness.gen_calls", "count"),
    **_units("harness.gen_s harness.trial_self_s cli.report_s", "s"),
    **_units("cli.report_bytes", "B"),
}


def fold(spans: list) -> dict[str, float]:
    """Per-layer totals of one round's spans."""
    child = [0.0] * len(spans)
    for name, group, parent, outer, t0, t1, info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    m = dict.fromkeys(PER_LAYER, 0.0)
    for i, (name, group, parent, outer, t0, t1, info) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child[i]
        if group in (SPHERE, PAIR):
            m["radius.sphere_self_s"] += self_s
            if info is False:
                m["radius.sphere_unconverged"] += 1
            if outer:
                m["radius.sphere_calls" if group == SPHERE else "radius.pair_calls"] += 1
                m["radius.sphere_s"] += dur
        elif group == RULE:
            m["bounds.self_s"] += self_s
            trial_info = spans[parent][6] if parent >= 0 and spans[parent][1] == TRIAL else None
            if outer and trial_info:
                m[f"bounds.rule_s.{trial_info[0]}"] += dur
        elif group == TRIAL:
            m["harness.trial_self_s"] += self_s
            m["bounds.inconclusive"] += bool(info) and info[1] == "inconclusive"
        elif not outer:
            continue
        elif group == NR:
            m["radius.nr_calls"] += 1
            m["radius.nr_s"] += dur
        elif group == QUAD:
            rows, d = info or (0, 0)
            m["linalg.quad_calls"] += 1
            m["linalg.quad_rows"] += rows
            # computed, not counted: a complex d x d quadratic form per row
            # is d^2 complex multiply-adds, 8 real flops each
            m["linalg.quad_flops"] += 8 * rows * d * d
            m["linalg.quad_s"] += dur
        elif group == SPECTRAL:
            m["linalg.spectral_calls"] += 1
            m["linalg.spectral_s"] += dur
        elif group == BRACKET:
            m["refine.bracket_calls"] += 1
            m["refine.bracket_rows"] += info or 0
            m["refine.bracket_s"] += dur
        elif group == GEN:
            m["harness.gen_calls"] += 1
            m["harness.gen_s"] += dur
        elif group == REPORT:
            m["cli.report_s"] += dur
            m["cli.report_bytes"] += info or 0
    return m


def dump(spans: list, path) -> None:
    """Write spans as JSON lines, times relative to the first span."""
    base = spans[0][4] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, group, parent, outer, t0, t1, info) in enumerate(spans):
            row = {"id": i, "parent": parent, "name": name, "group": group,
                   "start_us": round((t0 - base) * 1e6, 3), "dur_us": round((t1 - t0) * 1e6, 3)}
            if info is not None:
                row["note"] = info
            fh.write(json.dumps(row) + "\n")
