"""Random ensembles, suite execution, and comparison reporting.

Every trial is a pure function of the master seed: operand seeds and
sphere-search seeds are split from it with counter-based streams, so two
runs of the same configuration produce identical records (wall time
aside).  Errors raised by a trial's own operands (NotPsd, DomainError and
friends) are captured as the trial's status; they never abort a suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .errors import NumradError, DomainError
from . import bounds as bnd
from .linalg import DIM_CAP, PsdMatrix, abs_pair, hermitian_part, op_norm
from .radius import SphereOptConfig, random_unit_vectors, rng_from

ENSEMBLE_KINDS = (
    "ginibre",
    "hermitian",
    "psd",
    "positive_definite",
    "unitary",
    "normal",
    "nilpotent",
    "diagonal",
    "contraction",
)

GENERAL_KINDS = ("ginibre", "normal", "nilpotent", "hermitian", "contraction", "unitary", "diagonal")
PSD_KINDS = ("psd", "positive_definite")

# the suite's rule order; trial seeds depend on each rule's index in it
ALL_THEOREMS = tuple(bnd.RULES)

LEMMA_IDS = ("lemma2.1a", "lemma2.1b", "lemma2.1c", "lemma2.2a", "lemma2.2b")


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    dim: int
    scale: float = 1.0
    seed: int = 0


def gen_matrix(spec: EnsembleSpec) -> np.ndarray:
    """Deterministic random matrix of the requested kind."""
    if spec.kind not in ENSEMBLE_KINDS:
        raise DomainError(f"unknown ensemble kind {spec.kind!r}")
    if not (1 <= spec.dim <= DIM_CAP):
        raise DomainError(f"dim must lie in 1..{DIM_CAP}, got {spec.dim}")
    if spec.scale <= 0:
        raise DomainError(f"scale must be positive, got {spec.scale}")
    rng = rng_from(spec.seed, 11)
    d = spec.dim

    def ginibre() -> np.ndarray:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return spec.scale * g / math.sqrt(2.0)

    def haar_unitary() -> np.ndarray:
        qm, rm = np.linalg.qr(ginibre())
        ph = np.diag(rm).copy()
        ph[ph == 0] = 1.0
        return qm * (ph / np.abs(ph))

    if spec.kind == "ginibre":
        return ginibre()
    if spec.kind == "hermitian":
        return hermitian_part(ginibre())
    if spec.kind == "psd":
        g = ginibre()
        return g.conj().T @ g / d
    if spec.kind == "positive_definite":
        g = ginibre()
        return g.conj().T @ g / d + 0.1 * spec.scale**2 * np.eye(d)
    if spec.kind == "unitary":
        return haar_unitary()
    if spec.kind == "normal":
        u = haar_unitary()
        lam = spec.scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)
        return (u * lam) @ u.conj().T
    if spec.kind == "nilpotent":
        return np.triu(ginibre(), 1)
    if spec.kind == "diagonal":
        lam = spec.scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)
        return np.diag(lam)
    # contraction
    g = ginibre()
    nrm = op_norm(g)
    return g / nrm if nrm > 1.0 else g


@dataclass(frozen=True)
class SuiteConfig:
    theorems: tuple[str, ...] = ALL_THEOREMS
    trials: int = 5
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    nu_alpha_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    levels_grid: tuple[int, ...] = (1, 2, 3)
    p_grid: tuple[float, ...] = (1.0, 2.0)
    # (p, q, r) triples for the two-exponent rule; each satisfies 1/p + 1/q = 1/r
    pqr_grid: tuple[tuple[float, float, float], ...] = (
        (2.0, 2.0, 1.0),
        (4.0, 4.0, 2.0),
        (3.0, 1.5, 1.0),
    )
    n_ops_grid: tuple[int, ...] = (1, 2, 3)
    samples: int = 256
    master_seed: int = 20250810
    sphere: SphereOptConfig = field(
        default_factory=lambda: SphereOptConfig(restarts=4, max_iters=40, step_tol=1e-9)
    )

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class TrialRecord:
    theorem: str
    trial: int
    dim: int
    ensemble: str
    nu_or_alpha: float
    p: float
    q: float
    r: float
    levels: int
    n_ops: int
    lhs_lower: float
    norm_term: float
    refinement_upper: float
    rhs_refined_est: float
    rhs_baseline: float
    refinement_gain: float
    pointwise_violations: int
    status: str
    seed: int
    dominance_violations: int = 0
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)


# the record fields a trial takes from its BoundReport
_SHARED_FIELDS = tuple(
    f.name for f in fields(TrialRecord) if f.name in {g.name for g in fields(bnd.BoundReport)}
)

# the record fields that stay undefined when no bound report exists
_UNDEFINED = dict.fromkeys(
    ("nu_or_alpha", "p", "q", "r", "lhs_lower", "norm_term", "refinement_upper",
     "rhs_refined_est", "rhs_baseline", "refinement_gain"),
    math.nan,
)


@dataclass
class SuiteReport:
    config: dict
    records: list[TrialRecord]
    aggregates: dict
    format_version: str = "1"


def aggregate(records: Sequence[TrialRecord]) -> dict:
    """Per-theorem aggregates; a pure fold, recomputable from the records."""
    out: dict = {}
    for rec in records:
        agg = out.setdefault(
            rec.theorem,
            {
                "trials": 0,
                "statuses": {},
                "pointwise_violations": 0,
                "dominance_violations": 0,
                "min_gain": math.inf,
                "max_gain": -math.inf,
                "gain_sum": 0.0,
            },
        )
        agg["trials"] += 1
        agg["statuses"][rec.status] = agg["statuses"].get(rec.status, 0) + 1
        agg["pointwise_violations"] += rec.pointwise_violations
        agg["dominance_violations"] += rec.dominance_violations
        if math.isfinite(rec.refinement_gain):
            agg["min_gain"] = min(agg["min_gain"], rec.refinement_gain)
            agg["max_gain"] = max(agg["max_gain"], rec.refinement_gain)
            agg["gain_sum"] += rec.refinement_gain
    for agg in out.values():
        n = agg["trials"]
        agg["mean_gain"] = agg.pop("gain_sum") / n if n else 0.0
        if agg["min_gain"] is math.inf:
            agg["min_gain"] = 0.0
            agg["max_gain"] = 0.0
    return out


def theorem_points(theorem: str, cfg: SuiteConfig) -> list[dict]:
    """Deterministic parameter grid for one bound rule, from its ``bnd.RULES`` entry.

    Per-rule exponent domains are enforced there by filtering the configured
    grids (with a safe fallback), so every generated point is admissible.
    """
    rule = bnd.RULES.get(theorem)
    if rule is None:
        raise DomainError(f"unknown theorem id {theorem!r}")
    return [dict(zip(rule.params, values)) for values in rule.grid(cfg)]


def _trial_seed(cfg: SuiteConfig, *key: int) -> int:
    ss = np.random.SeedSequence(cfg.master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] & (2**63 - 1))


def _draw(kind: str, dim: int, seed: int, bump: int) -> np.ndarray:
    return gen_matrix(EnsembleSpec(kind=kind, dim=dim, seed=seed + bump))


# the ensembles a rule's "general" and "positive" operands cycle through
_KIND_CYCLES = {"general": GENERAL_KINDS, "positive": PSD_KINDS}


def run_trial(theorem: str, point: dict, trial: int, pt_idx: int, cfg: SuiteConfig) -> TrialRecord:
    """One bound rule on fresh random operands at one parameter point."""
    thm_idx = ALL_THEOREMS.index(theorem)
    rule = bnd.RULES[theorem]
    seed = _trial_seed(cfg, thm_idx, pt_idx, trial)
    dim = cfg.dims[trial % len(cfg.dims)]
    n_ops = cfg.n_ops_grid[trial % len(cfg.n_ops_grid)]
    kinds = []
    for kind in rule.kinds * (rule.groups or n_ops):
        cycle = _KIND_CYCLES.get(kind, (kind,))
        kinds.append(cycle[trial % len(cycle)])
    ensemble = "+".join(dict.fromkeys(kinds))
    sphere = replace(cfg.sphere, seed=seed)
    t0 = time.perf_counter()
    try:
        ops = [_draw(kind, dim, seed, rule.bump + i) for i, kind in enumerate(kinds)]
        rep = getattr(bnd, rule.fn)(
            *rule.arrange(ops), cfg=sphere, samples=cfg.samples, **point
        )
    except NumradError as exc:
        return TrialRecord(
            theorem=theorem, trial=trial, dim=dim, ensemble=ensemble,
            levels=int(point.get("levels", 1)), n_ops=n_ops, pointwise_violations=0,
            status=f"error-{type(exc).__name__}", seed=seed,
            wall_time=time.perf_counter() - t0, **_UNDEFINED,
        )
    wall = time.perf_counter() - t0
    shared = {name: getattr(rep, name) for name in _SHARED_FIELDS}
    return TrialRecord(trial=trial, ensemble=ensemble, seed=seed, wall_time=wall, **shared)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """All configured bound rules over their parameter grids and trials."""
    records: list[TrialRecord] = []
    for theorem in cfg.theorems:
        for pt_idx, point in enumerate(theorem_points(theorem, cfg)):
            for trial in range(cfg.trials):
                records.append(run_trial(theorem, point, trial, pt_idx, cfg))
    return SuiteReport(config=cfg.echo(), records=records, aggregates=aggregate(records))


# ---------------------------------------------------------------------------
# lemma property sweeps
# ---------------------------------------------------------------------------


def _lemma_record(lemma: str, trial: int, dim: int, kind: str, violations: int,
                  worst_margin: float, cases: int, seed: int, wall: float,
                  extras: dict | None = None) -> TrialRecord:
    return TrialRecord(
        theorem=lemma, trial=trial, dim=dim, ensemble=kind, levels=1, n_ops=1,
        **{**_UNDEFINED, "refinement_gain": worst_margin},
        pointwise_violations=violations,
        status=bnd.VERIFIED_POINTWISE if violations == 0 else bnd.CERTIFIED_VIOLATION,
        seed=seed, wall_time=wall, extras=extras or {"cases": cases},
    )


def _lemma_sweep(cfg: SuiteConfig, lemma: str, key: int, kind: str, case, slack: float) -> TrialRecord:
    """``cfg.trials`` cases of one operator lemma, each on a fresh ``kind`` matrix of dim 2-6.

    ``case(rng, t)`` draws its vectors and weights from ``rng`` and returns
    (lhs, rhs), the asserted ``lhs <= rhs``, optionally followed by the rhs
    of the printed form, which is tallied in extras and never asserted.
    """
    seed = _trial_seed(cfg, key)
    rng = rng_from(seed, 3)
    t0 = time.perf_counter()
    viol = printed_viol = 0
    worst = math.inf
    printed: list = []
    for k in range(cfg.trials):
        d = int(rng.integers(2, 7))
        lhs, rhs, *printed = case(rng, gen_matrix(EnsembleSpec(kind, d, seed=seed + 17 * k + 1)))
        sc = max(1.0, lhs, rhs)
        viol += int(lhs > rhs + slack * sc)
        printed_viol += int(any(lhs > pr + slack * sc for pr in printed))
        worst = min(worst, rhs - lhs)
    extras = {"cases": cfg.trials}
    if printed:
        extras["printed_x_form_violations"] = printed_viol
    return _lemma_record(lemma, 0, 6, kind, viol, float(worst), cfg.trials, seed,
                         time.perf_counter() - t0, extras=extras)


def lemma_suite(cfg: SuiteConfig) -> SuiteReport:
    """Scalar and mixed-Schwarz lemma sweeps; ``cfg.trials`` cases per lemma.

    The two-function bound is asserted in its two-vector form; the
    one-vector form as printed is sampled alongside and reported in extras
    (it fails on generic inputs), never asserted.
    """
    cases = cfg.trials
    if cases < 1:
        raise DomainError(f"the lemma sweeps need at least one case, got trials={cases}")
    records: list[TrialRecord] = []
    slack = 1e-10

    # lemma2.1a: scalar chain geometric <= arithmetic <= power mean
    seed = _trial_seed(cfg, 101)
    rng = rng_from(seed, 3)
    t0 = time.perf_counter()
    a = rng.uniform(1e-3, 100.0, cases)
    b = rng.uniform(1e-3, 100.0, cases)
    nu = rng.uniform(0.0, 1.0, cases)
    r = rng.uniform(1.0, 5.0, cases)
    geo = a**nu * b ** (1.0 - nu)
    ari = nu * a + (1.0 - nu) * b
    pwr = (nu * a**r + (1.0 - nu) * b**r) ** (1.0 / r)
    scale = np.maximum(1.0, np.maximum(a, b))
    viol = int(np.sum(geo > ari + slack * scale)) + int(np.sum(ari > pwr + slack * scale))
    worst = float(min(np.min(ari - geo), np.min(pwr - ari)))
    records.append(_lemma_record("lemma2.1a", 0, 1, "scalar", viol, worst, cases, seed,
                                 time.perf_counter() - t0))

    # lemma2.1b: |<Tx,y>|^2 <= <|T|^{2nu} x,x> <|T*|^{2(1-nu)} y,y>
    def schwarz_mixed(rng, t):
        at, aa = abs_pair(t)
        x = random_unit_vectors(rng, t.shape[0], 1)[0]
        y = random_unit_vectors(rng, t.shape[0], 1)[0]
        nu_k = float(rng.uniform(0.0, 1.0))
        lhs = abs(np.vdot(y, t @ x)) ** 2
        rhs = at.power(2 * nu_k).quad(x) * aa.power(2 * (1 - nu_k)).quad(y)
        return lhs, rhs

    # lemma2.1c: |<Tx,y>| <= ||f(|T|)x|| ||g(|T*|)y||  (two-vector form);
    # the printed one-vector form ||f(|T|)x|| ||g(|T*|)x|| is tallied separately.
    def schwarz_two_functions(rng, t):
        at, aa = abs_pair(t)
        x = random_unit_vectors(rng, t.shape[0], 1)[0]
        y = random_unit_vectors(rng, t.shape[0], 1)[0]
        al = float(rng.uniform(0.0, 1.0))
        fx = np.linalg.norm(at.power(al).mat @ x)
        gy = np.linalg.norm(aa.power(1 - al).mat @ y)
        gx = np.linalg.norm(aa.power(1 - al).mat @ x)
        return abs(np.vdot(y, t @ x)), fx * gy, fx * gx

    # lemma2.2: quadratic-form power comparison for PSD operators
    def power_comparison(lo, hi, power_side_larger):
        def case(rng, t):
            pm = PsdMatrix.from_matrix(t)
            x = random_unit_vectors(rng, t.shape[0], 1)[0]
            r_k = float(rng.uniform(lo, hi))
            base = pm.quad(x) ** r_k
            powv = pm.power(r_k).quad(x)
            return (base, powv) if power_side_larger else (powv, base)
        return case

    for lemma, key, kind, case in (
        ("lemma2.1b", 102, "ginibre", schwarz_mixed),
        ("lemma2.1c", 103, "ginibre", schwarz_two_functions),
        ("lemma2.2a", 104, "psd", power_comparison(1.0, 4.0, True)),
        ("lemma2.2b", 105, "psd", power_comparison(0.05, 1.0, False)),
    ):
        records.append(_lemma_sweep(cfg, lemma, key, kind, case, slack))

    return SuiteReport(config=cfg.echo(), records=records, aggregates=aggregate(records))


# ---------------------------------------------------------------------------
# refined-versus-baseline comparisons
# ---------------------------------------------------------------------------

def compare_refinements(cfg: SuiteConfig) -> SuiteReport:
    """Sample-wise dominance of each refined correction over its baseline.

    The suite's records of the rules that have a remark, relabelled: a
    record's pointwise_violations column carries the count of samples where
    the refined correction fell below the baseline one, and
    refinement_gain the aggregate gain.
    """
    remarks = {theorem: rule.remark for theorem, rule in bnd.RULES.items() if rule.remark}
    records = run_suite(replace(cfg, theorems=tuple(remarks))).records
    for rec in records:
        rec.theorem = remarks[rec.theorem]
        rec.pointwise_violations = rec.dominance_violations
        if not rec.status.startswith("error"):
            bad = rec.dominance_violations > 0
            rec.status = bnd.CERTIFIED_VIOLATION if bad else bnd.VERIFIED_POINTWISE
    return SuiteReport(config=cfg.echo(), records=records, aggregates=aggregate(records))
