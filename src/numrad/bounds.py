"""Executable upper bounds on radius functionals, with refinement terms.

Each ``bound_*`` function evaluates one bound rule end to end and returns a
BoundReport:

  lhs_lower         lower bound of the true left-hand side (sup estimates)
  norm_term         the certified right-hand side with nothing subtracted
  refinement_upper  upper bound of the subtracted infimum term (>= 0)
  rhs_refined_est   norm_term - refinement_upper (an UNDER-estimate of the
                    refined right-hand side)
  rhs_baseline      the matching pre-refinement bound on the same samples

``RULES`` declares each rule once (function, operand layout, parameter
grid, remark) for the suite, the CLI and ``compare``.

A rule body builds its family's parts, which check the family's domain
(the baselines share them), and its lhs radius, and describes the instance
to ``_evaluate``, which runs the chain every rule shares: the infimum
search of each correction objective, the sample set (the witnesses first),
the objectives and their baseline counterparts on the samples, the
pointwise proof chain, the dominance count and the report.  Only the rule's own callables differ: its pointwise lhs and rhs,
how its minima combine, and its extras.

Verdict contract: lhs_lower <= rhs_refined_est means the trial is
consistent with the rule; lhs_lower above it is merely inconclusive (the
infimum estimate may overshoot); only lhs_lower > norm_term is a certified
violation, because norm_term does not depend on any optimizer.

Where a printed functional disagrees with what its own proof supports
(the sandwich-family levels beyond the first at the balanced weight, the
nu-free Heinz weights, the p-inflated per-operator forms), the pointwise
proof-chain checks use the proof-valid form and the printed variant is
carried in the report for evidence.  See the module tests for the
concrete divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .linalg import (
    PsdMatrix,
    abs_pair,
    as_complex_matrix,
    hermitian_part,
    op_norm,
    pair_forms_many,
    quad_forms_many,
    require_same_dim,
    skew_part,
)
from .radius import (
    SphereOptConfig,
    _abs_power,
    _FormObjective,
    minimize_over_sphere,
    minimize_over_sphere_pair,
    numerical_radius,
    random_unit_vectors,
    rng_from,
    we_radius,
    wp_radius,
)
from .refine import RefinementParams, weighted_bracket_sum

POINTWISE_SLACK = 1e-9
DOMINANCE_SLACK = 1e-10
CERTIFIED_SLACK = 1e-8

VERIFIED_POINTWISE = "verified-pointwise"
CONSISTENT = "consistent"
INCONCLUSIVE = "inconclusive"
CERTIFIED_VIOLATION = "certified-violation"


@dataclass
class BoundReport:
    theorem: str
    dim: int
    n_ops: int
    nu_or_alpha: float
    p: float
    q: float
    r: float
    levels: int
    lhs_lower: float
    norm_term: float
    refinement_upper: float
    rhs_refined_est: float
    rhs_baseline: float
    refinement_gain: float
    status: str
    pointwise_violations: int
    pointwise_samples: int
    dominance_violations: int
    lhs_witness: np.ndarray | None = None
    inf_witness: np.ndarray | None = None
    inf_witness2: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def _count_violations(lhs: np.ndarray, rhs: np.ndarray, slack: float = POINTWISE_SLACK) -> int:
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return int(np.sum(lhs > rhs + slack * scale))


def _count_dominance(refined: np.ndarray, base: np.ndarray) -> int:
    scale = np.maximum(1.0, np.maximum(np.abs(refined), np.abs(base)))
    return int(np.sum(refined < base - DOMINANCE_SLACK * scale))


def _verdict(lhs: float, norm_term: float, rhs_refined: float, pw_viol: int, pw_n: int) -> str:
    scale = max(1.0, abs(lhs), abs(norm_term))
    if lhs > norm_term + CERTIFIED_SLACK * scale:
        return CERTIFIED_VIOLATION
    if lhs > rhs_refined + POINTWISE_SLACK * scale:
        return INCONCLUSIVE
    if pw_n > 0 and pw_viol == 0:
        return VERIFIED_POINTWISE
    return CONSISTENT


def _require_finite(theorem: str, **params: float) -> None:
    """Refuse a non-finite rule parameter before any domain check sees it.

    A NaN passes every ordered comparison as false, so it slips through
    checks like ``r < 2`` and yields a report of NaNs; an infinity
    overflows the spectral powers.
    """
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{theorem} requires a finite {name}, got {value}")


def _sample_vectors(
    dim: int,
    count: int,
    psd_sources: Sequence[PsdMatrix],
    witnesses: Sequence[np.ndarray],
    seed: int,
) -> np.ndarray:
    """Witnesses first, then eigenvectors of the involved PSD matrices,
    then rotation-invariant random unit vectors up to ``count`` rows."""
    rows = [np.asarray(w, dtype=np.complex128).reshape(1, dim) for w in witnesses if w is not None]
    for p in psd_sources:
        rows.append(p.eigvecs.T.copy())
    gathered = np.concatenate(rows, axis=0) if rows else np.zeros((0, dim), dtype=np.complex128)
    if gathered.shape[0] < count:
        fill = random_unit_vectors(rng_from(seed, 7), dim, count - gathered.shape[0])
        gathered = np.concatenate([gathered, fill], axis=0)
    return gathered[:count]


def _pair_samples(
    dim: int,
    count: int,
    psd_sources: Sequence[PsdMatrix],
    special_pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pair sample: special pairs, matched singles, rolled singles."""
    singles = _sample_vectors(dim, max(count // 2, 8), psd_sources, [], seed)
    xs = [np.asarray(x).reshape(1, dim) for x, _ in special_pairs]
    ys = [np.asarray(y).reshape(1, dim) for _, y in special_pairs]
    xs.append(singles)
    ys.append(singles)
    xs.append(singles)
    ys.append(np.roll(singles, 1, axis=0))
    x_all = np.concatenate(xs, axis=0)[:count]
    y_all = np.concatenate(ys, axis=0)[:count]
    return x_all, y_all


def _bracket_objective(
    psds: Sequence[PsdMatrix], ia, ib, nu: float, levels: int, mode: str = "young"
) -> _FormObjective:
    """sum_k bracket(<A_k x, x>, <B_k x, x>) with A_k = psds[ia[k]], B_k = psds[ib[k]].

    One bracket call covers every k; the search gets the exact gradient.
    """
    ia, ib = list(ia), list(ib)

    def g(forms: np.ndarray):
        a, b = forms[:, ia], forms[:, ib]
        da, db = np.empty_like(a), np.empty_like(b)
        vals = weighted_bracket_sum(a, b, nu, levels, mode=mode, grad=(da, db)).sum(axis=1)
        dg = np.zeros_like(forms)
        dg[:, ia] += da
        dg[:, ib] += db
        return vals, dg

    return _FormObjective(np.stack([m.mat for m in psds]), "hermitian", g)


def _pair_objective(
    ats: Sequence[PsdMatrix], aas: Sequence[PsdMatrix], p: float, q: float, nu: float, levels: int
) -> _FormObjective:
    """bracket(sum_i |<|T_i| x, y>|^p, sum_i |<|T_i*| x, y>|^q), a function of a pair (x, y)."""
    n = len(ats)

    def g(c: np.ndarray):
        pow_a, dpow_a = _abs_power(c[:, :n], p)
        pow_b, dpow_b = _abs_power(c[:, n:], q)
        a, b = pow_a.sum(axis=1), pow_b.sum(axis=1)
        da, db = np.empty_like(a), np.empty_like(b)
        vals = weighted_bracket_sum(a, b, nu, levels, grad=(da, db))
        return vals, np.concatenate([da[:, None] * dpow_a, db[:, None] * dpow_b], axis=1)

    return _FormObjective(np.stack([m.mat for m in list(ats) + list(aas)]), "pair", g)


def _lp_forms(ops: Sequence[np.ndarray], p: float) -> Callable[[np.ndarray], np.ndarray]:
    """The pointwise lhs of an l^p radius: x -> sum_i |<T_i x, x>|^p at each sample row."""
    return lambda vecs: sum(np.abs(quad_forms_many(op, vecs)) ** p for op in ops)


# ---------------------------------------------------------------------------
# the shared evaluation chain
# ---------------------------------------------------------------------------


def _evaluate(
    theorem: str,
    dim: int,
    n_ops: int,
    *,
    nu_or_alpha: float = float("nan"),
    p: float = float("nan"),
    q: float = float("nan"),
    r: float = float("nan"),
    levels: int = 1,
    lhs: float,
    lhs_witnesses: Sequence[np.ndarray],
    norm_term: float,
    psd_sources: Sequence[PsdMatrix],
    objectives: Sequence[_FormObjective],
    lhs_points: Callable,
    rhs_points: Callable,
    cfg: SphereOptConfig,
    samples: int,
    baselines: Sequence[_FormObjective] = (),
    pair: bool = False,
    combine: Callable | None = None,
    extras: Callable | None = None,
) -> BoundReport:
    """Run one rule instance through the chain every bound rule shares.

    Searches each correction objective for its infimum (over pairs (x, y)
    with ``pair``), samples from the lhs witnesses then the infimum
    witnesses (as pairs: the lhs witness pair, the infimum pairs, then each
    lhs witness with itself), and evaluates the objectives and their
    ``baselines`` (the level-1 or proof forms; none counts dominance
    against zero) there.
    ``lhs_points(*pts)`` is checked against ``rhs_points(printed,
    baseline, *pts)``.  ``combine(minima, baseline_minima)`` gives
    (refinement_upper, rhs_baseline); by default the one minimum is the
    refinement and rhs_baseline subtracts the baseline's.
    ``extras(printed, *pts)`` adds the rule's own evidence.
    """
    if pair:
        inf_ests = [minimize_over_sphere_pair(None, dim, cfg, objective_batch=o) for o in objectives]
        special = [tuple(lhs_witnesses), *((e.witness, e.witness2) for e in inf_ests)]
        special += [(w, w) for w in lhs_witnesses]
        pts = _pair_samples(dim, samples, psd_sources, special, cfg.seed)
    else:
        inf_ests = [minimize_over_sphere(None, dim, cfg, objective_batch=o) for o in objectives]
        witnesses = [*lhs_witnesses, *(e.witness for e in inf_ests)]
        pts = (_sample_vectors(dim, samples, psd_sources, witnesses, cfg.seed),)
    printed = [o(*pts) for o in objectives]
    base = [b(*pts) for b in baselines]
    mins = [float(min(v.min(), e.value)) for v, e in zip(printed, inf_ests)]
    base_mins = [float(b.min()) for b in base]
    if combine is not None:
        refinement_upper, rhs_baseline = combine(mins, base_mins)
    else:
        refinement_upper = mins[0] if mins else 0.0
        rhs_baseline = norm_term - base_mins[0] if base_mins else norm_term

    pw_viol = _count_violations(lhs_points(*pts), rhs_points(printed, base, *pts))
    dom_viol = sum(_count_dominance(v, b) for v, b in zip(printed, base or map(np.zeros_like, printed)))
    report_extras = {}
    if base and levels == 1:
        report_extras["n1_agreement"] = float(max(np.max(np.abs(v - b)) for v, b in zip(printed, base)))
    if extras is not None:
        report_extras.update(extras(printed, *pts))

    rhs_refined = norm_term - refinement_upper
    pw_n = len(pts[0])
    return BoundReport(
        theorem=theorem,
        dim=dim,
        n_ops=n_ops,
        nu_or_alpha=nu_or_alpha,
        p=p,
        q=q,
        r=r,
        levels=levels,
        lhs_lower=lhs,
        norm_term=norm_term,
        refinement_upper=refinement_upper,
        rhs_refined_est=rhs_refined,
        rhs_baseline=rhs_baseline,
        refinement_gain=rhs_baseline - rhs_refined,
        status=_verdict(lhs, norm_term, rhs_refined, pw_viol, pw_n),
        pointwise_violations=pw_viol,
        pointwise_samples=pw_n,
        dominance_violations=dom_viol,
        lhs_witness=lhs_witnesses[0],
        inf_witness=inf_ests[0].witness if inf_ests else None,
        inf_witness2=inf_ests[0].witness2 if inf_ests else None,
        extras=report_extras,
    )


# ---------------------------------------------------------------------------
# bound rules
# ---------------------------------------------------------------------------


def _product_parts(label: str, a_mat, b_mat, x_mat, nu: float, r: float, heinz: bool):
    """Building blocks of the weighted product bound (of its Heinz mean if ``heinz``).

    Refuses, as ``label``, r < 2 and nu outside [0, 1].  Returns A, B, X,
    A^r, B^r, the middle matrix (nu A^r + (1-nu) B^r, or (A^r + B^r) / 2 for
    the Heinz mean), ||X||^r and the norm term.
    """
    if r < 2.0:
        raise DomainError(f"{label} requires r >= 2, got r={r}")
    if not (0.0 <= nu <= 1.0):
        raise DomainError(f"{label} requires 0 <= nu <= 1, got {nu}")
    a = PsdMatrix.from_matrix(a_mat)
    b = PsdMatrix.from_matrix(b_mat)
    x = as_complex_matrix(x_mat)
    require_same_dim(a.mat, b.mat, x)
    ar = a.power(r)
    br = b.power(r)
    mid = (ar.mat + br.mat) / 2.0 if heinz else nu * ar.mat + (1.0 - nu) * br.mat
    mid = PsdMatrix.from_matrix(mid)
    xnorm_r = op_norm(x) ** r
    return a, b, x, ar, br, mid, xnorm_r, xnorm_r * mid.norm()


def _product_bound(theorem: str, a_mat, b_mat, x_mat, nu, r, levels, cfg, samples, *, heinz):
    """The body of thm2.3 and, with ``heinz``, of thm2.5.

    The Heinz mean's product operator averages A^nu X B^(1-nu) with
    A^(1-nu) X B^nu; its correction is half the bracket plus the swapped
    bracket (the proof-derived form, always >= 0).
    """
    _require_finite(theorem, nu=nu, r=r)
    a, b, x, ar, br, mid, xnorm_r, norm_term = _product_parts(theorem, a_mat, b_mat, x_mat, nu, r, heinz)
    RefinementParams(nu, levels)
    m = a.power(nu).mat @ x @ b.power(1.0 - nu).mat
    if heinz:
        m = (m + a.power(1.0 - nu).mat @ x @ b.power(nu).mat) / 2.0
    lhs_est = numerical_radius(m)
    ia, ib, factor = ([0, 1], [1, 0], 0.5) if heinz else ([0], [1], 1.0)

    def rhs_points(printed, base, vecs):
        return xnorm_r * (np.maximum(quad_forms_many(mid.mat, vecs).real, 0.0) - factor * printed[0])

    def extras(printed, vecs):
        if heinz:
            heinz_printed = weighted_bracket_sum(
                ar.quad_many(vecs), br.quad_many(vecs), nu, levels, mode="printed_heinz"
            )
            return {"printed_refinement_upper": xnorm_r * 0.5 * float(heinz_printed.min())}
        if levels == 1:
            r0 = min(nu, 1.0 - nu)
            closed = r0 * (np.sqrt(ar.quad_many(vecs)) - np.sqrt(br.quad_many(vecs))) ** 2
            return {"n1_agreement": float(np.max(np.abs(printed[0] - closed)))}
        return {}

    return _evaluate(
        theorem, mid.dim, 1, nu_or_alpha=nu, r=r, levels=levels,
        lhs=lhs_est.value**r, lhs_witnesses=[lhs_est.witness], norm_term=norm_term,
        psd_sources=[ar, br, mid],
        objectives=[_bracket_objective([ar, br], ia, ib, nu, levels)],
        lhs_points=lambda vecs: np.abs(quad_forms_many(m, vecs)) ** r,
        rhs_points=rhs_points,
        combine=lambda mins, _: (xnorm_r * factor * mins[0], norm_term),
        extras=extras,
        cfg=cfg, samples=samples,
    )


def bound_thm23(
    a_mat,
    b_mat,
    x_mat,
    *,
    nu: float,
    r: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Weighted product bound w^r(A^nu X B^(1-nu)) with refinement term."""
    return _product_bound("thm2.3", a_mat, b_mat, x_mat, nu, r, levels, cfg, samples, heinz=False)


def bound_thm25_heinz(
    a_mat,
    b_mat,
    x_mat,
    *,
    nu: float,
    r: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Mixed-mean bound: the two one-sided product bounds averaged.

    The reported refinement term uses the proof-derived correction (sum of
    the two one-sided corrections, always >= 0).  The nu-free printed
    variant can be negative for two or more levels, so it is carried in
    ``extras['printed_refinement_upper']`` only.
    """
    return _product_bound("thm2.5", a_mat, b_mat, x_mat, nu, r, levels, cfg, samples, heinz=True)


def _sandwich_parts(label: str, triples, alpha: float, p: float, r: float):
    """Building blocks of the sandwich bound.

    Refuses, as ``label``, p < 1, r < 1, alpha outside [0, 1] and an empty
    list of triples.  Returns the per-triple F_i^p and G_i^p, sum_i F_i^(rp)
    + G_i^(rp), the coefficient n^(1 - 1/r) / 2^(1/r), the norm term and the
    operators A_i* T_i B_i.
    """
    if p < 1.0:
        raise DomainError(f"{label} requires p >= 1, got p={p}")
    if r < 1.0:
        raise DomainError(f"{label} requires r >= 1, got r={r}")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"{label} requires 0 <= alpha <= 1, got {alpha}")
    if len(triples) < 1:
        raise DomainError("at least one operator triple is required")
    mats = [[as_complex_matrix(m) for m in triple] for triple in triples]
    require_same_dim(*(m for triple in mats for m in triple))
    fps, gps, ops = [], [], []
    sum_rp = None
    for a_m, t_m, b_m in mats:
        at, aa = abs_pair(t_m)
        f2 = at.power(2.0 * alpha).mat
        g2 = aa.power(2.0 * (1.0 - alpha)).mat
        f_i = PsdMatrix.from_matrix(hermitian_part(b_m.conj().T @ f2 @ b_m))
        g_i = PsdMatrix.from_matrix(hermitian_part(a_m.conj().T @ g2 @ a_m))
        fps.append(f_i.power(p))
        gps.append(g_i.power(p))
        term = f_i.power(r * p).mat + g_i.power(r * p).mat
        sum_rp = term if sum_rp is None else sum_rp + term
        ops.append(a_m.conj().T @ t_m @ b_m)
    sum_rp = PsdMatrix.from_matrix(sum_rp)
    coef = len(mats) ** (1.0 - 1.0 / r) / 2.0 ** (1.0 / r)
    return fps, gps, sum_rp, coef, coef * sum_rp.norm() ** (1.0 / r), ops


def _sandwich_bound(theorem: str, triples, alpha, p, r, levels, cfg, samples, label):
    """The body of the sandwich family; ``label`` is the reported nu_or_alpha."""
    _require_finite(theorem, alpha=alpha, p=p, r=r)
    fps, gps, sum_rp, coef, norm_term, ops = _sandwich_parts(theorem, triples, alpha, p, r)
    RefinementParams(0.5, levels)
    n = len(triples)
    lhs_est = wp_radius(ops, p, cfg)
    halves = (range(n), range(n, 2 * n))

    def rhs_points(printed, proof, vecs):
        return coef * np.maximum(quad_forms_many(sum_rp.mat, vecs).real, 0.0) ** (1.0 / r) - proof[0]

    # balanced weights: the proof form IS the level-1 term, the matching
    # pre-refinement correction
    return _evaluate(
        theorem, sum_rp.dim, n, nu_or_alpha=label, p=p, r=r, levels=levels,
        lhs=lhs_est.value**p, lhs_witnesses=[lhs_est.witness], norm_term=norm_term,
        psd_sources=fps + gps + [sum_rp],
        objectives=[_bracket_objective(fps + gps, *halves, 0.5, levels, mode="half")],
        baselines=[_bracket_objective(fps + gps, *halves, 0.5, levels, mode="young")],
        lhs_points=_lp_forms(ops, p),
        rhs_points=rhs_points,
        cfg=cfg, samples=samples,
    )


def bound_thm26(
    triples,
    *,
    alpha: float = 0.5,
    p: float,
    r: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    theorem: str = "thm2.6",
) -> BoundReport:
    """Sandwich bound for tuples (A_i* T_i B_i) with the power pair t^alpha, t^(1-alpha).

    The printed correction weighs every level by 1/2; the balanced Young
    weights vanish beyond level 1, so the printed form over-subtracts for
    two or more levels.  Reports keep the printed functional (it is the
    stated rule); the pointwise proof chain uses the proof-valid one.
    """
    return _sandwich_bound(theorem, triples, alpha, p, r, levels, cfg, samples, label=alpha)


def bound_cor27(
    pairs,
    *,
    p: float,
    r: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Sandwich bound specialized to products A_i* B_i (no free weight to report)."""
    triples = []
    for a_i, b_i in pairs:
        a_m = as_complex_matrix(a_i)
        eye = np.eye(a_m.shape[0], dtype=np.complex128)
        triples.append((a_i, eye, b_i))
    return _sandwich_bound("cor2.7", triples, 0.5, p, r, levels, cfg, samples, label=float("nan"))


def bound_cor28(
    tup,
    *,
    alpha: float,
    p: float,
    r: float = 1.0,
    levels: int = 1,
    cfg: SphereOptConfig,
    samples: int = 256,
    theorem: str = "cor2.8",
) -> BoundReport:
    """Sandwich bound with trivial outer factors: tuples (T_1, ..., T_n)."""
    triples = []
    for t_i in tup:
        t_m = as_complex_matrix(t_i)
        eye = np.eye(t_m.shape[0], dtype=np.complex128)
        triples.append((eye, t_m, eye))
    return bound_thm26(
        triples, alpha=alpha, p=p, r=r, levels=levels, cfg=cfg, samples=samples,
        theorem=theorem,
    )


def bound_cor210(
    b_mat,
    c_mat,
    *,
    alpha: float,
    p: float,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Two-operator, single-level specialization of the sandwich bound."""
    return bound_cor28(
        [b_mat, c_mat], alpha=alpha, p=p, r=1.0, levels=1, cfg=cfg, samples=samples,
        theorem="cor2.10",
    )


def _per_operator_parts(label: str, tup, alpha: float, p: float):
    """Building blocks of the per-operator bound: the operators T_i,
    U_i = |T_i|^(2 alpha), V_i = |T_i*|^(2 (1-alpha)), U_i^p, V_i^p and U_i + V_i.
    Refuses, as ``label``, p < 1 and alpha outside [0, 1]."""
    if p < 1.0:
        raise DomainError(f"{label} requires p >= 1, got p={p}")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"{label} requires 0 <= alpha <= 1, got {alpha}")
    mats = [as_complex_matrix(t) for t in tup]
    require_same_dim(*mats)
    us, vs, ups, vps, sums = [], [], [], [], []
    for t_m in mats:
        at, aa = abs_pair(t_m)
        u_i = at.power(2.0 * alpha)
        v_i = aa.power(2.0 * (1.0 - alpha))
        us.append(u_i)
        vs.append(v_i)
        ups.append(at.power(2.0 * alpha * p))
        vps.append(aa.power(2.0 * (1.0 - alpha) * p))
        sums.append(PsdMatrix.from_matrix(u_i.mat + v_i.mat))
    return mats, us, vs, ups, vps, sums


def bound_thm211(
    tup,
    *,
    alpha: float,
    p: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Per-operator bound on the l^p radius with one correction per operator.

    The printed per-operator correction raises the quadratic-form scalars
    to the power p while the norm bracket does not; it can then exceed the
    bracket, so each reported bracket is clamped at zero.  The pointwise
    proof chain uses the p-free scalars the proof actually supports.
    """
    _require_finite("thm2.11", alpha=alpha, p=p)
    mats, us, vs, ups, vps, sums = _per_operator_parts("thm2.11", tup, alpha, p)
    RefinementParams(0.5, levels)
    norms = [s.norm() for s in sums]

    def half_lp(brackets) -> float:
        return 0.5 * float(np.sum(np.array(brackets) ** p)) ** (1.0 / p)

    norm_term = half_lp(norms)
    lhs_est = wp_radius(mats, p, cfg)

    def combine(mins, zeta_mins):
        rhs_refined = half_lp([max(nm - 2.0 * m, 0.0) for nm, m in zip(norms, mins)])
        return norm_term - rhs_refined, half_lp([max(nm - 2.0 * z, 0.0) for nm, z in zip(norms, zeta_mins)])

    def rhs_points(printed, zeta, vecs):
        out = np.zeros(len(vecs))
        for u_i, v_i in zip(us, vs):
            u_v = u_i.quad_many(vecs)
            v_v = v_i.quad_many(vecs)
            proof_i = weighted_bracket_sum(u_v, v_v, 0.5, levels, mode="young")
            out += np.maximum(u_v + v_v - 2.0 * proof_i, 0.0) ** p
        return out / 2.0**p

    return _evaluate(
        "thm2.11", sums[0].dim, len(mats), nu_or_alpha=alpha, p=p, levels=levels,
        lhs=lhs_est.value, lhs_witnesses=[lhs_est.witness], norm_term=norm_term,
        psd_sources=ups + vps + sums,
        objectives=[_bracket_objective([u, v], [0], [1], 0.5, levels, mode="half") for u, v in zip(ups, vps)],
        baselines=[_bracket_objective([u, v], [0], [1], 0.5, 1, mode="half") for u, v in zip(ups, vps)],
        lhs_points=_lp_forms(mats, p),
        rhs_points=rhs_points,
        combine=combine,
        cfg=cfg, samples=samples,
    )


def _abs_power_parts(label: str, tup, alpha: float, p: float):
    """Building blocks of the absolute-power bound: the operators T_i,
    |T_i|^p, |T_i*|^p and sum_i alpha |T_i|^p + (1-alpha) |T_i*|^p.
    Refuses, as ``label``, p < 2 and alpha outside [0, 1]."""
    if p < 2.0:
        raise DomainError(f"{label} requires p >= 2, got p={p}")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"{label} requires 0 <= alpha <= 1, got {alpha}")
    mats = [as_complex_matrix(t) for t in tup]
    require_same_dim(*mats)
    ps_, qs_ = [], []
    mix_sum = None
    for t_m in mats:
        at, aa = abs_pair(t_m)
        p_i = at.power(p)
        q_i = aa.power(p)
        ps_.append(p_i)
        qs_.append(q_i)
        term = alpha * p_i.mat + (1.0 - alpha) * q_i.mat
        mix_sum = term if mix_sum is None else mix_sum + term
    return mats, ps_, qs_, PsdMatrix.from_matrix(mix_sum)


def _abs_power_bound(theorem: str, tup, alpha, p, levels, cfg, samples, extras=None):
    """The body of the absolute-power family; ``extras(ps_, qs_)`` adds
    evidence built from the |T_i|^p and |T_i*|^p."""
    _require_finite(theorem, alpha=alpha, p=p)
    mats, ps_, qs_, mix = _abs_power_parts(theorem, tup, alpha, p)
    RefinementParams(alpha, levels)
    n = len(mats)
    lhs_est = wp_radius(mats, p, cfg)
    halves = (range(n), range(n, 2 * n))

    def rhs_points(printed, zeta, vecs):
        return np.maximum(quad_forms_many(mix.mat, vecs).real, 0.0) - printed[0]

    return _evaluate(
        theorem, mix.dim, n, nu_or_alpha=alpha, p=p, levels=levels,
        lhs=lhs_est.value**p, lhs_witnesses=[lhs_est.witness], norm_term=mix.norm(),
        psd_sources=ps_ + qs_ + [mix],
        objectives=[_bracket_objective(ps_ + qs_, *halves, alpha, levels)],
        baselines=[_bracket_objective(ps_ + qs_, *halves, alpha, 1)],
        lhs_points=_lp_forms(mats, p),
        rhs_points=rhs_points,
        extras=None if extras is None else lambda printed, vecs: extras(ps_, qs_),
        cfg=cfg, samples=samples,
    )


def bound_thm213(
    tup,
    *,
    alpha: float,
    p: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    theorem: str = "thm2.13",
) -> BoundReport:
    """Weighted absolute-power bound on the l^p radius (p >= 2)."""
    return _abs_power_bound(theorem, tup, alpha, p, levels, cfg, samples)


def bound_cor215(
    b_mat,
    c_mat,
    *,
    p: float,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Two-operator balanced absolute-power bound.

    The correction adds the two per-operator squares; the minus variant
    between them (which can go negative) is kept in extras for evidence.
    """

    def eta_minus_min(ps_, qs_):
        vecs = _sample_vectors(ps_[0].dim, samples, [], [], cfg.seed)
        term_b, term_c = (
            (np.sqrt(pp.quad_many(vecs)) - np.sqrt(qq.quad_many(vecs))) ** 2 for pp, qq in zip(ps_, qs_)
        )
        return {"eta_minus_min": float(np.min(0.5 * (term_b - term_c)))}

    return _abs_power_bound("cor2.15", [b_mat, c_mat], 0.5, p, 1, cfg, samples, eta_minus_min)


@dataclass
class CartesianCheck:
    w_squared: float
    half_norm: float
    identity_residual: float
    we_squared: float


def cartesian_check(a_mat, cfg: SphereOptConfig) -> CartesianCheck:
    """Split A into Hermitian parts and check the two-operator identity.

    Returns w(A)^2, half the norm of A*A + AA*, the residual of
    A*A + AA* = 2(B^2 + C^2), and the Euclidean-radius square of (B, C)
    which must agree with w(A)^2.
    """
    a = as_complex_matrix(a_mat)
    b = hermitian_part(a)
    c = skew_part(a)
    gram = a.conj().T @ a + a @ a.conj().T
    resid = float(np.max(np.abs(gram - 2.0 * (b @ b + c @ c))))
    w_est = numerical_radius(a)
    we_est = we_radius([b, c], cfg)
    half_norm = 0.5 * PsdMatrix.from_matrix(hermitian_part(gram)).norm()
    return CartesianCheck(
        w_squared=w_est.value**2,
        half_norm=half_norm,
        identity_residual=resid,
        we_squared=we_est.value**2,
    )


def _two_exponent_parts(label: str, tup, p: float, q: float, r: float):
    """Building blocks of the two-exponent product bound: the operators T_i,
    |T_i|, |T_i*|, sum_i |T_i|^p, sum_i |T_i*|^q and the norm term.
    Refuses, as ``label``, all but p >= q >= 1 with 1/p + 1/q = 1/r."""
    if not (p >= q >= 1.0):
        raise DomainError(f"{label} requires p >= q >= 1, got p={p}, q={q}")
    if abs(1.0 / p + 1.0 / q - 1.0 / r) > 1e-12:
        raise DomainError(f"{label} requires 1/p + 1/q = 1/r, got p={p}, q={q}, r={r}")
    mats = [as_complex_matrix(t) for t in tup]
    require_same_dim(*mats)
    ats, aas = [], []
    p_sum = None
    q_sum = None
    for t_m in mats:
        at, aa = abs_pair(t_m)
        ats.append(at)
        aas.append(aa)
        p_sum = at.power(p).mat if p_sum is None else p_sum + at.power(p).mat
        q_sum = aa.power(q).mat if q_sum is None else q_sum + aa.power(q).mat
    p_mat = PsdMatrix.from_matrix(p_sum)
    q_mat = PsdMatrix.from_matrix(q_sum)
    return mats, ats, aas, p_mat, q_mat, (r / p) * p_mat.norm() + (r / q) * q_mat.norm()


def bound_thm216(
    tup,
    *,
    p: float,
    q: float,
    r: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    theorem: str = "thm2.16",
) -> BoundReport:
    """Two-exponent product bound on absolute-value tuples.

    Complex pair inner products take their modulus before powering; that is
    the only reading under which the scalar refinement applies.
    """
    _require_finite(theorem, p=p, q=q, r=r)
    mats, ats, aas, p_mat, q_mat, norm_term = _two_exponent_parts(theorem, tup, p, q, r)
    nu = r / p
    RefinementParams(nu, levels)
    west_p = wp_radius([at.mat for at in ats], p, cfg)
    west_q = wp_radius([aa.mat for aa in aas], q, cfg)

    def lhs_points(xs: np.ndarray, ys: np.ndarray):
        a = np.zeros(xs.shape[0])
        b = np.zeros(xs.shape[0])
        for at, aa in zip(ats, aas):
            a += np.abs(pair_forms_many(at.mat, xs, ys)) ** p
            b += np.abs(pair_forms_many(aa.mat, xs, ys)) ** q
        return a ** (r / p) * b ** (r / q)

    return _evaluate(
        theorem, p_mat.dim, len(mats), nu_or_alpha=nu, p=p, q=q, r=r, levels=levels,
        lhs=west_p.value**r * west_q.value**r,
        lhs_witnesses=[west_p.witness, west_q.witness],
        norm_term=norm_term,
        psd_sources=[p_mat, q_mat],
        objectives=[_pair_objective(ats, aas, p, q, nu, levels)],
        baselines=[_pair_objective(ats, aas, p, q, nu, 1)],
        lhs_points=lhs_points,
        rhs_points=lambda lam, delta, xs, ys: norm_term - lam[0],
        pair=True,
        cfg=cfg, samples=samples,
    )


def bound_cor218(
    tup,
    *,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Euclidean-radius product bound: both exponents 2, combination weight 1."""
    return bound_thm216(
        tup, p=2.0, q=2.0, r=1.0, levels=levels, cfg=cfg, samples=samples,
        theorem="cor2.18",
    )


def bound_cor219(
    tup,
    *,
    cfg: SphereOptConfig,
    samples: int = 256,
) -> BoundReport:
    """Euclidean radius of a positive tuple against the square-sum norm (no correction)."""
    psd = [PsdMatrix.from_matrix(t) for t in tup]
    dim = require_same_dim(*[s.mat for s in psd])
    sq = PsdMatrix.from_matrix(sum(s.power(2.0).mat for s in psd))
    lhs_est = we_radius([s.mat for s in psd], cfg)
    return _evaluate(
        "cor2.19", dim, len(psd), p=2.0,
        lhs=lhs_est.value, lhs_witnesses=[lhs_est.witness], norm_term=float(np.sqrt(sq.norm())),
        psd_sources=psd + [sq],
        objectives=[],
        lhs_points=lambda vecs: sum(s.quad_many(vecs) ** 2 for s in psd),
        rhs_points=lambda printed, base, vecs: np.maximum(quad_forms_many(sq.mat, vecs).real, 0.0),
        cfg=cfg, samples=samples,
    )


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------


def _ps(cfg) -> tuple[float, ...]:
    """The configured p values that a rule needing p >= 1 admits."""
    return tuple(p for p in cfg.p_grid if p >= 1.0) or (1.0,)


def _ps_hi(cfg) -> tuple[float, ...]:
    """The configured p values that a rule needing p >= 2 admits."""
    return tuple(p for p in cfg.p_grid if p >= 2.0) or (2.0, 3.0)


@dataclass(frozen=True)
class Rule:
    """What the suite, the CLI and ``compare`` need to know of one bound rule.

    fn      the name of its function in this module, looked up at call time
    kinds   the kinds of one operand group: "positive" and "general" cycle
            with the trial through the suite's PSD and general ensembles;
            any other name is an ensemble kind, drawn as it is
    groups  the fixed number of operand groups, or None for one or more
            (the suite draws its n_ops)
    bump    the seed bump of the first operand the suite draws; the i-th
            operand gets bump + i
    params  the keyword parameters it takes, in grid order
    grid    the suite's parameter points, as value tuples in ``params``
            order, from a SuiteConfig
    remark  the remark that compares its refinement with the baseline
    """

    fn: str
    kinds: tuple[str, ...]
    groups: int | None
    bump: int
    params: tuple[str, ...]
    grid: Callable[[object], Iterable[tuple]]
    remark: str | None = None

    def takes(self, count: int) -> bool:
        """Whether ``count`` operands fit the layout."""
        k = len(self.kinds)
        return count == self.groups * k if self.groups else count >= k and count % k == 0

    def layout(self) -> str:
        """What the layout takes, in words."""
        kinds = ", ".join(self.kinds * (self.groups or 1))
        if self.groups:
            return f"{self.groups * len(self.kinds)} operands ({kinds})"
        if len(self.kinds) == 1:
            return f"one or more operands ({kinds})"
        return f"one or more groups of {len(self.kinds)} operands ({kinds})"

    def arrange(self, ops: Sequence) -> tuple:
        """``fn``'s positional operand arguments from a flat list that fits the layout."""
        if self.groups:
            return tuple(ops)
        k = len(self.kinds)
        return ([tuple(ops[i : i + k]) for i in range(0, len(ops), k)] if k > 1 else list(ops),)


_GENERAL = ("general",)
_PRODUCT = ("positive", "positive", "general")

# theorem id -> Rule(fn, kinds, groups, bump, params, grid, remark); the
# order is the suite's, and trial seeds depend on it
RULES = {
    "thm2.3": Rule("bound_thm23", _PRODUCT, 1, 1, ("nu", "r", "levels"),
                   lambda cfg: product(cfg.nu_alpha_grid, (2.0,), cfg.levels_grid), "remark2.4"),
    "thm2.5": Rule("bound_thm25_heinz", _PRODUCT, 1, 1, ("nu", "r", "levels"),
                   lambda cfg: product(cfg.nu_alpha_grid, (2.0,), cfg.levels_grid)),
    "thm2.6": Rule("bound_thm26", _GENERAL * 3, None, 10, ("alpha", "p", "r", "levels"),
                   lambda cfg: product(cfg.nu_alpha_grid, (1.0,), (2.0,), cfg.levels_grid)),
    "cor2.7": Rule("bound_cor27", _GENERAL * 2, None, 10, ("p", "r", "levels"),
                   lambda cfg: ((p, r, n) for p, r in ((1.0, 1.0), (2.0, 2.0)) for n in cfg.levels_grid)),
    "cor2.8": Rule("bound_cor28", _GENERAL, None, 10, ("alpha", "p", "r", "levels"),
                   lambda cfg: product(cfg.nu_alpha_grid, _ps(cfg), (1.0,), cfg.levels_grid), "remark2.9"),
    "cor2.10": Rule("bound_cor210", _GENERAL, 2, 10, ("alpha", "p"),
                    lambda cfg: product(cfg.nu_alpha_grid, (max(_ps(cfg)),))),
    "thm2.11": Rule("bound_thm211", _GENERAL, None, 10, ("alpha", "p", "levels"),
                    lambda cfg: product(cfg.nu_alpha_grid, _ps(cfg), cfg.levels_grid), "remark2.12"),
    "thm2.13": Rule("bound_thm213", _GENERAL, None, 10, ("alpha", "p", "levels"),
                    lambda cfg: product(cfg.nu_alpha_grid, _ps_hi(cfg), cfg.levels_grid), "remark2.14"),
    "cor2.15": Rule("bound_cor215", _GENERAL, 2, 10, ("p",), lambda cfg: product(_ps_hi(cfg))),
    "thm2.16": Rule("bound_thm216", _GENERAL, None, 10, ("p", "q", "r", "levels"),
                    lambda cfg: ((*pqr, n) for pqr in cfg.pqr_grid for n in cfg.levels_grid), "remark2.17"),
    "cor2.18": Rule("bound_cor218", _GENERAL, None, 10, ("levels",), lambda cfg: product(cfg.levels_grid)),
    "cor2.19": Rule("bound_cor219", ("psd",), None, 10, (), lambda cfg: [()]),
}


# ---------------------------------------------------------------------------
# pre-refinement right-hand sides
# ---------------------------------------------------------------------------

BASELINE_IDS = ("1.3", "1.4", "1.5", "1.6", "1.7", "1.8", "1.9", "2.8")


def baseline_rhs(ineq_id: str, operands, params: dict, vectors=None) -> float:
    """Right-hand side of a pre-refinement rule, with its own subtracted
    term estimated on the supplied sample vectors (pairs for rule 1.7).

    Each is the norm term of a bound rule's family less the smallest
    level-1 correction on the vectors, both built from the family's parts:
    1.8 and 1.9 the weighted product and Heinz bounds (no correction), 1.3
    the sandwich bound, 1.4 and 1.5 the per-operator bound (its p-free and
    its p-inflated blocks), 1.6 and 2.8 the absolute-power bound (2.8 at
    alpha = 1/2, no correction), 1.7 the two-exponent bound.  The parts
    refuse what the family's rules refuse, naming the rule as "rule <id>".
    """
    if ineq_id not in BASELINE_IDS:
        raise DomainError(f"unknown baseline rule {ineq_id!r}")
    label = f"rule {ineq_id}"
    _require_finite(label, **{k: float(v) for k, v in params.items()})

    def level1_min(firsts, seconds, nu: float) -> float:
        n = len(firsts)
        eta = _bracket_objective(firsts + seconds, range(n), range(n, 2 * n), nu, 1)
        return float(eta(vectors).min())

    if ineq_id in ("1.8", "1.9"):
        r = float(params["r"])
        heinz = ineq_id == "1.9"
        nu = 0.5 if heinz else float(params["alpha"])
        a, b, x = operands[0], operands[1], operands[2]
        return _product_parts(label, a, b, x, nu, r, heinz)[-1]

    if ineq_id == "2.8":
        p = float(params["p"])
        return _abs_power_parts(label, operands[:2], 0.5, p)[-1].norm()

    if ineq_id == "1.3":
        alpha, p, r = float(params["alpha"]), float(params["p"]), float(params["r"])
        fps, gps, _, _, norm_term, _ = _sandwich_parts(label, operands, alpha, p, r)
        return norm_term - level1_min(fps, gps, 0.5)

    if ineq_id in ("1.4", "1.5"):
        alpha, p = float(params["alpha"]), float(params["p"])
        _, us, vs, ups, vps, sums = _per_operator_parts(label, operands, alpha, p)
        if ineq_id == "1.4":
            total = sum(
                max(s.norm() - 2.0 * level1_min([u], [v], 0.5), 0.0) ** p
                for u, v, s in zip(us, vs, sums)
            )
            return 0.5 * total ** (1.0 / p)
        acc = PsdMatrix.from_matrix(sum(up.mat + vp.mat for up, vp in zip(ups, vps)))
        return 0.5 * acc.norm() - level1_min(ups, vps, 0.5)

    if ineq_id == "1.6":
        alpha, p = float(params["alpha"]), float(params["p"])
        _, ps_, qs_, mix = _abs_power_parts(label, operands, alpha, p)
        return mix.norm() - level1_min(ps_, qs_, alpha)

    # rule 1.7: vectors is a pair (xs, ys)
    p = float(params["p"])
    q = float(params["q"])
    r = float(params["r"])
    _, ats, aas, _, _, norm_term = _two_exponent_parts(label, operands, p, q, r)
    # with p >= q, r/p <= 1/2 is the level-1 weight min(r/p, 1 - r/p)
    return norm_term - float(_pair_objective(ats, aas, p, q, r / p, 1)(*vectors).min())
