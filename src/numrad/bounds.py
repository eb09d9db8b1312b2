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

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .linalg import (
    DEFAULT_TOL,
    PsdMatrix,
    Tolerances,
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


def _report(
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
    norm_term: float,
    refinement_upper: float,
    rhs_baseline: float,
    pw_viol: int,
    pw_n: int,
    dom_viol: int,
    lhs_witness=None,
    inf_witness=None,
    inf_witness2=None,
    extras=None,
) -> BoundReport:
    rhs_refined = norm_term - refinement_upper
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
        lhs_witness=lhs_witness,
        inf_witness=inf_witness,
        inf_witness2=inf_witness2,
        extras=extras or {},
    )


@dataclass(frozen=True)
class PowerPair:
    """The first-class function pair f(t) = t^alpha, g(t) = t^(1-alpha)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")


def _require_splitting_pair(f_fn, g_fn, spectrum, slack: float = 1e-9):
    """A general (f, g) pair must multiply back to the identity map on the
    operand spectra; anything else invalidates the sandwich bound."""
    for t in np.asarray(spectrum, dtype=np.float64):
        prod = float(f_fn(float(t))) * float(g_fn(float(t)))
        if not np.isfinite(prod) or abs(prod - t) > slack * max(1.0, abs(t)):
            raise DomainError(
                f"function pair does not satisfy f(t) g(t) = t at t={t} (got {prod})"
            )


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


# ---------------------------------------------------------------------------
# public scalar functionals (thin wrappers used by tests and the CLI)
# ---------------------------------------------------------------------------


def eta_thm23(a_mat, b_mat, x, *, nu: float, r: float, levels: int) -> float:
    """Refinement functional of the weighted product bound at one vector."""
    RefinementParams(nu, levels)
    ar = PsdMatrix.from_matrix(a_mat).power(r)
    br = PsdMatrix.from_matrix(b_mat).power(r)
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    return float(weighted_bracket_sum(ar.quad_many(x), br.quad_many(x), nu, levels)[0])


def zeta_thm25_derived(a_mat, b_mat, x, *, nu: float, r: float, levels: int) -> float:
    """Proof-derived Heinz correction: the two one-sided corrections summed."""
    ar = PsdMatrix.from_matrix(a_mat).power(r)
    br = PsdMatrix.from_matrix(b_mat).power(r)
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    a = ar.quad_many(x)
    b = br.quad_many(x)
    return float(
        weighted_bracket_sum(a, b, nu, levels)[0]
        + weighted_bracket_sum(b, a, nu, levels)[0]
    )


def zeta_thm25_printed(a_mat, b_mat, x, *, nu: float, r: float, levels: int) -> float:
    """Heinz correction with the nu-free printed weights (evidence only)."""
    ar = PsdMatrix.from_matrix(a_mat).power(r)
    br = PsdMatrix.from_matrix(b_mat).power(r)
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    return float(
        weighted_bracket_sum(
            ar.quad_many(x), br.quad_many(x), nu, levels, mode="printed_heinz"
        )[0]
    )


def eta_thm26(a_scalars, b_scalars, levels: int) -> float:
    """Printed sandwich-bound functional: half-weighted brackets, all levels."""
    a = np.asarray(a_scalars, dtype=np.float64)
    b = np.asarray(b_scalars, dtype=np.float64)
    return float(np.sum(weighted_bracket_sum(a, b, 0.5, levels, mode="half")))


def eta_thm26_proof(a_scalars, b_scalars, levels: int) -> float:
    """Proof-valid sandwich correction; the balanced weights vanish beyond level 1."""
    a = np.asarray(a_scalars, dtype=np.float64)
    b = np.asarray(b_scalars, dtype=np.float64)
    return float(np.sum(weighted_bracket_sum(a, b, 0.5, levels, mode="young")))


def eta_thm213(tup, x, *, alpha: float, p: float, levels: int) -> float:
    """Per-vector correction of the weighted absolute-power bound."""
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    total = 0.0
    for t in tup:
        at, aa = abs_pair(t)
        a = at.power(p).quad_many(x)
        b = aa.power(p).quad_many(x)
        total += float(weighted_bracket_sum(a, b, alpha, levels)[0])
    return total


def lambda_thm216(tup, x, y, *, p: float, q: float, r: float, levels: int) -> float:
    """Pair correction for the two-exponent product bound (modulus reading)."""
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    y = np.asarray(y, dtype=np.complex128).reshape(1, -1)
    a = 0.0
    b = 0.0
    for t in tup:
        at, aa = abs_pair(t)
        a += float(np.abs(pair_forms_many(at.mat, x, y))[0] ** p)
        b += float(np.abs(pair_forms_many(aa.mat, x, y))[0] ** q)
    return float(weighted_bracket_sum(a, b, r / p, levels))


def delta_ineq17(tup, x, y, *, p: float, q: float, r: float) -> float:
    """Level-1 pair correction of the pre-refinement product bound."""
    return lambda_thm216(tup, x, y, p=p, q=q, r=r, levels=1)


# ---------------------------------------------------------------------------
# bound rules
# ---------------------------------------------------------------------------


def _product_parts(a_mat, b_mat, x_mat, nu: float, r: float, tol: Tolerances, heinz: bool):
    """Building blocks of the weighted product bound (of its Heinz mean if ``heinz``).

    Returns A, B, X, A^r, B^r, the middle matrix (nu A^r + (1-nu) B^r, or
    (A^r + B^r) / 2 for the Heinz mean), ||X||^r and the norm term.
    """
    a = PsdMatrix.from_matrix(a_mat, tol)
    b = PsdMatrix.from_matrix(b_mat, tol)
    x = as_complex_matrix(x_mat, tol)
    require_same_dim(a.mat, b.mat, x)
    ar = a.power(r)
    br = b.power(r)
    mid = (ar.mat + br.mat) / 2.0 if heinz else nu * ar.mat + (1.0 - nu) * br.mat
    mid = PsdMatrix.from_matrix(mid, tol)
    xnorm_r = op_norm(x, tol) ** r
    return a, b, x, ar, br, mid, xnorm_r, xnorm_r * mid.norm()


def _product_bound(theorem: str, a_mat, b_mat, x_mat, nu, r, levels, cfg, samples, tol, *, heinz):
    """The body of thm2.3 and, with ``heinz``, of thm2.5.

    The Heinz mean's product operator averages A^nu X B^(1-nu) with
    A^(1-nu) X B^nu; its correction is half the bracket plus the swapped
    bracket (the proof-derived form, always >= 0).
    """
    if r < 2.0:
        raise DomainError(f"{theorem} requires r >= 2, got r={r}")
    RefinementParams(nu, levels)
    a, b, x, ar, br, mid, xnorm_r, norm_term = _product_parts(a_mat, b_mat, x_mat, nu, r, tol, heinz)
    dim = mid.dim
    m = a.power(nu).mat @ x @ b.power(1.0 - nu).mat
    if heinz:
        m = (m + a.power(1.0 - nu).mat @ x @ b.power(nu).mat) / 2.0
    lhs_est = numerical_radius(m, tol=tol)
    lhs = lhs_est.value**r

    ia, ib, factor = ([0, 1], [1, 0], 0.5) if heinz else ([0], [1], 1.0)
    eta = _bracket_objective([ar, br], ia, ib, nu, levels)
    inf_est = minimize_over_sphere(None, dim, cfg, objective_batch=eta)
    vecs = _sample_vectors(dim, samples, [ar, br, mid], [lhs_est.witness, inf_est.witness], cfg.seed)
    eta_s = eta(vecs)
    refinement_upper = xnorm_r * factor * float(min(eta_s.min(), inf_est.value))

    lhs_pts = np.abs(quad_forms_many(m, vecs)) ** r
    mid_s = np.maximum(quad_forms_many(mid.mat, vecs).real, 0.0)
    rhs_pts = xnorm_r * (mid_s - factor * eta_s)
    pw_viol = _count_violations(lhs_pts, rhs_pts)
    dom_viol = _count_dominance(eta_s, np.zeros_like(eta_s))

    extras = {}
    if heinz:
        printed = weighted_bracket_sum(
            ar.quad_many(vecs), br.quad_many(vecs), nu, levels, mode="printed_heinz"
        )
        extras["printed_refinement_upper"] = xnorm_r * 0.5 * float(printed.min())
    elif levels == 1:
        r0 = min(nu, 1.0 - nu)
        closed = r0 * (np.sqrt(ar.quad_many(vecs)) - np.sqrt(br.quad_many(vecs))) ** 2
        extras["n1_agreement"] = float(np.max(np.abs(eta_s - closed)))

    return _report(
        theorem,
        dim,
        1,
        nu_or_alpha=nu,
        r=r,
        levels=levels,
        lhs=lhs,
        norm_term=norm_term,
        refinement_upper=refinement_upper,
        rhs_baseline=norm_term,
        pw_viol=pw_viol,
        pw_n=len(vecs),
        dom_viol=dom_viol,
        lhs_witness=lhs_est.witness,
        inf_witness=inf_est.witness,
        extras=extras,
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
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Weighted product bound w^r(A^nu X B^(1-nu)) with refinement term."""
    return _product_bound("thm2.3", a_mat, b_mat, x_mat, nu, r, levels, cfg, samples, tol, heinz=False)


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
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Mixed-mean bound: the two one-sided product bounds averaged.

    The reported refinement term uses the proof-derived correction (sum of
    the two one-sided corrections, always >= 0).  The nu-free printed
    variant can be negative for two or more levels, so it is carried in
    ``extras['printed_refinement_upper']`` only.
    """
    return _product_bound("thm2.5", a_mat, b_mat, x_mat, nu, r, levels, cfg, samples, tol, heinz=True)


def _sandwich_parts(triples, alpha: float, p: float, r: float, tol: Tolerances, fg=None):
    """Building blocks of the sandwich bound.

    Returns the per-triple F_i^p and G_i^p, sum_i F_i^(rp) + G_i^(rp), the
    coefficient n^(1 - 1/r) / 2^(1/r), the norm term and the operators
    A_i* T_i B_i.
    """
    mats = [[as_complex_matrix(m, tol) for m in triple] for triple in triples]
    require_same_dim(*(m for triple in mats for m in triple))
    fps, gps, ops = [], [], []
    sum_rp = None
    for a_m, t_m, b_m in mats:
        at, aa = abs_pair(t_m, tol)
        if fg is None:
            f2 = at.power(2.0 * alpha).mat
            g2 = aa.power(2.0 * (1.0 - alpha)).mat
        else:
            f_fn, g_fn = fg
            _require_splitting_pair(f_fn, g_fn, np.concatenate([at.eigvals, aa.eigvals]))
            f2 = at.apply(lambda s: f_fn(s) ** 2).mat
            g2 = aa.apply(lambda s: g_fn(s) ** 2).mat
        f_i = PsdMatrix.from_matrix(hermitian_part(b_m.conj().T @ f2 @ b_m), tol)
        g_i = PsdMatrix.from_matrix(hermitian_part(a_m.conj().T @ g2 @ a_m), tol)
        fps.append(f_i.power(p))
        gps.append(g_i.power(p))
        term = f_i.power(r * p).mat + g_i.power(r * p).mat
        sum_rp = term if sum_rp is None else sum_rp + term
        ops.append(a_m.conj().T @ t_m @ b_m)
    sum_rp = PsdMatrix.from_matrix(sum_rp, tol)
    coef = len(mats) ** (1.0 - 1.0 / r) / 2.0 ** (1.0 / r)
    return fps, gps, sum_rp, coef, coef * sum_rp.norm() ** (1.0 / r), ops


def bound_thm26(
    triples,
    *,
    alpha: float | PowerPair = 0.5,
    p: float,
    r: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
    theorem: str = "thm2.6",
    fg=None,
) -> BoundReport:
    """Sandwich bound for tuples (A_i* T_i B_i) with the power pair t^alpha, t^(1-alpha).

    The printed correction weighs every level by 1/2; the balanced Young
    weights vanish beyond level 1, so the printed form over-subtracts for
    two or more levels.  Reports keep the printed functional (it is the
    stated rule); the pointwise proof chain uses the proof-valid one.

    ``fg`` is the extension hook for a general function pair (two callables
    with f(t) g(t) = t, checked on the operand spectra); it overrides
    ``alpha`` and is excluded from the acceptance suites.
    """
    if isinstance(alpha, PowerPair):
        alpha = alpha.alpha
    if p < 1.0:
        raise DomainError(f"{theorem} requires p >= 1, got p={p}")
    if r < 1.0:
        raise DomainError(f"{theorem} requires r >= 1, got r={r}")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"{theorem} requires 0 <= alpha <= 1, got {alpha}")
    RefinementParams(0.5, levels)
    n = len(triples)
    if n < 1:
        raise DomainError("at least one operator triple is required")
    fps, gps, sum_rp, coef, norm_term, ops = _sandwich_parts(triples, alpha, p, r, tol, fg)
    dim = sum_rp.dim
    lhs_est = wp_radius(ops, p, cfg, tol)
    lhs = lhs_est.value**p

    halves = (range(n), range(n, 2 * n))
    eta_printed = _bracket_objective(fps + gps, *halves, 0.5, levels, mode="half")
    inf_est = minimize_over_sphere(None, dim, cfg, objective_batch=eta_printed)
    vecs = _sample_vectors(
        dim, samples, fps + gps + [sum_rp], [lhs_est.witness, inf_est.witness], cfg.seed
    )
    printed = eta_printed(vecs)
    proof = _bracket_objective(fps + gps, *halves, 0.5, levels, mode="young")(vecs)
    refinement_upper = float(min(printed.min(), inf_est.value))

    lhs_pts = np.zeros(len(vecs))
    for op in ops:
        lhs_pts += np.abs(quad_forms_many(op, vecs)) ** p
    mid = np.maximum(quad_forms_many(sum_rp.mat, vecs).real, 0.0)
    rhs_pts = coef * mid ** (1.0 / r) - proof
    pw_viol = _count_violations(lhs_pts, rhs_pts)

    # the matching pre-refinement subtracted term is the level-1 truncation
    base_zeta = proof  # balanced weights: the proof form IS the level-1 term
    rhs_baseline = norm_term - float(base_zeta.min())
    dom_viol = _count_dominance(printed, base_zeta)

    extras = {}
    if levels == 1:
        extras["n1_agreement"] = float(np.max(np.abs(printed - base_zeta)))

    return _report(
        theorem,
        dim,
        n,
        nu_or_alpha=alpha,
        p=p,
        r=r,
        levels=levels,
        lhs=lhs,
        norm_term=norm_term,
        refinement_upper=refinement_upper,
        rhs_baseline=rhs_baseline,
        pw_viol=pw_viol,
        pw_n=len(vecs),
        dom_viol=dom_viol,
        lhs_witness=lhs_est.witness,
        inf_witness=inf_est.witness,
        extras=extras,
    )


def bound_cor27(
    pairs,
    *,
    p: float,
    r: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Sandwich bound specialized to products A_i* B_i."""
    triples = []
    for a_i, b_i in pairs:
        a_m = as_complex_matrix(a_i, tol)
        eye = np.eye(a_m.shape[0], dtype=np.complex128)
        triples.append((a_i, eye, b_i))
    rep = bound_thm26(
        triples, alpha=0.5, p=p, r=r, levels=levels, cfg=cfg, samples=samples, tol=tol,
        theorem="cor2.7",
    )
    rep.nu_or_alpha = float("nan")
    return rep


def bound_cor28(
    tup,
    *,
    alpha: float,
    p: float,
    r: float = 1.0,
    levels: int = 1,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
    theorem: str = "cor2.8",
) -> BoundReport:
    """Sandwich bound with trivial outer factors: tuples (T_1, ..., T_n)."""
    triples = []
    for t_i in tup:
        t_m = as_complex_matrix(t_i, tol)
        eye = np.eye(t_m.shape[0], dtype=np.complex128)
        triples.append((eye, t_m, eye))
    return bound_thm26(
        triples, alpha=alpha, p=p, r=r, levels=levels, cfg=cfg, samples=samples,
        tol=tol, theorem=theorem,
    )


def bound_cor210(
    b_mat,
    c_mat,
    *,
    alpha: float,
    p: float,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Two-operator, single-level specialization of the sandwich bound."""
    return bound_cor28(
        [b_mat, c_mat], alpha=alpha, p=p, r=1.0, levels=1, cfg=cfg, samples=samples,
        tol=tol, theorem="cor2.10",
    )


def _per_operator_parts(tup, alpha: float, p: float, tol: Tolerances):
    """Building blocks of the per-operator bound: the operators T_i,
    U_i = |T_i|^(2 alpha), V_i = |T_i*|^(2 (1-alpha)), U_i^p, V_i^p and U_i + V_i."""
    mats = [as_complex_matrix(t, tol) for t in tup]
    require_same_dim(*mats)
    us, vs, ups, vps, sums = [], [], [], [], []
    for t_m in mats:
        at, aa = abs_pair(t_m, tol)
        u_i = at.power(2.0 * alpha)
        v_i = aa.power(2.0 * (1.0 - alpha))
        us.append(u_i)
        vs.append(v_i)
        ups.append(at.power(2.0 * alpha * p))
        vps.append(aa.power(2.0 * (1.0 - alpha) * p))
        sums.append(PsdMatrix.from_matrix(u_i.mat + v_i.mat, tol))
    return mats, us, vs, ups, vps, sums


def bound_thm211(
    tup,
    *,
    alpha: float,
    p: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Per-operator bound on the l^p radius with one correction per operator.

    The printed per-operator correction raises the quadratic-form scalars
    to the power p while the norm bracket does not; it can then exceed the
    bracket, so each reported bracket is clamped at zero.  The pointwise
    proof chain uses the p-free scalars the proof actually supports.
    """
    if p < 1.0:
        raise DomainError(f"thm2.11 requires p >= 1, got p={p}")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"thm2.11 requires 0 <= alpha <= 1, got {alpha}")
    RefinementParams(0.5, levels)
    mats, us, vs, ups, vps, sums = _per_operator_parts(tup, alpha, p, tol)
    dim = sums[0].dim
    n = len(mats)
    norms = [s.norm() for s in sums]
    norm_term = 0.5 * float(np.sum(np.array(norms) ** p)) ** (1.0 / p)

    lhs_est = wp_radius(mats, p, cfg, tol)
    lhs = lhs_est.value

    etas = [
        _bracket_objective([up, vp], [0], [1], 0.5, levels, mode="half")
        for up, vp in zip(ups, vps)
    ]
    inf_ests = [minimize_over_sphere(None, dim, cfg, objective_batch=eta) for eta in etas]
    witnesses = [lhs_est.witness] + [e.witness for e in inf_ests]
    vecs = _sample_vectors(dim, samples, ups + vps + sums, witnesses, cfg.seed)

    printed = [eta(vecs) for eta in etas]
    zeta = [
        _bracket_objective([up, vp], [0], [1], 0.5, 1, mode="half")(vecs)
        for up, vp in zip(ups, vps)
    ]
    inf_vals = [min(float(printed[i].min()), inf_ests[i].value) for i in range(n)]
    zeta_mins = [float(z.min()) for z in zeta]

    brackets_refined = [max(norms[i] - 2.0 * inf_vals[i], 0.0) for i in range(n)]
    rhs_refined = 0.5 * float(np.sum(np.array(brackets_refined) ** p)) ** (1.0 / p)
    brackets_base = [max(norms[i] - 2.0 * zeta_mins[i], 0.0) for i in range(n)]
    rhs_baseline = 0.5 * float(np.sum(np.array(brackets_base) ** p)) ** (1.0 / p)
    refinement_upper = norm_term - rhs_refined

    lhs_pts = np.zeros(len(vecs))
    for t_m in mats:
        lhs_pts += np.abs(quad_forms_many(t_m, vecs)) ** p
    rhs_pts = np.zeros(len(vecs))
    for i in range(n):
        u_v = us[i].quad_many(vecs)
        v_v = vs[i].quad_many(vecs)
        proof_i = weighted_bracket_sum(u_v, v_v, 0.5, levels, mode="young")
        rhs_pts += np.maximum(u_v + v_v - 2.0 * proof_i, 0.0) ** p
    rhs_pts /= 2.0**p
    pw_viol = _count_violations(lhs_pts, rhs_pts)

    dom_viol = sum(_count_dominance(printed[i], zeta[i]) for i in range(n))
    extras = {}
    if levels == 1:
        extras["n1_agreement"] = float(
            max(np.max(np.abs(printed[i] - zeta[i])) for i in range(n))
        )

    return _report(
        "thm2.11",
        dim,
        n,
        nu_or_alpha=alpha,
        p=p,
        levels=levels,
        lhs=lhs,
        norm_term=norm_term,
        refinement_upper=refinement_upper,
        rhs_baseline=rhs_baseline,
        pw_viol=pw_viol,
        pw_n=len(vecs),
        dom_viol=dom_viol,
        lhs_witness=lhs_est.witness,
        inf_witness=inf_ests[0].witness,
        extras=extras,
    )


def _abs_power_parts(tup, alpha: float, p: float, tol: Tolerances):
    """Building blocks of the absolute-power bound: the operators T_i,
    |T_i|^p, |T_i*|^p and sum_i alpha |T_i|^p + (1-alpha) |T_i*|^p."""
    mats = [as_complex_matrix(t, tol) for t in tup]
    require_same_dim(*mats)
    ps_, qs_ = [], []
    mix_sum = None
    for t_m in mats:
        at, aa = abs_pair(t_m, tol)
        p_i = at.power(p)
        q_i = aa.power(p)
        ps_.append(p_i)
        qs_.append(q_i)
        term = alpha * p_i.mat + (1.0 - alpha) * q_i.mat
        mix_sum = term if mix_sum is None else mix_sum + term
    return mats, ps_, qs_, PsdMatrix.from_matrix(mix_sum, tol)


def bound_thm213(
    tup,
    *,
    alpha: float,
    p: float,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
    theorem: str = "thm2.13",
) -> BoundReport:
    """Weighted absolute-power bound on the l^p radius (p >= 2)."""
    if p < 2.0:
        raise DomainError(f"{theorem} requires p >= 2, got p={p}")
    RefinementParams(alpha, levels)
    mats, ps_, qs_, mix = _abs_power_parts(tup, alpha, p, tol)
    dim = mix.dim
    n = len(mats)
    norm_term = mix.norm()

    lhs_est = wp_radius(mats, p, cfg, tol)
    lhs = lhs_est.value**p

    halves = (range(n), range(n, 2 * n))
    eta = _bracket_objective(ps_ + qs_, *halves, alpha, levels)
    inf_est = minimize_over_sphere(None, dim, cfg, objective_batch=eta)
    vecs = _sample_vectors(
        dim, samples, ps_ + qs_ + [mix], [lhs_est.witness, inf_est.witness], cfg.seed
    )
    eta_s = eta(vecs)
    zeta_s = _bracket_objective(ps_ + qs_, *halves, alpha, 1)(vecs)
    refinement_upper = float(min(eta_s.min(), inf_est.value))
    rhs_baseline = norm_term - float(zeta_s.min())

    lhs_pts = np.zeros(len(vecs))
    for t_m in mats:
        lhs_pts += np.abs(quad_forms_many(t_m, vecs)) ** p
    rhs_pts = np.maximum(quad_forms_many(mix.mat, vecs).real, 0.0) - eta_s
    pw_viol = _count_violations(lhs_pts, rhs_pts)
    dom_viol = _count_dominance(eta_s, zeta_s)

    extras = {}
    if levels == 1:
        extras["n1_agreement"] = float(np.max(np.abs(eta_s - zeta_s)))

    return _report(
        theorem,
        dim,
        n,
        nu_or_alpha=alpha,
        p=p,
        levels=levels,
        lhs=lhs,
        norm_term=norm_term,
        refinement_upper=refinement_upper,
        rhs_baseline=rhs_baseline,
        pw_viol=pw_viol,
        pw_n=len(vecs),
        dom_viol=dom_viol,
        lhs_witness=lhs_est.witness,
        inf_witness=inf_est.witness,
        extras=extras,
    )


def bound_cor215(
    b_mat,
    c_mat,
    *,
    p: float,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Two-operator balanced absolute-power bound.

    The correction adds the two per-operator squares; the minus variant
    between them (which can go negative) is kept in extras for evidence.
    """
    if p < 2.0:
        raise DomainError(f"cor2.15 requires p >= 2, got p={p}")
    rep = bound_thm213(
        [b_mat, c_mat], alpha=0.5, p=p, levels=1, cfg=cfg, samples=samples, tol=tol,
        theorem="cor2.15",
    )
    bt, ba = abs_pair(as_complex_matrix(b_mat, tol), tol)
    ct, ca = abs_pair(as_complex_matrix(c_mat, tol), tol)
    vecs = _sample_vectors(rep.dim, samples, [], [], cfg.seed)
    term_b = (
        np.sqrt(bt.power(p).quad_many(vecs)) - np.sqrt(ba.power(p).quad_many(vecs))
    ) ** 2
    term_c = (
        np.sqrt(ct.power(p).quad_many(vecs)) - np.sqrt(ca.power(p).quad_many(vecs))
    ) ** 2
    rep.extras["eta_minus_min"] = float(np.min(0.5 * (term_b - term_c)))
    return rep


@dataclass
class CartesianCheck:
    w_squared: float
    half_norm: float
    identity_residual: float
    we_squared: float


def cartesian_check(
    a_mat, cfg: SphereOptConfig, tol: Tolerances = DEFAULT_TOL
) -> CartesianCheck:
    """Split A into Hermitian parts and check the two-operator identity.

    Returns w(A)^2, half the norm of A*A + AA*, the residual of
    A*A + AA* = 2(B^2 + C^2), and the Euclidean-radius square of (B, C)
    which must agree with w(A)^2.
    """
    a = as_complex_matrix(a_mat, tol)
    b = hermitian_part(a)
    c = skew_part(a)
    gram = a.conj().T @ a + a @ a.conj().T
    resid = float(np.max(np.abs(gram - 2.0 * (b @ b + c @ c))))
    w_est = numerical_radius(a, tol=tol)
    we_est = we_radius([b, c], cfg, tol)
    half_norm = 0.5 * PsdMatrix.from_matrix(hermitian_part(gram), tol).norm()
    return CartesianCheck(
        w_squared=w_est.value**2,
        half_norm=half_norm,
        identity_residual=resid,
        we_squared=we_est.value**2,
    )


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


def _two_exponent_parts(tup, p: float, q: float, r: float, tol: Tolerances):
    """Building blocks of the two-exponent product bound: the operators T_i,
    |T_i|, |T_i*|, sum_i |T_i|^p, sum_i |T_i*|^q and the norm term."""
    mats = [as_complex_matrix(t, tol) for t in tup]
    require_same_dim(*mats)
    ats, aas = [], []
    p_sum = None
    q_sum = None
    for t_m in mats:
        at, aa = abs_pair(t_m, tol)
        ats.append(at)
        aas.append(aa)
        p_sum = at.power(p).mat if p_sum is None else p_sum + at.power(p).mat
        q_sum = aa.power(q).mat if q_sum is None else q_sum + aa.power(q).mat
    p_mat = PsdMatrix.from_matrix(p_sum, tol)
    q_mat = PsdMatrix.from_matrix(q_sum, tol)
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
    tol: Tolerances = DEFAULT_TOL,
    theorem: str = "thm2.16",
) -> BoundReport:
    """Two-exponent product bound on absolute-value tuples.

    Complex pair inner products take their modulus before powering; that is
    the only reading under which the scalar refinement applies.
    """
    if not (p >= q >= 1.0):
        raise DomainError(f"{theorem} requires p >= q >= 1, got p={p}, q={q}")
    if abs(1.0 / p + 1.0 / q - 1.0 / r) > 1e-12:
        raise DomainError(f"{theorem} requires 1/p + 1/q = 1/r, got p={p}, q={q}, r={r}")
    nu = r / p
    RefinementParams(nu, levels)
    mats, ats, aas, p_mat, q_mat, norm_term = _two_exponent_parts(tup, p, q, r, tol)
    dim = p_mat.dim
    n = len(mats)

    west_p = wp_radius([at.mat for at in ats], p, cfg, tol)
    west_q = wp_radius([aa.mat for aa in aas], q, cfg, tol)
    lhs = west_p.value**r * west_q.value**r

    def scalars(xs: np.ndarray, ys: np.ndarray):
        a = np.zeros(xs.shape[0])
        b = np.zeros(xs.shape[0])
        for at, aa in zip(ats, aas):
            a += np.abs(pair_forms_many(at.mat, xs, ys)) ** p
            b += np.abs(pair_forms_many(aa.mat, xs, ys)) ** q
        return a, b

    lam = _pair_objective(ats, aas, p, q, nu, levels)
    pair_inf = minimize_over_sphere_pair(None, dim, cfg, objective_batch=lam)
    special = [
        (west_p.witness, west_q.witness),
        (pair_inf.witness, pair_inf.witness2),
        (west_p.witness, west_p.witness),
        (west_q.witness, west_q.witness),
    ]
    xs, ys = _pair_samples(dim, samples, [p_mat, q_mat], special, cfg.seed)
    lam_s = lam(xs, ys)
    delta_s = _pair_objective(ats, aas, p, q, nu, 1)(xs, ys)
    refinement_upper = float(min(lam_s.min(), pair_inf.value))
    rhs_baseline = norm_term - float(delta_s.min())

    a_s, b_s = scalars(xs, ys)
    lhs_pts = a_s ** (r / p) * b_s ** (r / q)
    rhs_pts = norm_term - lam_s
    pw_viol = _count_violations(lhs_pts, rhs_pts)
    dom_viol = _count_dominance(lam_s, delta_s)

    extras = {}
    if levels == 1:
        extras["n1_agreement"] = float(np.max(np.abs(lam_s - delta_s)))

    return _report(
        theorem,
        dim,
        n,
        nu_or_alpha=nu,
        p=p,
        q=q,
        r=r,
        levels=levels,
        lhs=lhs,
        norm_term=norm_term,
        refinement_upper=refinement_upper,
        rhs_baseline=rhs_baseline,
        pw_viol=pw_viol,
        pw_n=len(xs),
        dom_viol=dom_viol,
        lhs_witness=west_p.witness,
        inf_witness=pair_inf.witness,
        inf_witness2=pair_inf.witness2,
        extras=extras,
    )


def bound_cor218(
    tup,
    *,
    levels: int,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Euclidean-radius product bound: both exponents 2, combination weight 1."""
    return bound_thm216(
        tup, p=2.0, q=2.0, r=1.0, levels=levels, cfg=cfg, samples=samples, tol=tol,
        theorem="cor2.18",
    )


def bound_cor219(
    tup,
    *,
    cfg: SphereOptConfig,
    samples: int = 256,
    tol: Tolerances = DEFAULT_TOL,
) -> BoundReport:
    """Euclidean radius of a positive tuple against the square-sum norm."""
    psd = [PsdMatrix.from_matrix(t, tol) for t in tup]
    dim = require_same_dim(*[s.mat for s in psd])
    n = len(psd)
    sq = PsdMatrix.from_matrix(sum(s.power(2.0).mat for s in psd), tol)
    norm_term = float(np.sqrt(sq.norm()))
    lhs_est = we_radius([s.mat for s in psd], cfg, tol)
    lhs = lhs_est.value
    vecs = _sample_vectors(dim, samples, psd + [sq], [lhs_est.witness], cfg.seed)
    lhs_pts = np.zeros(len(vecs))
    for s in psd:
        lhs_pts += s.quad_many(vecs) ** 2
    rhs_pts = np.maximum(quad_forms_many(sq.mat, vecs).real, 0.0)
    pw_viol = _count_violations(lhs_pts, rhs_pts)
    return _report(
        "cor2.19",
        dim,
        n,
        p=2.0,
        lhs=lhs,
        norm_term=norm_term,
        refinement_upper=0.0,
        rhs_baseline=norm_term,
        pw_viol=pw_viol,
        pw_n=len(vecs),
        dom_viol=0,
        lhs_witness=lhs_est.witness,
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


def baseline_rhs(
    ineq_id: str,
    operands,
    params: dict,
    vectors=None,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Right-hand side of a pre-refinement rule, with its own subtracted
    term estimated on the supplied sample vectors (pairs for rule 1.7).

    Each is the norm term of a bound rule's family less the smallest
    level-1 correction on the vectors, both built from the family's parts:
    1.8 and 1.9 the weighted product and Heinz bounds (no correction), 1.3
    the sandwich bound, 1.4 and 1.5 the per-operator bound (its p-free and
    its p-inflated blocks), 1.6 and 2.8 the absolute-power bound (2.8 at
    alpha = 1/2, no correction), 1.7 the two-exponent bound.
    """
    if ineq_id not in BASELINE_IDS:
        raise DomainError(f"unknown baseline rule {ineq_id!r}")

    def level1_min(firsts, seconds, nu: float) -> float:
        n = len(firsts)
        eta = _bracket_objective(firsts + seconds, range(n), range(n, 2 * n), nu, 1)
        return float(eta(vectors).min())

    if ineq_id in ("1.8", "1.9"):
        r = float(params["r"])
        if r < 2.0:
            raise DomainError(f"rule {ineq_id} requires r >= 2, got {r}")
        heinz = ineq_id == "1.9"
        nu = 0.5 if heinz else float(params["alpha"])
        a, b, x = operands[0], operands[1], operands[2]
        return _product_parts(a, b, x, nu, r, tol, heinz)[-1]

    if ineq_id == "2.8":
        p = float(params["p"])
        if p < 2.0:
            raise DomainError(f"rule 2.8 requires p >= 2, got {p}")
        return _abs_power_parts(operands[:2], 0.5, p, tol)[-1].norm()

    if ineq_id == "1.3":
        alpha, p, r = float(params["alpha"]), float(params["p"]), float(params["r"])
        fps, gps, _, _, norm_term, _ = _sandwich_parts(operands, alpha, p, r, tol)
        return norm_term - level1_min(fps, gps, 0.5)

    if ineq_id in ("1.4", "1.5"):
        alpha, p = float(params["alpha"]), float(params["p"])
        _, us, vs, ups, vps, sums = _per_operator_parts(operands, alpha, p, tol)
        if ineq_id == "1.4":
            total = sum(
                max(s.norm() - 2.0 * level1_min([u], [v], 0.5), 0.0) ** p
                for u, v, s in zip(us, vs, sums)
            )
            return 0.5 * total ** (1.0 / p)
        acc = PsdMatrix.from_matrix(sum(up.mat + vp.mat for up, vp in zip(ups, vps)), tol)
        return 0.5 * acc.norm() - level1_min(ups, vps, 0.5)

    if ineq_id == "1.6":
        alpha, p = float(params["alpha"]), float(params["p"])
        if p < 2.0:
            raise DomainError(f"rule 1.6 requires p >= 2, got {p}")
        _, ps_, qs_, mix = _abs_power_parts(operands, alpha, p, tol)
        return mix.norm() - level1_min(ps_, qs_, alpha)

    # rule 1.7: vectors is a pair (xs, ys)
    p = float(params["p"])
    q = float(params["q"])
    r = float(params["r"])
    if not (p >= q >= 1.0) or abs(1.0 / p + 1.0 / q - 1.0 / r) > 1e-12:
        raise DomainError("rule 1.7 requires p >= q >= 1 with 1/p + 1/q = 1/r")
    _, ats, aas, _, _, norm_term = _two_exponent_parts(operands, p, q, r, tol)
    # with p >= q, r/p <= 1/2 is the level-1 weight min(r/p, 1 - r/p)
    return norm_term - float(_pair_objective(ats, aas, p, q, r / p, 1)(*vectors).min())
