"""Radius functionals and unit-sphere optimization.

The numerical radius is computed as the maximum over phases theta of the
top eigenvalue of Re(e^{i theta} T); a uniform grid, solved from a coarse
pass of a few dozen phases by bisecting only the gaps where Johnson's
support-line bound says a phase can matter, locates the global bracket and
golden-section refinement polishes it.  The tuple functionals (the l^p
combination of |<T_i x, x>| over unit x) and all infimum terms are
estimated by projected gradient ascent/descent on the unit sphere in
stacked real coordinates.  Objectives built from quadratic
forms <M_i x, x> (or <M_i x, y> for pairs) carry their exact gradient: the
Wirtinger derivative of a form is M_i x, pushed through the objective by
the chain rule.  Any other callable objective gets central differences,
taken only at the rows the search accepts.  Each evaluated row is
normalized once, in place, and an accepted step keeps the normalized trial
row it was judged on, with its gradient.

Estimate semantics are first-class: every supremum estimate is a lower
bound of the true value and every infimum estimate is an upper bound.
Downstream verdicts rely on this labeling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, EigenFailure, ObjectiveError
from .linalg import as_complex_matrix, max_abs, quad_forms_many

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

LOWER_OF_SUP = "lower-of-sup"
UPPER_OF_INF = "upper-of-inf"

# bytes of (rows, d, d) complex phase matrices handed to one batched
# eigensolve in numerical_radius; bounds its working memory at any
# resolution, and stays under numpy's 4 MiB huge-page threshold
_GRID_CHUNK_BYTES = 2 << 20
# numerical_radius first solves a power-of-two stride of its grid, the
# largest giving at least _GRID_COARSE phases per turn
_GRID_COARSE = 24


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator stream, split deterministically by key."""
    ss = np.random.SeedSequence(int(seed) & (2**63 - 1), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def random_unit_vectors(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Rows are unit vectors drawn from the rotation-invariant distribution."""
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    nrm = np.linalg.norm(z, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    z /= nrm
    return z


@dataclass(frozen=True)
class SphereOptConfig:
    """Knobs for the sphere search; identical config means identical output.

    ``fd_step`` is the central-difference step, used only for black-box
    objectives; form objectives have exact gradients.
    """

    restarts: int = 64
    max_iters: int = 500
    step_tol: float = 1e-10
    seed: int = 0
    fd_step: float = 1e-6
    init_step: float = 0.2

    def __post_init__(self):
        for name, ok, rule in (
            ("restarts", self.restarts >= 1, ">= 1"),
            ("max_iters", self.max_iters >= 1, ">= 1"),
            ("step_tol", 0.0 <= self.step_tol < math.inf, "finite and >= 0"),
            ("fd_step", 0.0 < self.fd_step < math.inf, "finite and > 0"),
            ("init_step", 0.0 < self.init_step <= 1.0, "in (0, 1]"),
        ):
            if not ok:
                raise DomainError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class RadiusEstimate:
    value: float
    witness: np.ndarray
    witness2: np.ndarray | None = None
    converged: bool = True
    bound_side: str = LOWER_OF_SUP
    # upper bound of the true value where known, never below ``value``
    upper: float | None = None


def _normalize_blocks(u: np.ndarray, blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Scale each block of each row of ``u`` to unit norm in place; a zero block becomes e_1."""
    for s, e in blocks:
        b = u[:, s:e]
        nrm = np.sqrt(np.add.reduce(b * b, axis=1, keepdims=True))
        bad = nrm[:, 0] == 0.0
        if bad.any():
            b[bad, 0] = 1.0
            nrm[bad] = 1.0
        b /= nrm
    return u


@dataclass(frozen=True, eq=False)
class _FormObjective:
    """An objective f = g(forms) of quadratic forms, with its exact gradient.

    ``mats`` stacks n matrices M_i, shape (n, d, d).  ``kind`` names the
    forms g sees: "hermitian" the real <M_i x, x> of Hermitian M_i, "complex"
    the complex <M_i x, x>, "pair" the complex <M_i x, y> of a pair (x, y).  ``g``
    maps the (m, n) forms to the m values and to dg, the derivative of g by
    each form (for complex forms the Wirtinger derivative d/dc; g is real, so
    d/dconj(c) is its conjugate).  Called with a batch it returns the values,
    like any batched objective.
    """

    mats: np.ndarray
    kind: str
    g: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        n, d, _ = self.mats.shape
        # x @ right holds every M_i x, read as (m, n, d): one GEMM for all forms
        object.__setattr__(self, "_right", self.mats.reshape(n * d, d).T)
        if self.kind != "hermitian":
            adj = self.mats.conj().transpose(0, 2, 1).reshape(n * d, d)
            object.__setattr__(self, "_right_adj", adj.T)

    def _forms(self, x: np.ndarray, y: np.ndarray):
        mx = (x @ self._right).reshape(x.shape[0], -1, x.shape[1])
        forms = np.einsum("mj,mij->mi", y.conj(), mx)
        return (forms.real if self.kind == "hermitian" else forms), mx

    def __call__(self, *zs: np.ndarray) -> np.ndarray:
        return self.g(self._forms(zs[0], zs[-1])[0])[0]

    def value_grad(self, *zs: np.ndarray):
        """Values and the derivatives d f / d conj(z), one per argument.

        Hermitian forms: sum_i dg_i M_i x.  Complex forms: sum_i dg_i M_i x +
        conj(dg_i) M_i* x.  Pairs: sum_i conj(dg_i) M_i* y in x and
        sum_i dg_i M_i x in y.
        """
        x, y = zs[0], zs[-1]
        forms, mx = self._forms(x, y)
        vals, dg = self.g(forms)
        along_mx = np.einsum("mi,mij->mj", dg, mx)
        if self.kind == "hermitian":
            return vals, [along_mx]
        if self.kind == "complex":
            mhx = (x @ self._right_adj).reshape(mx.shape)
            return vals, [along_mx + np.einsum("mi,mij->mj", dg.conj(), mhx)]
        mhy = (y @ self._right_adj).reshape(mx.shape)
        return vals, [np.einsum("mi,mij->mj", dg.conj(), mhy), along_mx]


def _abs_power(c: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """|c|^p and its Wirtinger derivative (p/2) |c|^(p-2) conj(c), taken as 0 at c = 0."""
    mag = np.abs(c)
    phase = np.divide(c.conj(), mag, out=np.zeros_like(c), where=mag > 0.0)
    return mag**p, (0.5 * p) * mag ** (p - 1.0) * phase


def _lp_of_forms(p: float):
    """g for (sum_i |c_i|^p)^(1/p) over complex forms c_i, for a _FormObjective."""

    def g(c: np.ndarray):
        powers, d_powers = _abs_power(c, p)
        s = powers.sum(axis=1)
        vals = s ** (1.0 / p)
        # d s^(1/p) / ds = s^(1/p) / (p s); 0 where every form vanishes
        scale = np.divide(vals, p * s, out=np.zeros_like(s), where=s > 0.0)
        return vals, scale[:, None] * d_powers

    return g


def _checked(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=np.float64)
    # a sum without NaN proves there is none; only a NaN sum needs the scan
    if np.isnan(vals.sum()) and np.isnan(vals).any():
        raise ObjectiveError("objective returned NaN on the sphere")
    return vals


def _central_differences(f_batch: Callable[..., np.ndarray], split, blocks, h: float):
    """Values of a black-box objective at unit rows, with central differences on demand.

    The values take one objective call.  The gradient at a row takes 2n
    stencil rows, so it is built only for the rows asked for, in one more
    call: every plus row of their stencil, then every minus row, each
    normalized.
    """

    def value_grad(u: np.ndarray):
        def grad_at(sel) -> np.ndarray:
            rows = u[sel]
            k, n = rows.shape
            step = np.eye(n) * h
            stencil = np.concatenate([rows[:, None, :] + step, rows[:, None, :] - step])
            vals = _checked(f_batch(*split(_normalize_blocks(stencil.reshape(-1, n), blocks))))
            return (vals[: k * n].reshape(k, n) - vals[k * n :].reshape(k, n)) / (2.0 * h)

        return _checked(f_batch(*split(u))), grad_at

    return value_grad


def _extremize_on_spheres(
    objective: Callable[..., np.ndarray],
    dim: int,
    cfg: SphereOptConfig,
    *,
    minimize: bool = False,
    pair: bool = False,
) -> RadiusEstimate:
    """Projected gradient search on S^(2 dim - 1) (or a pair of them).

    ``objective`` maps a complex (m, dim) batch (two of them for pairs) to a
    float vector.  Objectives are only ever evaluated at unit vectors.  A
    _FormObjective gives exact gradients; any other callable gets central
    differences with step ``cfg.fd_step``.  Each iteration asks for the
    values at the trial rows, and then for the gradients at the accepted
    ones.
    """
    two_d = 2 * dim
    blocks = [(0, two_d)] + ([(two_d, 2 * two_d)] if pair else [])
    d_total = blocks[-1][1]
    sign = -1.0 if minimize else 1.0

    def split(u: np.ndarray) -> list[np.ndarray]:
        return [u[:, s : s + dim] + 1j * u[:, s + dim : e] for s, e in blocks]

    if isinstance(objective, _FormObjective):

        def value_grad(u: np.ndarray):
            vals, dz = objective.value_grad(*split(u))
            # real coordinates (Re z, Im z): the gradient is 2 (Re, Im) of d f / d conj(z)
            grad = 2.0 * np.concatenate([part for z in dz for part in (z.real, z.imag)], axis=1)
            return _checked(vals), grad.__getitem__

    else:
        value_grad = _central_differences(objective, split, blocks, cfg.fd_step)

    def ev(u: np.ndarray):
        vals, grad_at = value_grad(u)
        return sign * vals, lambda sel: sign * grad_at(sel)

    rng = rng_from(cfg.seed, 0)
    u = _normalize_blocks(rng.standard_normal((cfg.restarts, d_total)), blocks)
    vals, grad_at = ev(u)
    grad = grad_at(slice(None))
    alpha = np.full(cfg.restarts, cfg.init_step)
    active = np.ones(cfg.restarts, dtype=bool)

    trial_factors = np.array([4.0, 1.0, 0.25])
    n_trial = trial_factors.size
    for _ in range(cfg.max_iters):
        idx = active.nonzero()[0]
        if idx.size == 0:
            break
        ua = u[idx]
        g = grad[idx]
        k = idx.size
        for s, e in blocks:
            radial = np.add.reduce(g[:, s:e] * ua[:, s:e], axis=1, keepdims=True)
            g[:, s:e] -= radial * ua[:, s:e]
        gnorm = np.sqrt(np.add.reduce(g * g, axis=1))
        # three trial steps per restart; adopting the best kills the
        # overshoot oscillation a single fixed step is prone to
        steps = alpha[idx, None] * trial_factors
        cand = (ua[:, None, :] + steps[:, :, None] * g[:, None, :]).reshape(-1, d_total)
        cvals, cgrad_at = ev(_normalize_blocks(cand, blocks))
        flat = np.arange(k) * n_trial + cvals.reshape(k, n_trial).argmax(axis=1)
        best_cand = cvals[flat]
        better = best_cand > vals[idx]
        took = idx[better]
        chosen = flat[better]
        if took.size:
            u[took] = cand[chosen]
            vals[took] = best_cand[better]
            grad[took] = cgrad_at(chosen)
            alpha[took] = np.minimum(np.maximum(steps.reshape(-1)[chosen], 1e-14), 1.0)
        alpha[idx[~better]] *= 0.25
        done = alpha[idx] * np.maximum(gnorm, 1e-30) < cfg.step_tol
        active[idx[done]] = False

    best = int(vals.argmax())  # ties resolve to the lowest restart index
    zs = split(u[best : best + 1])
    value = float(_checked(objective(*zs))[0])  # evaluated alone, at the witness
    return RadiusEstimate(
        value=value,
        witness=zs[0][0],
        witness2=zs[1][0] if pair else None,
        converged=bool(~active[best]),
        bound_side=UPPER_OF_INF if minimize else LOWER_OF_SUP,
    )


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Abscissa of the maximum of a unimodal-on-bracket function."""
    a, b = lo, hi
    m1 = b - GOLDEN * (b - a)
    m2 = a + GOLDEN * (b - a)
    f1, f2 = f(m1), f(m2)
    while (b - a) > tol:
        if f1 > f2:
            b, m2, f2 = m2, m1, f1
            m1 = b - GOLDEN * (b - a)
            f1 = f(m1)
        else:
            a, m1, f1 = m1, m2, f2
            m2 = a + GOLDEN * (b - a)
            f2 = f(m2)
    return 0.5 * (a + b)


def _hermitian_eig(solver: Callable, h: np.ndarray):
    """Run a numpy Hermitian eigensolver, reporting its failure as EigenFailure."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def numerical_radius(t, resolution: int = 720) -> RadiusEstimate:
    """Numerical radius estimate via phase maximization.

    w(T) = max over theta of lambda(theta), the top eigenvalue of H(theta) =
    cos(theta) (T+T*)/2 + sin(theta) i(T-T*)/2.  On a uniform grid of
    ``resolution`` phases (an integer >= 8; default 720), golden-section
    search inside the brackets of the grid's three highest local maxima
    polishes the maximum.  The value reported is |<T x, x>| at the top
    eigenvector of the best polished phase, a certified lower bound of w(T)
    reproducible from the witness; ``upper`` is the support-line bound
    max_k lambda(theta_k) / cos(pi/m) of the grid (Johnson, SIAM J. Numer.
    Anal. 15, 1978), or ``value`` where that is larger, so ``value <= upper``
    holds exactly.  The bound can be exact (Hermitian T, negative dominant
    eigenvalue, odd m), and rounding can then put it a few ulps below
    ``value``.  Below about 16 phases the polish can miss the global peak (a
    diagonal 3x3 at m = 9 gives 1.17747 for w = 1.19510); both bounds still
    hold there.

    The grid is solved coarse to fine, with the same result as solving every
    phase.  Johnson's bound also holds between two solved phases a < b, at
    most pi apart: on [theta_a, theta_b], lambda <= M / cos((theta_b -
    theta_a) / 2) with M = max(lambda_a, lambda_b) >= 0, and lambda <= M
    when M < 0.  A power-of-two stride is solved first, the largest that
    leaves at least 24 phases per turn (24 to 47; every phase below 48);
    then each gap whose bound reaches a threshold tau gets its midpoint
    solved, until no gap with an unsolved phase reaches tau.  So every
    unsolved phase lies below tau, and every grid peak at or above tau,
    with its rank, is exact.  With three such peaks the top three are
    known.  With fewer, tau is lowered until nothing left out can beat the
    best polished value: no unsolved gap, and no lower solved peak's bracket
    (its bound over one step either side), reaches that value less a
    rounding margin.  A peak left out cannot win
    there, since golden search settles on a smooth local maximum of lambda
    (its kinks are never local maxima), where |<T x, x>| = lambda.  Tied
    peaks, as of a unitary T, are what lowers tau.  Phase matrices are
    decomposed in chunks of about 2 MiB, so memory stays flat in the
    resolution, and for an even resolution only over the first half-turn:
    H(theta + pi) = -H(theta), so lambda there is minus the bottom
    eigenvalue at theta.
    """
    a = as_complex_matrix(t)
    d = a.shape[0]
    try:
        m = operator.index(resolution)
    except TypeError:
        m = None
    if m is None or isinstance(resolution, bool) or m < 8:
        raise DomainError(f"resolution must be an integer >= 8, got {resolution!r}")
    e1 = np.zeros(d, dtype=np.complex128)
    e1[0] = 1.0
    scale = max_abs(a)
    if scale == 0.0:
        return RadiusEstimate(0.0, e1, upper=0.0)
    if d == 1:
        value = abs(complex(a[0, 0]))
        return RadiusEstimate(value, e1, upper=value)
    # keeps d * scale, every phase matrix entry and every eigenvalue finite
    if scale > np.finfo(np.float64).max / (4 * d):
        raise DomainError(f"matrix entries up to {scale:.3g} overflow the phase grid")
    h1 = (a + a.conj().T) / 2.0
    h2 = 1j * (a - a.conj().T) / 2.0

    thetas = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    step = 2.0 * math.pi / m
    half = m // 2 if m % 2 == 0 else m
    rows = max(1, _GRID_CHUNK_BYTES // (16 * d * d))
    lam = np.full(m, -math.inf)  # an unsolved phase reads -inf
    solved = np.zeros(m, dtype=bool)

    def solve(idx: np.ndarray) -> None:
        want = np.zeros(half, dtype=bool)
        want[idx % half] = True
        base = np.flatnonzero(want & ~solved[:half])
        for s in range(0, base.size, rows):
            k = base[s : s + rows]
            hs = cos_t[k, None, None] * h1 + sin_t[k, None, None] * h2
            ev = _hermitian_eig(np.linalg.eigvalsh, hs)
            lam[k] = ev[:, -1]
            solved[k] = True
            if half < m:
                lam[k + half] = -ev[:, 0]
                solved[k + half] = True

    def lam_max(theta: float) -> float:
        h = math.cos(theta) * h1 + math.sin(theta) * h2
        return float(_hermitian_eig(np.linalg.eigvalsh, h)[-1])

    polished: dict[int, tuple[float, np.ndarray]] = {}

    def polish(k: int) -> tuple[float, np.ndarray]:
        if k not in polished:
            theta0 = float(thetas[k])
            theta_star = _golden_max(lam_max, theta0 - step, theta0 + step)
            h = math.cos(theta_star) * h1 + math.sin(theta_star) * h2
            _, v = _hermitian_eig(np.linalg.eigh, h)
            x = v[:, -1]
            polished[k] = (abs(complex(np.vdot(x, a @ x))), x)
        return polished[k]

    stride = 1 << max(0, (m // _GRID_COARSE).bit_length() - 1)
    # a gap between solved phases spans at most one stride, under pi
    cos_half = np.cos(0.5 * step * np.arange(stride + 1))

    def support_bound(top: np.ndarray, gap) -> np.ndarray:
        return np.where(top >= 0.0, top / cos_half[gap], top)

    # |eigenvalue error| <= O(d eps ||H||) and ||H|| <= ||T||_F <= d * scale
    margin = 2.0**-30 * d * scale
    solve(np.arange(0, half, stride))
    tau = lam.max()
    while True:
        # bisect every gap whose bound reaches tau: what stays unsolved is below tau
        while True:
            ends = solved.nonzero()[0]
            gaps = (np.roll(ends, -1) - ends) % m
            bound = support_bound(np.maximum(lam[ends], lam[(ends + gaps) % m]), gaps)
            unsolved = gaps > 1
            reach = unsolved & (bound >= tau - margin)
            if not reach.any():
                break
            solve((ends[reach] + gaps[reach] // 2) % m)
        # peaks at or above tau are exact; a lower "peak" may border an unsolved phase
        peak = solved & (lam >= np.roll(lam, 1)) & (lam >= np.roll(lam, -1))
        high = np.flatnonzero(peak & (lam >= tau))
        # highest first; equal values from the highest index down
        top = high[np.argsort(lam[high], kind="stable")[::-1][:3]]
        if top.size == 3:
            break
        # done when no gap and no lower peak's bracket can reach the best polished value
        limit = max(polish(k)[0] for k in top) - margin
        low = np.flatnonzero(peak & (lam < tau))
        low = low[support_bound(lam[low], 1) >= limit]
        if low.size == 0 and not (unsolved & (bound >= limit)).any():
            break
        tau = min(tau, limit, *lam[low])

    best_val = -math.inf
    best_vec = e1
    for k in top:
        val, x = polish(k)
        if val > best_val:
            best_val = val
            best_vec = x
    upper = max(float(lam.max()) / math.cos(math.pi / m), best_val)
    return RadiusEstimate(best_val, best_vec, upper=upper)


@dataclass(frozen=True)
class OperatorTuple:
    """An ordered tuple of same-dimension square complex matrices."""

    ops: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, mats: Sequence) -> "OperatorTuple":
        if len(mats) < 1:
            raise DomainError("an operator tuple needs at least one operator")
        ops = tuple(as_complex_matrix(m) for m in mats)
        dims = {m.shape[0] for m in ops}
        if len(dims) != 1:
            raise DimensionMismatch(f"tuple has mixed dimensions {sorted(dims)}")
        return cls(ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def __len__(self) -> int:
        return len(self.ops)


def tuple_lp_values(ops: Sequence[np.ndarray], p: float, xs: np.ndarray) -> np.ndarray:
    """(sum_i |<T_i x, x>|^p)^(1/p) for each row vector x."""
    acc = np.zeros(xs.shape[0])
    for t in ops:
        acc += np.abs(quad_forms_many(t, xs)) ** p
    return acc ** (1.0 / p)


def wp_radius(tup, p: float, cfg: SphereOptConfig) -> RadiusEstimate:
    """Sphere-optimized estimate of the l^p radius of an operator tuple."""
    if p < 1.0:
        raise DomainError(f"wp radius requires p >= 1, got {p}")
    ot = tup if isinstance(tup, OperatorTuple) else OperatorTuple.of(tup)
    lp = _FormObjective(np.stack(ot.ops), "complex", _lp_of_forms(p))
    return _extremize_on_spheres(lp, ot.dim, cfg, minimize=False)


def we_radius(tup, cfg: SphereOptConfig) -> RadiusEstimate:
    """Euclidean radius: the p = 2 case."""
    return wp_radius(tup, 2.0, cfg)


def minimize_over_sphere(
    objective: Callable[[np.ndarray], float] | None,
    dim: int,
    cfg: SphereOptConfig,
    objective_batch: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RadiusEstimate:
    """Upper bound of an infimum over the unit sphere (any feasible point is one)."""
    if objective_batch is None:
        if objective is None:
            raise DomainError("an objective is required")

        def objective_batch(xs: np.ndarray) -> np.ndarray:
            return np.array([float(objective(x)) for x in xs])

    return _extremize_on_spheres(objective_batch, dim, cfg, minimize=True)


def minimize_over_sphere_pair(
    objective: Callable[[np.ndarray, np.ndarray], float] | None,
    dim: int,
    cfg: SphereOptConfig,
    objective_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> RadiusEstimate:
    """Infimum estimate over independent unit-vector pairs; two witnesses."""
    if objective_batch is None:
        if objective is None:
            raise DomainError("an objective is required")

        def objective_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
            return np.array([float(objective(x, y)) for x, y in zip(xs, ys)])

    return _extremize_on_spheres(objective_batch, dim, cfg, minimize=True, pair=True)
