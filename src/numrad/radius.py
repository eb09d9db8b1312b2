"""Radius functionals and unit-sphere optimization.

The numerical radius is computed as the maximum over phases theta of the
top eigenvalue of Re(e^{i theta} T); a uniform grid, solved from a coarse
pass of a few dozen phases by bisecting only the gaps where Johnson's
support-line bound says a phase can matter, locates the global bracket and
Newton's method on lambda'(theta) = 0, safeguarded by bisection, polishes
it.  The tuple functionals (the l^p combination of |<T_i x, x>| over unit
x) and all infimum terms are estimated by a Riemannian search on the unit
sphere (or a pair of spheres) in stacked real coordinates: saddle-free
Newton steps for small problems, gradient steps for larger ones.
Objectives built from quadratic forms <M_i x, x> (or <M_i x, y> for pairs)
carry their exact gradient, the Wirtinger derivative M_i x of each form
pushed through the objective by the chain rule, and their exact Hessian.
The search takes only such objectives.  Each evaluated row is normalized
once, in place, and an accepted step keeps the normalized trial row it was
judged on, with its derivatives.

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

from .errors import DomainError, EigenFailure, ObjectiveError
from .linalg import as_complex_matrix, max_abs, quad_forms_many, require_same_dim

LOWER_OF_SUP = "lower-of-sup"
UPPER_OF_INF = "upper-of-inf"

# bytes of (rows, d, d) complex phase matrices handed to one batched
# eigensolve in numerical_radius; bounds its working memory at any
# resolution, and stays under numpy's 4 MiB huge-page threshold
_GRID_CHUNK_BYTES = 2 << 20
# numerical_radius first solves a power-of-two stride of its grid, the
# largest giving at least _GRID_COARSE phases per turn
_GRID_COARSE = 24
# the polish stops once a Newton step, or its bracket, is this short in theta
_POLISH_TOL = 1e-12
# eigensolves a polish may take before it reports converged=False;
# bisection alone needs 41 on the widest bracket (pi/2, at 8 phases)
_POLISH_ITERS = 64
# a slope lambda', or a coupling v_k* H' x, at most this in the units where
# max|T_ij| = 1 is rounding
_SLOPE_TOL = 64 * np.finfo(np.float64).eps
# eigenvalue gaps below this, relative to max|T_ij|, make lambda'' untrusted
_GAP_TOL = 2.0**-26


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


# the first step length of the first-order search
_INIT_STEP = 0.2
# a search over at most this many real coordinates (2 dim, or 4 dim for
# pairs) takes Newton steps; this is the measured crossover, above which
# wp_radius searches take longer with the batched eigh than without
_NEWTON_MAX_DIM = 24
# the first and the largest trust radius of a Newton step
_TRUST_INIT = 0.5
_TRUST_MAX = 1.0
# a restart stops once its Newton step predicts a gain of at most this
# times max(1, |f|): below the rounding of f, a gain cannot be confirmed
_ROUNDING = 8 * np.finfo(np.float64).eps
# ``converged``: the Riemannian gradient norm at the witness is at most this
# times max(1, |f|); rounding of f limits what a search can reach to about
# sqrt(eps |f| |Hessian|), near 1e-8 |f|
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class SphereOptConfig:
    """Knobs for the sphere search; identical config means identical output."""

    restarts: int = 64
    max_iters: int = 500
    step_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (
            ("restarts", self.restarts >= 1, ">= 1"),
            ("max_iters", self.max_iters >= 1, ">= 1"),
            ("step_tol", 0.0 <= self.step_tol < math.inf, "finite and >= 0"),
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
    """An objective f = g(forms) of quadratic forms, with its exact derivatives.

    ``mats`` stacks n matrices M_i, shape (n, d, d).  ``kind`` names the
    forms g sees: "hermitian" the real <M_i x, x> of Hermitian M_i, "complex"
    the complex <M_i x, x>, "pair" the complex <M_i x, y> of a pair (x, y).  ``g``
    maps the (m, n) forms to the m values and to dg, the derivative of g by
    each form (for complex forms the Wirtinger derivative d/dc; g is real, so
    d/dconj(c) is its conjugate).  ``g(forms, hess=True)`` adds d2g, the
    (m, K, K) Hessian of g in the K real coordinates of the forms: the forms
    themselves for "hermitian", else the real parts of the n forms followed
    by their imaginary parts.  Called with a batch it returns the values.
    """

    mats: np.ndarray
    kind: str
    g: Callable

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

    def _real_forms(self) -> np.ndarray:
        """R_k with each real form coordinate u^T R_k u, u the stacked (Re z, Im z); (K, D, D)."""
        if not hasattr(self, "_rs"):
            m = self.mats
            n, d, _ = m.shape
            if self.kind == "pair":
                # <M x, y> = v* N v with v = (x, y) and N = [[0, 0], [M, 0]]
                m = np.zeros((n, 2 * d, 2 * d), dtype=np.complex128)
                m[:, d:, :d] = self.mats
            if self.kind != "hermitian":
                # the real and imaginary parts of v* N v: the Hermitian and skew parts of N
                adj = m.conj().transpose(0, 2, 1)
                m = np.concatenate([(m + adj) / 2.0, (m - adj) / 2.0j])
            # z* h z = [Re z; Im z]^T [[Re h, -Im h], [Im h, Re h]] [Re z; Im z] for Hermitian h
            rs = np.block([[m.real, -m.imag], [m.imag, m.real]])
            if self.kind == "pair":
                # from (Re x, Re y, Im x, Im y) to the search's (Re x, Im x, Re y, Im y)
                order = np.r_[0:d, 2 * d : 3 * d, d : 2 * d, 3 * d : 4 * d]
                rs = rs[:, order][:, :, order]
            object.__setattr__(self, "_rs", np.ascontiguousarray(rs))
        return self._rs

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

    def value_grad_hess(self, u: np.ndarray):
        """Values, gradients and Hessians of f at the rows of u, in real coordinates.

        u stacks (Re x, Im x[, Re y, Im y]), shape (m, D).  Each real form
        coordinate is u^T R_k u, with gradient J_k = 2 R_k u, so the gradient
        is sum_k gamma_k J_k and the Hessian sum_k gamma_k 2 R_k + J^T d2g J,
        where gamma is the gradient of g in the same coordinates: the
        Wirtinger form sum_i dg_i M_i + sum_ij d2g_ij (M_i x)(M_j x)*,
        written in real coordinates.  The values agree with ``__call__`` to
        rounding.
        """
        rs = self._real_forms()
        k, n_u, _ = rs.shape
        jac = 2.0 * (u @ rs.reshape(k * n_u, n_u).T).reshape(-1, k, n_u)
        coords = 0.5 * (jac @ u[:, :, None])[:, :, 0]
        if self.kind == "hermitian":
            vals, gamma, d2g = self.g(coords, hess=True)
        else:
            vals, dg, d2g = self.g(coords[:, : k // 2] + 1j * coords[:, k // 2 :], hess=True)
            gamma = _real_coords(dg)
        grad = (gamma[:, None, :] @ jac)[:, 0]
        hess = 2.0 * (gamma @ rs.reshape(k, n_u * n_u)).reshape(-1, n_u, n_u)
        hess += jac.transpose(0, 2, 1) @ (d2g @ jac)
        return vals, grad, hess


def _real_coords(dg: np.ndarray) -> np.ndarray:
    """The gradient by (Re c, Im c) of a real g, from its Wirtinger derivative dg = dg/dc."""
    return np.concatenate([2.0 * dg.real, -2.0 * dg.imag], axis=1)


def _block_hessian(haa: np.ndarray, hab: np.ndarray, hbb: np.ndarray) -> np.ndarray:
    """The (m, 2n, 2n) Hessian of sum_i h(c_i) in (Re c, Im c), from each (m, n) second derivative of h."""
    m, n = haa.shape
    k = 2 * n
    # strided views of the flattened rows: the diagonal, then the entries (i, n + i) and (n + i, i)
    out = np.zeros((m, k * k))
    out[:, :: k + 1] = np.concatenate([haa, hbb], axis=1)
    out[:, n : n * k : k + 1] = hab
    out[:, n * k :: k + 1] = hab
    return out.reshape(m, k, k)


def _abs_power(c: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """|c|^p and its Wirtinger derivative (p/2) |c|^(p-2) conj(c), taken as 0 at c = 0."""
    mag = np.abs(c)
    phase = np.divide(c.conj(), mag, out=np.zeros_like(c), where=mag > 0.0)
    return mag**p, (0.5 * p) * mag ** (p - 1.0) * phase


def _abs_power_hessian(c: np.ndarray, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hessian of |c|^p in (Re c, Im c), as (h_rr, h_ri, h_ii); 0 at c = 0.

    It is p |c|^(p-2) (I + (p - 2) e e^T) with e = c / |c| in real
    coordinates.  ``p`` is a float or an array that broadcasts against c.
    """
    mag = np.abs(c)
    coef = p * np.power(mag, p - 2.0, out=np.zeros_like(mag), where=mag > 0.0)
    e = np.divide(c, mag, out=np.zeros_like(c), where=mag > 0.0)
    bent = coef * (p - 2.0)
    return coef + bent * e.real**2, bent * e.real * e.imag, coef + bent * e.imag**2


def _lp_of_forms(p: float):
    """g for (sum_i |c_i|^p)^(1/p) over complex forms c_i, for a _FormObjective."""

    def g(c: np.ndarray, hess: bool = False):
        powers, d_powers = _abs_power(c, p)
        s = powers.sum(axis=1)
        vals = s ** (1.0 / p)
        # d s^(1/p) / ds = s^(1/p) / (p s); 0 where every form vanishes
        scale = np.divide(vals, p * s, out=np.zeros_like(s), where=s > 0.0)
        if not hess:
            return vals, scale[:, None] * d_powers
        # d^2 s^(1/p) / ds^2 = scale (1 - p) / (p s)
        bend = np.divide(scale * (1.0 - p), p * s, out=np.zeros_like(s), where=s > 0.0)
        ds = _real_coords(d_powers)
        d2 = scale[:, None, None] * _block_hessian(*_abs_power_hessian(c, p))
        d2 += bend[:, None, None] * (ds[:, :, None] * ds[:, None, :])
        return vals, scale[:, None] * d_powers, d2

    return g


def _checked(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=np.float64)
    # a sum without NaN proves there is none; only a NaN sum needs the scan
    if np.isnan(vals.sum()) and np.isnan(vals).any():
        raise ObjectiveError("objective returned NaN on the sphere")
    return vals


def _project_tangent(g: np.ndarray, u: np.ndarray, blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Remove from each block of each row of ``g`` its part along ``u``, in place: the Riemannian gradient."""
    for s, e in blocks:
        radial = np.add.reduce(g[:, s:e] * u[:, s:e], axis=1, keepdims=True)
        g[:, s:e] -= radial * u[:, s:e]
    return g


def _newton_steps(hess, grad, g, gnorm, u, blocks, trust):
    """Saddle-free Newton ascent steps on the sphere (or pair of spheres) of each row, and their predicted gains.

    ``hess`` and ``grad`` are the Euclidean Hessian and gradient, ``g`` and
    ``gnorm`` the Riemannian gradient and its norm.  The Riemannian Hessian
    on the tangent space is P H P less each block's radial derivative
    u_b . grad_b times its projector (Absil, Baker & Gallivan, Found.
    Comput. Math. 7, 2007; Boumal, An Introduction to Optimization on
    Smooth Manifolds, 2023, for products of spheres).  The step divides the
    gradient's coefficient along each eigenvector by |eigenvalue|, floored
    at |g| / trust; along an eigenvalue >= 0, where the quadratic model has
    no maximum, by the floor alone.  So it climbs along every direction,
    leaves saddles at full length and is never longer than ``trust``.
    """
    n = u.shape[1]
    proj = np.eye(n) - u[:, :, None] * u[:, None, :]
    for s, e in blocks[1:]:
        proj[:, s:e, :s] = proj[:, :s, s:e] = 0.0
    hr = proj @ hess @ proj
    for s, e in blocks:
        radial = np.add.reduce(grad[:, s:e] * u[:, s:e], axis=1)
        hr[:, s:e, s:e] -= radial[:, None, None] * proj[:, s:e, s:e]
    if not np.isfinite(np.add.reduce(hr, axis=None)):
        hr[~np.isfinite(hr).all(axis=(1, 2))] = 0.0
    w, v = _hermitian_eig(np.linalg.eigh, hr)
    floor = np.maximum(gnorm / trust, np.finfo(np.float64).tiny)[:, None]
    # the normal directions are eigenvectors of eigenvalue 0 that g does not
    # reach; what rounding leaves there, the retraction absorbs
    along = (g[:, None, :] @ v)[:, 0]
    coef = along / np.where(w < 0.0, np.maximum(-w, floor), floor)
    return (v @ coef[:, :, None])[:, :, 0], 0.5 * np.add.reduce(along * coef, axis=1)


def _real_grad(dz: list[np.ndarray]) -> np.ndarray:
    """The gradient in real coordinates (Re z, Im z): 2 (Re, Im) of each d f / d conj(z)."""
    return 2.0 * np.concatenate([part for z in dz for part in (z.real, z.imag)], axis=1)


def _extremize_on_spheres(
    objective: _FormObjective, dim: int, cfg: SphereOptConfig, *, minimize: bool = False
) -> RadiusEstimate:
    """Riemannian search on S^(2 dim - 1), or on a pair of them for "pair" forms.

    ``objective`` maps a complex (m, dim) batch (two of them for pairs) to a
    float vector, with its exact derivatives.  Objectives are only ever
    evaluated at unit vectors.  In each iteration each restart proposes
    candidates from its point and moves to the best only if it improves the
    value.  Over at most _NEWTON_MAX_DIM real coordinates the candidate is
    one saddle-free Newton step (``_newton_steps``, from the exact Hessian)
    within a trust radius that doubles on success, up to _TRUST_MAX, and
    shrinks to a quarter of a failed step; the restart stops when the step
    predicts a gain at rounding level or its trust radius falls below
    ``cfg.step_tol``.  Over more, the candidates are three steps along the
    Riemannian gradient of 4, 1 and 1/4 times the step length, which the
    best one sets (a quarter of it when none improves); the restart stops
    when the step falls below ``cfg.step_tol``.  ``converged`` says whether
    the witness is stationary: its Riemannian gradient norm is at most
    _GRAD_TOL max(1, |f|).  So a search that stops at a kink, or at the
    iteration cap, away from a stationary point reports False.
    """
    pair = objective.kind == "pair"
    two_d = 2 * dim
    blocks = [(0, two_d)] + ([(two_d, 2 * two_d)] if pair else [])
    d_total = blocks[-1][1]
    newton = d_total <= _NEWTON_MAX_DIM

    def split(u: np.ndarray) -> list[np.ndarray]:
        return [u[:, s : s + dim] + 1j * u[:, s + dim : e] for s, e in blocks]

    def ev(u: np.ndarray):
        if newton:
            vals, grad, hess = objective.value_grad_hess(u)
        else:
            vals, dz = objective.value_grad(*split(u))
            grad, hess = _real_grad(dz), None
        vals = _checked(vals)
        if minimize:  # the search maximizes -f
            return -vals, -grad, None if hess is None else -hess
        return vals, grad, hess

    rng = rng_from(cfg.seed, 0)
    u = _normalize_blocks(rng.standard_normal((cfg.restarts, d_total)), blocks)
    vals, grad, hess = ev(u)
    step = np.full(cfg.restarts, _TRUST_INIT if newton else _INIT_STEP)
    active = np.ones(cfg.restarts, dtype=bool)

    trial_factors = np.array([4.0, 1.0, 0.25])
    for _ in range(cfg.max_iters):
        idx = active.nonzero()[0]
        if idx.size == 0:
            break
        ua = u[idx]
        g = _project_tangent(grad[idx], ua, blocks)
        gnorm = np.sqrt(np.add.reduce(g * g, axis=1))
        if newton:
            moves, gain = _newton_steps(hess[idx], grad[idx], g, gnorm, ua, blocks, step[idx])
            done = gain <= _ROUNDING * np.maximum(1.0, np.abs(vals[idx]))
            if done.any():
                active[idx[done]] = False
                idx, ua, moves = idx[~done], ua[~done], moves[~done]
                if idx.size == 0:
                    break
            moves = moves[:, None, :]
        else:
            # three trial steps per restart; adopting the best kills the
            # overshoot oscillation a single fixed step is prone to
            steps = step[idx, None] * trial_factors
            moves = steps[:, :, None] * g[:, None, :]
        k, n_trial = moves.shape[:2]
        cand = (ua[:, None, :] + moves).reshape(-1, d_total)
        cvals, cgrad, chess = ev(_normalize_blocks(cand, blocks))
        flat = np.arange(k) * n_trial
        if n_trial > 1:
            flat += cvals.reshape(k, n_trial).argmax(axis=1)
        better = cvals[flat] > vals[idx]
        took = idx[better]
        chosen = flat[better]
        if newton:
            length = np.sqrt(np.add.reduce(moves[:, 0] * moves[:, 0], axis=1))
            step[idx] = np.where(better, np.minimum(2.0 * step[idx], _TRUST_MAX), 0.25 * length)
            done = step[idx] < cfg.step_tol
        else:
            step[took] = np.minimum(np.maximum(steps.reshape(-1)[chosen], 1e-14), 1.0)
            step[idx[~better]] *= 0.25
            done = step[idx] * np.maximum(gnorm, 1e-30) < cfg.step_tol
        if took.size:
            u[took] = cand[chosen]
            vals[took] = cvals[chosen]
            grad[took] = cgrad[chosen]
            if newton:
                hess[took] = chess[chosen]
        active[idx[done]] = False

    best = int(vals.argmax())  # ties resolve to the lowest restart index
    zs = split(u[best : best + 1])
    # evaluated alone, at the witness
    value, dz = objective.value_grad(*zs)
    value = float(_checked(value)[0])
    g = _project_tangent(_real_grad(dz), u[best : best + 1], blocks)
    return RadiusEstimate(
        value=value,
        witness=zs[0][0],
        witness2=zs[1][0] if pair else None,
        converged=bool(np.sqrt(np.add.reduce(g * g, axis=None)) <= _GRAD_TOL * max(1.0, abs(value))),
        bound_side=UPPER_OF_INF if minimize else LOWER_OF_SUP,
    )


def _hermitian_eig(solver: Callable, h: np.ndarray):
    """Run a numpy Hermitian eigensolver, reporting its failure as EigenFailure."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _polish(a: np.ndarray, g1: np.ndarray, g2: np.ndarray, theta: float, step: float):
    """Safeguarded Newton's method for lambda'(theta) = 0 on [theta - step, theta + step].

    ``g1`` and ``g2`` are (T+T*)/2 and i(T-T*)/2 divided by max|T_ij|, so
    lambda and its derivatives are formed in units where no entry exceeds
    1.  One eigh of H = cos(theta) g1 + sin(theta) g2 per step gives the top
    eigenpair (lambda, x) and the rest (mu_k, v_k); with H' = -sin(theta) g1
    + cos(theta) g2 and H'' = -H, lambda' = x* H' x (Hellmann-Feynman) and
    lambda'' = -lambda + 2 sum_k |v_k* H' x|^2 / (lambda - mu_k) (Lancaster,
    Numer. Math. 6, 1964).  The sign of lambda' moves one end of the bracket
    to theta.  The step bisects the bracket where lambda'' >= 0, where a gap
    lambda - mu_k is below _GAP_TOL, where Newton's step would leave the
    bracket, or where it is not under half the step before last; so a kink
    of lambda, which is never a local maximum, is never the answer.  A
    coupling v_k* H' x below _SLOPE_TOL leaves lambda'' alone whatever its
    gap (c I has a top eigenvalue of multiplicity d and no coupling).  The
    polish stops once |lambda'| is below _SLOPE_TOL, where |<T x, x>| =
    sqrt(lambda^2 + lambda'^2) equals lambda to rounding (a flat lambda, as
    of a nilpotent 2x2, stops at once).  Returns |<T x, x>| at the last
    step's x, x, and whether the slope, a step or the bracket fell below
    its tolerance within _POLISH_ITERS eigensolves.
    """
    lo, hi = theta - step, theta + step
    last = before = hi - lo  # lengths of the last two steps
    converged = False
    for _ in range(_POLISH_ITERS):
        c, s = math.cos(theta), math.sin(theta)
        w, v = _hermitian_eig(np.linalg.eigh, c * g1 + s * g2)
        x = v[:, -1]
        coupling = v.conj().T @ ((c * g2 - s * g1) @ x)
        slope = float(coupling[-1].real)
        if abs(slope) <= _SLOPE_TOL:
            converged = True
            break
        if slope > 0.0:
            lo = theta
        else:
            hi = theta
        gaps = w[-1] - w[:-1]
        # a coupling at rounding level adds nothing to lambda'', whatever its gap
        live = np.abs(coupling[:-1]) > _SLOPE_TOL
        nxt = None
        if (gaps[live] > _GAP_TOL).all():
            curv = 2.0 * float(np.sum(np.abs(coupling[:-1][live]) ** 2 / gaps[live])) - float(w[-1])
            if curv < 0.0 and abs(slope) < -curv * 0.5 * before:
                nxt = theta - slope / curv
                if abs(nxt - theta) <= _POLISH_TOL:
                    converged = True
                    break
        if nxt is None or not lo < nxt < hi:
            if hi - lo <= _POLISH_TOL:
                converged = True
                break
            nxt = 0.5 * (lo + hi)
        last, before = abs(nxt - theta), last
        theta = nxt
    return abs(complex(np.vdot(x, a @ x))), x, converged


def numerical_radius(t, resolution: int = 720) -> RadiusEstimate:
    """Numerical radius estimate via phase maximization.

    w(T) = max over theta of lambda(theta), the top eigenvalue of H(theta) =
    cos(theta) (T+T*)/2 + sin(theta) i(T-T*)/2.  On a uniform grid of
    ``resolution`` phases (an integer >= 8; default 720), Newton's method on
    lambda' = 0, safeguarded by bisection, inside the brackets of the grid's
    three highest local maxima polishes the maximum (see ``_polish``; a few
    eigensolves per peak).  The value reported is |<T x, x>| at the top
    eigenvector of the best polished phase, a certified lower bound of w(T)
    reproducible from the witness; ``converged`` is False when a polish
    stopped at its iteration cap with neither its slope at rounding level
    nor its step or bracket below 1e-12 in theta; ``upper`` is the support-line bound
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
    there, since its polish would settle where lambda' = 0, a smooth local
    maximum of lambda (its kinks are never local maxima, and bisection on
    the sign of lambda' steps past them), where |<T x, x>| = lambda.  That
    needs the polish to converge: away from lambda' = 0, |<T x, x>| =
    sqrt(lambda^2 + lambda'^2) exceeds lambda, which ``converged`` flags.  Tied
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

    g1, g2 = h1 / scale, h2 / scale
    polished: dict[int, tuple[float, np.ndarray, bool]] = {}

    def polish(k: int) -> tuple[float, np.ndarray, bool]:
        if k not in polished:
            polished[k] = _polish(a, g1, g2, float(thetas[k]), step)
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
        val, x, _ = polish(k)
        if val > best_val:
            best_val = val
            best_vec = x
    upper = max(float(lam.max()) / math.cos(math.pi / m), best_val)
    converged = all(done for _, _, done in polished.values())
    return RadiusEstimate(best_val, best_vec, converged=converged, upper=upper)


def tuple_lp_values(ops: Sequence[np.ndarray], p: float, xs: np.ndarray) -> np.ndarray:
    """(sum_i |<T_i x, x>|^p)^(1/p) for each row vector x."""
    acc = np.zeros(xs.shape[0])
    for t in ops:
        acc += np.abs(quad_forms_many(t, xs)) ** p
    return acc ** (1.0 / p)


def _require_lp_exponent(p: float) -> None:
    if not (1.0 <= p < math.inf):
        raise DomainError(f"wp radius requires a finite p >= 1, got p={p}")


def wp_radius(tup: Sequence, p: float, cfg: SphereOptConfig) -> RadiusEstimate:
    """Sphere-optimized estimate of the l^p radius of an operator tuple."""
    _require_lp_exponent(p)
    if len(tup) < 1:
        raise DomainError("an operator tuple needs at least one operator")
    ops = [as_complex_matrix(t) for t in tup]
    dim = require_same_dim(*ops)
    lp = _FormObjective(np.stack(ops), "complex", _lp_of_forms(p))
    return _extremize_on_spheres(lp, dim, cfg, minimize=False)


def we_radius(tup: Sequence, cfg: SphereOptConfig) -> RadiusEstimate:
    """Euclidean radius: the p = 2 case."""
    return wp_radius(tup, 2.0, cfg)


def minimize_over_sphere(objective: _FormObjective, dim: int, cfg: SphereOptConfig) -> RadiusEstimate:
    """Upper bound of an infimum over the unit sphere (any feasible point is one)."""
    return _extremize_on_spheres(objective, dim, cfg, minimize=True)


def minimize_over_sphere_pair(objective: _FormObjective, dim: int, cfg: SphereOptConfig) -> RadiusEstimate:
    """Infimum estimate of a "pair" objective over independent unit-vector pairs; two witnesses."""
    return _extremize_on_spheres(objective, dim, cfg, minimize=True)
