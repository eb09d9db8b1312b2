"""Radius estimation and sphere optimization."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from numrad import bounds, radius
from numrad.errors import DimensionMismatch, DomainError, EigenFailure, ObjectiveError
from numrad.harness import GENERAL_KINDS, EnsembleSpec, SuiteConfig, gen_matrix
from numrad.linalg import PsdMatrix, abs_pair, max_abs, op_norm
from numrad.radius import (
    LOWER_OF_SUP,
    UPPER_OF_INF,
    SphereOptConfig,
    minimize_over_sphere,
    minimize_over_sphere_pair,
    numerical_radius,
    random_unit_vectors,
    rng_from,
    we_radius,
    wp_radius,
)

NIL = np.array([[0, 1], [0, 0]], dtype=complex)
CFG = SphereOptConfig(restarts=16, max_iters=250, seed=1234)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def form_objective(mats, kind, g, curvature=0.0):
    """A sphere-search objective g(forms) of the forms of ``mats``.

    Its Hessian in the real coordinates of the forms is ``curvature`` times
    the identity.
    """

    def with_hessian(forms, hess=False):
        if not hess:
            return g(forms)
        k = forms.shape[1] * (1 if kind == "hermitian" else 2)
        return (*g(forms), np.broadcast_to(curvature * np.eye(k), (len(forms), k, k)))

    return radius._FormObjective(np.asarray(mats, dtype=complex), kind, with_hessian)


def constant(value):
    """g for an objective that is ``value`` everywhere, with zero gradient."""
    return lambda forms: (np.full(len(forms), value), np.zeros_like(forms))


def rayleigh(m):
    """x -> <M x, x> for a Hermitian M."""
    return form_objective([m], "hermitian", lambda forms: (forms[:, 0], np.ones_like(forms)))


def ensemble_mix(count=200):
    """Dims 2-6 over every general kind, seeded as the acceptance radius check."""
    return [
        gen_matrix(EnsembleSpec(GENERAL_KINDS[k % len(GENERAL_KINDS)], 2 + k % 5, seed=1000 + k))
        for k in range(count)
    ]


def grid_top_eigenvalue(t, points):
    """max_k lambda_max(H(theta_k)) over a uniform grid, every phase decomposed."""
    h1 = (t + t.conj().T) / 2.0
    h2 = 1j * (t - t.conj().T) / 2.0
    thetas = 2.0 * math.pi * np.arange(points) / points
    best = -math.inf
    for s in range(0, points, 2000):
        th = thetas[s : s + 2000, None, None]
        best = max(best, float(np.linalg.eigvalsh(np.cos(th) * h1 + np.sin(th) * h2)[:, -1].max()))
    return best


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo, hi, tol=1e-12):
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


def golden_polish(a, h1, h2, theta0, step):
    """The polish numerical_radius had before Newton's: golden-section search of lambda."""

    def lam_max(theta):
        return float(np.linalg.eigvalsh(math.cos(theta) * h1 + math.sin(theta) * h2)[-1])

    theta_star = golden_max(lam_max, theta0 - step, theta0 + step)
    x = np.linalg.eigh(math.cos(theta_star) * h1 + math.sin(theta_star) * h2)[1][:, -1]
    return abs(complex(np.vdot(x, a @ x))), x


def newton_polish(a, h1, h2, theta0, step):
    scale = max_abs(a)
    return radius._polish(a, h1 / scale, h2 / scale, theta0, step)[:2]


def full_grid_radius(t, m, polish=newton_polish):
    """(value, witness, upper) of numerical_radius with every grid phase solved.

    This is numerical_radius before its grid was solved coarse to fine: the
    reference the pruned grid must match bit for bit.  ``polish`` maps (T,
    (T+T*)/2, i(T-T*)/2, a peak's phase, the grid step) to the peak's value
    and witness.
    """
    a = np.asarray(t, dtype=complex)
    e1 = np.zeros(a.shape[0], dtype=complex)
    e1[0] = 1.0
    h1 = (a + a.conj().T) / 2.0
    h2 = 1j * (a - a.conj().T) / 2.0
    thetas = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    half = m // 2 if m % 2 == 0 else m
    ev = np.linalg.eigvalsh(cos_t[:half, None, None] * h1 + sin_t[:half, None, None] * h2)
    lam = np.concatenate([ev[:, -1], -ev[:, 0]]) if half < m else ev[:, -1]
    peaks = np.flatnonzero((lam >= np.roll(lam, 1)) & (lam >= np.roll(lam, -1)))
    if peaks.size == 0:
        peaks = np.array([int(np.argmax(lam))])
    peaks = peaks[np.argsort(lam[peaks], kind="stable")[::-1][:3]]
    step = 2.0 * math.pi / m
    best_val, best_vec = -math.inf, e1
    for k in peaks:
        val, x = polish(a, h1, h2, float(thetas[k]), step)
        if val > best_val:
            best_val, best_vec = val, x
    return best_val, best_vec, max(float(lam.max()) / math.cos(math.pi / m), best_val)


def tie_cases():
    """Matrices whose top grid peaks tie in exact arithmetic, or whose lambda is flat."""
    rng = np.random.default_rng(46)
    unitary = [np.linalg.qr(random_complex(rng, d))[0] for d in (2, 3, 4, 6, 16)]
    return unitary + [
        gen_matrix(EnsembleSpec("hermitian", 5, seed=1003)),
        NIL,
        2.0 * np.eye(3),
        (0.3 - 1.1j) * np.eye(4),
        np.diag([1.0, -1.0, 1j, -1j]),
        np.diag(np.exp(2j * math.pi * np.arange(6) / 6)),
        2.5 * np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 5))),
    ]


# strides 1 (m < 48), 2, 4, 16, 32 and 64, and uneven last gaps
PRUNE_RESOLUTIONS = (8, 9, 11, 16, 47, 48, 64, 96, 97, 100, 128, 720, 721, 1000, 1441, 2880)


def assert_matches_full_grid(t, m):
    est = numerical_radius(t, resolution=m)
    value, witness, upper = full_grid_radius(t, m)
    assert est.value.hex() == value.hex()
    assert est.witness.tobytes() == witness.tobytes()
    assert est.upper.hex() == upper.hex()


class TestNumericalRadius:
    def test_identity(self):
        est = numerical_radius(np.eye(4))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.bound_side == LOWER_OF_SUP

    def test_nilpotent_half(self):
        est = numerical_radius(NIL)
        assert est.value == pytest.approx(0.5, abs=1e-10)

    def test_diagonal_max_modulus(self):
        lam = np.array([1.0, -3.0, 2.0j, 0.5 - 0.5j])
        est = numerical_radius(np.diag(lam))
        assert est.value == pytest.approx(np.abs(lam).max(), abs=1e-10)

    def test_zero_matrix(self):
        est = numerical_radius(np.zeros((3, 3)))
        assert est.value == 0.0
        assert est.upper == 0.0

    def test_one_by_one(self):
        est = numerical_radius(np.array([[3 - 4j]]))
        assert est.value == pytest.approx(5.0, abs=1e-14)
        assert est.upper == est.value

    def test_norm_bracket(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            t = random_complex(rng, d)
            w = numerical_radius(t).value
            nrm = op_norm(t)
            assert 0.5 * nrm <= w + 1e-6
            assert w <= nrm + 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(22)
        t = random_complex(rng, 4)
        q, _ = np.linalg.qr(random_complex(rng, 4))
        w1 = numerical_radius(t).value
        w2 = numerical_radius(q.conj().T @ t @ q).value
        assert abs(w1 - w2) <= 1e-6 * max(1.0, w1)

    def test_scaling_and_adjoint(self):
        rng = np.random.default_rng(23)
        t = random_complex(rng, 3)
        w = numerical_radius(t).value
        assert numerical_radius(2.5j * t).value == pytest.approx(2.5 * w, abs=1e-8 * max(1, w))
        assert numerical_radius(t.conj().T).value == pytest.approx(w, abs=1e-8 * max(1, w))

    def test_hermitian_equals_norm(self):
        rng = np.random.default_rng(24)
        g = random_complex(rng, 5)
        h = (g + g.conj().T) / 2
        assert numerical_radius(h).value == pytest.approx(op_norm(h), abs=1e-8 * max(1, op_norm(h)))

    def test_witness_reproducible(self):
        rng = np.random.default_rng(25)
        t = random_complex(rng, 4)
        est = numerical_radius(t)
        again = abs(np.vdot(est.witness, t @ est.witness))
        assert abs(again - est.value) <= 1e-9 * max(1.0, est.value)

    def test_resolution_guard(self):
        with pytest.raises(DomainError):
            numerical_radius(np.eye(2), resolution=4)

    @pytest.mark.parametrize("resolution", [7, -720, 720.5, 720.0, "720", math.nan, None,
                                            True, np.bool_(True), np.float64(720.0)])
    def test_bad_resolution_is_domain_error(self, resolution):
        with pytest.raises(DomainError, match="resolution must be an integer >= 8"):
            numerical_radius(np.eye(2), resolution=resolution)

    def test_numpy_integer_resolution(self):
        t = random_complex(np.random.default_rng(26), 3)
        for m in (np.int64(720), np.int32(721), np.uint16(9)):
            est = numerical_radius(t, resolution=m)
            ref = numerical_radius(t, resolution=int(m))
            assert est.value == ref.value and est.upper == ref.upper
            assert np.array_equal(est.witness, ref.witness)

    def test_entries_that_overflow_the_grid(self):
        with pytest.raises(DomainError, match="overflow the phase grid"):
            numerical_radius(np.array([[1e308, 1e308], [0.0, -1e308]]))
        # just inside the guard: finite, and the bracket holds
        est = numerical_radius(np.array([[1e307, 1e307], [0.0, -1e307]]))
        assert math.isfinite(est.upper) and 1e307 <= est.value <= est.upper


class TestPhaseGrid:
    def test_chunk_size_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(41)
        mats = [random_complex(rng, d) for d in (2, 3, 5, 8, 17, 40)]
        cases = [(t, m) for t in mats for m in (720, 721, 2880)]
        default = [numerical_radius(t, resolution=m) for t, m in cases]
        monkeypatch.setattr(radius, "_GRID_CHUNK_BYTES", 1)  # one phase per eigensolve
        for (t, m), ref in zip(cases, default):
            est = numerical_radius(t, resolution=m)
            assert est.value == ref.value
            assert np.array_equal(est.witness, ref.witness)
            assert est.upper == ref.upper

    @pytest.mark.parametrize("m", PRUNE_RESOLUTIONS)
    def test_pruned_grid_matches_the_full_grid(self, m):
        for t in ensemble_mix(140):
            assert_matches_full_grid(t, m)

    @pytest.mark.parametrize("m", PRUNE_RESOLUTIONS)
    def test_pruned_grid_matches_the_full_grid_on_ties(self, m):
        for t in tie_cases():
            assert_matches_full_grid(t, m)

    def test_pruned_grid_solves_few_phases(self, monkeypatch):
        real = np.linalg.eigvalsh
        solved = []

        def counting(h):
            if h.ndim == 3:  # the grid; the polish solves one phase at a time
                solved.append(h.shape[0])
            return real(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for seed in range(4):
            solved.clear()
            numerical_radius(gen_matrix(EnsembleSpec("ginibre", 16, seed=seed)), resolution=2880)
            # the half-turn is 1440 phases; the coarse pass solves every 64th,
            # 45 per turn, and bisection adds a few phases per reaching gap
            assert solved[0] == 23
            assert sum(solved) < 0.1 * 1440

    @pytest.mark.parametrize("m", PRUNE_RESOLUTIONS)
    def test_polish_agrees_with_golden_section(self, m):
        # both settle on the same smooth maximum; what is left is the
        # rounding of |<T x, x>|, a d-term sum of entries up to max|T_ij|
        eps = np.finfo(np.float64).eps
        for t in ensemble_mix(140) + tie_cases():
            est = numerical_radius(t, resolution=m)
            golden = full_grid_radius(t, m, golden_polish)[0]
            a = np.asarray(t, dtype=complex)
            assert abs(est.value - golden) <= 8 * a.shape[0] * eps * max_abs(a)
            assert est.value <= est.upper
            assert est.converged

    def test_polish_takes_few_eigensolves(self, monkeypatch):
        real_eigh, real_polish = np.linalg.eigh, radius._polish
        counts = {"eigh": 0, "peaks": 0}

        def counting_eigh(h):
            counts["eigh"] += 1
            return real_eigh(h)

        def counting_polish(*args):
            counts["peaks"] += 1
            return real_polish(*args)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(radius, "_polish", counting_polish)
        for seed in range(4):
            for m in (720, 2880):
                numerical_radius(gen_matrix(EnsembleSpec("ginibre", 16, seed=seed)), resolution=m)
        # the golden-section polish took about 50 eigensolves per peak
        assert counts["eigh"] <= 10 * counts["peaks"]

    def test_flat_and_degenerate_peaks_take_few_eigensolves(self, monkeypatch):
        # a nilpotent 2x2 has a constant lambda, and c I a top eigenvalue of
        # multiplicity d with every coupling 0; each took about 35 eigensolves
        # per peak when the polish bisected them down to 1e-12 in theta
        real_eigh, real_polish = np.linalg.eigh, radius._polish
        counts = {"eigh": 0, "peaks": 0}

        def counting_eigh(h):
            counts["eigh"] += 1
            return real_eigh(h)

        def counting_polish(*args):
            counts["peaks"] += 1
            return real_polish(*args)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(radius, "_polish", counting_polish)
        for t in tie_cases():
            counts["eigh"] = counts["peaks"] = 0
            assert numerical_radius(t).converged
            assert counts["eigh"] <= 3 * counts["peaks"]

    def test_polish_cap_reports_unconverged(self, monkeypatch):
        t = gen_matrix(EnsembleSpec("ginibre", 5, seed=3))
        assert numerical_radius(t).converged
        monkeypatch.setattr(radius, "_POLISH_ITERS", 1)
        est = numerical_radius(t)
        assert not est.converged
        assert est.value <= est.upper

    def test_odd_resolution_matches_even(self):
        # every kind at m=721; at m=9 a bracket spans 80 degrees, which only
        # resolves the global maximum where lambda_max(theta) is smooth, so
        # that case uses generic (non-normal) matrices
        mix = [(t, 721) for t in ensemble_mix(70)]
        rng = np.random.default_rng(42)
        mix += [(random_complex(rng, 2 + k % 5), 9) for k in range(30)]
        for t, m in mix:
            ref = numerical_radius(t, resolution=720).value
            est = numerical_radius(t, resolution=m)
            assert abs(est.value - ref) <= 1e-9 * max(ref, 1e-300)
            again = abs(np.vdot(est.witness, t @ est.witness))
            assert abs(again - est.value) <= 1e-12 * max(1.0, est.value)

    def test_grid_memory_is_bounded(self):
        t = gen_matrix(EnsembleSpec("ginibre", 64, seed=7))
        tracemalloc.start()
        try:
            numerical_radius(t, resolution=2880)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (2880, 64, 64) complex array alone is 189 MB: the grid must never exist whole
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("solver, batched", [
        ("eigvalsh", True),  # the phase grid
        ("eigh", False),  # a step of the polish
    ])
    def test_solver_failure_is_eigen_failure(self, monkeypatch, solver, batched):
        real = getattr(np.linalg, solver)

        def failing(h):
            if (h.ndim == 3) == batched:
                raise np.linalg.LinAlgError("did not converge")
            return real(h)

        monkeypatch.setattr(np.linalg, solver, failing)
        with pytest.raises(EigenFailure, match="did not converge"):
            numerical_radius(random_complex(np.random.default_rng(43), 4))


class TestCertifiedUpper:
    def test_brackets_the_value_tightly(self):
        for t in ensemble_mix():
            est = numerical_radius(t)
            assert est.value <= est.upper <= est.value * (1.0 + 1e-4)

    def test_dominates_a_dense_grid(self):
        for t in ensemble_mix(35):
            assert numerical_radius(t).upper >= grid_top_eigenvalue(t, 20_000)

    def test_normal_matrix(self):
        lam = np.array([1.0, -3.0, 2.0j, 0.5 - 0.5j])
        est = numerical_radius(np.diag(lam), resolution=16)
        assert 3.0 <= est.upper <= 3.0 / math.cos(math.pi / 16) * (1.0 + 1e-15)

    def test_coarse_grid_stays_certified(self):
        # below about 16 phases the polish may settle on a lower peak, but
        # the value is still attained and the grid bound still holds.  For
        # a Hermitian T with a negative dominant eigenvalue and odd m the
        # bound is exact (the nearest phases straddle pi): upper is then
        # raised to the value, while a finer grid's value can still sit a
        # few ulps above it
        slack = 1.0 + 1e-14
        for t in ensemble_mix(140):
            fine = numerical_radius(t, resolution=4000).value
            for m in range(8, 17):
                est = numerical_radius(t, resolution=m)
                assert est.value <= est.upper
                assert fine <= est.upper * slack

    def test_exact_bound_is_raised_to_the_value(self):
        # Johnson's bound is exact here, and rounding puts it below the value
        t = gen_matrix(EnsembleSpec("hermitian", 6, seed=1094))
        est = numerical_radius(t, resolution=9)
        assert est.value == est.upper == pytest.approx(3.0342309774582614, rel=1e-15)

    def test_coarse_grid_can_miss_the_peak(self):
        t = gen_matrix(EnsembleSpec("diagonal", 3, seed=1181))
        w = float(np.abs(np.diag(t)).max())  # normal: w is the spectral radius
        assert numerical_radius(t).value == pytest.approx(w, rel=1e-12)
        for m in (9, 11):
            est = numerical_radius(t, resolution=m)
            assert est.value == pytest.approx(1.1774684045406345, rel=1e-12)
            assert est.value < w <= est.upper


class TestWpRadius:
    def test_collapses_to_numerical_radius(self):
        rng = np.random.default_rng(31)
        for k in range(10):
            d = int(rng.integers(2, 7))
            t = random_complex(rng, d)
            w = numerical_radius(t).value
            for p in (1.0, 2.0, 3.5):
                est = wp_radius([t], p, SphereOptConfig(restarts=16, max_iters=250, seed=k))
                assert est.value == pytest.approx(w, abs=1e-6 * max(1.0, w))

    def test_pair_of_identities(self):
        est = wp_radius([np.eye(3), np.eye(3)], 2.0, CFG)
        assert est.value == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_orthogonal_projectors(self):
        est = wp_radius([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2.0, CFG)
        assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_we_alias(self):
        tup = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert we_radius(tup, CFG).value == pytest.approx(wp_radius(tup, 2.0, CFG).value, abs=1e-12)

    def test_lp_monotone_in_p(self):
        rng = np.random.default_rng(32)
        tup = [random_complex(rng, 3) for _ in range(3)]
        vals = [wp_radius(tup, p, CFG).value for p in (1.0, 1.5, 2.0, 3.0)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-6

    def test_p_domain(self):
        for p in (0.5, -math.inf, math.inf, math.nan):
            with pytest.raises(DomainError, match="requires a finite p >= 1, got p="):
                wp_radius([np.eye(2)], p, CFG)

    def test_dim_mismatch(self):
        for tup, err in (([np.eye(2), np.eye(3)], DimensionMismatch), ([], DomainError)):
            with pytest.raises(err):
                wp_radius(tup, 2.0, CFG)

    def test_witness_reproducible(self):
        rng = np.random.default_rng(33)
        tup = [random_complex(rng, 3) for _ in range(2)]
        est = wp_radius(tup, 2.0, CFG)
        val = sum(abs(np.vdot(est.witness, t @ est.witness)) ** 2 for t in tup) ** 0.5
        assert abs(val - est.value) <= 1e-9 * max(1.0, est.value)

    def test_deterministic(self):
        rng = np.random.default_rng(34)
        tup = [random_complex(rng, 3)]
        a = wp_radius(tup, 2.0, CFG)
        b = wp_radius(tup, 2.0, CFG)
        assert a.value == b.value
        assert np.array_equal(a.witness, b.witness)


class TestMinimizeOverSphere:
    def test_constant(self):
        est = minimize_over_sphere(form_objective([np.eye(3)], "hermitian", constant(3.25)), 3, CFG)
        assert est.value == pytest.approx(3.25, abs=1e-12)
        assert est.bound_side == UPPER_OF_INF

    def test_rayleigh_minimum(self):
        est = minimize_over_sphere(rayleigh(np.diag([1.0, 2.0])), 2, CFG)
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert abs(est.witness[0]) == pytest.approx(1.0, abs=1e-4)

    def test_nan_objective_raises(self):
        with pytest.raises(ObjectiveError):
            minimize_over_sphere(form_objective([np.eye(2)], "hermitian", constant(np.nan)), 2, CFG)

    def test_witness_reproducible(self):
        objective = rayleigh(np.diag([1.0, 5.0, 2.0]))
        est = minimize_over_sphere(objective, 3, CFG)
        assert objective(est.witness[None])[0] == pytest.approx(est.value, abs=1e-12)


class TestMinimizePair:
    def test_constant(self):
        est = minimize_over_sphere_pair(form_objective([np.eye(2)], "pair", constant(1.5)), 2, CFG)
        assert est.value == pytest.approx(1.5, abs=1e-12)
        assert est.witness2 is not None

    def test_identity_tuple_vanishes_on_diagonal(self):
        # 0.1 (1 - |<x, y>|^2), of the identity's pair form, is zero when y
        # is a phase of x; the search must find such a pair
        def g(c):
            return 0.1 * (1.0 - np.abs(c[:, 0]) ** 2), -0.1 * c.conj()

        est = minimize_over_sphere_pair(form_objective([np.eye(2)], "pair", g, curvature=-0.2), 2, CFG)
        assert est.value == pytest.approx(0.0, abs=1e-6)
        assert abs(np.vdot(est.witness, est.witness2)) == pytest.approx(1.0, abs=1e-6)


class TestSphereOptConfig:
    @pytest.mark.parametrize("field, value", [
        ("restarts", 0),
        ("max_iters", 0),
        ("step_tol", -1e-9),
        ("step_tol", math.inf),
        ("step_tol", math.nan),
    ])
    def test_bad_value_is_domain_error(self, field, value):
        with pytest.raises(DomainError, match=field):
            SphereOptConfig(**{field: value})

    def test_defaults_and_edges_are_valid(self):
        SphereOptConfig()
        SuiteConfig()
        SphereOptConfig(step_tol=0.0)


class TestSearchLoopEdges:
    def test_zero_block_becomes_e1(self):
        u = np.zeros((2, 4))
        assert radius._normalize_blocks(u, [(0, 4)]) is u
        assert np.array_equal(u, [[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        pair = np.zeros((3, 8))
        pair[1, 5] = -2.0
        pair[2, 2] = 3.0
        radius._normalize_blocks(pair, [(0, 4), (4, 8)])
        assert np.array_equal(pair, [
            [1.0, 0, 0, 0, 1.0, 0, 0, 0],
            [1.0, 0, 0, 0, 0, -1.0, 0, 0],
            [0, 0, 1.0, 0, 1.0, 0, 0, 0],
        ])

    def test_norm_matches_linalg_norm_bits(self):
        rng = np.random.default_rng(44)
        for width in (2, 4, 12, 32, 128):
            u = rng.standard_normal((50, 2 * width))
            ref = u.copy()
            for s, e in ((0, width), (width, 2 * width)):
                ref[:, s:e] /= np.linalg.norm(ref[:, s:e], axis=1, keepdims=True)
            radius._normalize_blocks(u, [(0, width), (width, 2 * width)])
            assert u.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("pair", [False, True])
    def test_nan_in_one_row_raises(self, pair):
        def g(forms):
            return np.where(np.arange(len(forms)) == 1, np.nan, 0.0), np.zeros_like(forms)

        search = minimize_over_sphere_pair if pair else minimize_over_sphere
        with pytest.raises(ObjectiveError):
            search(form_objective([np.eye(2)], "pair" if pair else "hermitian", g), 2, CFG)

    def test_opposite_infinities_do_not_raise(self):
        # their sum is NaN, so the exact scan decides: there is no NaN
        def g(forms):
            return np.where(np.arange(len(forms)) % 2 == 0, np.inf, -np.inf), np.zeros_like(forms)

        cfg = SphereOptConfig(restarts=4, max_iters=3, seed=1)
        with np.errstate(invalid="ignore"):
            est = minimize_over_sphere(form_objective([np.eye(2)], "hermitian", g), 2, cfg)
        assert math.isinf(est.value)


class TestNewtonSteps:
    @pytest.mark.parametrize("pair", [False, True])
    def test_steps_climb_within_the_trust_radius(self, pair):
        rng = np.random.default_rng(45)
        blocks = [(0, 6)] + ([(6, 12)] if pair else [])
        rows, n = 50, blocks[-1][1]
        u = radius._normalize_blocks(rng.standard_normal((rows, n)), blocks)
        h = rng.standard_normal((rows, n, n))
        h += h.transpose(0, 2, 1)
        grad = rng.standard_normal((rows, n))
        g = radius._project_tangent(grad.copy(), u, blocks)
        gnorm = np.linalg.norm(g, axis=1)
        trust = rng.uniform(0.01, 1.0, rows)
        step, gain = radius._newton_steps(h, grad, g, gnorm, u, blocks, trust)
        assert (np.linalg.norm(step, axis=1) <= trust * (1.0 + 1e-12)).all()
        assert (np.einsum("ij,ij->i", step, g) > 0.0).all() and (gain > 0.0).all()
        for s, e in blocks:
            assert np.abs(np.einsum("ij,ij->i", step[:, s:e], u[:, s:e])).max() <= 1e-9

    def test_exact_step_at_a_concave_model(self):
        # on S^1 with f = <H u, u> / 2 near its maximum, the step solves the Newton equation
        u = np.array([[1.0, 0.0]])
        h = np.array([[[2.0, 0.3], [0.3, -1.0]]])
        grad = (h @ u[:, :, None])[:, :, 0]
        g = radius._project_tangent(grad.copy(), u, [(0, 2)])
        step, gain = radius._newton_steps(h, grad, g, np.linalg.norm(g, axis=1), u, [(0, 2)], np.ones(1))
        # Riemannian Hessian on the tangent e_2: -1 - 2 = -3, gradient 0.3
        assert step[0] == pytest.approx([0.0, 0.1], abs=1e-15)
        assert gain[0] == pytest.approx(0.5 * 0.3 * 0.1, rel=1e-14)

    @pytest.mark.parametrize("kind, dim", [("hermitian", 12), ("hermitian", 13), ("pair", 6), ("pair", 7)])
    def test_newton_path_up_to_24_real_coordinates(self, monkeypatch, kind, dim):
        calls = []
        real = radius._FormObjective.value_grad_hess

        def counting(self, u):
            calls.append(u.shape[1])
            return real(self, u)

        monkeypatch.setattr(radius._FormObjective, "value_grad_hess", counting)
        m = np.diag(np.arange(1.0, dim + 1.0))
        cfg = SphereOptConfig(restarts=2, max_iters=5, seed=3)
        if kind == "pair":
            minimize_over_sphere_pair(form_objective([m], "pair", constant(0.0)), dim, cfg)
        else:
            minimize_over_sphere(rayleigh(m), dim, cfg)
        newton = (2 if kind == "hermitian" else 4) * dim <= radius._NEWTON_MAX_DIM == 24
        assert bool(calls) == newton

    @pytest.mark.parametrize("dim", [2, 6, 12])
    def test_rayleigh_converges_in_few_newton_iterations(self, monkeypatch, dim):
        calls = []
        real = radius._FormObjective.value_grad_hess
        monkeypatch.setattr(radius._FormObjective, "value_grad_hess",
                            lambda self, u: calls.append(1) or real(self, u))
        rng = np.random.default_rng(dim)
        q = np.linalg.qr(random_complex(rng, dim))[0]
        lam = np.linspace(1.0, 2.0, dim)
        est = minimize_over_sphere(rayleigh(q @ np.diag(lam) @ q.conj().T), dim, SphereOptConfig(restarts=4, seed=1))
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-14)
        # quadratic convergence: a handful of batched evaluations
        assert len(calls) <= 12


# Pinned outputs of the sphere search: (value.hex(), converged, sha256 of
# the witness bytes, sha256 of the witness2 bytes).
# Any change to the rows that reach an objective, or to the arithmetic that
# produces a kept value, shows up here.  The digests assume IEEE doubles and
# the BLAS the suite runs with.  Up to 24 real coordinates (dims 2 and 6,
# and pairs at d = 2 and 6) the search takes Newton steps; at d = 16 it
# takes first-order steps.
SEARCH_PINS = {
    ("wp1", 2): (
        "0x1.4a7e12e13a5c8p+2", True,
        "105953ddc5cf74ef1f9f2032fa048bcc485c068504eab9f280af332f76f7afad",
        None,
    ),
    ("wp2", 2): (
        "0x1.df5bfbe9895d3p+1", True,
        "83ca149bc66f131c5c8a6bce647a7e74d5ef68d95ebb98f3180fd3b6374ee11f",
        None,
    ),
    ("wp1", 6): (
        "0x1.a6b4eee82450ap+2", True,
        "329b8d413f11bfe185119129273bf7f2f0534383d5f497b62a011f62e309a029",
        None,
    ),
    ("wp2", 6): (
        "0x1.3b9fe25b95059p+2", True,
        "b46d1379d90ffbd8d4cabbdc2709da8afc746736c2f456cf9e7ac8faf5a5103d",
        None,
    ),
    ("wp1", 16): (
        "0x1.9bc0a7c17413bp+3", False,
        "fe58609193abe305cacb7cd798605d948a722ef16d8560be8b1f9039adb6ee27",
        None,
    ),
    ("wp2", 16): (
        "0x1.2336aa4aa4f4dp+3", True,
        "364cb3c5a8dfe22f5ed271564d5e5598ab63cd2ce3a1205e36680c7a480ad810",
        None,
    ),
    ("bracket", 2): (
        "0x1.0c10d79dca20dp-3", True,
        "02cdcab1edbb89d21636ad596f535c8cb14d5540dbb1b21480f5d3dd6ef92c3a",
        None,
    ),
    ("pair_bracket", 2): (
        "0x1.afe276b24b258p-5", False,
        "5af3bdc1c783d73f0dc369cac7498a35ea76fa95dba756b9cbff603c109f02e6",
        "92ab946ea9302b51af4eaec76454961ccf3a51576d7ac81397bca5d829247a06",
    ),
    ("bracket", 6): (
        "0x1.4c5f387152a23p-3", True,
        "26c61dbe9105901b26a5828bc18fa2a7e5295ec088651bbcff820e0d529f8824",
        None,
    ),
    ("pair_bracket", 6): (
        "0x1.42798cfbdd2c6p-4", False,
        "9cf20a4307da63565893f79a7dc9b3f388d0603ab177c2a631b6a5a1883bed37",
        "4a30d52ceed089f1e39c03b8e30a0701268efd0c290299cacca610d029f3ad20",
    ),
    ("bracket", 16): (
        "0x1.5815e99e6c354p-3", True,
        "faa1fc5aeb006ac5157c8222b31b63c2f52c8a07b6c142a7a0821ac5c82a631a",
        None,
    ),
    ("pair_bracket", 16): (
        "0x1.5470f8f6fdd71p-1", False,
        "dd8f9772225d8ab0a8d618858ad43406c8702d9d4b621209f757434fee6338a3",
        "d4a2c414bb119d205ed50b0f7d4ed786595de95167a311ac0a4b661a5a6ae5bf",
    ),
}

# value.hex() of each pinned search as the first-order search gave it
# before the search took Newton steps.  A new search may do better, never
# worse by more than rounding: a lower wp value (a supremum) or a higher
# infimum counts as worse.
PARENT_PIN_VALUES = {
    ("wp1", 2): "0x1.4a7e12e13a5c7p+2",
    ("wp2", 2): "0x1.df5bfbe9895d1p+1",
    ("wp1", 6): "0x1.a6b4eee824502p+2",
    ("wp2", 6): "0x1.3b9fe25b95059p+2",
    ("wp1", 16): "0x1.9bc0a7c17413bp+3",
    ("wp2", 16): "0x1.2336aa4aa4f4dp+3",
    ("bracket", 2): "0x1.0c10d79dca21ap-3",
    ("pair_bracket", 2): "0x1.ce96f5fdc27b4p-5",
    ("bracket", 6): "0x1.4c5f387152a21p-3",
    ("pair_bracket", 6): "0x1.36a80ca4d108fp-3",
    ("bracket", 16): "0x1.5815e99e6c354p-3",
    ("pair_bracket", 16): "0x1.5470f8f6fdd71p-1",
}


def _pinned_problem(name, d, restarts=6, max_iters=60, seed=None, extra_forms=True):
    """The objective of a pinned search, its search function and its config."""
    rng = np.random.default_rng(500 + d)
    t1, t2 = (random_complex(rng, d) for _ in range(2))
    cfg = SphereOptConfig(restarts=restarts, max_iters=max_iters, seed=d if seed is None else seed)
    if name in ("wp1", "wp2"):
        p = float(name[2])
        # the objective wp_radius builds, for checking its witness
        lp = radius._FormObjective(np.stack([t1, t2]), "complex", radius._lp_of_forms(p))
        return lp, lambda: wp_radius([t1, t2], p, cfg)
    a, b = abs_pair(t1)[0], abs_pair(t2)[1]
    if name == "bracket":
        # <B x, x> >= 1 + ||A|| > <A x, x>, so the bracket never vanishes
        shifted = PsdMatrix.from_matrix(b.mat + (1.0 + a.norm()) * np.eye(d))
        objective = bounds._bracket_objective([a, shifted], [0], [1], 0.3, 3)
        return objective, lambda: minimize_over_sphere(objective, d, cfg)
    # 2d - 1 generic forms <A_i x, y> have no common zero on a pair of
    # spheres, and the b side is twice the a side, so the minimum is positive
    ats = [a, b] + ([abs_pair(random_complex(rng, d))[0] for _ in range(2 * d - 3)] if extra_forms else [])
    doubled = [PsdMatrix.from_matrix(2.0 * m.mat) for m in ats]
    objective = bounds._pair_objective(ats, doubled, 1.0, 1.0, 0.7, 2)
    return objective, lambda: minimize_over_sphere_pair(objective, d, cfg)


def _pinned_search(name, d):
    return _pinned_problem(name, d)[1]()


@pytest.mark.parametrize("name, d", list(SEARCH_PINS))
def test_sphere_search_is_pinned(name, d):
    est = _pinned_search(name, d)

    def digest(v):
        return None if v is None else hashlib.sha256(v.tobytes()).hexdigest()

    got = (est.value.hex(), est.converged, digest(est.witness), digest(est.witness2))
    assert got == SEARCH_PINS[name, d]


@pytest.mark.parametrize("name, d", list(PARENT_PIN_VALUES))
def test_pins_agree_with_the_parent_search(name, d):
    new = float.fromhex(SEARCH_PINS[name, d][0])
    old = float.fromhex(PARENT_PIN_VALUES[name, d])
    worse = old - new if name.startswith("wp") else new - old
    assert worse <= 1e-12 * max(1.0, abs(old))


def riemannian_gradient_norm(objective, est):
    """||(I - x x^T) grad f|| at the witness, over both spheres for a pair, in real coordinates."""
    zs = [est.witness[None]] + ([] if est.witness2 is None else [est.witness2[None]])
    _, dz = objective.value_grad(*zs)
    total = 0.0
    for z, dfz in zip(zs, dz):
        grad = 2.0 * dfz[0]  # (Re, Im) of the real gradient, as one complex vector
        grad = grad - np.vdot(z[0], grad).real * z[0]
        total += np.vdot(grad, grad).real
    return math.sqrt(total)


# the pair search that stopped at 0.0188 with converged=True before the
# search took Newton steps; its infimum is about 5e-18, at a kink of |c|
KINK_CASE = ("pair_bracket", 2, {"restarts": 4, "max_iters": 40, "seed": 1, "extra_forms": False})


@pytest.mark.parametrize("name, d, kwargs", [(*key, {}) for key in SEARCH_PINS] + [KINK_CASE])
def test_converged_means_stationary(name, d, kwargs):
    objective, search = _pinned_problem(name, d, **kwargs)
    est = search()
    norm = riemannian_gradient_norm(objective, est)
    tol = radius._GRAD_TOL * max(1.0, abs(est.value))
    if est.converged:
        assert norm <= tol
    if kwargs:
        assert not est.converged and est.value < 1e-3


def test_rng_streams_are_stable():
    a = rng_from(7, 1).standard_normal(4)
    b = rng_from(7, 1).standard_normal(4)
    c = rng_from(7, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_unit_vectors_are_unit():
    xs = random_unit_vectors(rng_from(0, 1), 5, 100)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
