"""Radius estimation and sphere optimization."""

import math
import tracemalloc

import numpy as np
import pytest

from numrad import radius
from numrad.errors import DimensionMismatch, DomainError, EigenFailure, ObjectiveError
from numrad.harness import GENERAL_KINDS, EnsembleSpec, gen_matrix
from numrad.linalg import op_norm
from numrad.radius import (
    LOWER_OF_SUP,
    UPPER_OF_INF,
    OperatorTuple,
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
        ("eigvalsh", False),  # the golden-section objective
        ("eigh", False),  # the witness at the polished phase
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
        with pytest.raises(DomainError):
            wp_radius([np.eye(2)], 0.5, CFG)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            OperatorTuple.of([np.eye(2), np.eye(3)])

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
        est = minimize_over_sphere(lambda x: 3.25, 3, CFG)
        assert est.value == pytest.approx(3.25, abs=1e-12)
        assert est.bound_side == UPPER_OF_INF

    def test_rayleigh_minimum(self):
        m = np.diag([1.0, 2.0])
        est = minimize_over_sphere(
            None, 2, CFG,
            objective_batch=lambda xs: np.einsum("mi,ij,mj->m", xs.conj(), m, xs).real,
        )
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert abs(est.witness[0]) == pytest.approx(1.0, abs=1e-4)

    def test_nan_objective_raises(self):
        with pytest.raises(ObjectiveError):
            minimize_over_sphere(lambda x: float("nan"), 2, CFG)

    def test_witness_reproducible(self):
        m = np.diag([1.0, 5.0, 2.0])
        fb = lambda xs: np.einsum("mi,ij,mj->m", xs.conj(), m, xs).real
        est = minimize_over_sphere(None, 3, CFG, objective_batch=fb)
        assert fb(est.witness[None])[0] == pytest.approx(est.value, abs=1e-12)


class TestMinimizePair:
    def test_constant(self):
        est = minimize_over_sphere_pair(lambda x, y: 1.5, 2, CFG)
        assert est.value == pytest.approx(1.5, abs=1e-12)
        assert est.witness2 is not None

    def test_separable_sum(self):
        a = np.diag([1.0, 3.0])
        b = np.diag([2.0, 0.5])

        def fb(xs, ys):
            va = np.einsum("mi,ij,mj->m", xs.conj(), a, xs).real
            vb = np.einsum("mi,ij,mj->m", ys.conj(), b, ys).real
            return va + vb

        est = minimize_over_sphere_pair(None, 2, CFG, objective_batch=fb)
        assert est.value == pytest.approx(1.0 + 0.5, abs=1e-8)

    def test_identity_tuple_vanishes_on_diagonal(self):
        # the pair correction with identity operators is zero when both
        # vectors coincide; the search must find (a phase of) that point
        def fb(xs, ys):
            ip = np.abs(np.einsum("mi,mi->m", ys.conj(), xs)) ** 2
            a = 2.0 * ip
            b = 2.0 * ip
            return 0.5 * (np.sqrt(a) - np.sqrt(b)) ** 2 + (1.0 - ip) * 0.1

        est = minimize_over_sphere_pair(None, 2, CFG, objective_batch=fb)
        assert est.value == pytest.approx(0.0, abs=1e-6)


def test_rng_streams_are_stable():
    a = rng_from(7, 1).standard_normal(4)
    b = rng_from(7, 1).standard_normal(4)
    c = rng_from(7, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_unit_vectors_are_unit():
    xs = random_unit_vectors(rng_from(0, 1), 5, 100)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
