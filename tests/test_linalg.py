"""Kernel contracts: eigendecomposition, absolute values, spectral calculus."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from numrad.errors import (
    DimensionMismatch,
    DomainError,
    FunctionRangeError,
    NotPsd,
)
from numrad.linalg import (
    DIM_CAP,
    PsdMatrix,
    abs_adj,
    abs_op,
    as_complex_matrix,
    hermitian_eigen,
    op_norm,
    pair_forms_many,
    psd_power,
    quad_form,
    quad_forms_many,
    spectral_apply,
)

NIL = np.array([[0, 1], [0, 0]], dtype=complex)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestHermitianEigen:
    def test_identity(self):
        w, v = hermitian_eigen(np.eye(3))
        np.testing.assert_allclose(w, 1.0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_diagonal_sorted(self):
        w, _ = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_swap_matrix(self):
        w, _ = hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            h = random_complex(rng, d)
            h = (h + h.conj().T) / 2
            w, v = hermitian_eigen(h)
            scale = max(1.0, np.abs(h).max())
            assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-9 * scale
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eigen(NIL)


class TestAbsOp:
    def test_diagonal_modulus(self):
        a = abs_op(np.diag([-2.0, 3.0j]))
        np.testing.assert_allclose(a.mat, np.diag([2.0, 3.0]), atol=1e-13)

    def test_nilpotent(self):
        np.testing.assert_allclose(abs_op(NIL).mat, np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(abs_adj(NIL).mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_unitary_gives_identity(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(random_complex(rng, 4))
        np.testing.assert_allclose(abs_op(q).mat, np.eye(4), atol=1e-12)

    def test_zero(self):
        np.testing.assert_allclose(abs_op(np.zeros((3, 3))).mat, 0.0, atol=1e-15)

    def test_normal_operator_abs_equal(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(random_complex(rng, 3))
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = (q * lam) @ q.conj().T
        np.testing.assert_allclose(abs_op(t).mat, abs_adj(t).mat, atol=1e-12)

    def test_square_recovers_gram(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            t = random_complex(rng, d)
            a = abs_op(t)
            gram = t.conj().T @ t
            scale = max(1.0, np.abs(t).max() ** 2)
            assert np.max(np.abs(a.mat @ a.mat - gram)) <= 1e-8 * scale


class TestPsdPower:
    def test_sqrt(self):
        p = psd_power(np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(p.mat, np.diag([2.0, 3.0]), atol=1e-12)

    def test_zeroth_power_is_identity(self):
        # includes a singular operand: 0^0 = 1 eigenvalue-wise
        p = psd_power(np.diag([0.0, 3.0]), 0.0)
        np.testing.assert_allclose(p.mat, np.eye(2), atol=1e-14)

    def test_cube(self):
        p = psd_power(np.diag([2.0]), 3.0)
        np.testing.assert_allclose(p.mat, [[8.0]], atol=1e-12)

    def test_identity_power_one(self):
        rng = np.random.default_rng(4)
        g = random_complex(rng, 4)
        m = g.conj().T @ g
        p = psd_power(m, 1.0)
        assert np.max(np.abs(p.mat - m)) <= 1e-10 * max(1.0, np.abs(m).max())

    def test_power_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            g = random_complex(rng, d)
            base = PsdMatrix.from_matrix(g.conj().T @ g)
            s, t = float(rng.uniform(0, 4)), float(rng.uniform(0, 4))
            combined = base.power(s).power(t).mat
            direct = base.power(s * t).mat
            scale = max(1.0, np.abs(direct).max())
            assert np.max(np.abs(combined - direct)) <= 1e-8 * scale

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            psd_power(np.eye(2), -0.5)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsd):
            PsdMatrix.from_matrix(np.diag([1.0, -0.5]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotPsd):
            PsdMatrix.from_matrix(NIL)

    def test_roundoff_negative_clamped(self):
        m = np.diag([1.0, -1e-12])
        p = PsdMatrix.from_matrix(m)
        assert p.eigvals.min() == 0.0


class TestSpectralApply:
    def test_identity_function(self):
        rng = np.random.default_rng(6)
        g = random_complex(rng, 3)
        m = g.conj().T @ g
        out = spectral_apply(m, lambda t: t)
        assert np.max(np.abs(out.mat - m)) <= 1e-10 * max(1.0, np.abs(m).max())

    def test_sqrt(self):
        out = spectral_apply(np.diag([4.0]), lambda t: t**0.5)
        np.testing.assert_allclose(out.mat, [[2.0]], atol=1e-13)

    def test_agrees_with_psd_power(self):
        rng = np.random.default_rng(7)
        g = random_complex(rng, 4)
        base = PsdMatrix.from_matrix(g.conj().T @ g)
        for s in (0.3, 1.7):
            a = base.apply(lambda t, s=s: t**s).mat
            b = base.power(s).mat
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.abs(b).max())

    def test_power_pair_product_on_diagonal(self):
        # commuting case: t^alpha times t^(1-alpha) recovers the operand
        d = np.diag([0.5, 2.0, 7.0])
        alpha = 0.3
        left = spectral_apply(d, lambda t: t**alpha).mat
        right = spectral_apply(d, lambda t: t ** (1 - alpha)).mat
        np.testing.assert_allclose(left @ right, d, atol=1e-12)

    def test_negative_range_rejected(self):
        with pytest.raises(FunctionRangeError):
            spectral_apply(np.diag([1.0, 2.0]), lambda t: t - 1.5)

    def test_nan_range_rejected(self):
        with pytest.raises(FunctionRangeError):
            spectral_apply(np.diag([1.0]), lambda t: float("nan"))


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert op_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-14)

    def test_nilpotent(self):
        assert op_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0, abs=1e-14)

    def test_matches_abs_top_eigenvalue(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            d = int(rng.integers(2, 8))
            t = random_complex(rng, d)
            assert op_norm(t) == pytest.approx(abs_op(t).norm(), abs=1e-9 * max(1.0, op_norm(t)))

    def test_adjoint_and_scaling(self):
        rng = np.random.default_rng(9)
        t = random_complex(rng, 5)
        assert op_norm(t) == pytest.approx(op_norm(t.conj().T), rel=1e-9)
        c = 2.5 - 1.5j
        assert op_norm(c * t) == pytest.approx(abs(c) * op_norm(t), rel=1e-12)


class TestQuadForm:
    def test_identity(self):
        x = np.array([0.6, 0.8j])
        assert quad_form(np.eye(2), x) == pytest.approx(1.0, abs=1e-14)

    def test_projector(self):
        assert quad_form(np.diag([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_nilpotent_half(self):
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        assert quad_form(NIL, x) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quad_form(np.eye(2), np.array([1.0, 0.0, 0.0]))

    def test_hermitian_real_and_psd_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(2, 8))
            g = random_complex(rng, d)
            h = (g + g.conj().T) / 2
            x = g[:, 0] / np.linalg.norm(g[:, 0])
            assert abs(quad_form(h, x).imag) <= 1e-12 * max(1.0, abs(quad_form(h, x)))
            p = g.conj().T @ g
            assert quad_form(p, x).real >= -1e-10 * max(1.0, np.abs(p).max())


def _layout(arr, how):
    """The values of ``arr`` in C order, in Fortran order, or as a column
    slice of a wider, NaN-padded array (rows not contiguous)."""
    if how == "fortran":
        return np.asfortranarray(arr)
    if how == "slice":
        m, d = arr.shape
        wide = np.full((m, d + 3), np.nan + 0j)
        wide[:, 2 : 2 + d] = arr
        return wide[:, 2 : 2 + d]
    return arr


@st.composite
def form_batches(draw):
    """(a, xs, ys): a d x d complex matrix and two m x d batches of rows."""
    d = draw(st.one_of(st.sampled_from([1, 64]), st.integers(1, 64)))
    m = draw(st.one_of(st.sampled_from([0, 1, 300]), st.integers(2, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layouts = st.sampled_from(["c", "fortran", "slice"])
    a = _layout(random_complex(rng, d), draw(layouts))
    xs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    ys = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    return a, _layout(xs, draw(layouts)), _layout(ys, draw(layouts))


def _loop_pair_forms(a, xs, ys):
    """Reference: <Ax_k, y_k> = y_k* A x_k, one row at a time."""
    return np.array([np.vdot(y, a @ x) for x, y in zip(xs, ys)], dtype=complex)


def _form_tol(a, xs, ys):
    return 1e-12 * np.linalg.norm(a) * np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1)


class TestBatchedForms:
    @given(form_batches())
    def test_pair_forms_match_loop(self, batch):
        a, xs, ys = batch
        got = pair_forms_many(a, xs, ys)
        assert got.shape == (xs.shape[0],)
        assert np.all(np.abs(got - _loop_pair_forms(a, xs, ys)) <= _form_tol(a, xs, ys))

    @given(form_batches())
    def test_quad_forms_match_loop(self, batch):
        a, xs, _ = batch
        got = quad_forms_many(a, xs)
        assert got.shape == (xs.shape[0],)
        assert np.all(np.abs(got - _loop_pair_forms(a, xs, xs)) <= _form_tol(a, xs, xs))

    @given(form_batches())
    def test_psd_quad_many_matches_loop(self, batch):
        g, xs, _ = batch
        p = PsdMatrix.from_matrix(g.conj().T @ g)
        got = p.quad_many(xs)
        want = np.maximum(_loop_pair_forms(p.mat, xs, xs).real, 0.0)
        assert got.shape == (xs.shape[0],)
        assert got.dtype == np.float64 and np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= _form_tol(p.mat, xs, xs))

    def test_quad_many_clamps_negative_at_zero(self):
        # not PSD: built directly, so the form is negative on e_2
        p = PsdMatrix(np.diag([2.0, -1.0]).astype(complex), np.array([-1.0, 2.0]), np.eye(2))
        got = p.quad_many(np.eye(2, dtype=complex))
        np.testing.assert_array_equal(got, [2.0, 0.0])


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            as_complex_matrix(np.array([[np.inf, 0], [0, 0]]))
        with pytest.raises(DomainError):
            as_complex_matrix(np.array([[np.nan + 0j, 0], [0, 0]]))

    def test_dim_cap(self):
        assert DIM_CAP == 64
        assert as_complex_matrix(np.eye(64)).shape == (64, 64)
        assert PsdMatrix.from_matrix(np.eye(64)).dim == 64
        with pytest.raises(DomainError, match="dimension 65 exceeds cap 64"):
            as_complex_matrix(np.eye(65))
        with pytest.raises(DomainError, match="dimension 65 exceeds cap 64"):
            PsdMatrix.from_matrix(np.eye(65))
