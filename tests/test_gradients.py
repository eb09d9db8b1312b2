"""Exact gradients and Hessians of the sphere search's form objectives.

Each objective family the bound rules hand the search is checked against
central differences of its own values at random points, and against the
values-only reference where one exists; its Hessian against central
differences of its exact gradient.  A vanishing form must give a zero
derivative, never NaN or inf.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from numrad import bounds
from numrad.linalg import PsdMatrix, abs_pair
from numrad.radius import SphereOptConfig, _FormObjective, _lp_of_forms, tuple_lp_values, wp_radius
from numrad.refine import weighted_bracket_sum

NIL = np.array([[0, 1], [0, 0]], dtype=complex)
MODES = ["young", "half", "printed_heinz"]
dims = st.integers(1, 16)
seeds = st.integers(0, 2**32 - 1)


def random_complex(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)


def random_psd(rng, d):
    g = random_complex(rng, d)
    return PsdMatrix.from_matrix(g @ g.conj().T)


def random_points(rng, d, count):
    zs = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return zs / np.linalg.norm(zs, axis=1, keepdims=True)


def real_gradient(obj, zs):
    """The analytic gradient in (Re z, Im z) coordinates: 2 (Re, Im) of d f / d conj(z)."""
    vals, dz = obj.value_grad(*[z[None] for z in zs])
    return vals[0], 2.0 * np.concatenate([part for z in dz for part in (z[0].real, z[0].imag)])


def central_differences(obj, zs, h=1e-6):
    d = zs[0].size
    u = np.concatenate([part for z in zs for part in (z.real, z.imag)])
    rows = np.concatenate([u + h * np.eye(u.size), u - h * np.eye(u.size)])
    blocks = [rows[:, 2 * d * i : 2 * d * (i + 1)] for i in range(len(zs))]
    vals = obj(*[b[:, :d] + 1j * b[:, d:] for b in blocks])
    return (vals[: u.size] - vals[u.size :]) / (2.0 * h)


def assert_gradient_matches(obj, zs):
    value, grad = real_gradient(obj, zs)
    fd = central_differences(obj, zs)
    assert np.isfinite(grad).all()
    assert value == pytest.approx(obj(*[z[None] for z in zs])[0], rel=1e-12, abs=1e-14)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))
    assert_hessian_matches(obj, zs)


def assert_hessian_matches(obj, zs, h=1e-6):
    """value_grad_hess against value_grad, and its Hessian against differences of the exact gradient."""
    u = np.concatenate([part for z in zs for part in (z.real, z.imag)])
    d = zs[0].size
    value, grad, hess = obj.value_grad_hess(u[None])
    ref_value, ref_grad = real_gradient(obj, zs)
    assert value[0] == pytest.approx(ref_value, rel=1e-12, abs=1e-14)
    assert np.max(np.abs(grad[0] - ref_grad)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref_grad))))

    def grad_at(v):
        parts = [v[2 * d * i : 2 * d * (i + 1)] for i in range(len(zs))]
        return real_gradient(obj, [p[:d] + 1j * p[d:] for p in parts])[1]

    fd = np.array([(grad_at(u + h * e) - grad_at(u - h * e)) / (2.0 * h) for e in np.eye(u.size)])
    assert np.isfinite(hess).all()
    assert np.max(np.abs(hess[0] - hess[0].T)) <= 1e-12 * max(1.0, float(np.max(np.abs(hess[0]))))
    assert np.max(np.abs(hess[0] - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


@given(d=dims, seed=seeds, p=st.sampled_from([1.0, 2.0, 4.0]), n=st.integers(1, 3))
def test_lp_gradient_and_values(d, seed, p, n):
    rng = np.random.default_rng(seed)
    ops = [random_complex(rng, d) for _ in range(n)]
    lp = _FormObjective(np.stack(ops), "complex", _lp_of_forms(p))
    assert_gradient_matches(lp, [random_points(rng, d, 1)[0]])
    xs = random_points(rng, d, 20)
    np.testing.assert_allclose(lp(xs), tuple_lp_values(ops, p, xs), rtol=1e-12, atol=1e-14)


@given(
    d=dims,
    seed=seeds,
    mode=st.sampled_from(MODES),
    nu=st.sampled_from([0.25, 0.3, 0.5, 0.75, 1.0 / 3.0]),
    levels=st.integers(1, 4),
    n=st.integers(1, 3),
)
def test_bracket_objective_gradient(d, seed, mode, nu, levels, n):
    rng = np.random.default_rng(seed)
    psds = [random_psd(rng, d) for _ in range(2 * n)]
    x = random_points(rng, d, 1)[0]
    summed = bounds._bracket_objective(psds, range(n), range(n, 2 * n), nu, levels, mode=mode)
    assert_gradient_matches(summed, [x])
    # the thm2.5 shape: one form used as a and as b
    swapped = bounds._bracket_objective(psds[:2], [0, 1], [1, 0], nu, levels, mode=mode)
    assert_gradient_matches(swapped, [x])
    forms = [m.quad_many(x[None]) for m in psds]
    ref = sum(weighted_bracket_sum(forms[i], forms[n + i], nu, levels, mode) for i in range(n))
    assert summed(x[None]) == pytest.approx(ref, rel=1e-12, abs=1e-14)


@given(d=dims, seed=seeds, pq=st.sampled_from([(2.0, 2.0), (4.0, 4.0), (3.0, 1.5)]),
       levels=st.integers(1, 4), n=st.integers(1, 3))
def test_pair_objective_gradient(d, seed, pq, levels, n):
    p, q = pq
    r = 1.0 / (1.0 / p + 1.0 / q)
    rng = np.random.default_rng(seed)
    tup = [random_complex(rng, d) for _ in range(n)]
    ats, aas = zip(*[abs_pair(t) for t in tup])
    lam = bounds._pair_objective(ats, aas, p, q, r / p, levels)
    x, y = random_points(rng, d, 2)
    assert_gradient_matches(lam, [x, y])
    # reference: the moduli of <|T_i| x, y> and <|T_i*| x, y>, one operator at a time
    a = sum(abs(np.vdot(y, at.mat @ x)) ** p for at in ats)
    b = sum(abs(np.vdot(y, aa.mat @ x)) ** q for aa in aas)
    ref = float(weighted_bracket_sum(a, b, r / p, levels))
    assert lam(x[None], y[None])[0] == pytest.approx(ref, rel=1e-12, abs=1e-14)


@given(seed=seeds, nu=st.sampled_from([0.25, 0.3, 0.5, 0.75, 1.0]), levels=st.integers(1, 5),
       mode=st.sampled_from(MODES))
def test_bracket_hessian(seed, nu, levels, mode):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.05, 5.0, (2, 8))
    h = 1e-6 * np.maximum(a, b)

    def grad(a, b):
        da, db = np.empty_like(a), np.empty_like(b)
        weighted_bracket_sum(a, b, nu, levels, mode, grad=(da, db))
        return da, db

    hess = tuple(np.empty_like(a) for _ in range(3))
    weighted_bracket_sum(a, b, nu, levels, mode, hess=hess)
    by_a = [(p - m) / (2.0 * h) for p, m in zip(grad(a + h, b), grad(a - h, b))]
    by_b = [(p - m) / (2.0 * h) for p, m in zip(grad(a, b + h), grad(a, b - h))]
    for got, fd in ((hess[0], by_a[0]), (hess[1], by_a[1]), (hess[1], by_b[0]), (hess[2], by_b[1])):
        assert np.max(np.abs(got - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


@given(
    a=st.lists(st.floats(-1.0, 50.0), min_size=1, max_size=30),
    seed=seeds,
    nu=st.floats(0.0, 1.0),
    levels=st.integers(1, 8),
    mode=st.sampled_from(MODES),
)
def test_bracket_grad_leaves_values_bit_identical(a, seed, nu, levels, mode):
    a = np.array(a)
    a[::3] = 0.0
    b = np.random.default_rng(seed).uniform(-1.0, 50.0, a.size)
    b[1::4] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        plain = weighted_bracket_sum(a, b, nu, levels, mode)
        da, db = np.empty_like(a), np.empty_like(a)
        with_grad = weighted_bracket_sum(a, b, nu, levels, mode, grad=(da, db))
    assert with_grad.tobytes() == plain.tobytes()
    # clamped and vanishing arguments have a zero derivative
    assert (da[a <= 0.0] == 0.0).all() and (db[b <= 0.0] == 0.0).all()


# below nu = 1 every kept b exponent is >= 0, so b = 0 is in the domain
@given(
    a=st.lists(st.floats(-1.0, 50.0), min_size=1, max_size=30),
    seed=seeds,
    nu=st.floats(0.0, 0.99),
    levels=st.integers(1, 8),
    mode=st.sampled_from(MODES),
)
def test_bracket_hess_leaves_values_and_gradients_bit_identical(a, seed, nu, levels, mode):
    a = np.array(a)
    a[::3] = 0.0
    b = np.random.default_rng(seed).uniform(-1.0, 50.0, a.size)
    b[1::4] = 0.0
    da, db = np.empty_like(a), np.empty_like(a)
    with_grad = weighted_bracket_sum(a, b, nu, levels, mode, grad=(da, db))
    hess = tuple(np.empty_like(a) for _ in range(3))
    da2, db2 = np.empty_like(a), np.empty_like(a)
    with_hess = weighted_bracket_sum(a, b, nu, levels, mode, grad=(da2, db2), hess=hess)
    assert with_grad.tobytes() == with_hess.tobytes()
    assert da.tobytes() == da2.tobytes() and db.tobytes() == db2.tobytes()
    assert all(np.isfinite(h).all() for h in hess)
    # a second derivative by a clamped or vanishing argument is 0
    assert (hess[0][a <= 0.0] == 0.0).all() and (hess[2][b <= 0.0] == 0.0).all()
    assert (hess[1][(a <= 0.0) | (b <= 0.0)] == 0.0).all()


class TestVanishingForms:
    def test_kernel_vector_of_abs_nilpotent(self):
        # |NIL| = diag(0, 1) and |NIL*| = diag(1, 0): at e_1 the first form is 0
        at, aa = abs_pair(NIL)
        e1 = np.array([1.0, 0.0], dtype=complex)
        for mode in MODES:
            obj = bounds._bracket_objective([at, aa], [0], [1], 0.25, 3, mode=mode)
            value, grad = real_gradient(obj, [e1])
            assert np.isfinite(value) and np.isfinite(grad).all()
        lam = bounds._pair_objective([at], [aa], 3.0, 1.5, 1.0 / 3.0, 2)
        value, grad = real_gradient(lam, [e1, e1])
        assert np.isfinite(value) and np.isfinite(grad).all()
        u = np.concatenate([e1.real, e1.imag])
        for obj, point in ((obj, u), (lam, np.concatenate([u, u]))):
            assert all(np.isfinite(part).all() for part in obj.value_grad_hess(point[None]))

    @pytest.mark.parametrize("ops", [[NIL], [NIL, np.eye(2)], [np.zeros((2, 2))]])
    def test_p_one_at_a_zero_form(self, ops):
        lp = _FormObjective(np.stack(ops).astype(complex), "complex", _lp_of_forms(1.0))
        value, grad = real_gradient(lp, [np.array([1.0, 0.0], dtype=complex)])
        assert np.isfinite(value) and np.isfinite(grad).all()
        assert all(np.isfinite(part).all() for part in lp.value_grad_hess(np.array([[1.0, 0, 0, 0]])))
        est = wp_radius(ops, 1.0, SphereOptConfig(restarts=4, max_iters=30, seed=3))
        assert np.isfinite(est.value)
