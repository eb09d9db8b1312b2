"""Bound rules: functionals, reports, verdicts, baselines, proof chains."""

import math
import re
import warnings

import numpy as np
import pytest

from numrad.bounds import (
    BASELINE_IDS,
    CERTIFIED_VIOLATION,
    CONSISTENT,
    INCONCLUSIVE,
    VERIFIED_POINTWISE,
    _verdict,
    baseline_rhs,
    bound_cor27,
    bound_cor28,
    bound_cor210,
    bound_cor215,
    bound_cor218,
    bound_cor219,
    bound_thm23,
    bound_thm25_heinz,
    bound_thm26,
    bound_thm211,
    bound_thm213,
    bound_thm216,
    _bracket_objective,
    _pair_objective,
    cartesian_check,
)
from numrad.errors import DomainError, NotPsd
from numrad.linalg import PsdMatrix, abs_pair, op_norm
from numrad.radius import SphereOptConfig, numerical_radius, random_unit_vectors, rng_from

NIL = np.array([[0, 1], [0, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
CFG = SphereOptConfig(restarts=8, max_iters=120, seed=77)


def sphere_2d(n_t=241, n_phi=241):
    """Dense sample of the complex unit sphere in dimension 2."""
    t = np.linspace(0.0, np.pi / 2, n_t)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    xs = np.stack(
        [np.cos(tt).ravel().astype(complex), (np.exp(1j * pp) * np.sin(tt)).ravel()],
        axis=1,
    )
    return xs


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def powers(r, *mats):
    """The PSD operands raised to the power r."""
    return [PsdMatrix.from_matrix(m).power(r) for m in mats]


def value_at(objective, *vectors):
    """A form objective's value at one vector (or one pair of vectors)."""
    return float(objective(*(np.asarray(v, dtype=complex).reshape(1, -1) for v in vectors))[0])


def scalar_brackets(a_scalars, b_scalars, levels, mode):
    """sum_k bracket(a_k, b_k) at 0.5, with each scalar the 1x1 form it is at x = [1]."""
    psds = [PsdMatrix.from_matrix([[v]]) for v in list(a_scalars) + list(b_scalars)]
    n = len(a_scalars)
    return value_at(_bracket_objective(psds, range(n), range(n, 2 * n), 0.5, levels, mode=mode), [1.0])


class TestEtaFunctionals:
    def test_equal_operands_vanish(self):
        rng = np.random.default_rng(1)
        a = np.diag([2.0, 5.0])
        eta = _bracket_objective(powers(2, a, a), [0], [1], 0.3, 3)
        for _ in range(10):
            x = random_unit_vectors(rng, 2, 1)[0]
            assert value_at(eta, x) == pytest.approx(0.0, abs=1e-12)

    def test_level_one_closed_form(self):
        rng = np.random.default_rng(2)
        a = np.diag([4.0, 1.0])
        b = np.diag([1.0, 9.0])
        for nu in (0.2, 0.5, 0.8):
            x = random_unit_vectors(rng, 2, 1)[0]
            av = float(np.vdot(x, np.diag([16.0, 1.0]) @ x).real)
            bv = float(np.vdot(x, np.diag([1.0, 81.0]) @ x).real)
            closed = min(nu, 1 - nu) * (np.sqrt(av) - np.sqrt(bv)) ** 2
            eta = _bracket_objective(powers(2, a, b), [0], [1], nu, 1)
            assert value_at(eta, x) == pytest.approx(closed, rel=1e-10)

    def test_hand_value(self):
        # scalars 16 and 1 at every unit vector: 0.5 * (4 - 1)^2 = 4.5
        x = np.array([0.6, 0.8j])
        eta = _bracket_objective(powers(2, np.diag([4.0, 4.0]), np.diag([1.0, 1.0])), [0], [1], 0.5, 1)
        assert value_at(eta, x) == pytest.approx(4.5, abs=1e-12)

    def test_sandwich_printed_vs_proof(self):
        # the printed half-weighted sum dominates the proof form and they
        # agree at one level
        a = [3.0, 0.4]
        b = [1.0, 2.5]
        assert scalar_brackets(a, b, 1, "half") == pytest.approx(scalar_brackets(a, b, 1, "young"), abs=1e-14)
        assert scalar_brackets(a, b, 3, "half") >= scalar_brackets(a, b, 3, "young") - 1e-14
        # proof form is level-complete at the balanced weight
        assert scalar_brackets(a, b, 5, "young") == pytest.approx(scalar_brackets(a, b, 1, "young"), abs=1e-14)

    def test_heinz_printed_and_derived_differ(self):
        # the printed weights carry a negative level-2 contribution at
        # nu = 0.3 (weight -1); the derived form never does
        ab = powers(2, np.diag([9.0, 9.0]), np.diag([1.0, 1.0]))
        x = np.array([1.0, 0.0])

        def printed(levels):
            return value_at(_bracket_objective(ab, [0], [1], 0.3, levels, mode="printed_heinz"), x)

        def derived(levels):
            # the two one-sided corrections summed
            return value_at(_bracket_objective(ab, [0, 1], [1, 0], 0.3, levels), x)

        assert printed(2) < printed(1)  # the added level SUBTRACTS
        assert derived(2) >= derived(1) - 1e-12  # derived levels only add
        assert derived(2) >= 0.0
        assert printed(2) != pytest.approx(derived(2), rel=1e-6)

    def test_eta_thm213_endpoints_vanish(self):
        rng = np.random.default_rng(3)
        tup = [random_complex(rng, 3), random_complex(rng, 3)]
        x = random_unit_vectors(rng, 3, 1)[0]
        ats, aas = zip(*[abs_pair(t) for t in tup])
        psds = [at.power(2) for at in ats] + [aa.power(2) for aa in aas]
        for alpha in (0.0, 1.0):
            assert value_at(_bracket_objective(psds, [0, 1], [2, 3], alpha, 3), x) == 0.0

    def test_lambda_dominates_delta(self):
        rng = np.random.default_rng(4)
        tup = [random_complex(rng, 3), random_complex(rng, 3)]
        x = random_unit_vectors(rng, 3, 1)[0]
        y = random_unit_vectors(rng, 3, 1)[0]
        ats, aas = zip(*[abs_pair(t) for t in tup])
        # r = 1 at p = 3, q = 1.5: the bracket weight is r / p
        lam = value_at(_pair_objective(ats, aas, 3.0, 1.5, 1.0 / 3.0, 3), x, y)
        dlt = value_at(_pair_objective(ats, aas, 3.0, 1.5, 1.0 / 3.0, 1), x, y)
        assert lam >= dlt - 1e-12


class TestThm23:
    def test_identity_weights_reduce_to_classical(self):
        rep = bound_thm23(I2, I2, NIL, nu=0.5, r=2, levels=3, cfg=CFG, samples=64)
        assert rep.refinement_upper == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs_lower == pytest.approx(0.25, abs=1e-9)
        assert rep.norm_term == pytest.approx(1.0, abs=1e-12)
        assert rep.pointwise_violations == 0
        assert rep.status == VERIFIED_POINTWISE

    def test_zero_x(self):
        rep = bound_thm23(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.zeros((2, 2)),
                          nu=0.25, r=2, levels=1, cfg=CFG, samples=32)
        assert rep.lhs_lower == 0.0
        assert rep.status == VERIFIED_POINTWISE

    def test_r_domain(self):
        with pytest.raises(DomainError, match="r >= 2"):
            bound_thm23(I2, I2, NIL, nu=0.5, r=1.5, levels=1, cfg=CFG)

    def test_rejects_non_psd(self):
        with pytest.raises(NotPsd):
            bound_thm23(NIL, I2, I2, nu=0.5, r=2, levels=1, cfg=CFG)

    def test_oracle_case(self):
        # A=diag(4,1), B=diag(1,4), X = swap, nu=1/2, r=2, N=1:
        # the component oracles fix every field
        a = np.diag([4.0, 1.0])
        b = np.diag([1.0, 4.0])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rep = bound_thm23(a, b, x, nu=0.5, r=2, levels=1, cfg=CFG, samples=256)
        m = np.sqrt(a) @ x @ np.sqrt(b)
        w_oracle = numerical_radius(m, resolution=20000).value
        assert rep.lhs_lower == pytest.approx(w_oracle**2, abs=1e-8)
        mix = 0.5 * (a @ a) + 0.5 * (b @ b)
        assert rep.norm_term == pytest.approx(op_norm(x) ** 2 * np.abs(np.diag(mix)).max(), rel=1e-12)
        # dense sphere oracle for the infimum of the correction
        xs = sphere_2d()
        av = np.einsum("mi,ij,mj->m", xs.conj(), a @ a, xs).real
        bv = np.einsum("mi,ij,mj->m", xs.conj(), b @ b, xs).real
        eta = 0.5 * (np.sqrt(av) - np.sqrt(bv)) ** 2
        oracle_inf = eta.min()
        assert rep.refinement_upper <= oracle_inf + 1e-6
        assert rep.refinement_upper >= -1e-12
        assert rep.pointwise_violations == 0


class TestThm25:
    def test_identity_reduces(self):
        rep = bound_thm25_heinz(I2, I2, NIL, nu=0.3, r=2, levels=2, cfg=CFG, samples=64)
        assert rep.lhs_lower == pytest.approx(0.25, abs=1e-9)
        assert rep.norm_term == pytest.approx(1.0, abs=1e-12)
        assert rep.pointwise_violations == 0

    def test_balanced_weight_matches_product_bound(self):
        # at nu = 1/2 the mixed mean IS the balanced product; left sides and
        # norm terms agree with the product rule
        rng = np.random.default_rng(5)
        g1, g2 = random_complex(rng, 3), random_complex(rng, 3)
        a = g1.conj().T @ g1
        b = g2.conj().T @ g2
        x = random_complex(rng, 3)
        rep5 = bound_thm25_heinz(a, b, x, nu=0.5, r=2, levels=1, cfg=CFG, samples=64)
        rep3 = bound_thm23(a, b, x, nu=0.5, r=2, levels=1, cfg=CFG, samples=64)
        assert rep5.lhs_lower == pytest.approx(rep3.lhs_lower, rel=1e-7)
        assert rep5.norm_term == pytest.approx(rep3.norm_term, rel=1e-12)

    def test_scalar_commuting_equality(self):
        # X = I and equal scalar operands: the chain is tight
        c = 2.0
        a = np.diag([c, c])
        rep = bound_thm25_heinz(a, a, I2, nu=0.4, r=2, levels=1, cfg=CFG, samples=32)
        assert rep.lhs_lower == pytest.approx(rep.rhs_refined_est, rel=1e-7)
        assert rep.pointwise_violations == 0

    def test_printed_evidence_present(self):
        rep = bound_thm25_heinz(np.diag([9.0, 1.0]), np.diag([1.0, 4.0]), NIL,
                                nu=0.3, r=2, levels=2, cfg=CFG, samples=64)
        assert "printed_refinement_upper" in rep.extras
        assert rep.refinement_upper >= -1e-12


class TestThm26Family:
    def test_all_identity(self):
        rep = bound_thm26([(I2, I2, I2)], alpha=0.5, p=1, r=1, levels=1, cfg=CFG, samples=64)
        assert rep.lhs_lower == pytest.approx(1.0, abs=1e-8)
        assert rep.norm_term == pytest.approx(1.0, abs=1e-12)
        assert rep.refinement_upper == pytest.approx(0.0, abs=1e-12)

    def test_nilpotent_oracle(self):
        # n=1, T nilpotent, A=B=I, balanced pair, p=r=1, one level:
        # scalars are <|T|x,x> and <|T*|x,x>
        rep = bound_thm26([(I2, NIL, I2)], alpha=0.5, p=1, r=1, levels=1, cfg=CFG, samples=256)
        assert rep.lhs_lower == pytest.approx(0.5, abs=1e-7)
        # (1/2) * ||diag(0,1) + diag(1,0)|| = 1/2; the bound is tight here
        assert rep.norm_term == pytest.approx(0.5, abs=1e-12)
        xs = sphere_2d()
        at, aa = abs_pair(NIL)
        av = np.einsum("mi,ij,mj->m", xs.conj(), at.mat, xs).real
        bv = np.einsum("mi,ij,mj->m", xs.conj(), aa.mat, xs).real
        oracle = (0.5 * (np.sqrt(av) - np.sqrt(bv)) ** 2).min()
        assert rep.refinement_upper <= oracle + 1e-6
        assert rep.pointwise_violations == 0

    def test_reduces_to_cor28(self):
        rng = np.random.default_rng(6)
        t1, t2 = random_complex(rng, 3), random_complex(rng, 3)
        eye = np.eye(3, dtype=complex)
        rep_gen = bound_thm26([(eye, t1, eye), (eye, t2, eye)], alpha=0.3, p=2, r=1,
                              levels=2, cfg=CFG, samples=128)
        rep_cor = bound_cor28([t1, t2], alpha=0.3, p=2, r=1.0, levels=2, cfg=CFG, samples=128)
        assert rep_cor.lhs_lower == pytest.approx(rep_gen.lhs_lower, rel=1e-9)
        assert rep_cor.norm_term == pytest.approx(rep_gen.norm_term, rel=1e-12)
        assert rep_cor.refinement_upper == pytest.approx(rep_gen.refinement_upper, rel=1e-9, abs=1e-12)

    def test_cor27_is_product_specialization(self):
        rng = np.random.default_rng(7)
        a1, b1 = random_complex(rng, 2), random_complex(rng, 2)
        rep = bound_cor27([(a1, b1)], p=1, r=1, levels=1, cfg=CFG, samples=64)
        est = numerical_radius(a1.conj().T @ b1, resolution=20000).value
        assert rep.lhs_lower == pytest.approx(est, abs=1e-6 * max(1, est))
        gram = b1.conj().T @ b1
        gram2 = a1.conj().T @ a1
        expected = 0.5 * op_norm(gram + gram2)
        assert rep.norm_term == pytest.approx(expected, rel=1e-10)

    def test_cor210_matches_cor28_two_ops(self):
        rng = np.random.default_rng(8)
        b, c = random_complex(rng, 2), random_complex(rng, 2)
        rep10 = bound_cor210(b, c, alpha=0.25, p=2, cfg=CFG, samples=128)
        rep8 = bound_cor28([b, c], alpha=0.25, p=2, r=1.0, levels=1, cfg=CFG, samples=128)
        assert rep10.norm_term == pytest.approx(rep8.norm_term, rel=1e-12)
        assert rep10.refinement_upper == pytest.approx(rep8.refinement_upper, rel=1e-9, abs=1e-12)
        assert rep10.theorem == "cor2.10"

    def test_hermitian_balanced_vanishes(self):
        rng = np.random.default_rng(9)
        g = random_complex(rng, 3)
        h = (g + g.conj().T) / 2
        rep = bound_cor28([h], alpha=0.5, p=1, r=1.0, levels=3, cfg=CFG, samples=64)
        assert rep.refinement_upper == pytest.approx(0.0, abs=1e-10)

    def test_overshoot_never_counts_as_violation(self):
        # two or more levels: the printed correction can exceed the proof
        # form; the verdict may be inconclusive but never a violation
        rng = np.random.default_rng(10)
        for k in range(10):
            t = random_complex(rng, 2) * 2.0
            rep = bound_cor28([t], alpha=0.3, p=1, r=1.0, levels=3, cfg=CFG, samples=128)
            assert rep.status in (VERIFIED_POINTWISE, CONSISTENT, INCONCLUSIVE)
            assert rep.pointwise_violations == 0

    def test_p_domain(self):
        with pytest.raises(DomainError, match="p >= 1"):
            bound_thm26([(I2, I2, I2)], alpha=0.5, p=0.5, r=1, levels=1, cfg=CFG)


class TestThm211:
    def test_single_hermitian_equality(self):
        h = np.array([[2.0, 1.0], [1.0, -1.0]], dtype=complex)
        rep = bound_thm211([h], alpha=0.5, p=2, levels=1,
                           cfg=SphereOptConfig(restarts=16, max_iters=250, seed=5), samples=64)
        assert rep.lhs_lower == pytest.approx(op_norm(h), abs=1e-6)
        assert rep.rhs_refined_est == pytest.approx(op_norm(h), abs=1e-6)
        assert rep.pointwise_violations == 0

    def test_level_one_is_the_baseline(self):
        rng = np.random.default_rng(11)
        tup = [random_complex(rng, 3)]
        rep = bound_thm211(tup, alpha=0.3, p=2, levels=1, cfg=CFG, samples=128)
        assert rep.extras["n1_agreement"] <= 1e-10
        assert rep.refinement_gain == pytest.approx(0.0, abs=1e-10)

    def test_nilpotent_oracle(self):
        t = np.array([[0, 2], [0, 0]], dtype=complex)
        rep = bound_thm211([t], alpha=0.5, p=2, levels=1,
                           cfg=SphereOptConfig(restarts=16, max_iters=250, seed=6), samples=256)
        assert rep.lhs_lower == pytest.approx(1.0, abs=1e-6)  # w([[0,2],[0,0]]) = 1
        # |T|^{2a}=diag(0,2), |T*|^{2(1-a)}=diag(2,0): norm of the sum is 2
        assert rep.norm_term == pytest.approx(1.0, rel=1e-10)  # 0.5 * (2^p)^(1/p) = 1... p=2: 0.5*2 = 1
        assert rep.pointwise_violations == 0


class TestThm213:
    def test_endpoint_alphas_vanish(self):
        rng = np.random.default_rng(12)
        tup = [random_complex(rng, 3), random_complex(rng, 3)]
        for alpha in (0.0, 1.0):
            rep = bound_thm213(tup, alpha=alpha, p=2, levels=3, cfg=CFG, samples=64)
            assert rep.refinement_upper == pytest.approx(0.0, abs=1e-12)
            assert rep.pointwise_violations == 0

    def test_level_one_equals_baseline(self):
        rng = np.random.default_rng(13)
        tup = [random_complex(rng, 2), random_complex(rng, 2)]
        rep = bound_thm213(tup, alpha=0.3, p=2, levels=1, cfg=CFG, samples=128)
        assert rep.extras["n1_agreement"] <= 1e-10
        assert rep.rhs_baseline == pytest.approx(rep.rhs_refined_est, abs=1e-10)

    def test_p_domain_message(self):
        with pytest.raises(DomainError, match="p >= 2"):
            bound_thm213([NIL], alpha=0.5, p=1, levels=1, cfg=CFG)

    def test_two_op_balanced_matches_cor215(self):
        rng = np.random.default_rng(14)
        b, c = random_complex(rng, 2), random_complex(rng, 2)
        rep13 = bound_thm213([b, c], alpha=0.5, p=2, levels=1, cfg=CFG, samples=128)
        rep15 = bound_cor215(b, c, p=2, cfg=CFG, samples=128)
        assert rep15.norm_term == pytest.approx(rep13.norm_term, rel=1e-12)
        assert rep15.refinement_upper == pytest.approx(rep13.refinement_upper, rel=1e-9, abs=1e-12)
        assert rep15.theorem == "cor2.15"
        assert "eta_minus_min" in rep15.extras


class TestCor215Cartesian:
    def test_concrete_nilpotent(self):
        chk = cartesian_check(NIL, SphereOptConfig(restarts=16, max_iters=250, seed=3))
        assert chk.w_squared == pytest.approx(0.25, abs=1e-10)
        assert chk.half_norm == pytest.approx(0.5, abs=1e-12)
        assert chk.identity_residual <= 1e-12
        assert chk.we_squared == pytest.approx(chk.w_squared, abs=1e-6)

    def test_normal_equality(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(random_complex(rng, 3))
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = (q * lam) @ q.conj().T
        chk = cartesian_check(a, SphereOptConfig(restarts=16, max_iters=250, seed=4))
        # normal operators: radius equals the norm, the bound is tight
        assert chk.w_squared == pytest.approx(chk.half_norm, rel=1e-6)

    def test_hermitian(self):
        rng = np.random.default_rng(16)
        g = random_complex(rng, 3)
        h = (g + g.conj().T) / 2
        chk = cartesian_check(h, SphereOptConfig(restarts=16, max_iters=250, seed=5))
        assert chk.w_squared == pytest.approx(op_norm(h) ** 2, rel=1e-8)
        assert chk.w_squared == pytest.approx(chk.half_norm, rel=1e-8)


class TestThm216Family:
    def test_cor218_is_the_balanced_case(self):
        rng = np.random.default_rng(17)
        tup = [random_complex(rng, 2), random_complex(rng, 2)]
        rep16 = bound_thm216(tup, p=2, q=2, r=1, levels=2, cfg=CFG, samples=128)
        rep18 = bound_cor218(tup, levels=2, cfg=CFG, samples=128)
        assert rep18.norm_term == pytest.approx(rep16.norm_term, rel=1e-12)
        assert rep18.lhs_lower == pytest.approx(rep16.lhs_lower, rel=1e-9)
        assert rep18.theorem == "cor2.18"

    def test_projector_tuple_hand_values(self):
        tup = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        rep = bound_thm216(tup, p=2, q=2, r=1, levels=1,
                           cfg=SphereOptConfig(restarts=16, max_iters=250, seed=6), samples=128)
        # both tuples are the projectors themselves; each radius is 1 and
        # each norm term is 1/2 * 1 + 1/2 * 1
        assert rep.lhs_lower == pytest.approx(1.0, abs=1e-6)
        assert rep.norm_term == pytest.approx(1.0, rel=1e-12)
        assert rep.pointwise_violations == 0

    def test_constraint_domain(self):
        with pytest.raises(DomainError, match="p >= q >= 1"):
            bound_thm216([NIL], p=1.5, q=3.0, r=1.0, levels=1, cfg=CFG)
        with pytest.raises(DomainError, match="1/p"):
            bound_thm216([NIL], p=2.0, q=2.0, r=1.5, levels=1, cfg=CFG)

    def test_unbalanced_exponents(self):
        rng = np.random.default_rng(18)
        tup = [random_complex(rng, 3) for _ in range(2)]
        rep = bound_thm216(tup, p=3.0, q=1.5, r=1.0, levels=3, cfg=CFG, samples=128)
        assert rep.pointwise_violations == 0
        assert rep.dominance_violations == 0
        assert rep.refinement_gain >= -1e-10


class TestCor219:
    def test_equality_projectors(self):
        tup = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        rep = bound_cor219(tup, cfg=SphereOptConfig(restarts=16, max_iters=250, seed=7), samples=64)
        assert rep.lhs_lower == pytest.approx(1.0, abs=1e-6)
        assert rep.norm_term == pytest.approx(1.0, abs=1e-12)
        assert rep.status == VERIFIED_POINTWISE

    def test_requires_psd(self):
        with pytest.raises(NotPsd):
            bound_cor219([NIL], cfg=CFG)

    def test_random_psd_tuples(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            tup = []
            for _ in range(3):
                g = random_complex(rng, d)
                tup.append(g.conj().T @ g / d)
            rep = bound_cor219(tup, cfg=CFG, samples=128)
            assert rep.pointwise_violations == 0
            assert rep.lhs_lower <= rep.norm_term + 1e-7 * max(1, rep.norm_term)


class TestBaselines:
    def test_rule_19_identity(self):
        assert baseline_rhs("1.9", (I2, I2, NIL), {"r": 2.0}) == pytest.approx(1.0, abs=1e-12)

    def test_rule_28_nilpotent(self):
        assert baseline_rhs("2.8", (NIL, NIL), {"p": 2.0}) == pytest.approx(1.0, abs=1e-12)

    def test_rule_15_hermitian_zeta_vanishes(self):
        rng = np.random.default_rng(20)
        g = random_complex(rng, 3)
        h = (g + g.conj().T) / 2
        vecs = random_unit_vectors(rng_from(0, 1), 3, 64)
        got = baseline_rhs("1.5", (h, h), {"alpha": 0.5, "p": 1.0}, vecs)
        at, _ = abs_pair(h)
        expected = 0.5 * op_norm(2 * (at.mat + at.mat))  # zeta = 0, two equal operators
        assert got == pytest.approx(expected, rel=1e-10)

    def test_rule_18(self):
        a = np.diag([4.0, 1.0])
        v = baseline_rhs("1.8", (a, np.diag([1.0, 4.0]), NIL), {"alpha": 0.5, "r": 2.0})
        assert v == pytest.approx(8.5, rel=1e-12)  # ||X||^2 * ||(A^2+B^2)/2|| = 1 * 8.5

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            baseline_rhs("3.1", (I2,), {})

    def test_rule_16_p_domain(self):
        with pytest.raises(DomainError, match="p >= 2"):
            baseline_rhs("1.6", (NIL,), {"alpha": 0.5, "p": 1.0},
                         random_unit_vectors(rng_from(0, 1), 2, 8))

    @pytest.mark.parametrize("ineq_id, operands, params", [
        ("1.8", (I2, I2, I2), {"r": math.nan, "alpha": 0.5}),  # 1**nan was 1.0
        ("1.8", (np.diag([2.0, 1.0]),) * 3, {"r": math.nan, "alpha": 0.5}),
        ("1.6", (np.diag([2.0, 1.0]),) * 2, {"alpha": math.nan, "p": 2.0}),
        ("1.6", (np.diag([2.0, 1.0]),) * 2, {"alpha": 0.5, "p": math.nan}),
        ("1.4", (np.diag([2.0, 1.0]),) * 2, {"alpha": 0.5, "p": math.inf}),  # was 0.5
    ])
    def test_non_finite_parameter(self, ineq_id, operands, params):
        bad = next(k for k, v in params.items() if not math.isfinite(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"rule {ineq_id} requires a finite {bad}"):
                baseline_rhs(ineq_id, operands, params, random_unit_vectors(rng_from(0, 1), 2, 8))

    D21 = np.diag([2.0, 1.0])

    # each baseline refuses what its family's rules refuse, with the same check
    @pytest.mark.parametrize("ineq_id, operands, params, message", [
        ("1.3", [(I2, NIL, I2)], {"alpha": 0.5, "p": 0.5, "r": 1.0}, "p >= 1, got p=0.5"),  # was 0.49997
        ("1.3", [(I2, NIL, I2)], {"alpha": 0.5, "p": 1.0, "r": 0.5}, "r >= 1, got r=0.5"),  # was 0.24997
        ("1.3", [(I2, NIL, I2)], {"alpha": 1.5, "p": 1.0, "r": 1.0}, "0 <= alpha <= 1"),
        ("1.4", (D21, NIL), {"alpha": 0.5, "p": 0.5}, "p >= 1, got p=0.5"),  # was 4.49991
        ("1.5", (D21, NIL), {"alpha": -0.5, "p": 1.0}, "0 <= alpha <= 1"),
        ("1.6", (NIL, NIL), {"alpha": 1.5, "p": 2.0}, "0 <= alpha <= 1"),  # was NotPsd
        ("1.8", (D21, I2, NIL), {"alpha": 1.5, "r": 2.0}, "0 <= nu <= 1"),  # was 5.5
        ("1.8", (D21, I2, NIL), {"alpha": 0.5, "r": 1.5}, "r >= 2, got r=1.5"),
        ("2.8", (NIL, NIL), {"p": 1.0}, "p >= 2, got p=1.0"),
        ("1.7", [NIL], {"p": 1.5, "q": 3.0, "r": 1.0}, "p >= q >= 1"),
        ("1.7", [NIL], {"p": 2.0, "q": 2.0, "r": 1.5}, "1/p + 1/q = 1/r"),
    ])
    def test_refuses_what_its_rule_refuses(self, ineq_id, operands, params, message):
        vecs = random_unit_vectors(rng_from(0, 1), 2, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^rule {ineq_id} requires {re.escape(message)}"):
                baseline_rhs(ineq_id, operands, params, (vecs, vecs) if ineq_id == "1.7" else vecs)

    def test_rule_13_needs_a_triple(self):
        with pytest.raises(DomainError, match="at least one operator triple"):
            baseline_rhs("1.3", [], {"alpha": 0.5, "p": 1.0, "r": 1.0})

    def test_rule_17_pairs(self):
        rng = np.random.default_rng(21)
        tup = [random_complex(rng, 2)]
        xs = random_unit_vectors(rng_from(1, 1), 2, 32)
        ys = random_unit_vectors(rng_from(1, 2), 2, 32)
        v = baseline_rhs("1.7", tup, {"p": 2.0, "q": 2.0, "r": 1.0}, (xs, ys))
        assert np.isfinite(v)

    def test_all_ids_registered(self):
        assert BASELINE_IDS == ("1.3", "1.4", "1.5", "1.6", "1.7", "1.8", "1.9", "2.8")


class TestVerdicts:
    def test_certified_violation(self):
        assert _verdict(2.0, 1.0, 1.5, 0, 10) == CERTIFIED_VIOLATION

    def test_inconclusive_between(self):
        assert _verdict(1.2, 2.0, 1.0, 0, 10) == INCONCLUSIVE

    def test_verified_pointwise(self):
        assert _verdict(0.5, 2.0, 1.0, 0, 10) == VERIFIED_POINTWISE

    def test_consistent_without_samples(self):
        assert _verdict(0.5, 2.0, 1.0, 0, 0) == CONSISTENT

    def test_pointwise_failure_downgrades(self):
        assert _verdict(0.5, 2.0, 1.0, 3, 10) == CONSISTENT


class TestScalarLemmas:
    def test_mixed_schwarz(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            t = random_complex(rng, d)
            at, aa = abs_pair(t)
            x = random_unit_vectors(rng_from(10, d), d, 1)[0]
            y = random_unit_vectors(rng_from(11, d), d, 1)[0]
            nu = float(rng.uniform(0, 1))
            lhs = abs(np.vdot(y, t @ x)) ** 2
            rhs = at.power(2 * nu).quad(x) * aa.power(2 * (1 - nu)).quad(y)
            assert lhs <= rhs + 1e-10 * max(1.0, lhs, rhs)

    def test_quadratic_power_comparison(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            g = random_complex(rng, d)
            from numrad.linalg import PsdMatrix

            pm = PsdMatrix.from_matrix(g.conj().T @ g / d)
            x = random_unit_vectors(rng_from(12, d), d, 1)[0]
            r_hi = float(rng.uniform(1, 4))
            r_lo = float(rng.uniform(0.05, 1.0))
            scale = max(1.0, pm.norm() ** max(r_hi, 1.0))
            assert pm.quad(x) ** r_hi <= pm.power(r_hi).quad(x) + 1e-10 * scale
            assert pm.power(r_lo).quad(x) <= pm.quad(x) ** r_lo + 1e-10 * scale

    def test_r_one_mccarthy_equality(self):
        rng = np.random.default_rng(24)
        g = random_complex(rng, 3)
        from numrad.linalg import PsdMatrix

        pm = PsdMatrix.from_matrix(g.conj().T @ g)
        x = random_unit_vectors(rng_from(13, 3), 3, 1)[0]
        assert pm.quad(x) ** 1.0 == pytest.approx(pm.power(1.0).quad(x), rel=1e-10)
