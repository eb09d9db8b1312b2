"""Scalar refinement machinery: indices, weights, corrections, gaps."""

import math

import numpy as np
import pytest

from numrad.errors import DomainError
from numrad.refine import (
    MAX_LEVELS,
    LevelIndices,
    RefinementParams,
    bracket_sum_vec,
    level_indices,
    power_mean_rhs,
    printed_heinz_weight,
    refinement_S,
    weighted_bracket_sum,
    young_refined_gap,
    young_refined_gap_many,
)


def s_oracle(a, b, nu, n_levels):
    """Independent re-derivation of the correction, straight from the definition."""
    total = 0.0
    for j in range(1, n_levels + 1):
        rj = math.floor(2**j * nu + 1e-15)
        kj = math.floor(2 ** (j - 1) * nu + 1e-15)
        w = (-1) ** rj * 2 ** (j - 1) * nu + (-1) ** (rj + 1) * ((rj + 1) // 2)
        t = b ** ((2 ** (j - 1) - kj) / 2**j) * a ** (kj / 2**j) - a ** (
            (kj + 1) / 2**j
        ) * b ** ((2 ** (j - 1) - kj - 1) / 2**j)
        total += w * t * t
    return total


class TestLevelIndices:
    def test_half_level_one(self):
        li = level_indices(1, 0.5)
        assert (li.r, li.k) == (1, 0)
        assert li.weight == 0.5

    def test_nu_zero(self):
        li = level_indices(1, 0.0)
        assert (li.r, li.k, li.weight) == (0, 0, 0.0)

    def test_nu_one_level_two(self):
        li = level_indices(2, 1.0)
        assert (li.r, li.k) == (4, 2)
        assert li.weight == 0.0

    def test_exact_floor_not_rounding(self):
        li = level_indices(3, 0.3)
        assert li.r == math.floor(8 * 0.3)
        assert li.k == math.floor(4 * 0.3)

    def test_nu_out_of_range(self):
        with pytest.raises(DomainError):
            level_indices(1, 1.5)
        with pytest.raises(DomainError):
            level_indices(1, -0.1)

    def test_level_overflow_guard(self):
        with pytest.raises(DomainError):
            level_indices(MAX_LEVELS + 1, 0.5)
        with pytest.raises(DomainError):
            level_indices(0, 0.5)

    @pytest.mark.parametrize("level, nu, weight", [
        (2, 0.5 - 1e-14, 0.0),  # 2^j nu snaps to the even r = 2
        (2, 0.5 + 1e-14, 0.0),
        (1, 0.5 - 1e-14, 0.5),  # ... and to the odd r = 1
        (3, 1.0 - 1e-13, 0.0),
        (3, 0.625 - 1e-14, 0.5),
    ])
    def test_snapped_index_weighs_the_snapped_point(self, level, nu, weight):
        assert level_indices(level, nu).weight == weight

    def test_just_below_a_dyadic_nu_the_correction_stays_nonnegative(self):
        a, b = np.array([1.0, 3.0]), np.array([1e-6, 0.2])
        for nu in (0.5 - 1e-14, 0.75 - 1e-14, 1.0 - 1e-13):
            for levels in (1, 3, 6):
                assert (weighted_bracket_sum(a, b, nu, levels) >= 0.0).all()
                assert (bracket_sum_vec(a, b, np.full(2, nu), levels) >= 0.0).all()

    def test_weights_nonnegative_on_grid(self):
        # fine nu grid, many levels: weight is the distance of 2^(j-1) nu
        # to the half-integer lattice, never negative
        nus = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        for j in range(1, 21):
            scaled = 2.0 ** (j - 1) * nus
            r = np.floor(2.0 * scaled + 1e-12).astype(np.int64)
            sign = np.where(r % 2 == 0, 1.0, -1.0)
            w = sign * scaled - sign * ((r + 1) // 2)
            assert w.min() >= -1e-12


class TestRefinementS:
    def test_equal_arguments_vanish(self):
        for nu in (0.1, 0.5, 0.9):
            assert refinement_S(3.7, 3.7, RefinementParams(nu, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_sharp_example(self):
        assert refinement_S(4, 1, RefinementParams(0.5, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints_vanish(self):
        for nu in (0.0, 1.0):
            for n in (1, 3, 6):
                assert refinement_S(7.0, 2.0, RefinementParams(nu, n)) == 0.0

    def test_frozen_oracle_values(self):
        # values computed once with s_oracle and frozen
        assert refinement_S(9, 1, RefinementParams(0.3, 3)) == pytest.approx(
            1.4489666926767624, abs=1e-13
        )
        assert refinement_S(4, 1, RefinementParams(0.3, 2)) == pytest.approx(
            0.368629150101524, abs=1e-13
        )

    def test_matches_oracle_randomly(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            a = float(rng.uniform(1e-3, 50))
            b = float(rng.uniform(1e-3, 50))
            nu = float(rng.uniform(0, 1))
            n = int(rng.integers(1, 7))
            assert refinement_S(a, b, RefinementParams(nu, n)) == pytest.approx(
                s_oracle(a, b, nu, n), rel=1e-12, abs=1e-12
            )

    def test_level_one_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a = float(rng.uniform(1e-3, 100))
            b = float(rng.uniform(1e-3, 100))
            nu = float(rng.uniform(0, 1))
            closed = min(nu, 1 - nu) * (math.sqrt(a) - math.sqrt(b)) ** 2
            assert refinement_S(a, b, RefinementParams(nu, 1)) == pytest.approx(
                closed, abs=1e-12 * max(1.0, a, b)
            )

    def test_monotone_in_levels(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = float(rng.uniform(1e-2, 50))
            b = float(rng.uniform(1e-2, 50))
            nu = float(rng.uniform(0, 1))
            vals = [refinement_S(a, b, RefinementParams(nu, n)) for n in range(1, 7)]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_dyadic_equality(self):
        # at nu = k / 2^N the refined comparison closes exactly
        for a, b, nu, n in ((16, 1, 0.25, 2), (9, 2, 0.75, 2), (5, 3, 0.375, 3)):
            assert young_refined_gap(a, b, RefinementParams(nu, n)) == pytest.approx(
                0.0, abs=1e-12 * max(a, b)
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            refinement_S(0.0, 1.0, RefinementParams(0.5, 1))
        with pytest.raises(DomainError):
            refinement_S(1.0, -2.0, RefinementParams(0.5, 1))

    def test_params_validation(self):
        with pytest.raises(DomainError):
            RefinementParams(1.2, 1)
        with pytest.raises(DomainError):
            RefinementParams(0.5, 0)
        with pytest.raises(DomainError):
            RefinementParams(0.5, MAX_LEVELS + 1)


class TestYoungGap:
    def test_sharp_case_equality(self):
        assert young_refined_gap(4, 1, RefinementParams(0.5, 1)) == 0.0

    def test_equal_arguments(self):
        assert young_refined_gap(5.5, 5.5, RefinementParams(0.3, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self):
        assert young_refined_gap(9, 1, RefinementParams(0.3, 3)) == pytest.approx(
            0.017851262391474387, abs=1e-13
        )

    def test_nonnegative_sweep(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(1e-3, 100, 20000)
        b = rng.uniform(1e-3, 100, 20000)
        nu = rng.uniform(0, 1, 20000)
        levels = 6
        gaps = young_refined_gap_many(a, b, nu, levels)
        assert np.min(gaps / np.maximum(a, b)) >= -1e-10

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.1, 10, 50)
        b = rng.uniform(0.1, 10, 50)
        nu = rng.uniform(0, 1, 50)
        many = young_refined_gap_many(a, b, nu, 3)
        one = [young_refined_gap(ai, bi, RefinementParams(ni, 3)) for ai, bi, ni in zip(a, b, nu)]
        np.testing.assert_allclose(many, one, rtol=1e-13, atol=1e-13)


class TestPowerMean:
    def test_r_one_exact(self):
        assert power_mean_rhs(4, 1, 0.3, 1.0) == 0.3 * 4 + 0.7 * 1

    def test_equal_args(self):
        for r in (1.0, 2.0, 3.5):
            assert power_mean_rhs(2.4, 2.4, 0.7, r) == pytest.approx(2.4, rel=1e-14)

    def test_example(self):
        assert power_mean_rhs(4, 1, 0.5, 2) == pytest.approx(math.sqrt(8.5), rel=1e-14)

    def test_r_below_one_rejected(self):
        with pytest.raises(DomainError):
            power_mean_rhs(1, 2, 0.5, 0.9)

    def test_combined_chain(self):
        # geometric mean <= power mean minus the correction, for r >= 1
        rng = np.random.default_rng(5)
        for _ in range(3000):
            a = float(rng.uniform(1e-2, 50))
            b = float(rng.uniform(1e-2, 50))
            nu = float(rng.uniform(0, 1))
            r = float(rng.uniform(1, 4))
            n = int(rng.integers(1, 6))
            lhs = a**nu * b ** (1 - nu)
            rhs = power_mean_rhs(a, b, nu, r) - refinement_S(a, b, RefinementParams(nu, n))
            assert lhs <= rhs + 1e-10 * max(1.0, a, b)

    def test_sqrt_chain_level_one_reduction(self):
        # at nu = 1/2 the correction is exactly half the square of the
        # root difference, independent of the number of levels
        rng = np.random.default_rng(9)
        for _ in range(500):
            a = float(rng.uniform(1e-2, 30))
            b = float(rng.uniform(1e-2, 30))
            for n in (1, 2, 5):
                s = refinement_S(a, b, RefinementParams(0.5, n))
                assert s == pytest.approx(0.5 * (math.sqrt(a) - math.sqrt(b)) ** 2, rel=1e-12, abs=1e-12)


class TestPrintedHeinzWeight:
    def test_goes_negative(self):
        # the nu-free weight is not a valid refinement weight
        li = level_indices(2, 0.3)
        assert printed_heinz_weight(li) == -1.0

    def test_vanishes_at_endpoints(self):
        for nu in (0.0, 1.0):
            li = level_indices(3, nu)
            # endpoint weights vanish only at nu = 1 for the printed form
            w = printed_heinz_weight(li)
            if nu == 1.0:
                assert w == 0.0


def test_weighted_bracket_sum_zero_inputs():
    # quadratic forms of singular PSD operands can be exactly zero; the
    # conventions 0^0 = 1 and 0^positive = 0 keep the sum finite
    vals = weighted_bracket_sum([0.0, 1.0], [2.0, 0.0], 0.3, 4)
    assert np.isfinite(vals).all()
    vals = weighted_bracket_sum([0.0], [0.0], 0.7, 3)
    assert vals[0] == 0.0


@pytest.mark.parametrize("nu", [1.0, 1.0 - 1e-13])
def test_negative_exponent_at_zero_b_is_a_domain_error(nu):
    # the half weights keep the levels whose b exponent is negative at and
    # just below nu = 1; a zero b there gave inf and NaN with RuntimeWarnings
    with pytest.raises(DomainError, match="undefined at b = 0"):
        weighted_bracket_sum([0.0, 1.0], [0.0, 0.0], nu, 2, mode="half")
    vals = weighted_bracket_sum([0.0, 1.0], [1.0, 2.0], nu, 2, mode="half")
    assert np.isfinite(vals).all()
    # the young and printed Heinz weights drop those levels
    for mode in ("young", "printed_heinz"):
        vals = weighted_bracket_sum([0.0, 1.0], [0.0, 0.0], nu, 2, mode=mode)
        assert vals.tolist() == [0.0, 0.0]


def _bracket_sum_reference(a, b, nu, levels, mode):
    """The per-call level loop that the cached terms replace."""
    a = np.maximum(np.asarray(a, dtype=np.float64), 0.0)
    b = np.maximum(np.asarray(b, dtype=np.float64), 0.0)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.float64)
    for j in range(1, levels + 1):
        li = level_indices(j, nu)
        w = {"young": li.weight, "half": 0.5, "printed_heinz": printed_heinz_weight(li)}[mode]
        if w == 0.0:
            continue
        two_j = 2.0**li.level
        half = 2.0 ** (li.level - 1)
        e_b1 = (half - li.k) / two_j
        e_a1 = li.k / two_j
        e_a2 = (li.k + 1) / two_j
        e_b2 = (half - li.k - 1) / two_j
        t = b**e_b1 * a**e_a1 - a**e_a2 * b**e_b2
        out = out + w * (t * t)
    return out


class TestCachedLevelTerms:
    A = np.concatenate([[0.0, 1e-12, 0.3, 1.0, 2.5, 40.0, -1.0],
                        np.random.default_rng(61).uniform(0.0, 10.0, 60)])
    B = np.concatenate([[0.0, 2.0, 1e-9, 1.0, 0.7, 3.0, 5.0],
                        np.random.default_rng(62).uniform(0.0, 10.0, 60)])

    @pytest.mark.parametrize("mode", ["young", "half", "printed_heinz"])
    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.3, 0.5, 1.0 - 1e-13, 1.0])
    def test_bits_match_the_level_loop(self, nu, mode):
        with np.errstate(divide="ignore", invalid="ignore"):
            for levels in range(1, MAX_LEVELS + 1):
                ref = _bracket_sum_reference(self.A, self.B, nu, levels, mode)
                if np.isfinite(ref).all():
                    got = weighted_bracket_sum(self.A, self.B, nu, levels, mode)
                    assert got.tobytes() == ref.tobytes()
                else:
                    # a kept level's negative b exponent meets B's zero entry
                    with pytest.raises(DomainError, match="undefined at b = 0"):
                        weighted_bracket_sum(self.A, self.B, nu, levels, mode)
                    keep = self.B > 0.0
                    got = weighted_bracket_sum(self.A[keep], self.B[keep], nu, levels, mode)
                    assert got.tobytes() == ref[keep].tobytes()
                scalar = weighted_bracket_sum(0.4, 1.7, nu, levels, mode)
                assert float(scalar) == float(_bracket_sum_reference(0.4, 1.7, nu, levels, mode))

    @pytest.mark.parametrize("nu", [np.float64(0.3), np.array(0.3)])
    def test_numpy_nu_is_the_float_nu(self, nu):
        for levels in (1, 4, MAX_LEVELS):
            got = weighted_bracket_sum(self.A, self.B, nu, levels)
            assert got.tobytes() == weighted_bracket_sum(self.A, self.B, 0.3, levels).tobytes()

    def test_bad_arguments_still_raise(self):
        with pytest.raises(DomainError):
            weighted_bracket_sum(self.A, self.B, 0.3, 2, mode="heinz")
        for nu in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                weighted_bracket_sum(self.A, self.B, nu, 2)
        with pytest.raises(DomainError):
            weighted_bracket_sum(self.A, self.B, 0.3, MAX_LEVELS + 1)
