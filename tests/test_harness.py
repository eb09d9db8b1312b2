"""Ensembles, suite execution, determinism, aggregates."""

import numpy as np
import pytest

from numrad.errors import DomainError
from numrad.harness import (
    ALL_THEOREMS,
    ENSEMBLE_KINDS,
    EnsembleSpec,
    SuiteConfig,
    aggregate,
    compare_refinements,
    gen_matrix,
    lemma_suite,
    run_suite,
    run_trial,
    theorem_points,
)

SMALL = SuiteConfig(trials=1, dims=(2, 3), samples=64, master_seed=42)


class TestGenMatrix:
    def test_deterministic(self):
        for kind in ENSEMBLE_KINDS:
            a = gen_matrix(EnsembleSpec(kind, 3, seed=9))
            b = gen_matrix(EnsembleSpec(kind, 3, seed=9))
            assert np.array_equal(a, b), kind
            c = gen_matrix(EnsembleSpec(kind, 3, seed=10))
            assert not np.array_equal(a, c), kind

    def test_psd_kinds(self):
        for kind in ("psd", "positive_definite"):
            m = gen_matrix(EnsembleSpec(kind, 4, seed=1))
            w = np.linalg.eigvalsh(m)
            assert w.min() >= -1e-12
        pd = gen_matrix(EnsembleSpec("positive_definite", 4, seed=1))
        assert np.linalg.eigvalsh(pd).min() > 0.01

    def test_hermitian(self):
        m = gen_matrix(EnsembleSpec("hermitian", 5, seed=2))
        assert np.max(np.abs(m - m.conj().T)) <= 1e-14

    def test_unitary(self):
        m = gen_matrix(EnsembleSpec("unitary", 4, seed=3))
        np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)

    def test_normal_commutes(self):
        m = gen_matrix(EnsembleSpec("normal", 4, seed=4))
        assert np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) <= 1e-12

    def test_nilpotent_shape(self):
        m = gen_matrix(EnsembleSpec("nilpotent", 2, seed=5))
        assert m[0, 0] == 0 and m[1, 0] == 0 and m[1, 1] == 0 and m[0, 1] != 0

    def test_diagonal(self):
        m = gen_matrix(EnsembleSpec("diagonal", 3, seed=6))
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0

    def test_contraction(self):
        m = gen_matrix(EnsembleSpec("contraction", 6, seed=7))
        assert np.linalg.norm(m, 2) <= 1.0 + 1e-12

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            gen_matrix(EnsembleSpec("wishart", 3, seed=0))

    def test_bad_dim_and_scale(self):
        with pytest.raises(DomainError):
            gen_matrix(EnsembleSpec("psd", 0, seed=0))
        with pytest.raises(DomainError):
            gen_matrix(EnsembleSpec("psd", 3, scale=-1.0, seed=0))


class TestSuite:
    def test_empty_selection(self):
        rep = run_suite(SuiteConfig(theorems=(), trials=1))
        assert rep.records == []
        assert rep.aggregates == {}
        assert rep.format_version == "1"

    def test_points_respect_domains(self):
        for theorem in ALL_THEOREMS:
            for pt in theorem_points(theorem, SMALL):
                if theorem in ("thm2.3", "thm2.5"):
                    assert pt["r"] >= 2
                if theorem in ("thm2.13", "cor2.15"):
                    assert pt["p"] >= 2
                if theorem == "thm2.16":
                    assert pt["p"] >= pt["q"] >= 1
                    assert abs(1 / pt["p"] + 1 / pt["q"] - 1 / pt["r"]) <= 1e-12

    def test_small_run_is_clean(self):
        rep = run_suite(SMALL)
        assert len(rep.records) == sum(len(theorem_points(t, SMALL)) for t in ALL_THEOREMS)
        for rec in rep.records:
            assert rec.pointwise_violations == 0
            assert rec.status != "certified-violation"
            assert rec.seed > 0

    def test_deterministic_records(self):
        from numrad.cli import report_csv

        rep1 = run_suite(SuiteConfig(theorems=("thm2.13", "cor2.19"), trials=2, samples=64))
        rep2 = run_suite(SuiteConfig(theorems=("thm2.13", "cor2.19"), trials=2, samples=64))
        assert report_csv(rep1.records) == report_csv(rep2.records)

    def test_aggregates_recompute(self):
        rep = run_suite(SuiteConfig(theorems=("cor2.19", "cor2.15"), trials=3, samples=64))
        assert aggregate(rep.records) == rep.aggregates

    def test_trial_error_is_data(self):
        rec = run_trial("thm2.13", {"alpha": 0.5, "p": 1.0, "levels": 1}, 0, 0, SMALL)
        assert rec.status == "error-DomainError"
        assert np.isnan(rec.lhs_lower)

    def test_trial_error_csv_row(self):
        # the parameters stay nan and N falls back to the point's levels
        from numrad.cli import report_csv

        rec = run_trial("thm2.13", {"alpha": 0.5, "p": 1.0, "levels": 1}, 0, 0,
                        SuiteConfig(trials=1, samples=32))
        assert report_csv([rec]).splitlines()[1] == (
            "thm2.13,0,2,ginibre,nan,nan,nan,nan,1,1,nan,nan,nan,nan,nan,nan,0,"
            "error-DomainError,7828820741994447770"
        )

    def test_hermitian_balanced_trial(self):
        # a Hermitian draw with balanced weight keeps the correction at zero
        from numrad import bounds as bnd
        from numrad.harness import gen_matrix as gm
        from numrad.radius import SphereOptConfig

        h = gm(EnsembleSpec("hermitian", 3, seed=123))
        rep = bnd.bound_thm213([h], alpha=0.5, p=2, levels=2,
                               cfg=SphereOptConfig(restarts=4, max_iters=40, seed=1), samples=64)
        assert rep.refinement_upper == pytest.approx(0.0, abs=1e-9)
        assert rep.status in ("verified-pointwise", "consistent")


class TestLemmaSuite:
    def test_zero_violations(self):
        rep = lemma_suite(SuiteConfig(trials=200))
        by_name = {r.theorem: r for r in rep.records}
        assert set(by_name) == {"lemma2.1a", "lemma2.1b", "lemma2.1c", "lemma2.2a", "lemma2.2b"}
        for rec in rep.records:
            assert rec.pointwise_violations == 0, rec.theorem
            assert rec.status == "verified-pointwise"

    def test_printed_one_vector_form_reported_not_asserted(self):
        rep = lemma_suite(SuiteConfig(trials=300))
        rec = next(r for r in rep.records if r.theorem == "lemma2.1c")
        # the one-vector variant fails on generic inputs; its tally is
        # informational and must not flip the record's own verdict
        assert rec.extras["printed_x_form_violations"] > 0
        assert rec.pointwise_violations == 0

    def test_deterministic(self):
        from numrad.cli import report_csv

        a = lemma_suite(SuiteConfig(trials=100))
        b = lemma_suite(SuiteConfig(trials=100))
        assert report_csv(a.records) == report_csv(b.records)


class TestCompare:
    def test_gains_nonnegative_and_level_one_ties(self):
        cfg = SuiteConfig(trials=1, dims=(2, 3, 4), samples=96)
        rep = compare_refinements(cfg)
        assert rep.records
        for rec in rep.records:
            assert rec.theorem.startswith("remark")
            assert rec.pointwise_violations == 0  # dominance violations
            assert rec.refinement_gain >= -1e-10
            if rec.levels == 1 and "n1_agreement" in rec.extras:
                assert rec.extras["n1_agreement"] <= 1e-10

    def test_remark_ids(self):
        cfg = SuiteConfig(trials=1, dims=(2,), samples=32,
                          nu_alpha_grid=(0.5,), levels_grid=(1,))
        rep = compare_refinements(cfg)
        names = {r.theorem for r in rep.records}
        assert names == {"remark2.4", "remark2.9", "remark2.12", "remark2.14", "remark2.17"}
