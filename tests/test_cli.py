"""Command-line interface: file formats, exit codes, golden headers."""

import json
import re

import numpy as np
import pytest

from numrad.cli import (
    GAIN_COLUMNS,
    REPORT_COLUMNS,
    main,
    math_failures,
    read_matrix_file,
    write_matrix_file,
)
from numrad.harness import TrialRecord

GOLDEN_HEADER = (
    "theorem,trial,dim,ensemble,nu_or_alpha,p,q,r,N,n_ops,lhs_lower,norm_term,"
    "refinement_upper,rhs_refined_est,rhs_baseline,refinement_gain,"
    "pointwise_violations,status,seed"
)

GOLDEN_GAIN_HEADER = "theorem,trials,min_gain,mean_gain,max_gain,violations"


def _record(**over):
    base = dict(
        theorem="thm2.3", trial=0, dim=2, ensemble="ginibre", nu_or_alpha=0.5,
        p=float("nan"), q=float("nan"), r=2.0, levels=1, n_ops=1, lhs_lower=0.1,
        norm_term=1.0, refinement_upper=0.2, rhs_refined_est=0.8, rhs_baseline=1.0,
        refinement_gain=0.2, pointwise_violations=0, status="verified-pointwise",
        seed=7,
    )
    base.update(over)
    return TrialRecord(**base)


class TestMatrixFiles:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = [
            ("A", rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
            ("B", np.diag([1e-300, np.pi, -7.25e12])),
        ]
        path = tmp_path / "m.json"
        write_matrix_file(path, mats)
        loaded = read_matrix_file(path)
        for name, mat in mats:
            assert np.array_equal(loaded[name], np.asarray(mat, dtype=complex))
        # second write of the parsed content is byte-identical
        path2 = tmp_path / "m2.json"
        write_matrix_file(path2, list(loaded.items()))
        assert path.read_bytes() == path2.read_bytes()

    def test_length_validation(self, tmp_path):
        doc = {"format_version": "1",
               "matrices": [{"name": "A", "dim": 2, "data": [[1.0, 0.0]] * 3}]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        from numrad.errors import DomainError

        with pytest.raises(DomainError):
            read_matrix_file(p)

    def test_version_check(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"format_version": "2", "matrices": []}))
        from numrad.errors import DomainError

        with pytest.raises(DomainError):
            read_matrix_file(p)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"dim": 1, "data": [[1.0, 0.0]]}, "lacks name"),
            ({"name": "A", "data": [[1.0, 0.0]]}, "lacks dim"),
            ({"name": "A", "dim": 1}, "lacks data"),
            ({"name": "A", "dim": "1", "data": [[1.0, 0.0]]}, "dim must be"),
            ({"name": "A", "dim": 1.5, "data": [[1.0, 0.0]]}, "dim must be"),
            ({"name": "A", "dim": True, "data": [[1.0, 0.0]]}, "dim must be"),
            ({"name": "A", "dim": 0, "data": []}, "dim must be"),
            ({"name": 7, "dim": 1, "data": [[1.0, 0.0]]}, "name must be"),
            ({"name": "A", "dim": 1, "data": [["1", 0.0]]}, "numeric [re, im] pair"),
            ({"name": "A", "dim": 1, "data": [[1.0, 0.0, 2.0]]}, "numeric [re, im] pair"),
            ({"name": "A", "dim": 1, "data": [1.0]}, "numeric [re, im] pair"),
            ({"name": "A", "dim": 1, "data": [[None, 0.0]]}, "numeric [re, im] pair"),
            ({"name": "A", "dim": 1, "data": [[10**400, 0.0]]}, "out of double range"),
            ({"name": "A", "dim": 1, "data": "1,0"}, "data must be"),
            ("A", "not a JSON object"),
        ],
    )
    def test_malformed_entry_exits_one(self, tmp_path, capsys, entry, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format_version": "1", "matrices": [entry]}))
        from numrad.errors import DomainError

        with pytest.raises(DomainError, match=re.escape(message)):
            read_matrix_file(p)
        assert main(["radius", "--input", str(p), "--names", "A"]) == 1
        assert "error: " in capsys.readouterr().err

    def test_duplicate_name(self, tmp_path, capsys):
        p = tmp_path / "dup.json"
        write_matrix_file(p, [("A", np.eye(2)), ("A", 2 * np.eye(2))])
        from numrad.errors import DomainError

        with pytest.raises(DomainError, match="duplicate matrix name 'A'"):
            read_matrix_file(p)
        assert main(["radius", "--input", str(p), "--names", "A"]) == 1
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[], {"format_version": "1", "matrices": {}}])
    def test_malformed_document(self, tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        from numrad.errors import DomainError

        with pytest.raises(DomainError):
            read_matrix_file(p)


class TestGen:
    def test_gen_deterministic_and_valid(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        rc1 = main(["gen", "--kind", "psd", "--dim", "3", "--count", "2", "--seed", "1", "-o", str(out1)])
        rc2 = main(["gen", "--kind", "psd", "--dim", "3", "--count", "2", "--seed", "1", "-o", str(out2)])
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        mats = read_matrix_file(out1)
        assert set(mats) == {"psd0", "psd1"}
        for m in mats.values():
            assert np.linalg.eigvalsh(m).min() >= -1e-12

    def test_gen_nilpotent_shape(self, tmp_path):
        out = tmp_path / "n.json"
        assert main(["gen", "--kind", "nilpotent", "--dim", "2", "--seed", "4", "-o", str(out)]) == 0
        m = read_matrix_file(out)["nilpotent0"]
        assert m[1, 0] == 0 and m[0, 0] == 0 and m[1, 1] == 0

    def test_gen_bad_kind(self, tmp_path, capsys):
        rc = main(["gen", "--kind", "bogus", "--dim", "2", "-o", str(tmp_path / "x.json")])
        assert rc == 1
        assert "unknown kind" in capsys.readouterr().err


class TestRadius:
    def test_identity(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("I", np.eye(2))])
        rc = main(["radius", "--input", str(path), "--names", "I"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "1.0 (lower-of-sup)"
        assert "witness" in out

    def test_nilpotent_half(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("N", np.array([[0, 1], [0, 0]]))])
        rc = main(["radius", "--input", str(path), "--names", "N"])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.splitlines()[0].split()[0]) == pytest.approx(0.5, abs=1e-9)

    def test_two_names_euclidean(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("P", np.diag([1.0, 0.0])), ("Q", np.diag([0.0, 1.0]))])
        rc = main(["radius", "--input", str(path), "--names", "P,Q", "--p", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.splitlines()[0].split()[0]) == pytest.approx(1.0, abs=1e-6)

    def test_missing_name(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("I", np.eye(2))])
        rc = main(["radius", "--input", str(path), "--names", "Z"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err


class TestBound:
    def test_thm213_p_domain_exit_one(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("T", np.array([[0, 1], [0, 0]]))])
        rc = main(["bound", "--theorem", "thm2.13", "--input", str(path),
                   "--operands", "T", "--p", "1", "--alpha", "0.5"])
        assert rc == 1
        assert "p >= 2" in capsys.readouterr().err

    def test_thm23_identity_report(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("I", np.eye(2)), ("X", np.array([[0, 1], [0, 0]]))])
        rc = main(["bound", "--theorem", "thm2.3", "--input", str(path),
                   "--operands", "I,I,X", "--nu", "0.5", "--r", "2", "--N", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        rec = json.loads(out)
        assert rec["refinement_upper"] == pytest.approx(0.0, abs=1e-12)
        assert rec["status"] in ("verified-pointwise", "consistent")

    def test_cor215_cartesian(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("A", np.array([[0, 1], [0, 0]]))])
        rc = main(["bound", "--theorem", "cor2.15", "--input", str(path), "--operands", "A"])
        out = capsys.readouterr().out
        assert rc == 0
        rec = json.loads(out)
        assert rec["w_squared"] == pytest.approx(0.25, abs=1e-9)
        assert rec["half_norm"] == pytest.approx(0.5, abs=1e-12)

    def test_unknown_theorem(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("A", np.eye(2))])
        rc = main(["bound", "--theorem", "thm9.9", "--input", str(path), "--operands", "A"])
        assert rc == 1


class TestVerify:
    def test_lemmas_suite(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["verify", "--suite", "lemmas", "--trials", "100", "--seed", "7",
                   "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADER
        assert len(lines) == 1 + 5

    def test_bounds_suite_small(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["verify", "--suite", "bounds", "--trials", "1", "--dims", "2:3",
                   "--seed", "5", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADER
        assert len(lines) > 100

    def test_unknown_suite(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "nope", "-o", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_bad_dims(self, tmp_path):
        rc = main(["verify", "--suite", "lemmas", "--dims", "6:2", "-o", str(tmp_path / "r.csv")])
        assert rc == 1


class TestCompareCmd:
    def test_two_tables(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["compare", "--trials", "1", "--dims", "2:3", "--seed", "3", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        blocks = text.split("\n\n")
        assert blocks[0].splitlines()[0] == GOLDEN_HEADER
        assert blocks[1].splitlines()[0] == GOLDEN_GAIN_HEADER

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--trials", "1", "--dims", "2:2", "--seed", "9"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_selection_exits_one(self, tmp_path, capsys):
        rc = main(["compare", "--trials", "0", "-o", str(tmp_path / "c.csv")])
        assert rc == 1
        assert "empty" in capsys.readouterr().err


class TestExitLogic:
    def test_math_failures_counts(self):
        ok = _record()
        bad_status = _record(status="certified-violation")
        bad_pw = _record(pointwise_violations=2)
        assert math_failures([ok]) == 0
        assert math_failures([ok, bad_status]) == 1
        assert math_failures([ok, bad_pw, bad_status]) == 2

    def test_column_tuples_frozen(self):
        assert ",".join(REPORT_COLUMNS) == GOLDEN_HEADER
        assert ",".join(GAIN_COLUMNS) == GOLDEN_GAIN_HEADER
