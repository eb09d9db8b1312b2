"""Command-line interface: file formats, exit codes, golden headers."""

import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrad.bounds import RULES
from numrad.cli import (
    GAIN_COLUMNS,
    REPORT_COLUMNS,
    _nan_to_null,
    main,
    math_failures,
    read_matrix_file,
    write_matrix_file,
)
from numrad.errors import DomainError
from numrad.harness import ALL_THEOREMS, SuiteConfig, TrialRecord, lemma_suite

GOLDEN_HEADER = (
    "theorem,trial,dim,ensemble,nu_or_alpha,p,q,r,N,n_ops,lhs_lower,norm_term,"
    "refinement_upper,rhs_refined_est,rhs_baseline,refinement_gain,"
    "pointwise_violations,status,seed"
)

GOLDEN_GAIN_HEADER = "theorem,trials,min_gain,mean_gain,max_gain,violations"


def _strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


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


# any JSON value, NaN and infinities included (json writes and reads them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _good_entry(n):
    pair = st.lists(st.floats(-1e3, 1e3) | st.integers(-9, 9), min_size=2, max_size=2)
    return st.fixed_dictionaries({
        "name": st.sampled_from(["A", "B"]),
        "dim": st.just(n),
        "data": st.lists(pair, min_size=n * n, max_size=n * n),
    })


def _spoiled(doc):
    """``doc`` with one key dropped, or its value (or the last item of its list) replaced."""
    key = st.sampled_from(sorted(doc))
    dropped = key.map(lambda k: {q: v for q, v in doc.items() if q != k})
    replaced = st.tuples(key, JSON_VALUES).map(lambda kv: {**doc, kv[0]: kv[1]})
    listed = st.sampled_from([k for k in sorted(doc) if isinstance(doc[k], list)])
    last_item = st.tuples(listed, JSON_VALUES).map(
        lambda kv: {**doc, kv[0]: doc[kv[0]][:-1] + [kv[1]]})
    return dropped | replaced | last_item


def _spoiled_document(doc):
    entries = doc["matrices"]
    in_entry = st.integers(0, len(entries) - 1).flatmap(lambda i: _spoiled(entries[i]).map(
        lambda e: {**doc, "matrices": entries[:i] + [e] + entries[i + 1 :]}))
    return _spoiled(doc) | in_entry


# matrix documents: well-formed, spoiled in one place (in the document or
# in one entry), or any JSON value at all
GOOD_DOCUMENTS = st.lists(st.integers(1, 3).flatmap(_good_entry), min_size=1, max_size=3).map(
    lambda es: {"format_version": "1", "matrices": es})
DOCUMENTS = GOOD_DOCUMENTS | GOOD_DOCUMENTS.flatmap(_spoiled_document) | JSON_VALUES


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.json"


def _read_or_domain_error(path):
    """The parsed matrices, or None where the reader raised DomainError."""
    try:
        mats = read_matrix_file(path)
    except DomainError:
        return None
    for name, mat in mats.items():
        assert isinstance(name, str)
        assert mat.dtype == np.complex128 and mat.ndim == 2 and mat.shape[0] == mat.shape[1]
        assert np.isfinite(mat).all()
    return mats


class TestMatrixFileFuzz:
    @given(doc=DOCUMENTS)
    def test_any_document_parses_or_is_a_domain_error(self, fuzz_file, doc):
        fuzz_file.write_text(json.dumps(doc), encoding="utf-8")
        _read_or_domain_error(fuzz_file)

    @given(raw=st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
    def test_any_bytes_parse_or_are_a_domain_error(self, fuzz_file, raw):
        fuzz_file.write_bytes(raw)
        _read_or_domain_error(fuzz_file)

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000, b'{"a":' * 100_000],
                             ids=["not-utf8", "deep-array", "deep-object"])
    def test_undecodable_or_too_deep_is_a_domain_error(self, tmp_path, capsys, raw):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        with pytest.raises(DomainError, match="cannot read matrix file"):
            read_matrix_file(p)
        assert main(["radius", "--input", str(p), "--names", "A"]) == 1
        assert "error: " in capsys.readouterr().err

    @given(doc=DOCUMENTS)
    def test_radius_exit_code(self, fuzz_file, doc):
        fuzz_file.write_text(json.dumps(doc), encoding="utf-8")
        mats = _read_or_domain_error(fuzz_file)
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            rc = main(["radius", "--input", str(fuzz_file), "--names", "A"])
        out, err = out.getvalue(), err.getvalue()
        if mats is None or "A" not in mats:
            assert rc == 1 and err.startswith("error: ")
        else:  # 0, or 1 with a typed error
            assert rc in (0, 1)
            assert out.endswith("]\n") if rc == 0 else err.startswith("error: ")


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

    @pytest.mark.parametrize("p", ["inf", "nan", "0.5"])
    def test_tuple_p_outside_the_domain_exits_one(self, tmp_path, p):
        # one name runs numerical_radius, which takes no p, yet p is checked
        path = tmp_path / "m.json"
        write_matrix_file(path, [("A", np.eye(2)), ("B", np.diag([1.0, 0.0]))])
        for names in ("A,B", "A"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc, out, err = _run(["radius", "--input", str(path), "--names", names, f"--p={p}"])
            assert rc == 1 and out == "", names
            assert err.startswith("error: wp radius requires a finite p >= 1, got p="), err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

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
        rec = _strict_json(out)
        assert rec["refinement_upper"] == pytest.approx(0.0, abs=1e-12)
        assert rec["status"] in ("verified-pointwise", "consistent")
        assert rec["p"] is None and rec["q"] is None
        assert list(rec)[:4] == ["theorem", "dim", "n_ops", "nu_or_alpha"]

    def test_non_finite_nested_values_become_null(self):
        rec = {"a": float("nan"), "extras": {"b": [1.5, float("-inf")], "c": np.float64("inf")}}
        out = json.dumps(_nan_to_null(rec), allow_nan=False)
        assert _strict_json(out) == {"a": None, "extras": {"b": [1.5, None], "c": None}}

    def test_cor215_cartesian(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_matrix_file(path, [("A", np.array([[0, 1], [0, 0]]))])
        rc = main(["bound", "--theorem", "cor2.15", "--input", str(path), "--operands", "A"])
        out = capsys.readouterr().out
        assert rc == 0
        rec = _strict_json(out)
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


THEOREM_IDS = (
    "thm2.3", "thm2.5", "thm2.6", "cor2.7", "cor2.8", "cor2.10",
    "thm2.11", "thm2.13", "cor2.15", "thm2.16", "cor2.18", "cor2.19",
)

# one operand list per rule whose length no layout accepts (None: every
# positive count fits, as for the tuple rules)
WRONG_COUNT = {
    "thm2.3": "I2,I2", "thm2.5": "I2,I2,I2,I2", "thm2.6": "I2,I2,I2,I2", "cor2.7": "I2,I2,I2",
    "cor2.10": "I2", "cor2.15": "I2,I2,I2",
}

# one operand list per rule that fits its layout but mixes dimensions 2 and 3
MIXED_DIMS = {
    "thm2.3": "I2,I2,I3", "thm2.5": "I2,I3,I3", "thm2.6": "I2,I2,I2,I3,I3,I3",
    "cor2.7": "I2,I2,I3,I3",
}


@pytest.fixture(scope="module")
def operand_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ops") / "m.json"
    write_matrix_file(path, [("I2", np.eye(2)), ("I3", np.eye(3))])
    return path


def _run(argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestBoundOperandLayout:
    def test_theorem_ids_are_the_suite_rules_in_order(self):
        # trial seeds depend on a rule's index in ALL_THEOREMS
        assert ALL_THEOREMS == THEOREM_IDS

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_empty_or_wrong_sized_operand_list_exits_one(self, operand_file, theorem):
        for operands in (",", WRONG_COUNT.get(theorem)):
            if operands is None:
                continue
            rc, out, err = _run(["bound", "--theorem", theorem, "--input", str(operand_file),
                                 "--operands", operands])
            assert rc == 1 and out == ""
            assert err.startswith(f"error: {theorem} takes "), err
            assert "operands (" in err

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_mixed_dimensions_exit_one(self, operand_file, theorem):
        extra = ["--r", "1"] if theorem == "thm2.16" else []
        rc, _, err = _run(["bound", "--theorem", theorem, "--input", str(operand_file),
                           "--operands", MIXED_DIMS.get(theorem, "I2,I3"), *extra])
        assert rc == 1
        assert err.startswith("error: operands have mixed dimensions [2, 3]"), err

    def test_unknown_theorem_names_the_rules(self, operand_file):
        rc, _, err = _run(["bound", "--theorem", "thm9.9", "--input", str(operand_file),
                           "--operands", "I2"])
        assert rc == 1 and "choose from thm2.3, thm2.5" in err


# every float parameter of every rule (levels is an integer)
FLOAT_PARAMS = [(theorem, name) for theorem, rule in RULES.items() for name in rule.params if name != "levels"]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("theorem, name", FLOAT_PARAMS)
    def test_exits_one_naming_the_parameter(self, operand_file, theorem, name, value):
        rule = RULES[theorem]
        operands = ",".join(["I2"] * len(rule.kinds) * (rule.groups or 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = _run(["bound", "--theorem", theorem, "--input", str(operand_file),
                                 "--operands", operands, f"--{name}={value}"])
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {theorem} requires a finite {name}, got "), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def cap_file(tmp_path_factory):
    """Identities at the dimension cap (64) and one past it."""
    path = tmp_path_factory.mktemp("cap") / "m.json"
    write_matrix_file(path, [("E64", np.eye(64)), ("E65", np.eye(65))])
    return path


class TestDimensionCap:
    def test_radius_accepts_the_cap(self, cap_file):
        rc, out, err = _run(["radius", "--input", str(cap_file), "--names", "E64"])
        assert rc == 0 and err == ""
        assert out.splitlines()[0] == "1.0 (lower-of-sup)"

    @pytest.mark.parametrize("names", ["E65", "E65,E65"])
    def test_radius_refuses_past_the_cap(self, cap_file, names):
        rc, out, err = _run(["radius", "--input", str(cap_file), "--names", names])
        assert rc == 1 and out == ""
        assert err.startswith("error: dimension 65 exceeds cap 64"), err

    @pytest.mark.parametrize("command", [["verify", "--suite", "bounds"], ["compare"]])
    def test_suite_refuses_dims_past_the_cap(self, tmp_path, command):
        out = tmp_path / "r.csv"
        rc, stdout, err = _run([*command, "--trials", "1", "--dims", "65:65", "-o", str(out)])
        assert rc == 1 and stdout == ""
        assert err == "error: dimension 65 exceeds cap 64\n", err
        assert not out.exists()

    # every rule's layout, and cor2.15's one-operand Cartesian check
    @pytest.mark.parametrize("theorem, count", [
        *((t, len(r.kinds) * (r.groups or 1)) for t, r in RULES.items()), ("cor2.15", 1),
    ])
    def test_bound_refuses_past_the_cap(self, cap_file, theorem, count):
        extra = ["--r", "1"] if theorem == "thm2.16" else []
        rc, out, err = _run(["bound", "--theorem", theorem, "--input", str(cap_file),
                             "--operands", ",".join(["E65"] * count), *extra])
        assert rc == 1 and out == ""
        assert err.startswith("error: dimension 65 exceeds cap 64"), err


class TestCountArguments:
    @pytest.mark.parametrize("suite", ["all", "bounds", "lemmas"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_verify_needs_a_positive_trial_count(self, tmp_path, suite, trials):
        out = tmp_path / "r.csv"
        rc, _, err = _run(["verify", "--suite", suite, "--trials", trials, "-o", str(out)])
        assert rc == 1 and err.startswith("error: --trials must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_compare_needs_a_positive_trial_count(self, tmp_path, trials):
        out = tmp_path / "c.csv"
        rc, stdout, err = _run(["compare", "--trials", trials, "-o", str(out)])
        assert rc == 1 and stdout == ""
        assert err.startswith("error: --trials must be at least 1"), err
        assert not out.exists()

    def test_lemma_suite_needs_a_case(self):
        with pytest.raises(DomainError, match="at least one case"):
            lemma_suite(SuiteConfig(trials=0))

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_gen_needs_a_positive_count(self, tmp_path, count):
        out = tmp_path / "g.json"
        rc, stdout, err = _run(["gen", "--kind", "psd", "--dim", "2", "--count", count, "-o", str(out)])
        assert rc == 1 and stdout == "" and err.startswith("error: --count must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "ginibre", "--dim", "2"],
        ["verify", "--suite", "lemmas", "--trials", "1"],
        ["compare", "--trials", "1", "--dims", "2:2"],
    ], ids=["gen", "verify", "compare"])
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_exits_one(self, tmp_path, argv, seed):
        out = tmp_path / "out"
        rc, stdout, err = _run(argv + ["--seed", seed, "-o", str(out)])
        assert rc == 1 and stdout == ""
        assert err == f"error: --seed must be at least 0, got {seed}\n", err
        assert not out.exists()


# parameter values, in range and out of it
PARAM_VALUES = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.3", "0.5", "1", "1.5", "2", "4", "1e308"])


@pytest.fixture(scope="module")
def fuzz_operands(tmp_path_factory):
    """Dim-2 operands: general, PSD, nilpotent and zero."""
    path = tmp_path_factory.mktemp("fuzz_ops") / "m.json"
    write_matrix_file(path, [
        ("G", np.array([[1.0, 2.0 - 1.0j], [0.5j, -1.0]])),
        ("P", np.array([[2.0, 1.0], [1.0, 1.0]])),
        ("N", np.array([[0.0, 1.0], [0.0, 0.0]])),
        ("Z", np.zeros((2, 2))),
    ])
    return path


def _assert_clean_exit(rc, out, err, codes=(0, 1)):
    """An allowed exit code, ``error: ...`` on exit 1, and never a traceback."""
    assert rc in codes
    if rc == 1:
        assert err.startswith("error: "), err
    assert "Traceback" not in out + err


class TestExitCodeFuzz:
    @settings(max_examples=200)
    @given(
        theorem=st.sampled_from(THEOREM_IDS + ("thm9.9", "")),
        names=st.lists(st.sampled_from(["G", "P", "N", "Z", "missing"]), max_size=7),
        values=st.lists(PARAM_VALUES, min_size=5, max_size=5),
        levels=st.sampled_from(["-1", "0", "1", "2", "33"]),
    )
    def test_bound_exit_code(self, fuzz_operands, theorem, names, values, levels):
        # --flag=value, so that argparse reads "-1" as a value, not an option
        flags = [f"--{k}={v}" for k, v in zip(["nu", "alpha", "p", "q", "r", "N"], values + [levels])]
        with np.errstate(all="ignore"):
            rc, out, err = _run(["bound", "--theorem", theorem, "--input", str(fuzz_operands),
                                 "--operands", ",".join(names) or ",", *flags])
        _assert_clean_exit(rc, out, err)
        if rc == 0:
            assert isinstance(_strict_json(out), dict)

    @given(suite=st.sampled_from(["all", "bounds", "lemmas", "nope"]), trials=st.integers(-2, 2))
    def test_verify_exit_code(self, tmp_path_factory, suite, trials):
        # a positive count runs the suite itself; the bound suite is too slow to fuzz
        if trials > 0 and suite in ("all", "bounds"):
            suite = "lemmas"
        out = tmp_path_factory.mktemp("verify") / "r.csv"
        rc, stdout, err = _run(["verify", "--suite", suite, f"--trials={trials}",
                                "--dims", "2:2", "-o", str(out)])
        _assert_clean_exit(rc, stdout, err)
        assert (rc == 0) == (trials > 0 and suite != "nope")

    @given(kind=st.sampled_from(["psd", "ginibre", "unitary", "bogus"]),
           dim=st.sampled_from(["-1", "0", "1", "2", "65"]), count=st.integers(-2, 2))
    def test_gen_exit_code(self, tmp_path_factory, kind, dim, count):
        out = tmp_path_factory.mktemp("gen") / "g.json"
        rc, stdout, err = _run(["gen", "--kind", kind, f"--dim={dim}", f"--count={count}",
                                "-o", str(out)])
        _assert_clean_exit(rc, stdout, err)
        assert (rc == 0) == (kind != "bogus" and dim in ("1", "2") and count > 0)
        if rc == 0:
            assert len(read_matrix_file(out)) == count
