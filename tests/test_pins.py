"""Pinned output of the suite, the lemma sweeps, ``compare`` and ``bound``.

Each pin is a sha256 of bytes a user sees: the suite's CSV, the lemma
sweeps' CSV, the compare file, and the JSON line ``bound`` prints for every
rule.  Any change to the
arithmetic behind a reported number, to a seed, to the order of records or
to a rule's operand layout shows up here.  Like ``SEARCH_PINS`` in
``test_radius.py``, the digests assume IEEE doubles, numpy 2.4 and the
OpenBLAS build the suite runs with; another BLAS may move the last bits.
"""

import hashlib

import pytest

from numrad.cli import main, report_csv, write_matrix_file
from numrad.harness import EnsembleSpec, SuiteConfig, gen_matrix, lemma_suite, run_suite

SUITE_PIN = "b5cae7d87c6ec23607459dcba133659b3204e25c142c60373734756b61d48f41"
COMPARE_PIN = "d4463c84e05696476e8a9badc0b044ed006b96648f8b7ec4afa4ce49d839a47a"
LEMMA_PIN = "eea9941cf0bf93aeefe23618cebc3e051bdec57b273fa943ed05e70daff889cc"

# (theorem, operands) -> sha256 of the JSON line `bound` prints, at
# --nu 0.3 --alpha 0.3 --N 2 --seed 4 (and --r 1 for thm2.16)
BOUND_PINS = {
    ("thm2.3", "P1,P2,G1"): "cf5d6cf71b191b69c0c56f9fb2628834fb1f4c2794fd2a92f1723e448d757497",
    ("thm2.5", "P1,P2,G1"): "1ab896b624a17b71d1616528bcd90fff60d5ed1e4246bfc3d3cbccd286752e07",
    ("thm2.6", "G1,G2,G3"): "479c8bc535c23ee1896c524ab32904f59fbb29ab9b92cd5f524a097f25d5b245",
    ("cor2.7", "G1,G2"): "27949a622ba0049eda10018be36a127e230aa569773c485817ff0dce667be805",
    ("cor2.8", "G1,G2"): "8318f95e7ec20d3c73edef3d44bf4d767e4c9eea92565a5aab76726569852cd2",
    ("cor2.10", "G1,G2"): "57aba49db6d82cb220090ab3e9ab14689c60a32adae43d4269d4aa093264cc96",
    ("thm2.11", "G1,G2"): "f4ccc18ff95a75e85125ba9f7a758ca8dffca271d1aa5f08787495c75c3f6059",
    ("thm2.13", "G1,G2"): "c5dc47cd45ba1e4845891fa2baec6f6f63b8b9007c42a2eb6838d69ef8a1a237",
    ("cor2.15", "G1,G2"): "e6d6ff716c7b8644a20b3960aa1ad7e494e0b1270b3455b5e8a3171bbde53f73",
    ("thm2.16", "G1,G2"): "c7cdfd05df8ba34354dd5b0ffd75706abcd9355ec7287a659974e8ee35c7cfe6",
    ("cor2.18", "G1,G2"): "463ea13c0561b369a5f24364996dd92a350bd85f19af51d92fd7e3ec948a4386",
    ("cor2.19", "P1,P2"): "f5e4d01ee32bfc17a979ebe5e57ebf638a491000fd9129759f0d6f0d30b38fe9",
    ("cor2.15", "G1"): "be874660cafcdebe062e25a588a8b8ab7722ed1b424e9f8c7e20312f72c1e8ba",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_suite_csv_is_pinned():
    rep = run_suite(SuiteConfig(trials=2, dims=(2, 3), samples=64))
    assert _sha256(report_csv(rep.records).encode("utf-8")) == SUITE_PIN


def test_lemma_csv_is_pinned():
    rep = lemma_suite(SuiteConfig(trials=50))
    assert _sha256(report_csv(rep.records).encode("utf-8")) == LEMMA_PIN


def test_compare_csv_is_pinned(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["compare", "--trials", "1", "--dims", "2:2", "--seed", "9", "-o", str(out)]) == 0
    assert _sha256(out.read_bytes()) == COMPARE_PIN


@pytest.fixture(scope="module")
def pin_matrices(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "m.json"
    write_matrix_file(path, [
        ("P1", gen_matrix(EnsembleSpec("psd", 3, seed=1))),
        ("P2", gen_matrix(EnsembleSpec("positive_definite", 3, seed=2))),
        ("G1", gen_matrix(EnsembleSpec("ginibre", 3, seed=3))),
        ("G2", gen_matrix(EnsembleSpec("normal", 3, seed=4))),
        ("G3", gen_matrix(EnsembleSpec("nilpotent", 3, seed=5))),
    ])
    return path


@pytest.mark.parametrize("theorem, operands", list(BOUND_PINS))
def test_bound_json_is_pinned(pin_matrices, capsys, theorem, operands):
    extra = ["--r", "1"] if theorem == "thm2.16" else []
    rc = main(["bound", "--theorem", theorem, "--input", str(pin_matrices), "--operands", operands,
               "--nu", "0.3", "--alpha", "0.3", "--N", "2", "--seed", "4", *extra])
    assert rc == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == BOUND_PINS[theorem, operands]
