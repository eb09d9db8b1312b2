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

SUITE_PIN = "4065c79e7693bfa8c5a6b13129ec02ec64abb138c318d8892045ca05da3614cd"
COMPARE_PIN = "ed7c1c55e630ca0d5cf4d4674e93a60e444655b02a7936a6d252a35de9c8bf08"
LEMMA_PIN = "eea9941cf0bf93aeefe23618cebc3e051bdec57b273fa943ed05e70daff889cc"

# (theorem, operands) -> sha256 of the JSON line `bound` prints, at
# --nu 0.3 --alpha 0.3 --N 2 --seed 4 (and --r 1 for thm2.16)
BOUND_PINS = {
    ("thm2.3", "P1,P2,G1"): "7ee56f030c7d0d0219d82eb2283912d4b20e14dc8306286fa20fee4edbbdcd6f",
    ("thm2.5", "P1,P2,G1"): "26f40c4e31c06f86c28ec708dc69b86136637acb2fcb9ac9586e9f14f093480f",
    ("thm2.6", "G1,G2,G3"): "42167bc221f2d2872f13ce320aeb2f1ba74a297421e6a3856e522c0adc5ab491",
    ("cor2.7", "G1,G2"): "c5529606f3bc35fbd2b7506eb0d7a6963bd53e1bba5653bacaff504a1b70e37f",
    ("cor2.8", "G1,G2"): "07cbf3ebb71bd9dadae103ab9e6789da64940fdc6b052c27995066b8aaa1bcf0",
    ("cor2.10", "G1,G2"): "0344bbe4e4741243f69463ffa56179d517087043374941c6135cde84b2f0f738",
    ("thm2.11", "G1,G2"): "eacb1ad70562414e41145e6876ad4c72f170f29c34ee27fb595c4fb7d1dd6a8c",
    ("thm2.13", "G1,G2"): "a0b43b36aed2e4261f35c2acb6383dd450849b8da2fddee014e3dc75e3e1f5aa",
    ("cor2.15", "G1,G2"): "872362ce1b869ad632fb64d79a69f9c741a46ec4ecbcde5624e032c87acb515f",
    ("thm2.16", "G1,G2"): "2b8d5b3c15f0b335fb9390e6e889691fe6b83c0cb5f32dee5d6e83dd42855f69",
    ("cor2.18", "G1,G2"): "62ce02b4dd18de5024a58817424d9222e8ee4fe9dd65ddd4525b549b1963f299",
    ("cor2.19", "P1,P2"): "f5e4d01ee32bfc17a979ebe5e57ebf638a491000fd9129759f0d6f0d30b38fe9",
    ("cor2.15", "G1"): "9a24202364b5c49c688dbc9ab32466c7764ed4390f012e7b013bb7acc29b15e3",
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
