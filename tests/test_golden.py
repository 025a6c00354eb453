"""Byte-for-byte golden output of `polaris verify` and `polaris integrate`.

The expected stdout lives under tests/golden/, one text and one --json
file per input, all run with `--trials 3` and the file's seed.  The
inputs cover the passing demo, the demo with a perturbed Poisson tensor
(failing checks and their residual texts), a three-map nambu_r3n file
with n = 2 (triples, z-rate and first integrals), and two dense
canonical (3,3) files with three maps each (`k3_dense`, and
`k3_perturbed`, whose perturbed tensor prints long bracket residuals).  Any change to a
check's name, order, residual or details shows up here.

To re-record after an intended output change, run from the repo root:

    python -m polaris verify <input> --trials 3 [--json] \
        > tests/golden/<stem>.verify.{txt,json}

`integrate` is pinned by its stdout and its trajectory CSV for three
runs over [0, 0.05] with h = 0.001: the demo's hamiltonian and nambu
flows, and a dense canonical (3,3) flow (`tests/golden/dense33.json`,
cubic in the leaves).  Each run copies its input into an empty
directory and names input and CSV by relative paths, so stdout holds
no machine path.  To re-record, run in such a directory:

    python -m polaris integrate <stem>.json H [flags] --out <case>.csv \
        > <case>.integrate.txt

and copy `<case>.integrate.txt` and `<case>.csv` (as
`<case>.integrate.csv`) into tests/golden/.
"""

import shutil
from pathlib import Path

import pytest

from polaris.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

INPUTS = {
    "demo": ("problems/demo.json", 0),
    "demo_perturbed": ("tests/golden/demo_perturbed.json", 1),
    "k3_dense": ("tests/golden/k3_dense.json", 0),
    "k3_perturbed": ("tests/golden/k3_perturbed.json", 1),
    "r3n_n2": ("tests/golden/r3n_n2.json", 0),
}


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("stem", sorted(INPUTS))
def test_verify_output_matches_golden(monkeypatch, capsys, stem, mode):
    path, exit_code = INPUTS[stem]
    monkeypatch.chdir(ROOT)  # the report names the file by the path given
    monkeypatch.delenv("POLARIS_SEED", raising=False)
    argv = ["verify", path, "--trials", "3"] + (["--json"] if mode == "json" else [])
    assert main(argv) == exit_code
    expected = (GOLDEN / f"{stem}.verify.{mode}").read_bytes()
    assert capsys.readouterr().out.encode("ascii") == expected


INTEGRATE_RUNS = {
    "demo": ("problems/demo.json", ["--t1", "0.05"]),
    "demo_nambu": ("problems/demo.json", ["--t1", "0.05", "--flow", "nambu"]),
    "dense33": ("tests/golden/dense33.json", []),
}


@pytest.mark.parametrize("case", sorted(INTEGRATE_RUNS))
def test_integrate_output_matches_golden(monkeypatch, capsys, tmp_path, case):
    source, flags = INTEGRATE_RUNS[case]
    name = Path(source).name
    shutil.copyfile(ROOT / source, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    argv = ["integrate", name, "H", *flags, "--out", f"{case}.csv"]
    assert main(argv) == 0
    expected = (GOLDEN / f"{case}.integrate.txt").read_bytes()
    assert capsys.readouterr().out.encode("ascii") == expected
    expected_csv = (GOLDEN / f"{case}.integrate.csv").read_bytes()
    assert (tmp_path / f"{case}.csv").read_bytes() == expected_csv
