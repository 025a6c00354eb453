"""Byte-for-byte golden output of `polaris verify`.

The expected stdout lives under tests/golden/, one text and one --json
file per input, all run with `--trials 3` and the file's seed.  The
inputs cover the passing demo, the demo with a perturbed Poisson tensor
(failing checks and their residual texts) and a three-map nambu_r3n
file with n = 2 (triples, z-rate and first integrals).  Any change to a
check's name, order, residual or details shows up here.

To re-record after an intended output change, run from the repo root:

    python -m polaris verify <input> --trials 3 [--json] \
        > tests/golden/<stem>.verify.{txt,json}
"""

from pathlib import Path

import pytest

from polaris.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

INPUTS = {
    "demo": ("problems/demo.json", 0),
    "demo_perturbed": ("tests/golden/demo_perturbed.json", 1),
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
