"""Byte-for-byte golden output of `polaris verify` and `polaris integrate`.

The expected stdout lives under tests/golden/, one text and one --json
file per input, all run with `--trials 3` and the file's seed.  The
inputs cover the passing demo, the demo with a perturbed Poisson tensor
(failing checks and their residual texts), a three-map nambu_r3n file
with n = 2 (triples, z-rate and first integrals), a nambu_r3n file with
n = 1 (`r3n_n1`: two polarized maps and one quadratic in x, so it exits
1 and runs the rk1-r3n consistency line), a nambu_rk1 file with k = 3
(`rk1_k3`: the odd-k sign of the z-component), two dense
canonical (3,3) files with three maps each (`k3_dense`, and
`k3_perturbed`, whose perturbed tensor prints long bracket residuals),
and a canonical (2,1) file with three maps (`k1_canonical`: a named
Jacobi triple at k = 1 and the `classical.*` lines).  Any change to a
check's name, order, residual or details shows up here.

To re-record after an intended output change, run from the repo root:

    python -m polaris verify <input> --trials 3 [--json] \
        > tests/golden/<stem>.verify.{txt,json}

`integrate` is pinned by its stdout and its trajectory CSV for three
runs over [0, 0.05] with h = 0.001: the demo's hamiltonian and nambu
flows, and a dense canonical (3,3) flow (`tests/golden/dense33.json`,
cubic in the leaves).  Two aborted runs exit 1 and pin which reason is
printed: the demo's nambu flow from (1, 1, 2) over [0, 1], which passes
its pole at t = 1/2 (`demo_blowup`), and a canonical (1,1) map whose
`H` overflows at t = 0 while its state blows up at t = 0.001 (`ovf`,
`tests/golden/ovf.json`).  Their CSVs hold the header and every row
written before the abort.  Each run copies its input into an empty
directory and names input and CSV by relative paths, so stdout holds
no machine path.  To re-record, run in such a directory:

    python -m polaris integrate <stem>.json H [flags] --out <case>.csv \
        > <case>.integrate.txt

and copy `<case>.integrate.txt` and `<case>.csv` (as
`<case>.integrate.csv`) into tests/golden/.

The same cases are replayed under every other CPython >= 3.10 that
starts here, `python3.X` on PATH and each pyenv install, so a change of
interpreter cannot move a byte of the output.  polaris needs only the
standard library, so those interpreters need no test packages.

The same verify runs also pin their work, counted in the kernel's own
units rather than in seconds, so a change that adds term pairs,
derivatives or built terms fails here whatever the host's speed.  The
replay under other interpreters counts the same work and must find the
same counts.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from polaris.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

INPUTS = {
    "demo": ("problems/demo.json", 0),
    "demo_perturbed": ("tests/golden/demo_perturbed.json", 1),
    "k1_canonical": ("tests/golden/k1_canonical.json", 0),
    "k3_dense": ("tests/golden/k3_dense.json", 0),
    "k3_perturbed": ("tests/golden/k3_perturbed.json", 1),
    "r3n_n1": ("tests/golden/r3n_n1.json", 1),
    "r3n_n2": ("tests/golden/r3n_n2.json", 0),
    "rk1_k3": ("tests/golden/rk1_k3.json", 0),
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


# Work of the verify runs above, counted by the kernel's own units: term
# pairs that `Polynomial.dot` (and so `*`) receives in both of its groups,
# sum of |a|*|b|; `partial` calls; those of them on the zero polynomial;
# and the terms written into the polynomials that `Polynomial._make`
# builds.  A change that lowers a count lowers its pin; one that raises
# it says why.
WORK_PINS = {"term_pairs": 409_465, "partial": 10_322, "partial_of_zero": 1_421,
             "terms_built": 108_921}
WORK_JOBS = [(["verify", path, "--trials", "3"], exit_code)
             for path, exit_code in INPUTS.values()]

# Source of `count_work(jobs)`, which runs `main(argv)` for each
# (argv, exit code) job with counting wrappers on the kernel and returns
# the exit codes and the counts.  This process and each child interpreter
# of the golden replay run it, so their counts can be compared.
COUNT_WORK = """
def count_work(jobs):
    import contextlib, io
    from polaris.cli import main
    from polaris.poly import Polynomial
    counts = dict.fromkeys(("term_pairs", "partial", "partial_of_zero",
                            "terms_built"), 0)
    kernel = {name: Polynomial.__dict__[name] for name in ("dot", "_make", "partial")}
    dot, make, partial = kernel["dot"].__func__, kernel["_make"].__func__, kernel["partial"]

    def counted(pairs):
        for a, b in pairs:
            counts["term_pairs"] += len(a.terms) * len(b.terms)
            yield a, b

    def counted_dot(cls, dim, pairs, minus=()):
        return dot(cls, dim, counted(pairs), counted(minus))

    def counted_make(cls, dim, num, den):
        counts["terms_built"] += len(num)
        return make(cls, dim, num, den)

    def counted_partial(self, var):
        counts["partial"] += 1
        counts["partial_of_zero"] += self.is_zero
        return partial(self, var)

    Polynomial.dot = classmethod(counted_dot)
    Polynomial._make = classmethod(counted_make)
    Polynomial.partial = counted_partial
    codes = []
    try:
        for argv, _ in jobs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
    finally:
        for name, raw in kernel.items():
            setattr(Polynomial, name, raw)
    return codes, counts
"""
_namespace: dict = {}
exec(COUNT_WORK, _namespace)
count_work = _namespace["count_work"]


@pytest.fixture(scope="module")
def work_here():
    """(exit codes, counts) of the counted verify runs in this interpreter."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)
        patch.delenv("POLARIS_SEED", raising=False)
        return count_work(WORK_JOBS)


def test_verify_work_stays_under_its_pins(work_here):
    codes, counts = work_here
    assert codes == [exit_code for _, exit_code in WORK_JOBS]
    assert all(counts[name] <= pin for name, pin in WORK_PINS.items()), counts


INTEGRATE_RUNS = {
    "demo": ("problems/demo.json", ["--t1", "0.05"], 0),
    "demo_nambu": ("problems/demo.json", ["--t1", "0.05", "--flow", "nambu"], 0),
    "dense33": ("tests/golden/dense33.json", [], 0),
    # z' = z^2 from z = 2 passes its pole at t = 1/2
    "demo_blowup": ("problems/demo.json",
                    ["--x0", "1,1,2", "--t1", "1", "--flow", "nambu"], 1),
    # H overflows at t = 0 and the state blows up one step later: the
    # blow-up is what is reported
    "ovf": ("tests/golden/ovf.json", [], 1),
}


@pytest.mark.parametrize("case", sorted(INTEGRATE_RUNS))
def test_integrate_output_matches_golden(monkeypatch, capsys, tmp_path, case):
    source, flags, exit_code = INTEGRATE_RUNS[case]
    name = Path(source).name
    shutil.copyfile(ROOT / source, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    argv = ["integrate", name, "H", *flags, "--out", f"{case}.csv"]
    assert main(argv) == exit_code
    expected = (GOLDEN / f"{case}.integrate.txt").read_bytes()
    assert capsys.readouterr().out.encode("ascii") == expected
    expected_csv = (GOLDEN / f"{case}.integrate.csv").read_bytes()
    assert (tmp_path / f"{case}.csv").read_bytes() == expected_csv


# run in a child interpreter after COUNT_WORK: each job chdirs, runs
# `main(argv)` with stdout captured, then the counted work jobs run from
# the repository root, and the child prints
# {"outputs": {job: [exit code, stdout]}, "work": [exit codes, counts]}
REPLAY = """
import contextlib, io, json, os, sys
from polaris.cli import main
out = {}
for name, (cwd, argv, _) in json.loads(sys.argv[1]).items():
    os.chdir(cwd)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[name] = [code, buf.getvalue()]
os.chdir(sys.argv[3])
work = count_work(json.loads(sys.argv[2]))
sys.stdout.write(json.dumps({"outputs": out, "work": work}))
"""


def _probe(exe):
    """((major, minor, micro), sys.executable) of a CPython that starts,
    else None; a shim resolves to the interpreter behind it."""
    probe = ("import sys; print(sys.implementation.name, *sys.version_info[:3],"
             " sys.executable)")
    try:
        done = subprocess.run([exe, "-c", probe], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    words = done.stdout.split(maxsplit=4)
    if done.returncode or len(words) != 5 or words[0] != "cpython":
        return None
    return tuple(int(w) for w in words[1:4]), words[4].strip()


def other_pythons():
    """One executable per CPython version >= 3.10 found, but this one's."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        try:
            root = subprocess.run([pyenv, "root"], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            root = ""
        if root:
            candidates += sorted(glob.glob(os.path.join(root, "versions", "*",
                                                        "bin", "python3")))
    found = {}
    for probed in map(_probe, filter(None, candidates)):
        if probed is not None and probed[0] >= (3, 10) \
                and probed[0] != tuple(sys.version_info[:3]):
            found.setdefault(*probed)
    return found


def test_golden_outputs_match_under_other_pythons(tmp_path, work_here):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 starts here")
    env = {key: value for key, value in os.environ.items()
           if key not in ("POLARIS_SEED", "PYTHONPATH", "PYTHONHOME")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for version, exe in sorted(pythons.items()):
        # {golden file: (cwd, argv, exit code)}
        jobs = {f"{stem}.verify.{mode}": (
                    str(ROOT), ["verify", path, "--trials", "3"]
                    + (["--json"] if mode == "json" else []), exit_code)
                for stem, (path, exit_code) in INPUTS.items()
                for mode in ("txt", "json")}
        for case, (source, flags, exit_code) in INTEGRATE_RUNS.items():
            where = tmp_path / ".".join(map(str, version)) / case
            where.mkdir(parents=True)
            name = Path(source).name
            shutil.copyfile(ROOT / source, where / name)
            jobs[f"{case}.integrate.txt"] = (
                str(where), ["integrate", name, "H", *flags, "--out", f"{case}.csv"],
                exit_code)
        done = subprocess.run([exe, "-c", COUNT_WORK + REPLAY, json.dumps(jobs),
                               json.dumps(WORK_JOBS), str(ROOT)],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert done.returncode == 0, (exe, done.stderr)
        replayed = json.loads(done.stdout)
        assert replayed["work"] == list(work_here), exe
        outputs = replayed["outputs"]
        for name, (_, _, exit_code) in jobs.items():
            code, text = outputs[name]
            assert code == exit_code, (exe, name)
            assert text.encode("ascii") == (GOLDEN / name).read_bytes(), (exe, name)
        for case in INTEGRATE_RUNS:
            csv = Path(jobs[f"{case}.integrate.txt"][0], f"{case}.csv").read_bytes()
            assert csv == (GOLDEN / f"{case}.integrate.csv").read_bytes(), (exe, case)
