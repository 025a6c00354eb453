import json
import subprocess
import sys

import pytest

from polaris.cli import main

DEMO = {
    "space": "nambu_rk1",
    "k": 2,
    "hamiltonians": {"H": ["z*x", "z*y"], "K": ["x", "y"]},
    "tasks": {"x0": [1, 1, 1], "t0": 0, "t1": 1, "h": 0.001,
              "seed": 42, "trials": 25},
}


@pytest.fixture
def demo(tmp_path):
    def write(payload, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -------------------------------------------------------------


def test_validate_polarized(demo, capsys):
    code, out, _ = run(capsys, "validate", demo(DEMO))
    assert code == 0
    assert "map H: polarized  f=(q1)  g=(0, 0)" in out
    assert "map K: polarized  f=(1)  g=(0, 0)" in out


def test_validate_reports_failure_reason(demo, capsys):
    payload = dict(DEMO, hamiltonians={"B": ["x^2", "y"]})
    code, out, _ = run(capsys, "validate", demo(payload))
    assert code == 0
    assert "map B: not polarized" in out
    assert "nonlinear-in-fiber" in out


@pytest.mark.parametrize("expr, code", [
    ("(" * 3000 + "z" + ")" * 3000, 2),
    ("-" * 3000 + "z", 2),
    ("(" * 50 + "z" + ")" * 50, 0),
], ids=["parens-3000", "unary-minus-3000", "parens-50"])
def test_validate_deep_nesting(demo, expr, code):
    path = demo(dict(DEMO, hamiltonians={"H": [expr, "z*y"]}))
    cmd = [sys.executable, "-m", "polaris", "validate", path]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    if code == 2:
        assert done.stderr.startswith("error:")
        assert "nested too deeply" in done.stderr


def test_component_count_mismatch(demo, capsys):
    payload = dict(DEMO, hamiltonians={"H": ["z*x", "z*y", "z"]})
    code, _, err = run(capsys, "validate", demo(payload))
    assert code == 2
    assert "3 components" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_unknown_keys_rejected(demo, capsys):
    payload = dict(DEMO, extra=1)
    code, _, err = run(capsys, "validate", demo(payload))
    assert code == 2
    assert "unknown keys: extra" in err


def test_unknown_variable_rejected(demo, capsys):
    payload = dict(DEMO, hamiltonians={"H": ["z*w", "z*y"]})
    code, _, err = run(capsys, "validate", demo(payload))
    assert code == 2
    assert "unknown variable" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/problem.json")
    assert code == 2
    assert "cannot read" in err


# -- bracket / field / nambu -------------------------------------------------


def test_bracket_command(demo, capsys):
    code, out, _ = run(capsys, "bracket", demo(DEMO), "H", "K")
    assert code == 0
    assert "{H,K} = (x1_1, x2_1)" in out
    assert "f = (1)" in out


def test_bracket_with_self_is_zero(demo, capsys):
    code, out, _ = run(capsys, "bracket", demo(DEMO), "H", "H")
    assert code == 0
    assert "{H,H} = (0, 0)" in out


def test_bracket_of_generator_pair(demo, capsys):
    payload = dict(DEMO, hamiltonians={
        "G1": ["x", "y"],          # components (x^{11}, x^{21})
        "M11": ["0-z", "0"],       # components -x^1 delta^{p1}
    })
    code, out, _ = run(capsys, "bracket", demo(payload), "G1", "M11")
    assert code == 0
    assert "{G1,M11} = (1, 0)" in out


def test_bracket_unknown_map(demo, capsys):
    code, _, err = run(capsys, "bracket", demo(DEMO), "H", "Q")
    assert code == 2
    assert "no map named 'Q'" in err


def test_field_command(demo, capsys):
    code, out, _ = run(capsys, "field", demo(DEMO), "H")
    assert code == 0
    assert "X[H] = (-x1_1, -x2_1, q1)" in out


def test_field_requires_polarized(demo, capsys):
    payload = dict(DEMO, hamiltonians={"B": ["x^2", "y"]})
    code, _, err = run(capsys, "field", demo(payload), "B")
    assert code == 2
    assert "polarized" in err


def test_nambu_command(demo, capsys):
    code, out, _ = run(capsys, "nambu", demo(DEMO), "H")
    assert code == 0
    assert "XN[H] = (-x1_1*q1, -x2_1*q1, q1^2)" in out


def test_nambu_needs_nambu_space(demo, capsys):
    payload = dict(DEMO, space="canonical", n=1,
                   aliases={"x": "x1_1", "y": "x2_1", "z": "q1"})
    code, _, err = run(capsys, "nambu", demo(payload), "H")
    assert code == 2
    assert "nambu" in err


def test_nambu_r3n_command(demo, capsys):
    payload = {"space": "nambu_r3n", "n": 1,
               "hamiltonians": {"H": ["z*x", "z*y"]}}
    code, out, _ = run(capsys, "nambu", demo(payload), "H")
    assert code == 0
    assert "XN[H] = (-x1_1*q1, -x2_1*q1, q1^2)" in out


# -- verify --------------------------------------------------------------------


def test_verify_passes(demo, capsys):
    code, out, _ = run(capsys, "verify", demo(DEMO), "--trials", "10")
    assert code == 0
    assert "seed: 42" in out
    assert "result: PASS" in out


def test_verify_empty_map_set_runs_structure_only(demo, capsys):
    payload = {"space": "canonical", "n": 2, "k": 2}
    code, out, _ = run(capsys, "verify", demo(payload))
    assert code == 0
    assert "structure.joint-characteristic-trivial" in out
    assert "random.routes" not in out


def test_verify_detects_perturbed_tensor(demo, capsys):
    payload = dict(DEMO)
    payload["poisson_perturbation"] = [
        {"i": "q1", "j": "x1_1", "p": 1, "q": 1, "r": 1, "coeff": "1"}]
    code, out, _ = run(capsys, "verify", demo(payload), "--trials", "5")
    assert code == 1
    assert "FAIL routes[H,K]" in out
    line = next(l for l in out.splitlines() if l.startswith("FAIL routes"))
    assert "residual=(0, 0)" not in line


def test_verify_json_mode(demo, capsys):
    code, out, _ = run(capsys, "verify", demo(DEMO), "--trials", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["seed"] == 42
    assert any(c["name"].startswith("nambu.relation") for c in report["checks"])


def test_verify_seed_priority(demo, capsys, monkeypatch):
    path = demo(DEMO)
    monkeypatch.setenv("POLARIS_SEED", "7")
    code, out, _ = run(capsys, "verify", path, "--trials", "5")
    assert code == 0 and "seed: 7" in out
    code, out, _ = run(capsys, "verify", path, "--trials", "5", "--seed", "9")
    assert code == 0 and "seed: 9" in out
    monkeypatch.setenv("POLARIS_SEED", "junk")
    code, _, err = run(capsys, "verify", path)
    assert code == 2
    assert "POLARIS_SEED" in err


def test_verify_classical_section_at_k1(demo, capsys):
    payload = {"space": "canonical", "n": 1, "k": 1,
               "hamiltonians": {"A": ["q1^2*x1_1 + q1"]}}
    code, out, _ = run(capsys, "verify", demo(payload), "--trials", "10")
    assert code == 0
    assert "classical.leibniz" in out


# -- integrate --------------------------------------------------------------------


def test_integrate_hamiltonian_flow(demo, capsys, tmp_path):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "integrate", demo(DEMO), "H",
                       "--flow", "hamiltonian", "--out", str(out_csv))
    assert code == 0
    drift_lines = [l for l in out.splitlines() if l.startswith("drift")]
    assert len(drift_lines) == 2
    for line in drift_lines:
        assert float(line.split("=")[1]) <= 1e-9
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x1_1,x2_1,q1"


def test_integrate_rejects_bad_step(demo, capsys):
    code, _, err = run(capsys, "integrate", demo(DEMO), "H", "--h", "0")
    assert code == 2
    assert "step size" in err


@pytest.mark.parametrize("t1_text, flags", [
    ("1", ["--t1", "inf"]),
    ("1", ["--h", "1e-320"]),
    ("1", ["--t0=-inf"]),
    ("1", ["--x0", "nan,1,1"]),
    ("1e400", []),
    ("1" + "0" * 400, []),
    ("1", ["--t0", "1e17", "--t1", "100000000000001000", "--h", "1"]),
    ("1", ["--x0", "1e13,1,1"]),
], ids=["t1-inf", "h-subnormal", "t0-minus-inf", "x0-nan", "file-t1-1e400",
        "file-t1-huge-int", "h-below-float-resolution", "x0-beyond-blowup"])
def test_integrate_rejects_non_finite_input(tmp_path, t1_text, flags):
    text = json.dumps(DEMO)
    assert '"t1": 1,' in text
    path = tmp_path / "problem.json"
    path.write_text(text.replace('"t1": 1,', f'"t1": {t1_text},'))
    cmd = [sys.executable, "-m", "polaris", "integrate", str(path), "H", *flags]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def test_integrate_needs_initial_state(demo, capsys):
    payload = dict(DEMO, tasks={"t1": 1, "h": 0.001})
    code, _, err = run(capsys, "integrate", demo(payload), "H")
    assert code == 2
    assert "initial state" in err


def test_integrate_flag_overrides(demo, capsys):
    code, out, _ = run(capsys, "integrate", demo(DEMO), "H",
                       "--x0", "2,2,1", "--t1", "0.5", "--h", "0.01")
    assert code == 0
    assert "x0=(2, 2, 1)" in out


def test_integrate_blowup_reports_failure(demo, capsys):
    payload = dict(DEMO, tasks={"x0": [1, 1, 2], "t0": 0, "t1": 1, "h": 0.001})
    code, out, _ = run(capsys, "integrate", demo(payload), "H", "--flow", "nambu")
    assert code == 1
    assert "integration aborted" in out


def test_integrate_nambu_flow_on_pole_free_span(demo, capsys):
    # the demo trajectory blows up at t = 1; half the span stays tame
    code, out, _ = run(capsys, "integrate", demo(DEMO), "H",
                       "--flow", "nambu", "--t1", "0.5")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("drift"):
            assert float(line.split("=")[1]) <= 1e-8


# -- determinism -----------------------------------------------------------------


def test_verify_reports_are_byte_identical(demo):
    path = demo(DEMO)
    cmd = [sys.executable, "-m", "polaris", "verify", path, "--trials", "10"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # sanity: something was printed


def test_integrate_csv_byte_identical(demo, tmp_path):
    path = demo(DEMO)
    outputs = []
    for name in ("a.csv", "b.csv"):
        target = tmp_path / name
        cmd = [sys.executable, "-m", "polaris", "integrate", path, "H",
               "--out", str(target)]
        subprocess.run(cmd, capture_output=True, check=True)
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
