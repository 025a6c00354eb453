import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from polaris.cli import MAX_DIM, MAX_TRIALS, build_parser, main
from polaris.parsing import MAX_NESTING
from polaris.poly import MAX_EXPONENT

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


@pytest.mark.parametrize("n, k, first, second", [
    (1, 1, ["x1_1^2*q1 + x1_1^3"], ["x1_1^3 + x1_1^2*q1"]),
    (2, 2, ["x2_1*q1 + x2_2", "x2_1"], ["x2_2 + x2_1*q1", "x2_1"]),
], ids=["fiber-degree", "cross-block"])
def test_validate_reason_ignores_term_spelling(demo, capsys, n, k, first, second):
    reports = []
    for exprs in (first, second):
        payload = {"space": "canonical", "n": n, "k": k,
                   "hamiltonians": {"A": exprs}}
        code, out, _ = run(capsys, "validate", demo(payload), "--json")
        assert code == 0
        reports.append(json.loads(out)["maps"])
    assert reports[0] == reports[1]
    assert not reports[0][0]["polarized"]


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


def test_validate_deep_json(tmp_path):
    # json.load gives up on deep nesting with RecursionError: bad input
    path = tmp_path / "deep.json"
    path.write_text('{"space": ' + "[" * 200_000)
    cmd = [sys.executable, "-m", "polaris", "validate", str(path)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "not valid JSON" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("payload", [
    dict(DEMO, hamiltonians={"H": ["1" * 5000 + "*x", "z*y"]}),
    dict(DEMO, poisson_perturbation=[{"i": "q1", "j": "x1_1", "p": 1, "q": 1,
                                      "r": 1, "coeff": "1/" + "7" * 5000}]),
], ids=["map", "perturbation"])
def test_validate_number_too_long(demo, payload):
    cmd = [sys.executable, "-m", "polaris", "validate", demo(payload)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "number too long (at byte 0)" in done.stderr
    assert "Traceback" not in done.stderr


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


@pytest.mark.parametrize("space, size", [
    ({"space": "canonical", "n": MAX_DIM // 2, "k": 1}, MAX_DIM),
    ({"space": "canonical", "n": 1, "k": MAX_DIM - 1}, MAX_DIM),
    ({"space": "nambu_rk1", "k": MAX_DIM - 1}, MAX_DIM),
    ({"space": "nambu_r3n", "n": MAX_DIM // 3}, MAX_DIM // 3 * 3),
    ({"space": "canonical", "n": 1, "k": MAX_DIM}, MAX_DIM + 1),
    ({"space": "canonical", "n": 20, "k": 20}, 420),
    ({"space": "canonical", "n": 10 ** 12, "k": 1}, 2 * 10 ** 12),
    ({"space": "nambu_rk1", "k": MAX_DIM}, MAX_DIM + 1),
    ({"space": "nambu_r3n", "n": MAX_DIM // 3 + 1}, MAX_DIM // 3 * 3 + 3),
], ids=["n-at-bound", "k-at-bound", "rk1-at-bound", "r3n-at-bound",
        "k-past-bound", "n20-k20", "huge-n", "rk1-past-bound", "r3n-past-bound"])
def test_chart_dimension_bound(demo, capsys, space, size):
    code, out, err = run(capsys, "validate", demo(space))
    if size <= MAX_DIM:
        assert code == 0
        assert f"dim={size}" in out
    else:
        assert code == 2
        assert err == (f"error: chart dimension n(k+1) = {size} "
                       f"exceeds {MAX_DIM}\n")


@pytest.mark.parametrize("slot", ["p", "q", "r"])
def test_perturbation_rejects_boolean_slot(demo, capsys, slot):
    entry = {"i": "q1", "j": "x1_1", "p": 1, "q": 1, "r": 1, "coeff": "1"}
    entry[slot] = True
    payload = dict(DEMO, poisson_perturbation=[entry])
    code, _, err = run(capsys, "validate", demo(payload))
    assert code == 2
    assert err == f"error: perturbation 0: {slot} must be in 1..2\n"


@pytest.mark.parametrize("payload, argv", [
    ({"space": "canonical", "n": 1, "k": 1,
      "hamiltonians": {"H": ["q1^32*x1_1"], "K": ["q1^2*x1_1"]},
      "tasks": {"trials": 1}}, ["verify"]),
    ({"space": "canonical", "n": 1, "k": 1,
      "hamiltonians": {"H": ["q1^32*x1_1"], "K": ["q1^2*x1_1"]}},
     ["bracket", "H", "K"]),
    ({"space": "nambu_rk1", "k": 2,
      "hamiltonians": {"H": ["z^32*x", "z^32*y"]}}, ["nambu", "H"]),
], ids=["verify", "bracket", "nambu"])
def test_degree_overflow_is_bad_input(demo, payload, argv):
    path = demo(payload)
    cmd = [sys.executable, "-m", "polaris", argv[0], path, *argv[1:]]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "exponent above cap" in done.stderr
    assert "Traceback" not in done.stderr


# (10^d - 1)^30 has 30d digits, one more run of 30 than Python's limit on
# converting an int to text; the literal itself is short enough to parse
UNPRINTABLE = "9" * (sys.get_int_max_str_digits() // 30 + 1)


@pytest.mark.parametrize("argv", [["validate"], ["field", "H"],
                                  ["bracket", "H", "K"],
                                  ["verify", "--trials", "1"]],
                         ids=["validate", "field", "bracket", "verify"])
def test_unprintable_coefficient_is_bad_input(demo, capsys, argv):
    payload = {"space": "canonical", "n": 1, "k": 1,
               "hamiltonians": {"H": [f"({UNPRINTABLE}*q1)^30*x1_1"],
                                "K": ["x1_1"]}}
    code, out, err = run(capsys, argv[0], demo(payload), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == ("error: coefficient too long to print (over "
                   f"{sys.get_int_max_str_digits()} digits)\n")


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


@pytest.mark.parametrize("k", [17, 33])
def test_verify_nambu_rk1_past_half_the_cap(demo, capsys, k):
    # the z-component of the random relation check is +-f^k, so f must
    # stay of degree at most MAX_EXPONENT // k
    code, out, err = run(capsys, "verify", demo({"space": "nambu_rk1", "k": k}))
    assert (code, err) == (0, "")
    assert "result: PASS" in out


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


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 100_000_000])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_verify_rejects_too_many_trials(demo, capsys, source, trials):
    if source == "flag":
        code, _, err = run(capsys, "verify", demo(DEMO), "--trials", str(trials))
    else:
        payload = dict(DEMO, tasks=dict(DEMO["tasks"], trials=trials))
        code, _, err = run(capsys, "verify", demo(payload))
    assert code == 2
    assert err == f"error: trials must be between 1 and {MAX_TRIALS}\n"


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


def test_integrate_rejects_unwritable_out(demo, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    cmd = [sys.executable, "-m", "polaris", "integrate", demo(DEMO), "H",
           "--t1", "0.01", "--out", str(target)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("where", ["missing-folder", "folder"])
def test_integrate_checks_out_before_integrating(demo, capsys, tmp_path,
                                                 monkeypatch, where):
    def never(*args, **kwargs):
        raise AssertionError("integrated before checking --out")

    monkeypatch.setattr("polaris.cli.rk4_stream", never)
    monkeypatch.setattr("polaris.cli.hamiltonian_field", never)
    target = tmp_path / "missing" / "x.csv" if where == "missing-folder" else tmp_path
    code, out, err = run(capsys, "integrate", demo(DEMO), "H",
                         "--t1", "0.5", "--h", "0.00001", "--out", str(target))
    assert code == 2
    assert err.startswith(f"error: cannot write {target}")
    assert out == ""
    assert not (tmp_path / "missing").exists()


def test_integrate_needs_initial_state(demo, capsys):
    payload = dict(DEMO, tasks={"t1": 1, "h": 0.001})
    code, _, err = run(capsys, "integrate", demo(payload), "H")
    assert code == 2
    assert "initial state" in err


def test_integrate_needs_a_polarized_map(demo, capsys):
    payload = dict(DEMO, hamiltonians={"H": ["x^2", "z*y"]})
    code, out, err = run(capsys, "integrate", demo(payload), "H")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the field of a map needs a polarized map:")


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


def test_integrate_float_overflow_reports_failure(demo, capsys):
    # the field holds 31*q1^30, and q1 = 1e11 overflows its power
    payload = {"space": "canonical", "n": 1, "k": 1,
               "hamiltonians": {"H": ["q1*x1_1 + q1^31"]},
               "tasks": {"x0": [1, 1e11], "t0": 0, "t1": 0.01, "h": 0.001}}
    code, out, err = run(capsys, "integrate", demo(payload), "H")
    assert code == 1
    assert "integration aborted: float overflow" in out
    assert err == ""


def test_an_overflow_of_h_waits_for_the_blowup(demo, capsys, tmp_path):
    # H's constant overflows a float when H is compiled; the field is G's,
    # and its blow-up at t = 1.01 is reported as it is for G
    payload = {"space": "canonical", "n": 1, "k": 1,
               "hamiltonians": {"H": ["q1^2*x1_1 + 1" + "0" * 400],
                                "G": ["q1^2*x1_1"]},
               "tasks": {"x0": [1, 1], "t0": 0, "t1": 2, "h": 0.01}}
    path = demo(payload)
    reasons, rows = [], []
    for name in ("G", "H"):
        out_csv = tmp_path / f"{name}.csv"
        code, out, _ = run(capsys, "integrate", path, name, "--out", str(out_csv))
        assert code == 1
        reasons.append(out.splitlines()[-1])
        rows.append(out_csv.read_bytes())
    assert reasons[0] == reasons[1]
    assert reasons[0].startswith("integration aborted: state magnitude")
    assert reasons[0].endswith("at t=1.01")
    assert rows[0] == rows[1]
    assert len(rows[0].splitlines()) == 1 + 101


def test_integrate_nambu_flow_on_pole_free_span(demo, capsys):
    # the demo trajectory blows up at t = 1; half the span stays tame
    code, out, _ = run(capsys, "integrate", demo(DEMO), "H",
                       "--flow", "nambu", "--t1", "0.5")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("drift"):
            assert float(line.split("=")[1]) <= 1e-8


@pytest.mark.parametrize("t0, t1, h", [("0", "1e-13", "1"),
                                       ("5", "5.000000000001", "0.1")])
def test_integrate_span_within_rounding_steps_from_t0(demo, capsys, tmp_path,
                                                      t0, t1, h):
    # t1 - t0 lies within the grid's rounding of t1: the grid is [t0, t1]
    payload = {"space": "canonical", "n": 1, "k": 1,
               "hamiltonians": {"H": ["q1*x1_1"]}}
    out_csv = tmp_path / "g.csv"
    code, out, _ = run(capsys, "integrate", demo(payload), "H", "--x0", "1,1",
                       "--t0", t0, "--t1", t1, "--h", h, "--out", str(out_csv))
    assert code == 0
    assert "samples: 2" in out
    rows = out_csv.read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows[1:]] == [float(t0), float(t1)]
    assert rows[1].split(",")[1:] == ["1", "1"]


def test_aborted_integration_keeps_the_rows_before_the_abort(demo, capsys,
                                                             tmp_path):
    # from z = 2 the nambu flow passes its pole at t = 1/2 and aborts at
    # t = 0.501; a run over [0, 0.5] writes the same header and rows
    path = demo(DEMO)
    aborted, whole = tmp_path / "aborted.csv", tmp_path / "whole.csv"
    flags = ["--flow", "nambu", "--x0", "1,1,2"]
    code, out, _ = run(capsys, "integrate", path, "H", *flags, "--out", str(aborted))
    assert code == 1
    assert "integration aborted: state magnitude" in out
    assert "at t=0.501" in out
    assert "csv:" not in out
    code, out, _ = run(capsys, "integrate", path, "H", *flags, "--t1", "0.5",
                       "--out", str(whole))
    assert code == 0
    assert "samples: 501" in out
    assert aborted.read_bytes() == whole.read_bytes()


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


# -- fuzz ------------------------------------------------------------------------

DEMO_FILE = Path(__file__).resolve().parent.parent / "problems" / "demo.json"
FUZZ_COMMANDS = (["validate"], ["verify", "--trials", "1"], ["bracket", "H", "K"],
                 ["field", "H"], ["nambu", "H"], ["integrate", "H"])
# a JSON number too long for int(): json.dumps cannot write it, so it is
# spliced into the text
BIG = "@big@"
# one expression per parse-error class, literals past the int-conversion
# limit, and a few valid ones
FUZZ_EXPRESSIONS = (
    "z\u00b2", "1.", "1/", "1/0", "z$",
    "(" * (MAX_NESTING + 1) + "z" + ")" * (MAX_NESTING + 1),
    "z^32*z", "z^-1", "z^(2)", "z^33", "(z^8)^8", "w", "(z", ")", "", "z z",
    "1" * 5000 + "*x", "z^" + "9" * 5000, "0." + "1" * 5000, "1/" + "7" * 5000,
    "z*x", "x^2", "2*z*x + 1/3*y", "0.5*z^31*x",
)
FUZZ_VALUES = (None, True, 0, -1, 2, 0.25, 1e308, 1e-300, "", "z", "x1_1", [],
               {}, [1, 1], BIG, "1" * 5000)
# power mutations of a map component, at and past MAX_EXPONENT, with and
# without a coefficient whose power passes the int-to-string digit limit:
# "(c*expr)^N" replaces the component, "expr + (c*z)^N" adds a basic
# (leaf-only) term, so the map stays polarized and every command prints it
BIG_FACTOR = "9" * (sys.get_int_max_str_digits() // MAX_EXPONENT + 1) + "*"
FUZZ_POWERS = tuple(
    (template, factor, exponent)
    for template in ("({c}{expr})^{N}", "{expr} + ({c}z)^{N}")
    for factor in ("", BIG_FACTOR)
    for exponent in (MAX_EXPONENT, MAX_EXPONENT + 1))
FUZZ_PATHS = (
    ("space",), ("k",), ("n",), ("aliases",), ("hamiltonians",),
    ("hamiltonians", "H"), ("hamiltonians", "H", 0), ("hamiltonians", "H", 1),
    ("hamiltonians", "K", 0), ("hamiltonians", "K", 1), ("tasks",),
    ("tasks", "x0"), ("tasks", "x0", 2), ("tasks", "t0"), ("tasks", "t1"),
    ("tasks", "h"), ("tasks", "seed"), ("tasks", "trials"),
    ("poisson_perturbation",),
)


def _fuzz_cases():
    rng = random.Random(11)
    cases = [(("hamiltonians", rng.choice("HK"), rng.randrange(2)), expr)
             for expr in FUZZ_EXPRESSIONS]
    cases += [(("poisson_perturbation",),
               [{"i": "q1", "j": "x1_1", "p": 1, "q": 1, "r": 1, "coeff": coeff}])
              for coeff in ("1/" + "7" * 5000, "z^-1", "2", BIG)]
    cases += [(rng.choice(FUZZ_PATHS), rng.choice(FUZZ_VALUES + FUZZ_EXPRESSIONS))
              for _ in range(60)]
    maps = json.loads(DEMO_FILE.read_text())["hamiltonians"]
    for template, factor, exponent in FUZZ_POWERS:
        name, slot = rng.choice("HK"), rng.randrange(2)
        value = template.format(c=factor, expr=maps[name][slot], N=exponent)
        cases.append((("hamiltonians", name, slot), value))
    return cases


FUZZ_CASES = _fuzz_cases()


@pytest.mark.parametrize("path, value", FUZZ_CASES, ids=[
    f"{index}-{'.'.join(map(str, path))}" for index, (path, _) in enumerate(FUZZ_CASES)])
def test_fuzz_one_field_never_crashes(tmp_path, capsys, path, value):
    doc = json.loads(DEMO_FILE.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    problem = tmp_path / "fuzz.json"
    problem.write_text(json.dumps(doc).replace(json.dumps(BIG), "1" * 5000))
    for command in FUZZ_COMMANDS:
        code = main([command[0], str(problem), *command[1:]])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), command
        assert "Traceback" not in err


# -- one argument parser per process -------------------------------------------


def test_successive_calls_answer_like_fresh_processes(demo, capsys, monkeypatch):
    # `main` builds its argument parser once; every later call, also after
    # a usage error or --help, must print and exit as a new process does
    monkeypatch.setenv("COLUMNS", "80")  # the same help layout in both
    path = demo(DEMO)
    calls = [
        ["validate", path],
        ["field", path, "H"],
        ["verify", path, "--trials", "abc"],  # usage error: exit 2
        ["bracket", path, "H", "K", "--json"],
        ["--help"],
        ["verify", path, "--trials", "3"],
        ["nope", path],
        ["nambu", path, "H"],
        ["verify", "--help"],
        ["validate", path, "--json"],
    ]
    build_parser.cache_clear()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "polaris", *argv],
                               capture_output=True, text=True)
        assert (code, captured.out, captured.err) \
            == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser.cache_info().misses == 1


# -- output faults and memory ----------------------------------------------------

K3_DENSE = Path(__file__).resolve().parent / "golden" / "k3_dense.json"
WRITE_FAULT_COMMANDS = {
    "verify": ["verify", str(K3_DENSE), "--trials", "1"],
    "verify-json": ["verify", str(K3_DENSE), "--trials", "1", "--json"],
    "integrate": ["integrate", str(DEMO_FILE), "H", "--t1", "0.01"],
}


@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
@pytest.mark.parametrize("command", sorted(WRITE_FAULT_COMMANDS))
def test_failed_stdout_write_is_exit_2(command, sink):
    cmd = [sys.executable, "-m", "polaris", *WRITE_FAULT_COMMANDS[command]]
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        with open("/dev/full", "w") as target:
            done = subprocess.run(cmd, stdout=target, stderr=subprocess.PIPE,
                                  text=True)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader, before the child starts
        try:
            done = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True)
        finally:
            os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write output: ")
    # one line: no traceback, and nothing from the final flush
    assert done.stderr.count("\n") == 1, done.stderr


# the child prints the exit code and its peak RSS in KiB on stderr
RSS_PROBE = """
import resource, sys
from polaris.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"{code} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_integrate_memory_does_not_grow_with_the_step_count(tmp_path):
    peaks = []
    for steps in (20_000, 200_000):
        cmd = [sys.executable, "-c", RSS_PROBE, "integrate", str(DEMO_FILE), "H",
               "--t1", "1", "--h", repr(1 / steps), "--out", str(tmp_path / "t.csv")]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        code, peak = map(int, done.stderr.split())
        assert code == 0
        assert f"samples: {steps + 1}" in done.stdout
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= 2 * 1024, peaks
