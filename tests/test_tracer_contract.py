"""The benchmark's tracer wraps polaris by module path and public name.

`bench/tracer.py` lists every function and method it times; renaming or
deleting one of them breaks the traced benchmark run.  It also counts
terms and coefficient bits through `Polynomial.terms`.  Installing the
tracer here, and running one traced `verify`, catches either in the fast
suite.
"""

import importlib.util
from pathlib import Path

import polaris
import polaris.cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_on_every_listed_name():
    tracer = load_tracer()
    run_suite = polaris.checks.run_suite
    canonical = polaris.geometry.KSymplecticStructure.__dict__["canonical"]
    t = tracer.Tracer()
    try:
        t.install()
        assert polaris.checks.run_suite is not run_suite
    finally:
        t.uninstall()
    assert polaris.checks.run_suite is run_suite
    assert polaris.geometry.KSymplecticStructure.__dict__["canonical"] is canonical


def test_tracer_counts_a_verify_run(capsys):
    t = load_tracer().Tracer()
    try:
        t.install()
        code = polaris.cli.main(
            ["verify", str(ROOT / "problems" / "demo.json"), "--trials", "1"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = t.layer_metrics()
    for name in ("poly.mul.term_pairs", "poly.peak_terms",
                 "poly.max_coeff_bits", "checks.results"):
        assert metrics[name] > 0, name
