"""The benchmark's tracer wraps polaris by module path and public name.

`bench/tracer.py` lists every function and method it times; renaming or
deleting one of them breaks the traced benchmark run.  Installing and
uninstalling the tracer here catches that in the fast suite.
"""

import importlib.util
from pathlib import Path

import polaris
import polaris.cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_installs_on_every_listed_name():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
