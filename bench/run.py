"""polaris benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload verify-k3 --seed 1 --seconds 38 --trace 0

Run from anywhere inside a source checkout; inputs and outputs go to
`.bench_work/<workload>/` at its root.  The workloads are closed loops
with one client: each request is a `polaris.cli.main(argv)` call in this
process, with stdout captured, issued after the previous one returned.
Every request is checked against the answer the mathematics predicts
(see workloads.py).

--trace 0 prints the end-to-end metrics:
  work_per_s    verify requests with the expected verdict per second of
                busy time on verify-*, RK4 steps per second on integrate
  req_p50_s     median request latency (the sample count is printed)
  setup_s       median over fresh processes of importing polaris and
                loading every problem file of the workload once
  peak_rss_mib  peak resident memory of this process
--trace 1 replays the workload's fixed request prefix untraced and then
traced (tracer.py), pass after pass while another fits in the time, and
prints the median per-layer metrics and the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Lines before it repeat the metrics for people, with the
fail ratio and a sha256 over the stdout and CSV bytes of the fixed
request prefix, which must not change between commits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
SETUP_CODE = """\
import sys, time
sys.path.insert(0, "src")
start = time.perf_counter()
import polaris.cli
for path in sys.argv[1:]:
    polaris.cli.load_problem(path)
print(repr(time.perf_counter() - start))
"""


def measure_setup(paths: list[str]) -> list[float]:
    """Seconds for fresh interpreters to import polaris and load `paths`.

    One process runs first untimed, so bytecode caches are written as
    they would be after installation.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *paths],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times[1:]


def call(cli, req: workloads.Request):
    """Issue one request through the CLI entry point and check the answer.

    Returns (seconds, failure reason or None, stdout bytes, csv bytes).
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed run
        elapsed = perf_counter() - start
        return elapsed, f"{type(exc).__name__}: {exc}", b"", b""
    elapsed = perf_counter() - start
    csv = b""
    if req.csv is not None and os.path.exists(req.csv):
        csv = Path(req.csv).read_bytes()
    stdout = out.getvalue()
    reason = workloads.check(req, code, stdout, csv)
    if reason and err.getvalue():
        reason += f"; stderr: {err.getvalue().strip()}"
    return elapsed, reason, stdout.encode(), csv


def timed_run(cli, requests, prefix, seconds):
    """Closed loop until `seconds` have passed and the prefix is done."""
    digest = hashlib.sha256()
    latencies, failures = [], []
    work = 0
    deadline = perf_counter() + seconds
    n = 0
    while n < prefix or perf_counter() < deadline:
        req = requests[n % len(requests)]
        elapsed, reason, stdout, csv = call(cli, req)
        latencies.append(elapsed)
        if n < prefix:
            digest.update(stdout)
            digest.update(csv)
        if reason:
            failures.append(f"{req.problem}: {reason}")
        else:
            work += req.samples - 1 if req.csv else 1
        n += 1
    return latencies, failures, work, digest.hexdigest()


def traced_run(cli, batch, seconds, spans_path):
    """Untraced then traced passes over `batch` while another fits in `seconds`."""
    tracer = Tracer()
    passes, failures = [], []
    deadline = perf_counter() + seconds
    last = 0.0
    while not passes or perf_counter() + last < deadline:
        started = perf_counter()
        untraced = 0.0
        for req in batch:
            elapsed, reason, _, _ = call(cli, req)
            untraced += elapsed
            if reason:
                failures.append(f"{req.problem}: {reason}")
        tracer.reset()
        tracer.install()
        traced = 0.0
        try:
            for index, req in enumerate(batch):
                tracer.request_id = index
                elapsed, reason, _, _ = call(cli, req)
                traced += elapsed
                if reason:
                    failures.append(f"{req.problem} (traced): {reason}")
        finally:
            tracer.uninstall()
        if not passes:
            tracer.write(spans_path)
        layers = tracer.layer_metrics()
        layers["trace.requests"] = len(batch)
        layers["trace.overhead_ratio"] = traced / untraced
        passes.append(layers)
        last = perf_counter() - started
    metrics = {name: statistics.median_low(p[name] for p in passes)
               for name, _ in LAYER_METRICS}
    return metrics, failures, 2 * len(batch) * len(passes), len(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polaris" / "cli.py").is_file():
        sys.stderr.write(f"error: no polaris sources under {ROOT / 'src'}\n")
        return 2
    os.chdir(ROOT)
    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    requests = workloads.generate(args.workload, args.seed, work)
    prefix = workloads.PREFIX_REQUESTS[args.workload]

    sys.path.insert(0, "src")
    setup = [] if args.trace else measure_setup(
        sorted({req.problem for req in requests}))
    import polaris.cli

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        metrics, failures, attempted, passes = traced_run(
            polaris.cli, requests[:prefix], args.seconds, work / "spans.jsonl")
        units = dict(LAYER_METRICS)
        report = {name: {"value": value, "unit": units[name]}
                  for name, value in metrics.items()}
        notes = {}
        print(f"medians over {passes} passes of {prefix} requests; "
              f"spans in {work / 'spans.jsonl'}")
    else:
        latencies, failures, work_done, digest = timed_run(
            polaris.cli, requests, prefix, args.seconds)
        attempted = len(latencies)
        busy = sum(latencies)
        per = "steps" if args.workload == "integrate" else "verify"
        report = {
            "work_per_s": {"value": work_done / busy, "unit": "1/s"},
            "req_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"unit": "MiB", "value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024},
        }
        notes = {"work_per_s": f"{per}_per_s: {work_done} {per} in {busy:.3f} s busy",
                 "req_p50_s": f"n={attempted}",
                 "setup_s": f"median of {len(setup)} processes"}
        print(f"digest = sha256:{digest}  (first {prefix} requests)")
    for name, m in report.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']!r} {m['unit']}{note}")
    print(f"fail_ratio = {len(failures) / attempted!r} ratio  "
          f"({len(failures)} of {attempted})")
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
