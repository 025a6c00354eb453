"""File-driven command line front end.

Problem files are strict JSON documents:

    {
      "space": "canonical" | "nambu_rk1" | "nambu_r3n",
      "n": 1, "k": 2,
      "aliases": {"x": "x1_1"},
      "hamiltonians": {"H": ["z*x", "z*y"]},
      "tasks": {"x0": [1, 1, 1], "t0": 0, "t1": 1, "h": 0.001,
                "seed": 42, "trials": 100},
      "poisson_perturbation": [
        {"i": "q1", "j": "x1_1", "p": 1, "q": 1, "r": 1, "coeff": "1"}]
    }

Unknown keys anywhere are errors.  "canonical" needs n and k; "nambu_rk1"
needs k >= 2 (n is fixed at 1); "nambu_r3n" needs n >= 1 (k is fixed
at 2); the chart dimension n(k+1) is at most MAX_DIM.  Hamiltonian maps
list one expression per component (k of them).
"poisson_perturbation" adds wedge coefficients to the canonical Poisson
tensor and exists for fault-injection fixtures.

Exit codes: 0 all good, 1 a verification or integration failed, 2 bad
input or a report that stdout would not take.  Reports are plain text
by default and a JSON document with --json; identical inputs produce
byte-identical output.  The random seed for verification is taken from
--seed, else the POLARIS_SEED environment variable, else the file's
tasks, else 42.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass

from .checks import run_suite
from .dynamics import BlowUpError, conservation_report, csv_format, rk4_stream
from .geometry import Chart, RkMap
from .hamiltonian import (
    GeneralPoissonTensor,
    NotPolarized,
    canonical_poisson_tensor,
    bracket,
    decompose_polarized,
    hamiltonian_field,
)
from .nambu import NambuSpaceR3n, NambuSpaceRk1, nambu_field_r3n, nambu_field_rk1
from .parsing import ParseError, parse_polynomial
from .poly import DegreeOverflowError, UnprintableCoefficientError
from .sampling import DEFAULT_SEED, DEFAULT_TRIALS

SPACES = ("canonical", "nambu_rk1", "nambu_r3n")
TOP_KEYS = {"space", "n", "k", "aliases", "hamiltonians", "tasks",
            "poisson_perturbation"}
TASK_KEYS = {"x0", "t0", "t1", "h", "seed", "trials"}
PERTURBATION_KEYS = {"i", "j", "p", "q", "r", "coeff"}
# each trial runs the whole random corpus once; beyond this a typo such as
# --trials 100000000 would run for hours without output
MAX_TRIALS = 10_000
# largest chart dimension n(k+1); the structure checks grow so fast with it
# that verify on a file holding only "n": 20, "k": 20 takes a minute
MAX_DIM = 64


class ProblemError(ValueError):
    """Anything wrong with a problem file; reported with exit code 2."""


@dataclass
class Problem:
    path: str
    space_kind: str
    chart: Chart
    space: NambuSpaceRk1 | NambuSpaceR3n | None
    hamiltonians: dict[str, RkMap]
    tasks: dict
    tensor: GeneralPoissonTensor


def _require(condition: bool, message: str):
    if not condition:
        raise ProblemError(message)


def _is_int(value) -> bool:
    """A JSON integer; `true` and `false` are not, though Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(raw: dict, key: str, minimum: int) -> int:
    value = raw[key]
    _require(_is_int(value), f"{key!r} must be an integer")
    _require(value >= minimum, f"{key!r} must be at least {minimum}")
    return value


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="ascii") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from None
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ProblemError(f"{path} is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "top level must be an object")
    unknown = set(raw) - TOP_KEYS
    _require(not unknown, f"unknown keys: {', '.join(sorted(unknown))}")
    _require("space" in raw, "'space' is required")
    kind = raw["space"]
    _require(kind in SPACES, f"'space' must be one of {', '.join(SPACES)}")

    aliases = raw.get("aliases", {})
    _require(isinstance(aliases, dict)
             and all(isinstance(k, str) and isinstance(v, str)
                     for k, v in aliases.items()),
             "'aliases' must map strings to strings")
    if kind == "canonical":
        _require("n" in raw and "k" in raw,
                 "canonical space needs both 'n' and 'k'")
        n, k = _int_field(raw, "n", 1), _int_field(raw, "k", 1)
    elif kind == "nambu_rk1":
        _require("k" in raw, "nambu_rk1 needs 'k'")
        _require("n" not in raw or _int_field(raw, "n", 1) == 1,
                 "nambu_rk1 fixes n = 1")
        n, k = 1, _int_field(raw, "k", 2)
    else:
        _require("n" in raw, "nambu_r3n needs 'n'")
        _require("k" not in raw or _int_field(raw, "k", 1) == 2,
                 "nambu_r3n fixes k = 2")
        n, k = _int_field(raw, "n", 1), 2
    # before any chart is built: that too grows with the dimension
    _require(n * (k + 1) <= MAX_DIM,
             f"chart dimension n(k+1) = {n * (k + 1)} exceeds {MAX_DIM}")
    try:
        if kind == "canonical":
            space = None
            chart = Chart(n, k, aliases)
        else:
            space = (NambuSpaceRk1(k, aliases) if kind == "nambu_rk1"
                     else NambuSpaceR3n(n, aliases))
            chart = space.chart
    except ValueError as exc:
        raise ProblemError(str(exc)) from None

    maps_raw = raw.get("hamiltonians", {})
    _require(isinstance(maps_raw, dict), "'hamiltonians' must be an object")
    hamiltonians = {}
    for name, exprs in maps_raw.items():
        _require(isinstance(name, str) and name.isidentifier(),
                 f"map name {name!r} must be an identifier")
        _require(isinstance(exprs, list)
                 and all(isinstance(e, str) for e in exprs),
                 f"map {name!r} must list expression strings")
        _require(len(exprs) == chart.k,
                 f"map {name!r} has {len(exprs)} components, expected {chart.k}")
        comps = []
        for index, text in enumerate(exprs, start=1):
            try:
                comps.append(parse_polynomial(text, chart))
            except ParseError as exc:
                raise ProblemError(
                    f"map {name!r} component {index}: {exc}") from None
        hamiltonians[name] = RkMap(chart, comps)

    tasks = raw.get("tasks", {})
    _require(isinstance(tasks, dict), "'tasks' must be an object")
    unknown = set(tasks) - TASK_KEYS
    _require(not unknown, f"unknown task keys: {', '.join(sorted(unknown))}")
    if "x0" in tasks:
        x0 = tasks["x0"]
        _require(isinstance(x0, list)
                 and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in x0),
                 "'x0' must be a list of numbers")
        _require(len(x0) == chart.dim,
                 f"'x0' needs {chart.dim} components")
    for key in ("t0", "t1", "h"):
        if key in tasks:
            _require(isinstance(tasks[key], (int, float))
                     and not isinstance(tasks[key], bool),
                     f"{key!r} must be a number")
    if "seed" in tasks:
        _require(_is_int(tasks["seed"]), "'seed' must be an integer")
    if "trials" in tasks:
        _require(_is_int(tasks["trials"]) and tasks["trials"] >= 1,
                 "'trials' must be a positive integer")

    tensor = canonical_poisson_tensor(chart)
    if "poisson_perturbation" in raw:
        entries_raw = raw["poisson_perturbation"]
        _require(isinstance(entries_raw, list),
                 "'poisson_perturbation' must be a list")
        extra = {}
        for pos, entry in enumerate(entries_raw):
            _require(isinstance(entry, dict), "perturbation entries are objects")
            unknown = set(entry) - PERTURBATION_KEYS
            _require(not unknown,
                     f"unknown perturbation keys: {', '.join(sorted(unknown))}")
            _require(PERTURBATION_KEYS <= set(entry),
                     "perturbation entries need i, j, p, q, r, coeff")
            try:
                i = chart.variable_index(entry["i"])
                j = chart.variable_index(entry["j"])
            except (KeyError, TypeError):
                raise ProblemError(
                    f"perturbation {pos}: unknown variable name") from None
            for comp_key in ("p", "q", "r"):
                _require(_is_int(entry[comp_key])
                         and 1 <= entry[comp_key] <= chart.k,
                         f"perturbation {pos}: {comp_key} must be in 1..{chart.k}")
            try:
                coeff = parse_polynomial(str(entry["coeff"]), chart)
            except ParseError as exc:
                raise ProblemError(f"perturbation {pos}: {exc}") from None
            key = (i, j, entry["p"] - 1, entry["q"] - 1, entry["r"] - 1)
            extra[key] = extra.get(key, chart.zero()) + coeff
        if extra:
            tensor = tensor.with_entries(extra)

    return Problem(path, kind, chart, space, hamiltonians, tasks, tensor)


# -- report rendering ---------------------------------------------------------


def _space_line(problem: Problem) -> str:
    chart = problem.chart
    return (f"space: {problem.space_kind}  chart: n={chart.n} k={chart.k} "
            f"dim={chart.dim}")


class OutputError(Exception):
    """The report could not be written to stdout; reported with exit code 2."""


def _emit(report: dict, lines: list[str], as_json: bool):
    text = json.dumps(report, indent=2) if as_json else "\n".join(lines)
    # flushed here, so a full disk or a closed pipe shows up in `main`
    # and not in the interpreter's final flush
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from None


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _resolve_seed(args, problem: Problem) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("POLARIS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ProblemError(f"POLARIS_SEED must be an integer, got {env!r}")
    return problem.tasks.get("seed", DEFAULT_SEED)


def _fg_text(pf) -> tuple[str, str]:
    """The "(f_1, ..., f_n)" and "(g^1, ..., g^k)" texts of a polarized form."""
    names = pf.chart.var_names
    return tuple("(" + ", ".join(p.to_string(names) for p in polys) + ")"
                 for polys in (pf.f, pf.g))


def _map_or_error(problem: Problem, name: str) -> RkMap:
    if name not in problem.hamiltonians:
        known = ", ".join(problem.hamiltonians) or "none"
        raise ProblemError(f"no map named {name!r} (file defines: {known})")
    return problem.hamiltonians[name]


# -- commands -----------------------------------------------------------------
#
# `main` loads the problem, opens the report and emits it; a command only
# appends to the JSON `report` and the text `lines` and returns 0 or 1.


def cmd_validate(args, problem: Problem, report: dict, lines: list[str]) -> int:
    lines.append(_space_line(problem))
    maps_payload = []
    for name, H in problem.hamiltonians.items():
        try:
            pf = decompose_polarized(H)
        except NotPolarized as exc:
            lines.append(f"map {name}: not polarized ({exc})")
            maps_payload.append({"name": name, "polarized": False,
                                 "reason": str(exc)})
            continue
        f_text, g_text = _fg_text(pf)
        lines.append(f"map {name}: polarized  f={f_text}  g={g_text}")
        maps_payload.append({"name": name, "polarized": True,
                             "f": f_text, "g": g_text})
    if not problem.hamiltonians:
        lines.append("no hamiltonian maps declared")
    report["maps"] = maps_payload
    return 0


def cmd_bracket(args, problem: Problem, report: dict, lines: list[str]) -> int:
    H = _map_or_error(problem, args.name_h)
    K = _map_or_error(problem, args.name_k)
    try:
        pf_h = decompose_polarized(H)
        pf_k = decompose_polarized(K)
    except NotPolarized as exc:
        raise ProblemError(f"bracket needs polarized maps: {exc}")
    value = bracket(pf_h, pf_k)
    f_text, g_text = _fg_text(decompose_polarized(value))
    lines += [f"{{{args.name_h},{args.name_k}}} = {value.to_string()}",
              f"f = {f_text}",
              f"g = {g_text}"]
    report |= {"bracket": value.to_string(), "f": f_text, "g": g_text}
    return 0


def _field_command(args, problem: Problem, report: dict, lines: list[str], *,
                   label: str, build) -> int:
    """Report the field `build(problem, H)` of the map named on the command line."""
    X = build(problem, _map_or_error(problem, args.name))
    lines.append(f"{label}[{args.name}] = {X.to_string()}")
    report |= {"map": args.name, "components": X.to_string()}
    return 0


def _polarized_field(problem: Problem, H: RkMap):
    try:
        pf = decompose_polarized(H)
    except NotPolarized as exc:
        raise ProblemError(f"the field of a map needs a polarized map: {exc}")
    return hamiltonian_field(pf)


def _nambu_field(problem: Problem, H: RkMap):
    if isinstance(problem.space, NambuSpaceRk1):
        return nambu_field_rk1(H, problem.space)
    if isinstance(problem.space, NambuSpaceR3n):
        return nambu_field_r3n(H[0], H[1], problem.space)
    raise ProblemError("nambu dynamics need space nambu_rk1 or nambu_r3n")


def cmd_verify(args, problem: Problem, report: dict, lines: list[str]) -> int:
    seed = _resolve_seed(args, problem)
    trials = args.trials if args.trials is not None \
        else problem.tasks.get("trials", DEFAULT_TRIALS)
    if not 1 <= trials <= MAX_TRIALS:
        raise ProblemError(f"trials must be between 1 and {MAX_TRIALS}")
    results = run_suite(problem.chart, problem.hamiltonians,
                        tensor=problem.tensor, space=problem.space,
                        seed=seed, trials=trials)
    failed = [r for r in results if not r.passed]
    lines += [f"seed: {seed}  trials: {trials}", _space_line(problem)]
    lines.extend(r.line() for r in results)
    verdict = "PASS" if not failed else "FAIL"
    lines.append(f"result: {verdict} ({len(results)} checks, "
                 f"{len(failed)} failed)")
    report |= {"seed": seed, "trials": trials,
               "checks": [{"name": r.name, "passed": r.passed,
                           "residual": r.residual, "details": r.details}
                          for r in results],
               "passed": not failed}
    return 0 if not failed else 1


def _float_arg(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ProblemError(f"{name} must be a number")


def cmd_integrate(args, problem: Problem, report: dict, lines: list[str]) -> int:
    H = _map_or_error(problem, args.name)
    tasks = problem.tasks
    if args.x0 is not None:
        try:
            x0 = [float(v) for v in args.x0.split(",")]
        except ValueError:
            raise ProblemError("--x0 must be comma-separated numbers")
    elif "x0" in tasks:
        x0 = [_float_arg(v, "x0") for v in tasks["x0"]]
    else:
        raise ProblemError("no initial state: pass --x0 or set tasks.x0")
    t0 = _float_arg(args.t0 if args.t0 is not None else tasks.get("t0", 0.0), "t0")
    t1_raw = args.t1 if args.t1 is not None else tasks.get("t1")
    if t1_raw is None:
        raise ProblemError("no end time: pass --t1 or set tasks.t1")
    t1 = _float_arg(t1_raw, "t1")
    h_raw = args.step if args.step is not None else tasks.get("h")
    if h_raw is None:
        raise ProblemError("no step size: pass --h or set tasks.h")
    h = _float_arg(h_raw, "h")
    # a path that can never be opened is refused before the field is
    # built; opening it, just before stepping, reports whatever else it meets
    if args.out:
        folder = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out):
            raise ProblemError(f"cannot write {args.out}: it is a directory")
        if not os.path.isdir(folder):
            raise ProblemError(f"cannot write {args.out}: no directory {folder}")

    if args.flow == "hamiltonian":
        X = _polarized_field(problem, H)
    else:
        X = _nambu_field(problem, H)
    try:
        stream = rk4_stream(X, x0, t0, t1, h)
    except ValueError as exc:
        raise ProblemError(str(exc)) from None

    x0_text = "(" + ", ".join(f"{v:.17g}" for v in x0) + ")"
    lines += [f"map: {args.name}  flow: {args.flow}",
              f"t0={t0:.17g}  t1={t1:.17g}  h={h:.17g}  x0={x0_text}"]
    report |= {"map": args.name, "flow": args.flow,
               "t0": t0, "t1": t1, "h": h, "x0": x0}
    header, row = csv_format(problem.chart.var_names, problem.chart.dim)
    samples = 0

    def rows_written(handle):
        """The stream's states, each once its CSV row is in `handle`, if any."""
        nonlocal samples
        for t, state in stream:
            if handle is not None:
                handle.write(row % (t, *state))
            samples += 1
            yield state

    try:
        with (open(args.out, "w", encoding="ascii", newline="") if args.out
              else contextlib.nullcontext()) as handle:
            if handle is not None:
                handle.write(header)
            drift = conservation_report(H, rows_written(handle))
    except (BlowUpError, OverflowError) as exc:
        reason = str(exc) if isinstance(exc, BlowUpError) \
            else f"float overflow evaluating the field or H: {exc}"
        lines.append(f"integration aborted: {reason}")
        report["error"] = reason
        return 1
    except OSError as exc:
        raise ProblemError(f"cannot write {args.out}: {exc}") from None
    lines.append(f"samples: {samples}")
    for p, value in enumerate(drift.drifts, start=1):
        lines.append(f"drift H^{p} = {value:.17g}")
    report["samples"] = samples
    report["drifts"] = [f"{value:.17g}" for value in drift.drifts]
    if args.out:
        lines.append(f"csv: {args.out}")
        report["csv"] = args.out
    return 0


# -- entry point --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    caller, who must not change it; argparse keeps no state between
    `parse_args` calls, so `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="polaris",
        description="Exact polarized brackets and Nambu dynamics on "
                    "canonical charts")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")

    p = sub.add_parser("validate", help="parse the file and decompose its maps")
    common(p)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("bracket", help="bracket of two named maps")
    common(p)
    p.add_argument("name_h")
    p.add_argument("name_k")
    p.set_defaults(run=cmd_bracket)

    p = sub.add_parser("field", help="hamiltonian vector field of a named map")
    common(p)
    p.add_argument("name")
    p.set_defaults(run=functools.partial(_field_command, label="X",
                                         build=_polarized_field))

    p = sub.add_parser("nambu", help="Nambu dynamics field of a named map")
    common(p)
    p.add_argument("name")
    p.set_defaults(run=functools.partial(_field_command, label="XN",
                                         build=_nambu_field))

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("integrate", help="integrate a flow and report drift")
    common(p)
    p.add_argument("name")
    p.add_argument("--flow", choices=("hamiltonian", "nambu"),
                   default="hamiltonian")
    p.add_argument("--x0", default=None,
                   help="comma-separated initial state")
    p.add_argument("--t0", default=None)
    p.add_argument("--t1", default=None)
    p.add_argument("--h", dest="step", default=None)
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p.set_defaults(run=cmd_integrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = load_problem(args.file)
        chart = problem.chart
        # the header every report opens with; the command fills in the rest
        report = {"command": args.command, "file": problem.path,
                  "space": problem.space_kind,
                  "chart": {"n": chart.n, "k": chart.k, "dim": chart.dim}}
        lines = [f"polaris {args.command} {problem.path}"]
        code = args.run(args, problem, report, lines)
        _emit(report, lines, args.json)
        return code
    except (ProblemError, ParseError, DegreeOverflowError,
            UnprintableCoefficientError) as exc:
        return _fail(str(exc))
    except OutputError as exc:
        # what stdout still buffers would fail again on exit
        sys.stdout = open(os.devnull, "w", encoding="ascii")
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
