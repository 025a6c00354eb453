"""Seeded problem files and known-answer oracles for the three workloads.

Every input is generated here from the benchmark seed; polaris only ever
sees the finished JSON files.  Each request carries its expected outcome,
which follows from the mathematics of the generated problem, never from
a polaris run:

* a polarized map on the canonical structure passes every check (the
  paper's identities hold exactly);
* a perturbed Poisson tensor breaks only the checks that use the tensor
  (`xi-poisson[*]`, `routes[*]`, `random.routes`), and breaks
  `xi-poisson[M]` for every named map M, because the extra wedge W on
  leaves (qa, qb) in slot P adds W * dH^P/dqa to the pairing against the
  aligned basis form dx^qb in slot P, and dH^P/dqa contains the nonzero
  term (coefficient of qa in f_j) * x^{Pj};
* a map that is quadratic in a fiber variable fails `polarized[G]` and
  nothing else (the other checks run on polarized maps only, and the
  Nambu first integrals and the rk1/r3n consistency hold for any map);
* an integration of a polarized Hamiltonian flow conserves H exactly, so
  RK4 drift stays far below 1e-9 over the span, and a grid of `steps`
  steps of size h from 0 to steps*h has steps + 1 samples.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

# Nonzero coefficients only, so every generated polynomial is dense: the
# cost of a request then depends on the shape, not on which coefficients
# a seed happened to zero out, which keeps runs on different seeds steady.
COEFFS = tuple(Fraction(v) for v in ("1", "-1", "2", "-2", "3", "-3",
                                     "1/2", "-1/2", "2/3", "-2/3"))

# Checks whose value depends on the Poisson tensor of the problem file.
TENSOR_CHECKS = ("xi-poisson[", "routes[", "random.routes")

DRIFT_BOUND = 1e-9


@dataclass
class Request:
    """One CLI call and the outcome the mathematics predicts for it."""
    argv: list[str]
    exit_code: int
    maps: tuple[str, ...] = ()
    may_fail: tuple[str, ...] = ()   # name prefixes allowed to fail
    must_fail: tuple[str, ...] = ()  # exact names that have to fail
    csv: str | None = None
    samples: int = 0

    @property
    def problem(self) -> str:
        return self.argv[1]


def _monomials(names, degree):
    for d in range(degree + 1):
        yield from combinations_with_replacement(names, d)


def _poly(rng, names, degree) -> str:
    """Dense random polynomial of total degree <= degree in `names`."""
    terms = []
    for mono in _monomials(names, degree):
        coeff = rng.choice(COEFFS)
        terms.append("*".join([str(coeff), *mono]))
    return " + ".join(terms)


def _polarized(rng, fibers, leaves, f_degree, g_degree, k):
    """Component strings of H^p = sum_j f_j x^{pj} + g^p.

    `fibers[p][j]` names x^{p+1, j+1}; f_j and g^p are dense in `leaves`.
    """
    f = [_poly(rng, leaves, f_degree) for _ in fibers[0]]
    comps = []
    for p in range(k):
        parts = [f"({fj})*{x}" for fj, x in zip(f, fibers[p])]
        parts.append(f"({_poly(rng, leaves, g_degree)})")
        comps.append(" + ".join(parts))
    return comps


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
    return path.as_posix()


def _canonical_names(n, k):
    fibers = [[f"x{p}_{i}" for i in range(1, n + 1)] for p in range(1, k + 1)]
    leaves = [f"q{i}" for i in range(1, n + 1)]
    return fibers, leaves


# -- verify-k3 -------------------------------------------------------------

K3_FILES = 16
K3_PERTURB_EVERY = 8


def verify_k3(rng: random.Random, work: Path) -> list[Request]:
    """(n,k) = (3,3) charts with three dense polarized maps each."""
    fibers, leaves = _canonical_names(3, 3)
    out = []
    for index in range(K3_FILES):
        maps = ("A", "B", "C")
        doc = {"space": "canonical", "n": 3, "k": 3,
               "hamiltonians": {m: _polarized(rng, fibers, leaves, 2, 2, 3)
                                for m in maps},
               "tasks": {"seed": rng.randrange(1 << 30), "trials": 1}}
        perturbed = index % K3_PERTURB_EVERY == 3  # inside the traced prefix
        if perturbed:
            qa, qb = rng.sample(leaves, 2)
            slot = rng.randint(1, 3)
            doc["poisson_perturbation"] = [
                {"i": qa, "j": qb, "p": slot, "q": slot, "r": slot,
                 "coeff": str(rng.choice(COEFFS))}]
        path = _write(work / f"k3-{index:02d}.json", doc)
        if perturbed:
            req = Request(["verify", path], 1, maps, TENSOR_CHECKS,
                          tuple(f"xi-poisson[{m}]" for m in maps))
        else:
            req = Request(["verify", path], 0, maps)
        out.append(req)
    return out


# -- verify-nambu ------------------------------------------------------------

NAMBU_VARIANTS = 4


def _rk1(rng, k, maps):
    fibers = [[f"x{p}"] for p in range(1, k + 1)]
    if k == 2:
        fibers = [["x"], ["y"]]
    return {"space": "nambu_rk1", "k": k,
            "hamiltonians": {m: _polarized(rng, fibers, ["z"], 2, 2, k)
                             for m in maps}}


def _r3n(rng, n, maps):
    if n == 1:
        fibers, leaves = [["x"], ["y"]], ["z"]
    else:
        fibers = [[f"x{i}" for i in range(1, n + 1)],
                  [f"y{i}" for i in range(1, n + 1)]]
        leaves = [f"z{i}" for i in range(1, n + 1)]
    return {"space": "nambu_r3n", "n": n,
            "hamiltonians": {m: _polarized(rng, fibers, leaves, 2, 2, 2)
                             for m in maps}}


def verify_nambu(rng: random.Random, work: Path) -> list[Request]:
    """A fixed cycle of four small Nambu problems, NAMBU_VARIANTS draws each.

    Trial counts even out the cost of the four shapes (about 0.2 s each on
    a 2-core x86 host), so the median latency does not jump between the
    cheap and the dear ones from run to run.
    """
    out = []
    for variant in range(NAMBU_VARIANTS):
        shapes = [
            ("rk1-k2", _rk1(rng, 2, ("H", "K", "L")), None, 12),
            ("rk1-k4", _rk1(rng, 4, ("H", "K")), None, 3),
            ("r3n-n1", _r3n(rng, 1, ("H", "K")), "G", 12),
            ("r3n-n2", _r3n(rng, 2, ("H", "K")), None, 1),
        ]
        for label, doc, bad, trials in shapes:
            maps = tuple(doc["hamiltonians"])
            if bad is not None:
                # quadratic in the fiber variable x: not polarized
                doc["hamiltonians"][bad] = [
                    f"{rng.choice(COEFFS)}*x^2 + ({_poly(rng, ['z'], 2)})",
                    f"({_poly(rng, ['z'], 1)})*y"]
            doc["tasks"] = {"seed": rng.randrange(1 << 30), "trials": trials}
            path = _write(work / f"{label}-{variant}.json", doc)
            if bad is None:
                req = Request(["verify", path], 0, maps)
            else:
                name = f"polarized[{bad}]"
                req = Request(["verify", path], 1, maps + (bad,), (name,), (name,))
            out.append(req)
    return out


# -- integrate -----------------------------------------------------------------

INTEGRATE_FILES = 8
# 3000 steps keep a request at 2 to 3 s, so a run holds enough requests for a
# steady median latency, and the stored trajectory still shows in the RSS.
INTEGRATE_STEPS = 3_000
INTEGRATE_H = "0.001"


def integrate(rng: random.Random, work: Path) -> list[Request]:
    """Hamiltonian flows on (3,3) whose leaf motion is a rotation.

    f = A q with A skew-symmetric, so dq/dt = A q keeps |q| fixed and the
    fiber equations are linear in x with bounded forcing.
    """
    fibers, leaves = _canonical_names(3, 3)
    h = Fraction(INTEGRATE_H)
    out = []
    for index in range(INTEGRATE_FILES):
        skew = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                skew[i][j] = rng.choice(COEFFS)
                skew[j][i] = -skew[i][j]
        f = [" + ".join(f"{skew[j][i]}*{leaves[i]}" for i in range(3) if i != j)
             for j in range(3)]
        comps = []
        for p in range(3):
            parts = [f"({fj})*{x}" for fj, x in zip(f, fibers[p])]
            parts.append(f"({_poly(rng, leaves, 3)})")
            comps.append(" + ".join(parts))
        x0 = [rng.uniform(-1.0, 1.0) for _ in range(12)]
        doc = {"space": "canonical", "n": 3, "k": 3,
               "hamiltonians": {"H": comps},
               "tasks": {"x0": x0, "t0": 0, "t1": float(h * INTEGRATE_STEPS),
                         "h": float(h)}}
        path = _write(work / f"flow-{index:02d}.json", doc)
        csv = (work / "trajectory.csv").as_posix()
        req = Request(["integrate", path, "H", "--out", csv], 0, ("H",),
                      csv=csv, samples=INTEGRATE_STEPS + 1)
        out.append(req)
    return out


GENERATORS = {
    "verify-k3": verify_k3,
    "verify-nambu": verify_nambu,
    "integrate": integrate,
}

# The fixed prefix of requests every run completes.  The output digest
# covers exactly these, so two runs of any length on the same seed (and
# two commits) hash the same calls, and the traced run replays them, so
# its counts repeat exactly.
PREFIX_REQUESTS = {"verify-k3": 4, "verify-nambu": 4, "integrate": 1}


def generate(workload: str, seed: int, work: Path) -> list[Request]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), work)


# -- oracle ---------------------------------------------------------------------


def check(req: Request, code: int, stdout: str, csv: bytes = b"") -> str | None:
    """None when the output matches the expected outcome, else the reason."""
    if code != req.exit_code:
        return f"exit {code}, expected {req.exit_code}"
    lines = stdout.splitlines()
    if req.csv is None:
        return _check_verify(req, lines)
    return _check_integrate(req, lines, csv)


def _check_verify(req: Request, lines: list[str]) -> str | None:
    status = {}
    for line in lines:
        word, _, rest = line.partition(" ")
        if word in ("PASS", "FAIL"):
            status[rest.split(" residual=", 1)[0]] = word
    for m in req.maps:
        if f"polarized[{m}]" not in status:
            return f"no polarized[{m}] check in the report"
    failed = {name for name, word in status.items() if word == "FAIL"}
    stray = [n for n in failed if not any(n.startswith(p) for p in req.may_fail)]
    if stray:
        return f"unexpected failure {sorted(stray)[0]}"
    missing = set(req.must_fail) - failed
    if missing:
        return f"expected failure {sorted(missing)[0]} did not happen"
    verdict = "FAIL" if req.exit_code else "PASS"
    summary = f"result: {verdict} ({len(status)} checks, {len(failed)} failed)"
    if not lines or lines[-1] != summary:
        return f"summary line {lines[-1] if lines else ''!r}, expected {summary!r}"
    return None


def _check_integrate(req: Request, lines: list[str], csv: bytes) -> str | None:
    samples = None
    drifts = []
    for line in lines:
        if line.startswith("samples: "):
            samples = int(line.split(": ", 1)[1])
        elif line.startswith("drift "):
            drifts.append(float(line.rsplit("= ", 1)[1]))
    if samples != req.samples:
        return f"{samples} samples, expected {req.samples}"
    if len(drifts) != 3:
        return f"{len(drifts)} drift lines, expected 3"
    worst = max(drifts)
    if not worst <= DRIFT_BOUND:
        return f"drift {worst!r} over {DRIFT_BOUND}"
    rows = csv.count(b"\n") - 1
    if rows != req.samples:
        return f"csv has {rows} rows, expected {req.samples}"
    return None
