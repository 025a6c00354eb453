"""Fixed-step RK4 integration of polynomial fields with drift monitoring.

Deterministic on purpose: grid times come from t0 + i*h (not from step
accumulation), polynomial evaluation follows the canonical term order
(each field is compiled once per call by `poly.float_evaluator`), and
every run of the same inputs produces bit-identical output.  The
integrator is deliberately plain; conservation drift is a measured
quantity here, not something the method is designed to hide.

Integration is a stream: `rk4_stream` yields each accepted state as it
is stepped, so a caller that writes rows and folds drift as they come
holds one state, whatever the step count.  `rk4_integrate` collects the
same stream into a `Trajectory` for callers that need all of it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .geometry import RkMap, VectorField
from .poly import Polynomial, float_evaluator

BLOWUP_LIMIT = 1e12
MAX_STEPS = 10_000_000


class BlowUpError(RuntimeError):
    """A state component left the trusted range during integration."""

    def __init__(self, time: float, value: float):
        super().__init__(f"state magnitude {value!r} exceeds {BLOWUP_LIMIT:g} "
                         f"at t={time!r}")
        self.time = time
        self.value = value


class ScaleVanishedError(RuntimeError):
    """The comparison scale hit zero (or crossed it) along the trajectory."""

    def __init__(self, time: float):
        super().__init__(f"scale factor vanishes on the trajectory near t={time!r}")
        self.time = time


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if not self.times:
            raise ValueError("empty trajectory")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError("times must increase strictly")
        for t, state in zip(self.times, self.states):
            for v in state:
                if not math.isfinite(v):
                    raise ValueError(f"non-finite state at t={t!r}")

    @property
    def final_state(self) -> tuple[float, ...]:
        return self.states[-1]

    def write_csv(self, stream, var_names: Sequence[str]):
        """CSV with header "t,<vars>" and 17-significant-digit floats."""
        header, row = csv_format(var_names, len(self.states[0]))
        stream.write(header)
        for t, state in zip(self.times, self.states):
            stream.write(row % (t, *state))


def csv_format(var_names: Sequence[str], dim: int) -> tuple[str, str]:
    """The header line of a trajectory CSV and the `%` template of its rows,
    one per (t, *state)."""
    if len(var_names) != dim:
        raise ValueError("one column name per state component required")
    # "%.17g" % v and format(v, ".17g") give the same text
    return ("t," + ",".join(var_names) + "\n",
            ",".join(["%.17g"] * (dim + 1)) + "\n")


def _time_grid(t0: float, t1: float, h: float) -> Iterator[float]:
    """t0 + i*h while that stays short of t1, then t1 itself, which replaces
    the last such time after t0 when it lies within rounding of t1: the
    grid starts at t0 and lands on t1, so a span within rounding is one
    short step.  The span and step are checked on the call; the times come
    one at a time."""
    # also catches NaN, and an int too large for a float without converting it
    if not all(abs(v) <= sys.float_info.max for v in (t0, t1, h)):
        raise ValueError("t0, t1 and h must be finite")
    if not h > 0:
        raise ValueError("step size must be positive")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    span = t1 - t0
    estimated = span / h
    if estimated > MAX_STEPS:
        raise ValueError(f"more than {MAX_STEPS} steps requested")
    # each grid time t0 + i*h rounds by at most 1.5 ulp of max(|t0|, |t1|),
    # so a step above 3 such ulp keeps the grid strictly increasing
    if h <= 3 * math.ulp(max(abs(t0), abs(t1))):
        raise ValueError("step size is below the float resolution of t0..t1")
    n_full = int(math.floor(estimated * (1.0 + 1e-12)))
    while t0 + n_full * h > t1:
        n_full -= 1
    if not n_full or t0 + n_full * h < t1 - 1e-12 * max(1.0, abs(t1)):
        n_full += 1
    return itertools.chain((t0 + i * h for i in range(n_full)), (t1,))


@lru_cache(maxsize=16)
def _step_maker(dim: int):
    """`make(rhs, limit) -> step` for states of `dim` components.

    `step(t_now, t_next, state)` is one classical RK4 step from `t_now` to
    `t_next` that returns the new state tuple, or raises BlowUpError at the
    first component past `limit` (or NaN).  The state is unpacked into
    locals and each stage is written out per component, with the
    operations and their order of the textbook list form, so every float
    keeps its bits; only integer indices enter the source.
    """
    def each(template: str) -> str:
        return "".join(template.format(i) + ", " for i in range(dim))

    def stage(coeff: str, k: str) -> str:
        return each(f"s{{0}} + {coeff} * {k}{{0}}")

    inside = " and ".join(f"abs(n{i}) <= limit" for i in range(dim))
    source = "\n".join([
        "def make(rhs, limit):",
        "    def step(t_now, t_next, state):",
        f"        {each('s{0}')}= state",
        "        h = t_next - t_now",
        "        half = 0.5 * h",
        f"        {each('a{0}')}= rhs(state)",
        f"        {each('b{0}')}= rhs(({stage('half', 'a')}))",
        f"        {each('c{0}')}= rhs(({stage('half', 'b')}))",
        f"        {each('d{0}')}= rhs(({stage('h', 'c')}))",
        f"        {each('n{0}')}= "
        + each("s{0} + h * ((a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0}) / 6.0)"),
        f"        state = ({each('n{0}')})",
        f"        if not ({inside}):  # also catches NaN",
        "            raise BlowUpError(t_next, next(",
        "                v for v in state if not abs(v) <= limit))",
        "        return state",
        "    return step",
    ])
    namespace = {"BlowUpError": BlowUpError}
    exec(compile(source, "<rk4_step>", "exec"), namespace)
    return namespace.pop("make")


def rk4_stream(X: VectorField, x0: Sequence[float], t0: float, t1: float,
               h: float) -> Iterator[tuple[float, tuple[float, ...]]]:
    """Classical 4th-order Runge-Kutta with a shortened final step, as a
    stream of `(t, state)`: the initial state first, then each state as
    soon as its step is accepted.

    The arguments are checked on the call, and the field is compiled when
    the first state is drawn.  The last grid point lands exactly on t1.
    The stream stops with BlowUpError once any component passes the
    magnitude guard, and with OverflowError when the field overflows.
    """
    dim = X.chart.dim
    if len(x0) != dim:
        raise ValueError(f"initial state needs {dim} components")
    # checked before converting, so an int too large for a float is refused
    if not all(abs(v) <= BLOWUP_LIMIT for v in x0):  # also catches NaN
        raise ValueError(f"x0 components must be finite and lie within "
                         f"{BLOWUP_LIMIT:g}")
    return _steps(X, _time_grid(t0, t1, h), tuple(float(v) for v in x0))


def _steps(X: VectorField, grid: Iterator[float], state: tuple[float, ...]):
    dim = len(state)
    rhs = float_evaluator([X.component(i) for i in range(dim)])
    step = _step_maker(dim)(rhs, BLOWUP_LIMIT)
    t_now = next(grid)
    yield t_now, state
    for t_next in grid:
        state = step(t_now, t_next, state)
        yield t_next, state
        t_now = t_next


def rk4_integrate(X: VectorField, x0: Sequence[float], t0: float, t1: float,
                  h: float) -> Trajectory:
    """The whole `rk4_stream` of these arguments as one Trajectory."""
    times, states = zip(*rk4_stream(X, x0, t0, t1, h))
    return Trajectory(times, states)


@dataclass(frozen=True)
class ConservationReport:
    """Max deviation of each component from its initial value."""
    drifts: tuple[float, ...]

    @property
    def max_drift(self) -> float:
        return max(self.drifts)


def conservation_report(H: RkMap, states: Trajectory | Iterable[Sequence[float]]
                        ) -> ConservationReport:
    """Max |H^p(s) - H^p(s_0)| over a trajectory's states, or over states
    drawn one at a time from an iterable (such as a stream that steps as
    it is read).

    An OverflowError while compiling or evaluating `H` does not stop the
    walk: the remaining states are still drawn, so an error raised by the
    stream that yields them comes first, and the overflow is raised once
    the states run out.
    """
    if isinstance(states, Trajectory):
        states = states.states
    states = iter(states)
    first = next(states, None)
    if first is None:
        raise ValueError("no states to report on")
    if len(first) != H.chart.dim:
        raise ValueError("trajectory dimension does not match the chart")
    try:
        values = float_evaluator(list(H))
        initial = values(first)
        drifts = [0.0] * len(initial)
        for state in states:
            drifts = [max(d, abs(v - h0))
                      for d, v, h0 in zip(drifts, values(state), initial)]
    except OverflowError:
        for _ in states:
            pass
        raise
    return ConservationReport(tuple(drifts))


@dataclass(frozen=True)
class FlowComparison:
    """Pointwise residual of Xa = scale * Xb along the Xa trajectory."""
    max_residual: float
    max_relative_residual: float


def compare_flows(Xa: VectorField, Xb: VectorField, scale: Polynomial,
                  x0: Sequence[float], t0: float, t1: float,
                  h: float) -> FlowComparison:
    """Integrate Xa and measure ||Xa(s) - scale(s) Xb(s)||_inf at every
    sample of its trajectory, as each state is stepped.

    The scale must stay away from zero along that trajectory; hitting
    zero or changing sign between samples raises ScaleVanishedError with
    the offending time.
    """
    if Xa.chart != Xb.chart:
        raise ValueError("chart mismatch")
    if scale.dim != Xa.chart.dim:
        raise ValueError("scale dimension does not match the chart")
    dim = Xa.chart.dim
    scale_at = float_evaluator([scale])
    field_a = float_evaluator([Xa.component(i) for i in range(dim)])
    field_b = float_evaluator([Xb.component(i) for i in range(dim)])
    worst = 0.0
    worst_rel = 0.0
    previous_sign = None
    for t, state in rk4_stream(Xa, x0, t0, t1, h):
        s = scale_at(state)[0]
        sign = math.copysign(1.0, s) if s else 0.0
        if s == 0.0 or (previous_sign is not None and sign != previous_sign):
            raise ScaleVanishedError(t)
        previous_sign = sign
        magnitude = 0.0
        residual = 0.0
        for va, wb in zip(field_a(state), field_b(state)):
            vb = s * wb
            residual = max(residual, abs(va - vb))
            magnitude = max(magnitude, abs(va), abs(vb))
        worst = max(worst, residual)
        worst_rel = max(worst_rel, residual / (1.0 + magnitude))
    return FlowComparison(worst, worst_rel)
