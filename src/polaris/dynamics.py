"""Fixed-step RK4 integration of polynomial fields with drift monitoring.

Deterministic on purpose: grid times come from t0 + i*h (not from step
accumulation), polynomial evaluation follows the canonical term order
(each field is compiled once per call by `poly.float_evaluator`), and
every run of the same inputs produces bit-identical output.  The
integrator is deliberately plain; conservation drift is a measured
quantity here, not something the method is designed to hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
        if len(var_names) != len(self.states[0]):
            raise ValueError("one column name per state component required")
        stream.write("t," + ",".join(var_names) + "\n")
        # "%.17g" % v and format(v, ".17g") give the same text
        row = ",".join(["%.17g"] * (len(var_names) + 1)) + "\n"
        for t, state in zip(self.times, self.states):
            stream.write(row % (t, *state))


def _time_grid(t0: float, t1: float, h: float) -> list[float]:
    span = t1 - t0
    estimated = span / h
    if estimated > MAX_STEPS:
        raise ValueError(f"more than {MAX_STEPS} steps requested")
    n_full = int(math.floor(estimated * (1.0 + 1e-12)))
    while t0 + n_full * h > t1:
        n_full -= 1
    grid = [t0 + i * h for i in range(n_full + 1)]
    if grid[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        grid.append(t1)
    else:
        grid[-1] = t1
    return grid


def rk4_integrate(X: VectorField, x0: Sequence[float], t0: float, t1: float,
                  h: float) -> Trajectory:
    """Classical 4th-order Runge-Kutta with a shortened final step.

    The last grid point lands exactly on t1.  Integration aborts with
    BlowUpError once any component passes the magnitude guard.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    if not t1 > t0:
        raise ValueError("time span must be forward")
    dim = X.chart.dim
    if len(x0) != dim:
        raise ValueError(f"initial state needs {dim} components")

    rhs = float_evaluator([X.component(i) for i in range(dim)])
    grid = _time_grid(t0, t1, h)
    state = [float(v) for v in x0]
    times = [grid[0]]
    states = [tuple(state)]
    for t_now, t_next in zip(grid, grid[1:]):
        step = t_next - t_now
        half = 0.5 * step
        k1 = rhs(state)
        k2 = rhs([s + half * v for s, v in zip(state, k1)])
        k3 = rhs([s + half * v for s, v in zip(state, k2)])
        k4 = rhs([s + step * v for s, v in zip(state, k3)])
        state = [s + step * ((a + 2.0 * b + 2.0 * c + d) / 6.0)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        for v in state:
            if not abs(v) <= BLOWUP_LIMIT:  # also catches NaN
                raise BlowUpError(t_next, v)
        times.append(t_next)
        states.append(tuple(state))
    return Trajectory(tuple(times), tuple(states))


@dataclass(frozen=True)
class ConservationReport:
    """Max deviation of each component from its initial value."""
    drifts: tuple[float, ...]

    @property
    def max_drift(self) -> float:
        return max(self.drifts)


def conservation_report(H: RkMap, traj: Trajectory) -> ConservationReport:
    dim = H.chart.dim
    if len(traj.states[0]) != dim:
        raise ValueError("trajectory dimension does not match the chart")
    values = float_evaluator(list(H))
    initial = values(traj.states[0])
    drifts = [0.0] * len(initial)
    for state in traj.states:
        for p, (v, h0) in enumerate(zip(values(state), initial)):
            drifts[p] = max(drifts[p], abs(v - h0))
    return ConservationReport(tuple(drifts))


@dataclass(frozen=True)
class FlowComparison:
    """Pointwise residual of Xa = scale * Xb along the Xa trajectory."""
    max_residual: float
    max_relative_residual: float
    trajectory_a: Trajectory
    trajectory_b: Trajectory


def compare_flows(Xa: VectorField, Xb: VectorField, scale: Polynomial,
                  x0: Sequence[float], t0: float, t1: float,
                  h: float) -> FlowComparison:
    """Integrate both fields and measure ||Xa(s) - scale(s) Xb(s)||_inf
    at every sample of the Xa trajectory.

    The scale must stay away from zero along that trajectory; hitting
    zero or changing sign between samples raises ScaleVanishedError with
    the offending time.
    """
    if Xa.chart != Xb.chart:
        raise ValueError("chart mismatch")
    if scale.dim != Xa.chart.dim:
        raise ValueError("scale dimension does not match the chart")
    traj_a = rk4_integrate(Xa, x0, t0, t1, h)
    traj_b = rk4_integrate(Xb, x0, t0, t1, h)
    dim = Xa.chart.dim
    scale_at = float_evaluator([scale])
    field_a = float_evaluator([Xa.component(i) for i in range(dim)])
    field_b = float_evaluator([Xb.component(i) for i in range(dim)])
    worst = 0.0
    worst_rel = 0.0
    previous_sign = None
    for t, state in zip(traj_a.times, traj_a.states):
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
    return FlowComparison(worst, worst_rel, traj_a, traj_b)
