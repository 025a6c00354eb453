import io
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polaris.dynamics import (
    BLOWUP_LIMIT,
    MAX_STEPS,
    BlowUpError,
    ScaleVanishedError,
    Trajectory,
    compare_flows,
    conservation_report,
    rk4_integrate,
    rk4_stream,
)
from polaris.geometry import Chart, RkMap, VectorField
from polaris.hamiltonian import decompose_polarized, hamiltonian_field
from polaris.nambu import NambuSpaceRk1, nambu_field_rk1
from polaris.parsing import parse_polynomial
from polaris.poly import Polynomial, float_evaluator

SPACE = NambuSpaceRk1(2)
R3 = SPACE.chart

H_MAP = RkMap(R3, [parse_polynomial("z*x", R3), parse_polynomial("z*y", R3)])
X_H = hamiltonian_field(decompose_polarized(H_MAP))       # (-x, -y, z)
X_N = nambu_field_rk1(H_MAP, SPACE)                        # (-xz, -yz, z^2)


def test_constant_field_integrates_exactly():
    X = VectorField(R3, {R3.variable_index("z"): R3.constant(1)})
    traj = rk4_integrate(X, (0.0, 0.0, 0.0), 0.0, 1.0, 0.1)
    assert traj.final_state[2] == 1.0
    assert traj.times[-1] == 1.0
    assert len(traj.times) == 11


def test_zero_field_stays_put():
    traj = rk4_integrate(VectorField(R3), (2.0, -1.0, 0.5), 0.0, 1.0, 0.25)
    assert all(state == (2.0, -1.0, 0.5) for state in traj.states)


def test_exponential_flow_accuracy():
    traj = rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, 1e-3)
    expected = (math.exp(-1.0), math.exp(-1.0), math.exp(1.0))
    for got, want in zip(traj.final_state, expected):
        assert abs(got - want) <= 1e-9


def test_final_partial_step_lands_on_t1():
    X = VectorField(R3, {R3.variable_index("z"): R3.constant(1)})
    traj = rk4_integrate(X, (0.0, 0.0, 0.0), 0.0, 1.0, 0.3)
    assert traj.times[-1] == 1.0
    assert len(traj.times) == 5  # 0, .3, .6, .9, 1.0
    assert abs(traj.final_state[2] - 1.0) < 1e-15


def test_invalid_steps_rejected():
    with pytest.raises(ValueError):
        rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        rk4_integrate(X_H, (1.0, 1.0, 1.0), 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        rk4_integrate(X_H, (1.0, 1.0), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 2.0, 1e-9)  # too many steps


def test_blowup_guard_fires():
    # dz/dt = z^2 from z = 2 passes its pole at t = 0.5 and explodes
    X = VectorField(R3, {R3.variable_index("z"): parse_polynomial("z^2", R3)})
    with pytest.raises(BlowUpError) as err:
        rk4_integrate(X, (0.0, 0.0, 2.0), 0.0, 1.0, 1e-3)
    assert 0.0 < err.value.time <= 1.0


def test_conservation_of_constant_map():
    H = RkMap(R3, [R3.constant(5), R3.constant(-2)])
    traj = rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, 0.01)
    report = conservation_report(H, traj)
    assert report.drifts == (0.0, 0.0)


def test_conservation_along_own_flow():
    traj = rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, 1e-3)
    report = conservation_report(H_MAP, traj)
    assert report.max_drift <= 1e-9


def test_rk4_order_on_halving():
    expected = (math.exp(-1.0), math.exp(-1.0), math.exp(1.0))
    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, h)
        errors.append(max(abs(g - w)
                          for g, w in zip(traj.final_state, expected)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_conservation_drift_scales_like_h4():
    drifts = []
    for h in (4e-3, 2e-3):
        traj = rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, h)
        drifts.append(conservation_report(H_MAP, traj).max_drift)
    assert drifts[1] <= drifts[0] / 8.0


def test_compare_flows_identity_scale():
    report = compare_flows(X_H, X_H, R3.constant(1), (1.0, 1.0, 1.0),
                           0.0, 1.0, 1e-2)
    assert report.max_residual == 0.0


def test_compare_flows_nambu_vs_polarized():
    # X_N = z * X_H holds exactly; float evaluation only adds rounding.
    # the span stays below the Nambu pole at t = 1
    scale = R3.coordinate("q1")
    report = compare_flows(X_N, X_H, scale, (1.0, 1.0, 1.0), 0.0, 0.5, 1e-3)
    assert report.max_relative_residual <= 1e-12


def test_compare_flows_scale_guard():
    X = VectorField(R3, {R3.variable_index("z"): R3.constant(1)})
    scale = R3.coordinate("q1")
    with pytest.raises(ScaleVanishedError) as err:
        compare_flows(X, X, scale, (0.0, 0.0, -0.5), 0.0, 1.0, 1e-3)
    assert abs(err.value.time - 0.5) <= 2e-3


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory((0.0, 0.0), ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        Trajectory((0.0, 1.0), ((1.0,), (math.inf,)))
    with pytest.raises(ValueError):
        Trajectory((0.0,), ((1.0,), (2.0,)))


def test_csv_export_format():
    X = VectorField(R3, {R3.variable_index("z"): R3.constant(1)})
    traj = rk4_integrate(X, (0.25, 0.0, 1.0 / 3.0), 0.0, 0.2, 0.1)
    buffer = io.StringIO()
    traj.write_csv(buffer, R3.var_names)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,x1_1,x2_1,q1"
    assert lines[1] == "0,0.25,0,0.33333333333333331"
    assert len(lines) == len(traj.times) + 1


def test_csv_export_deterministic():
    traj = rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 0.3, 1e-2)
    a, b = io.StringIO(), io.StringIO()
    traj.write_csv(a, R3.var_names)
    rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 0.3, 1e-2).write_csv(b, R3.var_names)
    assert a.getvalue() == b.getvalue()


def formatted(fmt, v):
    """The text of one CSV field, or OverflowError for an int past float range."""
    try:
        return fmt(v)
    except OverflowError:
        return OverflowError


@given(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -2.2250738585072009e-308, 1.7976931348623157e308]),
    st.integers(),
    st.sampled_from([0, 1, -1, 2**53 + 1, 10**308, 2**1024])))
def test_csv_template_formats_like_format_spec(v):
    # write_csv fills one "%.17g" template per row; the CSV format is that
    # of format(v, ".17g")
    assert formatted(lambda x: "%.17g" % x, v) == formatted(lambda x: f"{x:.17g}", v)


def test_csv_export_of_an_int_end_time():
    # the last grid time is t1 itself, so an int t1 stays an int
    X = VectorField(R3, {R3.variable_index("z"): R3.constant(1)})
    traj = rk4_integrate(X, (0.25, 0.0, 1.0 / 3.0), 0.0, 1, 0.5)
    assert type(traj.times[-1]) is int
    buffer = io.StringIO()
    traj.write_csv(buffer, R3.var_names)
    expected = "t,x1_1,x2_1,q1\n" + "".join(
        ",".join(format(v, ".17g") for v in (t, *state)) + "\n"
        for t, state in zip(traj.times, traj.states))
    assert buffer.getvalue() == expected
    assert buffer.getvalue().splitlines()[-1].startswith("1,")


# -- the stream against the list-form reference -----------------------------------


def reference_rk4(X, x0, t0, t1, h):
    """RK4 over a list grid with list-comprehension stages, the reference
    whose bits the generated step must keep.  Returns (times, states) or
    the BlowUpError or OverflowError it stops with."""
    estimated = (t1 - t0) / h
    assert estimated <= MAX_STEPS
    n_full = int(math.floor(estimated * (1.0 + 1e-12)))
    while t0 + n_full * h > t1:
        n_full -= 1
    grid = [t0 + i * h for i in range(n_full + 1)]
    if not n_full or grid[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        grid.append(t1)
    else:
        grid[-1] = t1
    rhs = float_evaluator([X.component(i) for i in range(X.chart.dim)])
    state = [float(v) for v in x0]
    times, states = [grid[0]], [tuple(state)]
    try:
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
                if not abs(v) <= BLOWUP_LIMIT:
                    raise BlowUpError(t_next, v)
            times.append(t_next)
            states.append(tuple(state))
    except (BlowUpError, OverflowError) as exc:
        return exc
    return tuple(times), tuple(states)


def outcome(result):
    """Comparable form of a run: its times and the bit patterns of its
    states, or the error it stopped with (a NaN is only a NaN)."""
    if isinstance(result, BlowUpError):
        return "blow-up", result.time, repr(result.value)
    if isinstance(result, OverflowError):
        return "overflow", str(result)
    times, states = result
    return times, tuple(tuple(v.hex() for v in state) for state in states)


STREAM_CHARTS = [Chart(1, 1), Chart(1, 2), Chart(2, 1), Chart(1, 3), Chart(2, 2)]


@st.composite
def fields(draw):
    chart = draw(st.sampled_from(STREAM_CHARTS))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    monomials = st.tuples(*[st.integers(0, 2)] * chart.dim)
    components = {}
    for i in range(chart.dim):
        terms = draw(st.dictionaries(monomials, coefficients, max_size=4))
        if terms:
            components[i] = Polynomial(chart.dim, terms)
    x0 = draw(st.lists(st.floats(-2, 2), min_size=chart.dim,
                       max_size=chart.dim))
    return VectorField(chart, components), x0


@settings(max_examples=60, deadline=None)
@given(fields(), st.floats(-1, 1), st.sampled_from([0.1, 0.03, 1 / 7, 0.0125]),
       st.floats(0.5, 30))
@example(  # ten full steps of 0.03 and a final one of 0.01
    (VectorField(Chart(1, 1), {0: Polynomial(2, {(1, 1): Fraction(1, 2)}),
                               1: Polynomial(2, {(0, 0): -1})}), [0.5, -0.25]),
    0.0, 0.03, 31 / 3)
@example(  # a span within the grid's rounding: one short step from t0
    (VectorField(Chart(1, 1), {0: Polynomial(2, {(0, 1): 1})}), [1.0, 1.0]),
    0.0, 0.1, 1e-12)
def test_stream_matches_the_list_form_bit_for_bit(field, t0, h, steps):
    X, x0 = field
    t1 = t0 + steps * h
    expected = reference_rk4(X, x0, t0, t1, h)
    try:
        got = rk4_integrate(X, x0, t0, t1, h)
    except (BlowUpError, OverflowError) as exc:
        got = exc
    else:
        got = got.times, got.states
    assert outcome(got) == outcome(expected)


def test_stream_checks_its_arguments_on_the_call():
    # the errors come from the call, before any state is drawn
    calls = [(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, 0.0),
             (X_H, (1.0, 1.0, 1.0), 1.0, 0.0, 0.1),
             (X_H, (1.0, 1.0), 0.0, 1.0, 0.1),
             (X_H, (1.0, 1.0, 1.0), 0.0, 2.0, 1e-9),
             # a step below the float resolution of t0..t1 repeats grid times
             (X_H, (1.0, 1.0, 1.0), 1e6, 1e6 + 1e-9, 5e-11)]
    calls += [(X_H, (1.0, 1.0, 1.0), *span)
              for bad in (math.inf, -math.inf, math.nan)
              for span in ((bad, 1.0, 0.1), (0.0, bad, 0.1), (0.0, 1.0, bad))]
    # an int too large for a float
    calls += [(X_H, (1.0, 1.0, 1.0), *span)
              for span in ((10**400, 10**401, 1.0), (0, 10**400, 1),
                           (0, 1, 10**400))]
    calls += [(X_H, (bad, 1.0, 1.0), 0.0, 1.0, 0.1)
              for bad in (math.nan, math.inf, 1e13, 10**400)]
    for args in calls:
        with pytest.raises(ValueError):
            rk4_stream(*args)


def test_stream_hands_on_each_state_before_the_next_step():
    # dz/dt = z^2 from z = 2 blows up past t = 0.5; the states before that
    # come out of the stream before it raises
    X = VectorField(R3, {R3.variable_index("z"): parse_polynomial("z^2", R3)})
    seen = []
    with pytest.raises(BlowUpError) as err:
        for t, state in rk4_stream(X, (0.0, 0.0, 2.0), 0.0, 1.0, 1e-3):
            seen.append(t)
    assert seen[0] == 0.0
    assert err.value.time > seen[-1] > 0.49


def test_conservation_report_reads_a_stream_like_a_trajectory():
    traj = rk4_integrate(X_H, (1.0, 1.0, 1.0), 0.0, 1.0, 1e-2)
    from_stream = conservation_report(
        H_MAP, (state for _, state in rk4_stream(X_H, (1.0, 1.0, 1.0),
                                                 0.0, 1.0, 1e-2)))
    assert from_stream == conservation_report(H_MAP, traj)
    with pytest.raises(ValueError):
        conservation_report(H_MAP, iter(()))
    with pytest.raises(ValueError, match="dimension"):
        conservation_report(H_MAP, [(1.0, 1.0)])


OVERFLOWING_H = RkMap(R3, [parse_polynomial("z^32", R3), R3.zero()])


def test_overflow_of_h_waits_for_the_end_of_the_stream():
    # z = 1e10 overflows z^32; the first overflow is raised once the
    # states run out, after every state has been drawn
    drawn = []

    def states():
        for state in [(0.0, 0.0, 1.0), (0.0, 0.0, 1e10), (0.0, 0.0, 1e11),
                      (0.0, 0.0, 1.0)]:
            drawn.append(state)
            yield state

    with pytest.raises(OverflowError) as err:
        conservation_report(OVERFLOWING_H, states())
    assert len(drawn) == 4
    with pytest.raises(OverflowError) as first:
        float_evaluator(list(OVERFLOWING_H))((0.0, 0.0, 1e10))
    assert str(err.value) == str(first.value)


# a coefficient that overflows a float when H is compiled
UNCOMPILABLE_H = RkMap(R3, [R3.constant(10**400), R3.zero()])


def test_an_error_of_the_stream_comes_before_an_overflow_of_h():
    def states():
        yield (0.0, 0.0, 1e10)  # H overflows here
        raise BlowUpError(0.001, 2e12)

    for H in (OVERFLOWING_H, UNCOMPILABLE_H):
        with pytest.raises(BlowUpError):
            conservation_report(H, states())
