import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concertq as cq
from concertq import fluid, poa, sim
from concertq.fluid import PiecewisePath, default_horizon
from concertq.model import ParseError
from concertq.serialize import csv_rows, fmt
from conftest import make_scenario, two_queue_worked_scenario
from oracles import arrival_cost, profile_segments_from_csv, segment_columns, shifted_segments


def path(ts, vs, extend="const"):
    return PiecewisePath(np.asarray(ts, float), np.asarray(vs, float), extend=extend)


def brute_force_regulator(x, grid):
    """Dense-grid running max of (-x)^+, the oracle for reflect."""
    return np.maximum.accumulate(np.maximum(-x(grid), 0.0))


# -- PiecewisePath ------------------------------------------------------------


def test_path_requires_increasing_breakpoints():
    with pytest.raises(ValueError):
        path([0.0, 0.0], [1.0, 2.0])


def test_path_keeps_the_callers_arrays_writeable():
    a = np.array([0.0, 1.0, 2.0])
    p = PiecewisePath(a, a)
    assert a.flags.writeable
    a[1] = 5.0
    assert p.times[1] == 1.0 and p.values[1] == 1.0
    assert not p.times.flags.writeable and not p.values.flags.writeable


def test_path_eval_const_extension():
    p = path([0.0, 1.0], [0.0, 2.0])
    assert p(-1.0) == 0.0
    assert p(0.5) == 1.0
    assert p(3.0) == 2.0


def test_path_eval_slope_extension():
    p = path([0.0, 1.0], [0.0, 2.0], extend="slope")
    assert p(-1.0) == -2.0
    assert p(2.0) == 4.0


def test_path_integral_exact():
    p = path([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert p.integral(0.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert p.integral(0.5, 1.5) == pytest.approx(0.75, abs=1e-15)
    # integration into the constant extension
    assert p.integral(0.0, 3.0) == pytest.approx(1.0, abs=1e-15)


def test_path_eval_wait_extension():
    p = path([0.0, 1.0, 2.0], [3.0, 1.0, 0.5], extend="wait")
    assert p(-2.5) == 5.5
    assert p(1.5) == 0.75
    assert p(9.0) == 0.5


# -- netflow ------------------------------------------------------------------


def test_netflow_uniform_profile():
    # uniform mass 1 on [-1, 1], mu=1, opening 0: rises at 0.5, falls at -0.5
    F = path([-1.0, 1.0], [0.0, 1.0])
    q = cq.QueueSpec(id=1, mu=1.0, t_start=0.0)
    x = cq.netflow(F, q, horizon=(-2.0, 2.0))
    assert x(-1.0) == 0.0
    assert x(0.0) == 0.5
    assert x(1.0) == 0.0
    assert x(0.5) == pytest.approx(0.25, abs=1e-15)


def test_netflow_no_arrivals():
    F = path([0.0], [0.0])
    q = cq.QueueSpec(id=1, mu=1.0, t_start=0.0)
    x = cq.netflow(F, q, horizon=(0.0, 3.0))
    assert x(2.0) == -2.0


def test_netflow_rejects_decreasing_cdf():
    F = path([0.0, 1.0], [1.0, 0.0])
    q = cq.QueueSpec(id=1, mu=1.0, t_start=0.0)
    with pytest.raises(cq.DomainError):
        cq.netflow(F, q)


# -- reflect ------------------------------------------------------------------


def test_reflect_nonnegative_input_is_identity():
    x = path([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], extend="slope")
    phi, psi = cq.reflect(x)
    assert np.all(psi.values == 0.0)
    assert np.allclose(phi(x.times), x.values)


def test_reflect_pure_drain():
    x = path([0.0, 2.0], [0.0, -2.0], extend="slope")
    phi, psi = cq.reflect(x)
    ts = np.linspace(0, 2, 9)
    assert np.allclose(psi(ts), ts)
    assert np.all(phi(ts) == 0.0)


def test_reflect_worked_triple():
    x = path([0.0, 1.0, 2.0], [0.0, -1.0, 0.5], extend="slope")
    phi, psi = cq.reflect(x)
    assert np.allclose(psi(np.array([0.0, 1.0, 2.0])), [0.0, 1.0, 1.0])
    assert np.allclose(phi(np.array([0.0, 1.0, 2.0])), [0.0, 0.0, 1.5])


def test_reflect_inserts_breakpoint_at_reattained_minimum():
    # dips to -1, recovers, dips again: regulator restarts rising at t=3
    x = path([0.0, 1.0, 2.0, 4.0], [0.0, -1.0, 0.0, -2.0], extend="slope")
    _, psi = cq.reflect(x)
    assert 3.0 in psi.times
    grid = np.arange(0.0, 4.0001, 1e-4)
    assert np.max(np.abs(psi(grid) - brute_force_regulator(x, grid))) <= 1e-12


def test_reflect_starts_at_clipped_initial_value():
    x = path([0.0, 1.0], [-0.5, 1.0], extend="slope")
    _, psi = cq.reflect(x)
    assert psi.values[0] == 0.5
    x2 = path([0.0, 1.0], [0.5, 1.0], extend="slope")
    _, psi2 = cq.reflect(x2)
    assert psi2.values[0] == 0.0


@st.composite
def piecewise_linear_paths(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    dts = draw(
        st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1)
    )
    vals = draw(
        st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)
    )
    ts = np.concatenate(([0.0], np.cumsum(dts)))
    return path(ts, vals, extend="slope")


@given(piecewise_linear_paths())
@settings(max_examples=200, deadline=None)
def test_reflect_matches_dense_grid_oracle(x):
    _, psi = cq.reflect(x)
    grid = np.linspace(x.times[0], x.times[-1], 2001)
    grid = np.union1d(grid, x.times)
    oracle = brute_force_regulator(x, grid)
    assert np.max(np.abs(psi(grid) - oracle)) <= 1e-9 * max(
        1.0, float(np.max(np.abs(x.values)))
    )


@given(piecewise_linear_paths())
@settings(max_examples=200, deadline=None)
def test_reflect_structural_invariants(x):
    phi, psi = cq.reflect(x)
    assert np.all(phi.values >= 0.0)
    assert psi.is_nondecreasing()
    # phi equals x while the regulator has not moved off its initial value
    untouched = psi.values == psi.values[0]
    if psi.values[0] == 0.0:
        assert np.allclose(phi(psi.times[untouched]), x(psi.times[untouched]), atol=1e-12)
    # the regulator only grows where the reflected path sits at zero
    # (growth below a few ulps of the value scale is rounding at inserted
    # crossing breakpoints, not real growth)
    scale = max(1.0, float(np.max(np.abs(psi.values))))
    growing = np.diff(psi.values) > 1e-12 * scale
    starts = phi.values[:-1][growing]
    assert np.all(starts <= 1e-9 * scale)


@given(piecewise_linear_paths(), piecewise_linear_paths())
@settings(max_examples=100, deadline=None)
def test_regulator_is_lipschitz(x, y):
    # compare on a common breakpoint set: refine y onto x's span
    ts = np.union1d(x.times, y.times)
    xa = PiecewisePath(ts, x(ts), extend="slope")
    ya = PiecewisePath(ts, y(ts), extend="slope")
    _, px = cq.reflect(xa)
    _, py = cq.reflect(ya)
    # sups of piecewise-linear differences are attained at breakpoints
    grid = np.linspace(ts[0], ts[-1], 1501)
    grid = np.union1d(grid, np.concatenate([ts, px.times, py.times]))
    gap_inputs = float(np.max(np.abs(xa(grid) - ya(grid))))
    gap_regulators = float(np.max(np.abs(px(grid) - py(grid))))
    assert gap_regulators <= gap_inputs + 1e-9


# -- fluid processes ----------------------------------------------------------


def queue_spec(mu=1.0, t_start=0.0):
    return cq.QueueSpec(id=1, mu=mu, t_start=t_start)


def uniform_profile():
    return cq.ArrivalProfile((cq.Segment(1, 1, -1.0, 1.0, 0.5),))


def test_fluid_queue_uniform():
    q = cq.fluid_queue(uniform_profile(), queue_spec())
    assert q(0.0) == 0.5
    assert q(1.0) == 0.0
    assert np.all(q.values >= 0.0)


def test_fluid_queue_empty_profile_is_zero():
    q = cq.fluid_queue(cq.ArrivalProfile(()), queue_spec())
    assert np.all(q.values == 0.0)


def test_fluid_busy_empty_profile_is_zero():
    b = cq.fluid_busy(cq.ArrivalProfile(()), queue_spec())
    ts = np.linspace(-1, 3, 11)
    assert np.allclose(b(ts), 0.0)


def test_fluid_busy_never_idle_equilibrium():
    s = cq.scenario_from_dict(
        {"queues": [{"mu": 1, "t_start": 0}], "populations": [{"alpha": 1, "beta": 1}]}
    )
    eq = cq.solve_single(s)
    b = cq.fluid_busy(eq.profile, s.queues[0])
    for t in (0.0, 0.25, 0.5, 1.0):
        assert b(t) == pytest.approx(max(t, 0.0), abs=1e-12)


def test_fluid_busy_terminal_idle_share():
    # netflow dips 0.3 below zero at t=1 and recovers; with mu=2 the busy
    # clock ends 0.15 behind the wall clock
    q = queue_spec(mu=2.0)
    profile = cq.ArrivalProfile(
        (cq.Segment(1, 1, 0.0, 1.0, 1.7), cq.Segment(1, 1, 1.0, 2.0, 3.0))
    )
    horizon = (-0.5, 2.0)
    x = cq.netflow(profile.queue_cdf(1), q, horizon)
    assert float(np.min(x.values)) == pytest.approx(-0.3, abs=1e-12)
    b = cq.fluid_busy(profile, q, horizon)
    assert (2.0 - 0.0) - b(2.0) == pytest.approx(0.15, abs=1e-12)


def test_fluid_wait_pre_opening():
    # nobody in queue, arriving half a time unit before opening
    profile = cq.ArrivalProfile((cq.Segment(1, 1, 0.0, 1.0, 1.0),))
    w = cq.fluid_wait(profile, queue_spec())
    assert w(-0.5) == 0.5


def test_fluid_wait_from_queue_length():
    w = cq.fluid_wait(uniform_profile(), queue_spec())
    assert w(0.0) == pytest.approx(0.5, abs=1e-15)
    # drained queue after the terminal time
    assert w(1.5) == 0.0


def test_cost_curve_flat_on_equilibrium_support():
    pop = cq.PopulationSpec(id=1, alpha=1.0, beta=1.0)
    c = cq.cost_curve(pop, uniform_profile(), queue_spec())
    ts = np.linspace(-1.0, 1.0, 21)
    assert np.allclose(c(ts), 1.0, atol=1e-12)


def test_cost_curve_past_terminal_time_is_tardiness_only():
    pop = cq.PopulationSpec(id=1, alpha=1.0, beta=1.0)
    c = cq.cost_curve(pop, uniform_profile(), queue_spec())
    assert c(2.0) == pytest.approx(2.0, abs=1e-12)
    assert c(3.0) > c(2.0)


def test_flow_conservation():
    # total mass equals rate times busy time once the queue has drained
    profile = cq.ArrivalProfile(
        (cq.Segment(1, 1, -0.5, 0.75, 0.8), cq.Segment(2, 1, 0.25, 1.5, 0.4))
    )
    q = queue_spec(mu=1.3)
    lo, hi = default_horizon(profile, [q])
    b = cq.fluid_busy(profile, q, (lo, hi))
    assert q.mu * b(hi) == pytest.approx(profile.mass(queue=1), abs=1e-9)


def test_arrival_profile_cdf_and_masses():
    profile = cq.ArrivalProfile(
        (cq.Segment(1, 1, 0.0, 1.0, 0.5), cq.Segment(2, 1, 0.5, 1.5, 1.0))
    )
    F = profile.queue_cdf(1)
    assert F(0.0) == 0.0
    assert F(1.0) == pytest.approx(1.0)
    assert F(1.5) == pytest.approx(1.5)
    assert F.is_nondecreasing()
    assert profile.mass(population=1) == pytest.approx(0.5)
    assert profile.start[profile.queue_rows(1)].min() == 0.0
    assert profile.row_mass[(profile.pop == 2) & (profile.queue == 1)].sum() == pytest.approx(1.0)


def test_arrival_profile_csv_round_trip():
    profile = cq.ArrivalProfile(
        (cq.Segment(1, 1, -0.75, 0.75, 0.5), cq.Segment(1, 2, 0.25, 0.75, 0.5))
    )
    again = cq.ArrivalProfile.from_csv(profile.to_csv())
    assert again == profile


def test_arrival_profile_csv_is_the_per_cell_format():
    segs = (
        cq.Segment(2, 7, -0.0, 0.1, 1.0 / 3.0),
        cq.Segment(1, 3, 1e-300, 0.2, 0),
        cq.Segment(2, 3, -1.5, -0.0, 2.5),
    )
    rows = [f"{g.population},{g.queue},{fmt(g.start)},{fmt(g.end)},{fmt(g.density)}" for g in segs]
    text = cq.ArrivalProfile(segs).to_csv()
    assert text == "\n".join(["pop,queue,a,b,density", *rows]) + "\n"
    assert cq.ArrivalProfile(()).to_csv() == "pop,queue,a,b,density\n"


def test_segments_reject_bools_and_csv_rejects_non_finite_values():
    with pytest.raises(TypeError, match="bool"):
        cq.Segment(1, 1, 0.0, True, 0.5)
    # from_rows keeps Segment's rule for each of start, end and density
    for row in ((1, 1, 0.0, True, 0.5), (1, 1, True, 1.0, 0.5), (1, 1, 0.0, 1.0, False)):
        with pytest.raises(TypeError, match="bool is not a number here"):
            cq.ArrivalProfile.from_rows([row])
    # an inf density is refused when the profile is built, so it never
    # reaches to_csv; the CSV writer still refuses non-finite cells itself
    with pytest.raises(cq.DomainError, match="row 0 has a non-finite value"):
        cq.ArrivalProfile((cq.Segment(1, 1, 0.0, 1.0, np.inf),))
    with pytest.raises(ValueError, match="cannot serialize non-finite number inf"):
        csv_rows(["density"], [np.array([np.inf])])


@pytest.mark.parametrize(
    "row, what",
    [
        ((1, 1, 0.0, 1.0, np.nan), "a non-finite value"),
        ((1, 1, 0.0, np.inf, 1.0), "a non-finite value"),
        ((1, 1, -np.inf, 0.0, 1.0), "a non-finite value"),
        ((1, 1, 0.0, 1e9, 1e300), "non-finite mass"),
        ((1, 1, 1.0, 0.0, np.nan), "a non-finite value"),
        ((1, 1, 1.0, 0.0, 1e300), "end < start"),
    ],
)
def test_profiles_built_in_the_library_refuse_non_finite_rows(row, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or invalid-value warning
        with pytest.raises(cq.DomainError, match=f"profile row 1 has {what}$"):
            cq.ArrivalProfile.from_rows([(1, 1, 0.0, 1.0, 1.0), row])


def test_segment_profiles_and_shifts_refuse_non_finite_values():
    with pytest.raises(cq.DomainError, match="profile row 0 has a non-finite value"):
        cq.ArrivalProfile((cq.Segment(1, 1, 0.0, 1.0, np.nan),))
    with pytest.raises(cq.DomainError, match="profile row 0 has a non-finite value"):
        cq.ArrivalProfile.from_rows([(1, 1, 0.0, 1.0, 1.0)]).shifted(np.inf)


def test_pair_segments_keep_profile_order():
    segs = (
        cq.Segment(2, 1, 0.0, 1.0, 0.5),
        cq.Segment(1, 1, 0.0, 1.0, 0.5),
        cq.Segment(2, 1, 2.0, 3.0, 0.25),
        cq.Segment(2, 2, 0.0, 1.0, 1.0),
        cq.Segment(2, 1, 1.0, 2.0, 0.75),
    )
    profile = cq.ArrivalProfile(segs)

    def pair_rows(population, queue):
        rows = profile.queue_rows(queue)
        return rows[profile.pop[rows] == population].tolist()

    assert pair_rows(2, 1) == [0, 2, 4]
    assert pair_rows(1, 1) == [1]
    assert pair_rows(1, 2) == []
    assert [profile.segments[i] for i in pair_rows(2, 1)] == [segs[0], segs[2], segs[4]]


# -- the profile's columns are its storage ---------------------------------------

_FLOATS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300]),
    st.integers(-1000, 1000).map(float),
)


def _int_text(x):
    return str(int(x)) if x.is_integer() and abs(x) < 1e15 else repr(x)


def _ordered(row):
    pop, queue, a, b, density = row
    return (pop, queue, min(a, b), max(a, b), density)


# valid profile rows: end >= start, density >= 0 (-0.0 included)
_PROFILE_ROWS = st.lists(
    st.tuples(
        st.integers(-3, 40),
        st.integers(-3, 40),
        _FLOATS,
        _FLOATS,
        st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1.0]), st.floats(0.0, 1e6)),
    ).map(_ordered),
    max_size=12,
)


@st.composite
def _profile_csv(draw):
    """CSV text of valid rows, each float written as repr, fmt or an integer."""
    lines = ["pop,queue,a,b,density"]
    for pop, queue, *numbers in draw(_PROFILE_ROWS):
        texts = [draw(st.sampled_from([repr, fmt, _int_text]))(x) for x in numbers]
        lines.append(",".join([str(pop), str(queue), *texts]))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# note", "   "])))
    return "\n".join(lines) + "\n"


def _same_columns(profile, columns):
    names = ("pop", "queue", "start", "end", "density")
    return all(
        getattr(profile, n).dtype == c.dtype and getattr(profile, n).tobytes() == c.tobytes()
        for n, c in zip(names, columns)
    )


@settings(max_examples=100, deadline=None)
@given(_profile_csv())
def test_columnar_csv_parse_is_the_segment_parse(text):
    profile = cq.ArrivalProfile.from_csv(text)
    assert _same_columns(profile, segment_columns(profile_segments_from_csv(text)))


_CELL = st.text(alphabet="0123456789.-+eEinfa_x ", max_size=5)
# rows of well-formed cells, often with end < start or a negative density
_NUMERIC_ROW = st.tuples(
    *[st.sampled_from(["1", "2"])] * 2, *[st.sampled_from(["1", "-1", "0.5", "-0.0", "1e-300"])] * 3
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.lists(_CELL, min_size=4, max_size=6), _NUMERIC_ROW), min_size=1, max_size=4))
def test_columnar_csv_parse_refuses_what_the_segment_parse_refuses(rows):
    text = "pop,queue,a,b,density\n" + "\n".join(",".join(r) for r in rows) + "\n"
    try:
        segs = profile_segments_from_csv(text)
    except (ParseError, cq.DomainError) as exc:
        with pytest.raises(type(exc)) as got:
            cq.ArrivalProfile.from_csv(text)
        if isinstance(exc, ParseError):
            assert str(got.value) == str(exc)
        else:
            what = "end < start" if "end < start" in str(exc) else "negative density"
            assert what in str(got.value)
    else:
        assert _same_columns(cq.ArrivalProfile.from_csv(text), segment_columns(segs))


@settings(max_examples=100, deadline=None)
@given(_PROFILE_ROWS, _FLOATS)
def test_shifted_is_the_per_segment_shift(rows, dt):
    profile = cq.ArrivalProfile.from_rows(rows)
    moved = shifted_segments(profile.segments, dt)
    assert _same_columns(profile.shifted(dt), segment_columns(moved))


@settings(max_examples=100, deadline=None)
@given(_PROFILE_ROWS)
def test_segments_view_rebuilds_the_same_columns(rows):
    profile = cq.ArrivalProfile.from_rows(rows)
    again = cq.ArrivalProfile(profile.segments)
    assert _same_columns(again, segment_columns(profile.segments))
    assert _same_columns(again, (profile.pop, profile.queue, profile.start, profile.end, profile.density))
    assert again == profile


def test_profile_columns_are_read_only_and_segments_cached():
    profile = cq.ArrivalProfile.from_rows([(1, 2, 0.0, 1.0, 0.5), (2, 1, -1.0, 0.5, 0.25)])
    for col in (profile.pop, profile.queue, profile.start, profile.end, profile.density, profile.row_mass):
        assert not col.flags.writeable
    assert profile.segments is profile.segments
    with pytest.raises(AttributeError, match="read-only"):
        profile.start = np.zeros(2)
    assert profile.segments == (cq.Segment(1, 2, 0.0, 1.0, 0.5), cq.Segment(2, 1, -1.0, 0.5, 0.25))
    assert len(profile) == 2 and len(cq.ArrivalProfile(())) == 0


@pytest.mark.parametrize(
    "row, what",
    [((1, 1, 0.75, -0.75, 0.5), "end < start"), ((1, 1, -0.75, 0.75, -0.5), "negative density")],
)
def test_out_of_domain_rows_are_named(row, what):
    rows = [(1, 2, 0.25, 0.75, 0.5), row, (1, 1, 0.0, -1.0, -1.0)]
    with pytest.raises(cq.DomainError, match=f"profile row 1 has {what}"):
        cq.ArrivalProfile.from_rows(rows)
    text = "pop,queue,a,b,density\n" + "\n".join(",".join(map(repr, r)) for r in rows) + "\n"
    with pytest.raises(cq.DomainError, match=f"profile row 3 has {what}"):
        cq.ArrivalProfile.from_csv(text)


# -- one fluid bundle per queue -------------------------------------------------


def ragged_multi_scenario():
    """K=3, N=2 with unequal masses; five (population, queue) pairs."""
    return make_scenario(
        [(1.0, 0.0), (2.0, 0.3), (0.5, 0.8)],
        [{"alpha": 1, "beta": 3, "mass": 0.7}, {"alpha": 2, "beta": 1, "mass": 1.6}],
    )


def assert_same_path(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.values, b.values)
    assert a.extend == b.extend


@pytest.mark.parametrize("build", [two_queue_worked_scenario, ragged_multi_scenario])
@pytest.mark.parametrize("explicit_horizon", [False, True])
def test_queue_fluid_matches_every_accessor(build, explicit_horizon):
    # each per-queue path is the queue's one-row fluid table, in its extend mode
    s = build()
    profile = cq.solve_multi(s).profile
    for q in s.queues:
        horizon = default_horizon(profile, s.queues) if explicit_horizon else None
        table = fluid.fluid_table(profile, [q], horizon)
        assert_same_path(path(table.cdf_times, table.cdf_values), profile.queue_cdf(q.id))
        netflow_horizon = horizon if explicit_horizon else default_horizon(profile, [q])
        assert_same_path(path(table.netflow_times, table.netflow_values, "slope"),
                         cq.netflow(profile.queue_cdf(q.id), q, netflow_horizon))
        assert_same_path(path(table.times, table.queue_length), cq.fluid_queue(profile, q, horizon))
        assert_same_path(path(table.times, table.regulator, "idle"),
                         cq.fluid_regulator(profile, q, horizon))
        assert_same_path(path(table.times, table.busy, "slope"), cq.fluid_busy(profile, q, horizon))
        wait = path(table.times, table.wait, "wait")
        assert_same_path(wait, cq.fluid_wait(profile, q, horizon))
        for pop in s.populations:
            assert_same_path(arrival_cost(pop, wait), cq.cost_curve(pop, profile, q, horizon))


@pytest.fixture()
def table_calls(monkeypatch):
    """The queue ids of every ``fluid.fluid_table`` call."""
    calls = []
    original = fluid.fluid_table

    def counting(profile, queues, horizon=None):
        calls.append([q.id for q in queues])
        return original(profile, queues, horizon)

    monkeypatch.setattr(fluid, "fluid_table", counting)
    return calls


def all_queues(s):
    return [[q.id for q in s.queues]]


def test_verifier_reflects_each_queue_once(table_calls):
    s = ragged_multi_scenario()
    profile = cq.solve_multi(s).profile
    assert cq.verify_equilibrium(s, profile).is_equilibrium
    assert table_calls == all_queues(s)


def test_social_cost_reflects_each_queue_once(table_calls):
    s = ragged_multi_scenario()
    profile = cq.solve_multi(s).profile
    poa.social_cost(s, profile)
    assert table_calls == all_queues(s)


def test_fluid_reference_reflects_each_queue_once(table_calls):
    s = ragged_multi_scenario()
    profile = cq.solve_multi(s).profile
    reference = sim.fluid_reference(s, profile, sim.default_grid(profile, s, points=64))
    assert table_calls == all_queues(s)
    assert reference.shape == (len(sim.PROCESSES), s.n_queues, 64)


def test_fluid_wait_left_of_horizon_is_the_pre_opening_ray():
    # before its horizon a queue is empty and not yet open, so the wait is
    # t_start - t; past the horizon it has drained and the wait stays 0
    s = two_queue_worked_scenario()
    profile = cq.solve_multi(s).profile
    q = s.queues[1]
    w = cq.fluid_wait(profile, q)
    assert w(-5.0) == pytest.approx(5.5, abs=1e-12)
    wide = cq.fluid_wait(profile, q, (-50.0, 50.0))
    ts = np.array([-40.0, -5.0, w.times[0] - 1e-3, w.times[-1] + 1e-3, 20.0, 45.0])
    assert np.allclose(w(ts), wide(ts), rtol=0.0, atol=1e-12)
    assert np.all(w(ts[3:]) == 0.0)


def test_fluid_regulator_right_of_horizon_grows_at_the_service_rate():
    # a drained queue idles at rate mu, so past the horizon the cumulative
    # idleness keeps its last slope; it read 1.75 (held constant) at t=10
    s = two_queue_worked_scenario()
    profile = cq.solve_multi(s).profile
    ts = np.arange(-20.0, 41.0)
    for q in s.queues:
        psi = cq.fluid_regulator(profile, q)
        wide = cq.fluid_regulator(profile, q, (-50.0, 50.0))
        assert np.allclose(psi(ts), wide(ts), rtol=0.0, atol=1e-12)
    assert cq.fluid_regulator(profile, s.queues[0])(10.0) == pytest.approx(9.25, abs=1e-12)


def test_fluid_regulator_left_of_a_late_window_is_zero():
    # a window that starts after the opening while the queue idles: the
    # regulator breaks at the opening, where it is 0, and stays 0 before it
    q = cq.QueueSpec(id=1, mu=2.0, t_start=0.0)
    profile = cq.ArrivalProfile.from_rows([(1, 1, 5.0, 10.0, 1.0)])
    psi = cq.fluid_regulator(profile, q, (2.0, 50.0))
    wide = cq.fluid_regulator(profile, q, (-50.0, 50.0))
    ts = np.arange(-20.0, 61.0)
    assert np.array_equal(psi(ts), wide(ts))
    assert psi(-3.0) == 0.0 and psi(2.0) == 4.0 and psi(60.0) == 115.0
