import math

import numpy as np
import pytest

import concertq as cq
from concertq.exact_two import QueuePairState, _euler_grid, _euler_path, expected_queue_ode_step

# Regression pins for the symmetric reference case mu1=mu2=1, alpha=beta=1.
# The closed form does not normalize: its density integrates to 2 exactly at
# these parameters, so the residual below is a tracked number, not a target.
SYMMETRIC_NORMALIZATION_RESIDUAL = 1.0
SYMMETRIC_COST_FLATNESS = 1.3181072142209871e-05  # forward Euler, dt = 1e-4


def symmetric_case():
    return cq.solve_two_user(1.0, 1.0, 1.0, 1.0)


def random_params(rng):
    return (
        float(rng.uniform(0.3, 3.0)),
        float(rng.uniform(0.3, 3.0)),
        float(rng.uniform(0.2, 4.0)),
        float(rng.uniform(0.2, 4.0)),
    )


def test_symmetric_support_endpoints():
    eq = symmetric_case()
    assert eq.t_first == pytest.approx(-math.sqrt(3.0), abs=1e-15)
    assert eq.t_last == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-15)
    assert eq.cost == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert eq.density(-1.0) == pytest.approx(1.0, abs=1e-15)


def test_support_straddles_opening():
    rng = np.random.default_rng(1)
    for _ in range(100):
        eq = cq.solve_two_user(*random_params(rng))
        assert eq.t_first < 0.0 < eq.t_last


def test_rejects_nonpositive_parameters():
    for bad in ((0, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0), (1, -2, 1, 1)):
        with pytest.raises(cq.DomainError):
            cq.solve_two_user(*bad)


def test_pre_opening_density_level():
    rng = np.random.default_rng(2)
    for _ in range(100):
        mu1, mu2, alpha, beta = random_params(rng)
        eq = cq.solve_two_user(mu1, mu2, alpha, beta)
        gamma = alpha / (alpha + beta)
        ts = np.linspace(eq.t_first, 0.0, 7)
        assert np.allclose(eq.density(ts), gamma * (mu1 + mu2), atol=1e-12)


def test_density_vanishes_at_last_arrival():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eq = cq.solve_two_user(*random_params(rng))
        assert abs(eq.density(eq.t_last)) <= 1e-9


def test_density_is_exactly_zero_from_the_last_arrival_on():
    rng = np.random.default_rng(31)
    for params in [(0.7, 1.9, 2.0, 0.4)] + [random_params(rng) for _ in range(200)]:
        eq = cq.solve_two_user(*params)
        ts = np.array([eq.t_last, np.nextafter(eq.t_last, np.inf), eq.t_last + 1.0])
        assert np.array_equal(eq.density(ts), np.zeros(3))
        share = params[0] / (params[0] + params[1])
        assert eq.routing(1, eq.t_last) == share


def test_post_opening_density_affine_decreasing():
    rng = np.random.default_rng(4)
    for _ in range(25):
        eq = cq.solve_two_user(*random_params(rng))
        ts = np.linspace(1e-9, eq.t_last, 50)
        f = eq.density(ts)
        diffs = np.diff(f)
        assert np.all(diffs <= 1e-12)
        # affine: second differences vanish
        assert np.max(np.abs(np.diff(diffs))) <= 1e-10


def test_routing_sums_to_one_exactly():
    rng = np.random.default_rng(5)
    for _ in range(100):
        eq = cq.solve_two_user(*random_params(rng))
        ts = np.linspace(eq.t_first, eq.t_last, 101)[:-1]
        p1 = eq.routing(1, ts)
        p2 = eq.routing(2, ts)
        assert np.max(np.abs(p1 + p2 - 1.0)) <= 1e-12


def test_equal_rates_route_evenly():
    eq = cq.solve_two_user(1.3, 1.3, 0.8, 1.7)
    ts = np.linspace(eq.t_first, eq.t_last, 33)[:-1]
    assert np.allclose(eq.routing(1, ts), 0.5, atol=1e-12)


def test_routing_falls_back_to_rate_share_where_density_vanishes():
    eq = cq.solve_two_user(1.0, 2.0, 1.0, 1.0)
    ts = np.array([eq.t_first - 1.0, eq.t_last, eq.t_last + 1.0])
    assert np.all(eq.density(ts) == 0.0)
    assert np.array_equal(eq.routing(1, ts), np.full(3, 1.0 / 3.0))
    assert np.array_equal(eq.routing(2, ts), np.full(3, 2.0 / 3.0))


def test_expected_cost_is_flat_under_closed_form_occupancy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        eq = cq.solve_two_user(*random_params(rng))
        ts = np.linspace(eq.t_first, eq.t_last, 41)
        occupied = np.column_stack((eq.queue_occupied_prob(1, ts), eq.queue_occupied_prob(2, ts)))
        costs = eq.expected_cost(occupied, ts)
        assert costs.shape == (41, 2)
        assert np.allclose(costs, eq.cost, rtol=0.0, atol=1e-12)


def test_small_beta_shrinks_early_arrivals():
    # the incentive to come early vanishes with the tardiness weight
    t_firsts = [cq.solve_two_user(1, 1, 1, b).t_first for b in (1.0, 0.1, 0.001)]
    assert t_firsts[0] < t_firsts[1] < t_firsts[2] < 0.0
    assert t_firsts[2] == pytest.approx(0.0, abs=0.05)


def test_occupancy_continuous_at_opening():
    rng = np.random.default_rng(6)
    for _ in range(50):
        eq = cq.solve_two_user(*random_params(rng))
        for i in (1, 2):
            left = eq.queue_occupied_prob(i, -1e-12)
            right = eq.queue_occupied_prob(i, 1e-12)
            assert left == pytest.approx(right, abs=1e-9)
            assert eq.queue_occupied_prob(i, eq.t_first) == pytest.approx(0.0, abs=1e-12)


# -- expected-queue dynamics ---------------------------------------------------


def test_ode_step_no_activity():
    state = QueuePairState(np.zeros(2), (1.0, 1.0))
    out = expected_queue_ode_step(state, -1.0, 0.01, 0.0, (0.5, 0.5), service_active=False)
    assert np.all(out.lengths == 0.0)
    assert out.clamp_events == 0


def test_ode_step_pure_service_drain():
    state = QueuePairState(np.array([0.5, 0.5]), (1.0, 1.0))
    out = expected_queue_ode_step(state, 0.5, 0.01, 0.0, (0.5, 0.5), service_active=True)
    assert out.lengths[0] == pytest.approx(0.495, abs=1e-15)


def test_ode_step_pure_inflow():
    state = QueuePairState(np.zeros(2), (1.0, 1.0))
    out = expected_queue_ode_step(state, -0.5, 0.01, 1.0, (1.0, 0.0), service_active=False)
    assert out.lengths[0] == pytest.approx(0.01, abs=1e-15)
    assert out.lengths[1] == 0.0


def test_ode_step_counts_clamps():
    state = QueuePairState(np.array([0.999, 0.0]), (1.0, 1.0))
    out = expected_queue_ode_step(state, -0.5, 0.1, 1.0, (1.0, 0.0), service_active=False)
    assert out.lengths[0] == 1.0
    assert out.clamp_events == 1


def test_ode_rejects_nonpositive_dt():
    state = QueuePairState(np.zeros(2), (1.0, 1.0))
    for dt in (0.0, -1e-3, math.nan):
        with pytest.raises(cq.DomainError):
            expected_queue_ode_step(state, 0.0, dt, 1.0, (0.5, 0.5), service_active=True)


def test_ode_steps_reproduce_euler_path():
    # (1, 2, 1, 1) at dt = 1e-3 drives queue 2 into the clamp 40 times
    eq = cq.solve_two_user(1.0, 2.0, 1.0, 1.0)
    ts = _euler_grid(eq.t_first, eq.t_last, 1e-3)
    starts = ts[:-1]
    density = eq.density(starts)
    routing = np.column_stack((eq.routing(1, starts), eq.routing(2, starts)))
    path, clamp_events = _euler_path(
        [0.0, 0.0],
        (eq.mu1, eq.mu2),
        (routing * density[:, None]).tolist(),
        np.diff(ts).tolist(),
        (starts >= 0.0).tolist(),
    )
    state = QueuePairState(np.zeros(2), (eq.mu1, eq.mu2))
    for t, dt, f, r in zip(starts, np.diff(ts), density, routing):
        state = expected_queue_ode_step(state, float(t), float(dt), float(f), tuple(r), t >= 0.0)
    assert path.shape == (ts.size, 2)
    assert np.array_equal(path[-1], state.lengths)
    assert clamp_events == state.clamp_events == 40


def test_symmetric_ode_trajectories_match():
    eq = symmetric_case()
    state = QueuePairState(np.zeros(2), (1.0, 1.0))
    t = eq.t_first
    dt = 1e-3
    while t < eq.t_last - dt:
        density = eq.density(t)
        routing = (0.5, 0.5)
        state = expected_queue_ode_step(state, t, dt, density, routing, t >= 0.0)
        t += dt
        assert state.lengths[0] == state.lengths[1]


def test_ode_tracks_closed_form_occupancy():
    # the closed-form occupancy solves the same dynamics, so Euler should
    # track it to O(dt) wherever the state stays inside [0, 1]
    eq = cq.solve_two_user(1.2, 0.9, 2.0, 0.5)
    assert float(np.max(eq.queue_occupied_prob(1, np.array([0.0])))) < 1.0
    state = QueuePairState(np.zeros(2), (eq.mu1, eq.mu2))
    dt = 1e-4
    ts = np.arange(eq.t_first, eq.t_last, dt)
    worst = 0.0
    for t in ts:
        density = eq.density(t)
        routed = (eq.routed_density(1, t), eq.routed_density(2, t))
        routing = tuple(r / density if density > 0 else 0.5 for r in routed)
        state = expected_queue_ode_step(state, float(t), dt, float(density), routing, t >= 0.0)
        ref1 = eq.queue_occupied_prob(1, float(t) + dt)
        worst = max(worst, abs(state.lengths[0] - ref1))
    assert worst <= 5e-3


# -- diagnostics ---------------------------------------------------------------


def test_diagnostics_symmetric_regression_pins():
    d = cq.two_user_diagnostics(symmetric_case())
    assert abs(d.normalization_residual - SYMMETRIC_NORMALIZATION_RESIDUAL) <= 1e-6
    assert abs(d.cost_flatness - SYMMETRIC_COST_FLATNESS) <= 1e-6
    assert d.routing_sum_residual <= 1e-12
    assert abs(d.min_density) <= 1e-12


# cost_flatness recorded before the Euler pass was restructured; every grid
# point goes through the same float operations, so the values are exact.
# (1, 2, 1, 1) has clamps binding; the last case, without clamps, also
# changes if the order of the Euler update's arithmetic changes.
@pytest.mark.parametrize(
    "params, flatness",
    [
        ((1.0, 1.0, 1.0, 1.0), 0.00025433534532992574),
        ((1.0, 2.0, 1.0, 1.0), 0.03923048454132627),
        ((0.3, 3.0, 4.0, 0.2), 0.0031333952715330016),
    ],
)
def test_diagnostics_cost_flatness_is_bit_exact(params, flatness):
    eq = cq.solve_two_user(*params)
    assert cq.two_user_diagnostics(eq, ode_dt=1e-3).cost_flatness == flatness


@pytest.mark.parametrize("ode_dt", [0.0, -1e-3, math.nan, math.inf])
def test_diagnostics_reject_bad_ode_dt(ode_dt):
    with pytest.raises(cq.DomainError):
        cq.two_user_diagnostics(symmetric_case(), ode_dt=ode_dt)


def test_diagnostics_euler_convergence():
    eq = symmetric_case()
    coarse = cq.two_user_diagnostics(eq, ode_dt=1e-3).cost_flatness
    fine = cq.two_user_diagnostics(eq, ode_dt=2e-5).cost_flatness
    assert fine < coarse
    assert coarse / fine > 20.0  # O(dt) scheme over a 50x step refinement


def test_diagnostics_report_never_raise():
    rng = np.random.default_rng(9)
    for _ in range(10):
        eq = cq.solve_two_user(*random_params(rng))
        d = cq.two_user_diagnostics(eq, ode_dt=1e-3)
        for value in (
            d.normalization_residual,
            d.min_density,
            d.cost_flatness,
            d.routing_sum_residual,
        ):
            assert math.isfinite(value)
