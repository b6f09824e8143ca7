import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concertq as cq
from oracles import optimal_profile_by_capacity_inverse
from conftest import (
    make_scenario,
    random_feasible_multi,
    random_feasible_single,
    single_queue_scenario,
    two_population_single_queue_scenario,
    two_queue_worked_scenario,
)


# -- social cost --------------------------------------------------------------


def test_social_cost_of_equilibrium_is_cost_times_mass():
    s = single_queue_scenario()
    eq = cq.solve_single(s)
    assert cq.social_cost(s, eq.profile) == pytest.approx(1.0, abs=1e-12)


def test_social_cost_empty_profile():
    assert cq.social_cost(single_queue_scenario(), cq.ArrivalProfile(())) == 0.0


def test_social_cost_matches_grid_quadrature():
    s = two_queue_worked_scenario()
    eq = cq.solve_single(s)
    # midpoint quadrature of cost against density as an independent route
    total = 0.0
    queues = {q.id: q for q in s.queues}
    for seg in eq.profile.segments:
        q = queues[seg.queue]
        curve = cq.cost_curve(s.populations[0], eq.profile, q)
        ts = np.linspace(seg.start, seg.end, 20001)
        mids = 0.5 * (ts[1:] + ts[:-1])
        total += float(np.sum(curve(mids)) * (ts[1] - ts[0]) * seg.density)
    assert cq.social_cost(s, eq.profile) == pytest.approx(total, abs=1e-9)


# -- optimal profile ----------------------------------------------------------


def test_optimal_single_queue():
    profile, cost = cq.optimal_profile(single_queue_scenario())
    assert cost == pytest.approx(0.5, abs=1e-15)
    seg = profile.segments[0]
    assert (seg.start, seg.end, seg.density) == (0.0, 1.0, 1.0)


def test_optimal_worked_scenario():
    s = two_queue_worked_scenario()
    profile, cost = cq.optimal_profile(s)
    assert cost == pytest.approx(0.4375, abs=1e-15)
    # independent route: integrate the cost curves under the optimal profile
    assert cq.social_cost(s, profile) == pytest.approx(cost, abs=1e-12)
    # matches the single-population closed form (beta/2)(T^2 sum mu - sum mu t^2)
    T = cq.solve_single(s).terminal_time
    closed = 0.5 * (T * T * 2.0 - 1.0 * 0.5**2)
    assert cost == pytest.approx(closed, abs=1e-15)


def test_optimal_profile_has_no_waiting():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = random_feasible_single(rng)
        profile, _ = cq.optimal_profile(s)
        for q in s.queues:
            ql = cq.fluid_queue(profile, q)
            assert np.max(ql.values) <= 1e-9


def test_optimal_profile_matches_the_capacity_inverse():
    # ragged masses, betas in any order and late queues the optimum never
    # opens; the window boundaries agree to 1e-12
    rng = np.random.default_rng(41)
    for _ in range(200):
        K, N = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        starts = np.concatenate(([0.0], rng.uniform(0.0, 3.0, size=K - 1)))
        s = make_scenario(
            [(float(m), float(t)) for m, t in zip(rng.uniform(0.2, 5.0, size=K), starts)],
            [
                {"alpha": float(a), "beta": float(b), "mass": float(m)}
                for a, b, m in rng.uniform(0.1, 3.0, size=(N, 3))
            ],
        )
        got, cost = cq.optimal_profile(s)
        want, want_cost = optimal_profile_by_capacity_inverse(s)
        for name in ("pop", "queue", "density"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("start", "end"):
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)
        assert cost == pytest.approx(want_cost, rel=1e-12)


def test_optimal_reorders_populations_by_beta():
    # gammas 0.25 < 0.5 but betas 1 < 2: the beta=2 population is served first
    s = make_scenario(
        [(1.0, 0.0)], [{"alpha": 1.0 / 3.0, "beta": 1.0}, {"alpha": 2, "beta": 2}]
    )
    profile, cost = cq.optimal_profile(s)
    assert profile.start[profile.pop == 2].min() == 0.0
    # swapping the order must cost more: beta-weighted completion times
    swapped = sum(
        p.beta * 0.5 * (b * b - a * a)
        for p, (a, b) in zip(s.populations, [(0.0, 1.0), (1.0, 2.0)])
    )
    assert cost < swapped


def test_optimal_multi_matches_window_closed_form():
    # equal masses: optimal windows coincide with the equilibrium service
    # epochs, so the per-window quadratic form applies
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = random_feasible_multi(rng)
        eq = cq.solve_multi(s)
        profile, cost = cq.optimal_profile(s)
        taus = eq.service_epochs
        betas_desc = sorted((p.beta for p in s.populations), reverse=True)
        expected = 0.0
        for i in range(1, s.n_populations + 1):
            for q in s.queues:
                a = max(q.t_start, taus[i - 1])
                b = taus[i]
                if b > a:
                    expected += betas_desc[i - 1] * q.mu * 0.5 * (b * b - a * a)
        assert cost == pytest.approx(expected, rel=1e-12)
        assert cq.social_cost(s, profile) == pytest.approx(cost, rel=1e-9)


# -- single-population price of anarchy ---------------------------------------


def test_poa_single_queue_is_two():
    report = cq.poa_single(single_queue_scenario())
    assert report.closed_form_eta == 2.0
    assert report.eta == pytest.approx(2.0, abs=1e-12)
    assert report.bound_satisfied


@pytest.mark.parametrize(
    "mu, t_start, alpha, beta, mass",
    [
        (1.0, 0.0, 1.0, 1.0, 1.0),
        (0.7, 0.0, 2.0, 3.0, 1.0),
        (2.2, 0.0, 0.5, 1.5, 2.5),
        (4.0, 1.0, 3.0, 1.0, 0.4),
    ],
)
def test_one_queue_is_the_single_queue_concert_game(mu, t_start, alpha, beta, mass):
    # K=1 is the concert queueing game of Jain, Juneja and Shimkin: arrivals
    # at density gamma * mu on [T - (T - t_start) / gamma, T], T = t_start + mass / mu,
    # and a price of anarchy of exactly 2
    s = make_scenario([(mu, t_start)], [{"alpha": alpha, "beta": beta, "mass": mass}])
    q, pop = s.queues[0], s.populations[0]
    T = q.t_start + mass / mu
    closed = cq.ArrivalProfile(
        (cq.Segment(pop.id, q.id, T - (T - q.t_start) / pop.gamma, T, pop.gamma * mu),)
    )
    assert closed.mass(queue=q.id) == pytest.approx(mu * (T - q.t_start), rel=1e-12)
    solved = cq.solve_single(s).profile
    assert len(solved.segments) == 1
    got, want = (dataclasses.astuple(p.segments[0]) for p in (solved, closed))
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert cq.verify_equilibrium(s, closed).is_equilibrium
    assert cq.verify_equilibrium(s, solved).is_equilibrium
    report = cq.poa_single(s)
    assert report.eta == pytest.approx(2.0, abs=1e-12)
    assert cq.social_cost(s, closed) / report.j_opt == pytest.approx(2.0, abs=1e-12)
    if mass == 1.0:
        assert report.closed_form_eta == 2.0


def test_poa_worked_scenario():
    report = cq.poa_single(two_queue_worked_scenario())
    assert report.j_eq == pytest.approx(0.75, abs=1e-12)
    assert report.j_opt == pytest.approx(0.4375, abs=1e-12)
    assert report.eta == pytest.approx(12.0 / 7.0, abs=1e-12)
    assert report.closed_form_eta == pytest.approx(12.0 / 7.0, abs=1e-12)


def test_poa_skips_a_queue_that_never_opens():
    s = make_scenario([(1.0, 0.0), (1.0, 2.0)], [{"alpha": 1, "beta": 1}])
    alone = make_scenario([(1.0, 0.0)], [{"alpha": 1, "beta": 1}])
    assert cq.poa_single(s) == cq.poa_single(alone)
    assert cq.poa_single(s).closed_form_eta == 2.0  # one queue: eta hits the bound


def test_solvers_and_reports_equal_those_of_the_pruned_scenario():
    """Queues that never open change nothing: each solve and report of s
    equals the same call on the pruned scenario, to the last bit."""
    rng = np.random.default_rng(2011)
    checked = {1: 0, 2: 0, 3: 0}
    while min(checked.values()) < 15:
        K, N = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        s = make_scenario(
            [(float(m), float(t)) for m, t in zip(rng.uniform(0.2, 3.0, K), rng.uniform(0.0, 3.0, K))],
            [{"alpha": float(a), "beta": float(b), "mass": float(m)}
             for a, b, m in zip(rng.uniform(0.1, 3.0, N), rng.uniform(0.1, 3.0, N), rng.uniform(0.2, 2.0, N))],
        )
        pruned, report = cq.pruned_scenario(s)
        if not report.pruned_queues:
            continue
        checked[N] += 1
        calls = [cq.solve_multi, cq.poa_multi] + ([cq.solve_single, cq.poa_single] if N == 1 else [])
        for call in calls:
            got, want = call(s), call(pruned)
            assert got.to_dict() == want.to_dict()
            if hasattr(got, "profile"):
                assert got.profile == want.profile


def test_poa_randomized_bounds_and_agreement():
    rng = np.random.default_rng(99)
    for _ in range(60):
        s = random_feasible_single(rng)
        report = cq.poa_single(s)
        assert report.eta > 1.0
        assert report.eta <= 2.0 + 1e-9
        assert report.closed_form_eta == pytest.approx(report.eta, abs=1e-9)


def test_poa_simultaneous_openings_hit_the_bound():
    for K, mu in ((1, 1.0), (3, 0.7), (5, 2.2)):
        s = make_scenario([(mu, 0.0)] * K, [{"alpha": 2, "beta": 3}])
        report = cq.poa_single(s)
        assert report.closed_form_eta == 2.0
        assert report.eta == pytest.approx(2.0, abs=1e-12)


# -- equal-rate special case --------------------------------------------------


def test_equal_rate_case_single_queue():
    assert cq.poa_equal_rate_case(1, 1.0, 0.0) == 2.0
    assert cq.poa_equal_rate_case(1, 3.0, 0.7) == 2.0


def test_equal_rate_case_matches_worked_scenario():
    # total rate 2 split over two queues opening 0.5 apart
    eta = cq.poa_equal_rate_case(2, 2.0, 0.5)
    assert eta == pytest.approx(12.0 / 7.0, abs=1e-12)


def test_equal_rate_case_small_tau_limit():
    assert cq.poa_equal_rate_case(2, 1.0, 1e-9) == pytest.approx(2.0, abs=1e-6)


def test_equal_rate_case_interior_bounds():
    for K in (2, 3, 5):
        for tau in (0.05, 0.2, 0.4):
            mu = 1.0
            if mu * tau * (K - 1) >= 2.0:
                continue
            eta = cq.poa_equal_rate_case(K, mu, tau)
            assert 4.0 / 3.0 < eta < 2.0



def test_equal_rate_case_range_check_survives_optimize_flag():
    # tau = 1e-17 rounds eta to exactly 2, outside the open interval (4/3, 2);
    # the check must still raise under python -O, which strips assert
    env = dict(os.environ, PYTHONPATH=str(Path(cq.__file__).resolve().parent.parent))
    code = "import concertq as cq; cq.poa_equal_rate_case(2, 1.0, 1e-17)"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "AssertionError: eta=2.0 outside (4/3, 2)" in proc.stderr

def test_equal_rate_case_rejects_infeasible_spacing():
    with pytest.raises(cq.DomainError):
        cq.poa_equal_rate_case(3, 1.0, 1.0)


# -- multi-population price of anarchy ----------------------------------------


def test_poa_multi_reduces_to_single():
    a = cq.poa_multi(single_queue_scenario())
    b = cq.poa_single(single_queue_scenario())
    assert a == b


def test_poa_multi_two_population_costs():
    s = two_population_single_queue_scenario()
    report = cq.poa_multi(s)
    # constant per-population costs 4 and 2, masses 1
    assert report.j_eq == pytest.approx(6.0, abs=1e-12)
    assert report.details["j_eq_integral_check"] == pytest.approx(6.0, abs=1e-9)
    assert report.bound_satisfied


def test_poa_multi_closed_form_on_equal_rate_grid():
    queues = [(1.0, 0.1 * k) for k in range(12)]
    pops = [{"alpha": 1, "beta": 3}, {"alpha": 1, "beta": 1}, {"alpha": 3, "beta": 1}]
    s, _ = cq.pruned_scenario(make_scenario(queues, pops))
    report = cq.poa_multi(s)
    assert report.closed_form_eta is not None
    # serve-count relaxation: approximate, documented 5% slack
    assert report.closed_form_eta == pytest.approx(report.eta, rel=0.05)
    assert report.bound_satisfied


def test_poa_multi_unequal_masses_skips_closed_form():
    s = make_scenario(
        [(1.0, 0.0)],
        [{"alpha": 1, "beta": 3, "mass": 0.5}, {"alpha": 1, "beta": 1, "mass": 2.0}],
    )
    report = cq.poa_multi(s)
    assert report.closed_form_eta is None
    assert report.details["notes"]
    assert report.j_eq == pytest.approx(report.details["j_eq_integral_check"], rel=1e-9)


def test_poa_multi_randomized_consistency():
    # the factor-2 bound is a single-population statement; heterogeneous
    # populations can exceed it, so only internal consistency is asserted
    rng = np.random.default_rng(4242)
    seen_above_two = False
    for _ in range(25):
        s = random_feasible_multi(rng)
        report = cq.poa_multi(s)
        assert report.eta > 1.0
        assert report.j_eq == pytest.approx(report.details["j_eq_integral_check"], rel=1e-9)
        assert report.j_opt == pytest.approx(report.details["j_opt_integral_check"], rel=1e-9)
        assert report.bound_satisfied == (report.eta <= 2.0 + 1e-9)
        seen_above_two |= report.eta > 2.0
    # this seed does hit a scenario above 2, which is why the flag exists
    assert seen_above_two


# -- serve-count optimizer ----------------------------------------------------


def test_serve_count_examples():
    r = cq.optimal_serve_count(7, 1.0, 0.1, 64)
    assert r.k_star == 12 and not r.tie

    r = cq.optimal_serve_count(1, 1.0, 0.1, 64)
    assert r.k_star == 4 and r.tie
    assert r.t_l_at_k[4] == pytest.approx(0.4, abs=1e-12)
    assert r.t_l_at_k[5] == pytest.approx(0.4, abs=1e-12)


def test_serve_count_clamps_to_available_queues():
    r = cq.optimal_serve_count(1, 1.0, 1e-8, 6)
    assert r.k_star == 6


def test_serve_count_matches_exhaustive_search():
    for l in range(1, 21):
        for mt in (0.02, 0.1, 0.35, 0.7):
            r = cq.optimal_serve_count(l, 1.0, mt, 50)
            best = min(r.t_l_at_k.values())
            assert r.t_l_at_k[r.k_star] <= best + 1e-12 * max(1.0, best)
            raw = math.sqrt(2.0 * l / mt)
            assert abs(r.k_star - raw) <= 1.0


def test_serve_count_warns_above_unit_spacing():
    with pytest.warns(UserWarning):
        r = cq.optimal_serve_count(3, 2.0, 0.6, 10)
    assert r.t_l_at_k[r.k_star] == min(r.t_l_at_k.values())


def test_serve_count_rejects_bad_arguments():
    with pytest.raises(cq.DomainError):
        cq.optimal_serve_count(0, 1.0, 0.1, 5)
    with pytest.raises(cq.DomainError):
        cq.optimal_serve_count(1, 1.0, 0.0, 5)
