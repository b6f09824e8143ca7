from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import concertq as cq
from concertq.equilibrium import SolverError
from concertq.model import service_windows
from oracles import _service_epochs
from conftest import (
    make_scenario,
    random_feasible_multi,
    random_feasible_single,
    single_queue_scenario,
    two_population_single_queue_scenario,
    two_queue_worked_scenario,
    wide_scenario,
)


# -- solve_single -------------------------------------------------------------


def test_single_queue_closed_form():
    eq = cq.solve_single(single_queue_scenario())
    assert eq.terminal_time == 1.0
    assert eq.first_arrivals == {1: -1.0}
    seg = eq.profile.segments[0]
    assert (seg.start, seg.end, seg.density) == (-1.0, 1.0, 0.5)
    assert eq.equilibrium_costs == {1: 1.0}


def test_worked_two_queue_scenario():
    eq = cq.solve_single(two_queue_worked_scenario())
    assert eq.terminal_time == pytest.approx(0.75, abs=1e-15)
    assert eq.routing[(1, 1)] == pytest.approx(0.75, abs=1e-15)
    assert eq.routing[(1, 2)] == pytest.approx(0.25, abs=1e-15)
    assert eq.first_arrivals[1] == pytest.approx(-0.75, abs=1e-15)
    assert eq.first_arrivals[2] == pytest.approx(0.25, abs=1e-15)
    for seg in eq.profile.segments:
        assert seg.density == pytest.approx(0.5, abs=1e-15)
    assert sum(eq.routing.values()) == pytest.approx(1.0, abs=1e-15)


def test_single_matches_explicit_formulas():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = random_feasible_single(rng)
        pop = s.populations[0]
        eq = cq.solve_single(s)
        mus = np.array([q.mu for q in s.queues])
        ts = np.array([q.t_start for q in s.queues])
        T = (pop.mass + float(np.sum(mus * ts))) / float(np.sum(mus))
        assert eq.terminal_time == pytest.approx(T, rel=1e-14)
        gamma = pop.gamma
        for q in s.queues:
            assert eq.routing[(pop.id, q.id)] == pytest.approx(
                q.mu * (T - q.t_start), rel=1e-12
            )
            first = (1.0 - 1.0 / gamma) * T + q.t_start / gamma
            assert eq.first_arrivals[q.id] == pytest.approx(first, rel=1e-9, abs=1e-12)
            dens = [g.density for g in eq.profile.segments if g.queue == q.id]
            assert dens[0] == pytest.approx(gamma * q.mu, rel=1e-12)
        # constant cost equals alpha times the first-arrival magnitude
        assert eq.equilibrium_costs[pop.id] == pytest.approx(
            pop.alpha * (-eq.first_arrivals[s.queues[0].id]), rel=1e-9
        )


def test_high_gamma_arrivals_approach_openings():
    s = make_scenario([(1.0, 0.0), (1.0, 0.2)], [{"alpha": 1, "beta": 1e-9}])
    eq = cq.solve_single(s)
    assert eq.first_arrivals[1] == pytest.approx(0.0, abs=1e-8)
    assert eq.first_arrivals[2] == pytest.approx(0.2, abs=1e-8)


def test_single_gives_no_arrivals_to_a_queue_that_never_opens():
    # queue 2 opens at 2, after queue 1 alone serves the unit mass by 1
    s = make_scenario([(1.0, 0.0), (1.0, 2.0)], [{"alpha": 1, "beta": 1}])
    eq = cq.solve_single(s)
    assert eq.profile.queue_ids == (1,)
    assert eq.first_arrivals.keys() == {1} and eq.serve_sets == ((1,),)
    assert eq.terminal_time == 1.0


def test_single_rejects_multi_population():
    with pytest.raises(SolverError):
        cq.solve_single(two_population_single_queue_scenario())


def test_single_rejects_pure_tardiness_population():
    s = make_scenario([(1.0, 0.0)], [{"alpha": 0, "beta": 1}])
    with pytest.raises(SolverError):
        cq.solve_single(s)


def test_terminal_time_counts_only_queues_that_open():
    # queue 2 opens at 2, after queue 1 alone serves the unit mass by 1; the
    # terminal time used to count it anyway and read 1.5
    s = make_scenario([(1.0, 0.0), (1.0, 2.0)], [{"alpha": 1, "beta": 1}])
    assert cq.solve_single(s).terminal_time == 1.0
    rng = np.random.default_rng(19)
    for _ in range(100):
        K = int(rng.integers(1, 7))
        starts = np.concatenate(([0.0], rng.uniform(0.0, 3.0, size=K - 1)))
        s = make_scenario(
            [(float(m), float(t)) for m, t in zip(rng.uniform(0.2, 5.0, size=K), starts)],
            [{"alpha": 1, "beta": 1, "mass": float(rng.uniform(0.1, 3.0))}],
        )
        pruned, _ = cq.pruned_scenario(s)
        T = cq.solve_single(pruned).terminal_time
        assert cq.solve_single(s).terminal_time == T
        # the last service epoch, with and without the queues that never open
        for x in (s, pruned):
            assert service_windows(x.queues, [x.total_mass])[1][-1] == T


def test_terminal_time_exceeds_every_surviving_start():
    rng = np.random.default_rng(77)
    for _ in range(50):
        s = random_feasible_single(rng)
        eq = cq.solve_single(s)
        assert all(eq.terminal_time > q.t_start for q in s.queues)


# -- solve_multi --------------------------------------------------------------


def test_two_population_single_queue_closed_form():
    eq = cq.solve_multi(two_population_single_queue_scenario())
    assert eq.arrival_epochs == (-4.0, 0.0, 2.0)
    assert eq.service_epochs == (0.0, 1.0, 2.0)
    assert eq.first_arrivals == {1: -4.0}
    segs = sorted(eq.profile.segments, key=lambda g: g.population)
    assert (segs[0].start, segs[0].end, segs[0].density) == (-4.0, 0.0, 0.25)
    assert (segs[1].start, segs[1].end, segs[1].density) == (0.0, 2.0, 0.5)
    assert eq.equilibrium_costs == {1: 4.0, 2: 2.0}


def test_multi_serve_set_fixed_point():
    # second queue opens after population 1 is served out, so it lands in J_2
    s = make_scenario(
        [(1.0, 0.0), (1.0, 1.6)],
        [{"alpha": 1, "beta": 3}, {"alpha": 1, "beta": 1}],
    )
    eq = cq.solve_multi(s)
    assert eq.serve_sets == ((1,), (2,))
    assert eq.service_epochs == (0.0, 1.0, 1.8)
    assert eq.arrival_epochs[1] == pytest.approx(0.2, abs=1e-12)
    assert eq.routing[(2, 2)] == pytest.approx(0.2, abs=1e-12)
    assert eq.first_arrivals[2] == pytest.approx(1.4, abs=1e-12)


def _enumerate_assignments(s):
    """Oracle: try every nondecreasing queue-to-population assignment and
    keep those consistent with their own service epochs."""
    K, N = s.n_queues, s.n_populations
    consistent = []

    def rec(prefix):
        if len(prefix) == K:
            taus = _service_epochs(s, list(prefix))
            ok = True
            for q, a in zip(s.queues, prefix):
                lo = taus[a]
                hi = taus[a + 1]
                if not (q.t_start < hi and (a == 0 or q.t_start >= lo)):
                    ok = False
                    break
            if ok:
                consistent.append(list(prefix))
            return
        if not prefix:
            # the earliest queue opens at the origin, inside the first window
            rec([0])
            return
        for a in range(prefix[-1], N):
            rec(prefix + [a])

    rec([])
    return consistent


def test_multi_fixed_point_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_feasible_multi(rng)
        eq = cq.solve_multi(s)
        got = []
        for q in s.queues:
            for i, js in enumerate(eq.serve_sets):
                if q.id in js:
                    got.append(i)
        options = _enumerate_assignments(s)
        assert got in options


def test_multi_reduces_to_single_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_feasible_single(rng)
        assert cq.solve_multi(s) == cq.solve_single(s)


def test_multi_supports_ragged_masses():
    # cumulative masses replace population counts throughout the epochs
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 15:
        N = int(rng.integers(2, 5))
        K = int(rng.integers(1, 5))
        mus = rng.uniform(0.3, 4.0, size=K)
        starts = np.concatenate(([0.0], np.sort(rng.uniform(0.02, 2.0, size=K - 1))))
        if len(np.unique(starts)) != K:
            continue
        gammas = np.sort(rng.uniform(0.05, 0.95, size=N))
        if np.min(np.diff(gammas)) < 5e-3:
            continue
        pops = []
        for g in gammas:
            beta = float(rng.uniform(0.3, 5.0))
            pops.append(
                {"alpha": float(g / (1 - g) * beta), "beta": beta,
                 "mass": float(rng.uniform(0.2, 3.0))}
            )
        s = make_scenario([(float(m), float(t)) for m, t in zip(mus, starts)], pops)
        s, _ = cq.pruned_scenario(s)
        checked += 1
        eq = cq.solve_multi(s)
        for pop in s.populations:
            assert eq.profile.mass(population=pop.id) == pytest.approx(pop.mass, rel=1e-12)
        v = cq.verify_equilibrium(s, eq.profile)
        assert max(v.max_support_cost_deviation.values()) <= 1e-9
        assert min(v.min_off_support_cost_gap.values()) >= -1e-9


def _assert_verified(s, eq):
    for pop in s.populations:
        assert eq.profile.mass(population=pop.id) == pytest.approx(pop.mass, rel=1e-12)
    report = cq.verify_equilibrium(s, eq.profile)
    assert report.is_equilibrium, report


def test_multi_solves_gamma_ties():
    # equal gammas have proportional costs: served in id order, any order is
    # an equilibrium
    s = make_scenario(
        [(1.0, 0.0), (1.0, 0.3)],
        [{"alpha": 1, "beta": 1}, {"alpha": 2, "beta": 2}],
    )
    eq = cq.solve_multi(s)
    last_arrival = {p: eq.profile.end[eq.profile.pop == p].max() for p in (1, 2)}
    assert last_arrival[1] < last_arrival[2]
    _assert_verified(s, eq)


def test_multi_solves_tied_start_times():
    s = make_scenario(
        [(1.0, 0.0), (1.0, 0.0)],
        [{"alpha": 1, "beta": 3}, {"alpha": 1, "beta": 1}],
    )
    eq = cq.solve_multi(s)
    assert eq.serve_sets == ((1, 2), ())
    _assert_verified(s, eq)


def test_multi_tied_openings_join_a_later_window_together():
    s = make_scenario(
        [(1.0, 0.0), (2.0, 1.5), (1.0, 1.5)],
        [{"alpha": 1, "beta": 3}, {"alpha": 1, "beta": 1}],
    )
    eq = cq.solve_multi(s)
    assert eq.serve_sets == ((1,), (2, 3))
    _assert_verified(s, eq)


@settings(max_examples=60, deadline=None)
@given(
    openings=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=4),
    mus=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=4, max_size=4),
    pops=st.lists(
        st.tuples(
            st.sampled_from([0.2, 0.5, 0.8]),  # gamma
            st.sampled_from([0.5, 1.0, 2.0]),  # beta
            st.sampled_from([0.5, 1.0]),       # mass
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_tied_scenarios_solve_to_verified_equilibria(openings, mus, pops):
    # ties in openings or in gammas need no merge step: the construction as
    # it is passes the independent verifier
    s = make_scenario(
        list(zip(mus, openings)),
        [{"alpha": g / (1 - g) * b, "beta": b, "mass": m} for g, b, m in pops],
    )
    s, _ = cq.pruned_scenario(s)
    _assert_verified(s, cq.solve_multi(s))


def test_multi_ordering_and_no_gap_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        s = random_feasible_multi(rng)
        eq = cq.solve_multi(s)
        taus = eq.service_epochs
        assert all(a < b for a, b in zip(taus, taus[1:]))
        epochs = eq.arrival_epochs
        assert all(a < b for a, b in zip(epochs, epochs[1:]))
        # per queue: support pieces are contiguous and ordered by population
        for q in s.queues:
            rows = eq.profile.queue_rows(q.id)
            segs = sorted((eq.profile.segments[i] for i in rows), key=lambda g: g.start)
            pops = [g.population for g in segs]
            assert pops == sorted(pops)
            for a, b in zip(segs, segs[1:]):
                assert b.start == pytest.approx(a.end, abs=1e-9)
            assert segs[-1].end == pytest.approx(eq.terminal_time, abs=1e-9)
        # population windows are disjoint with no holes across the network
        for i, pop in enumerate(s.populations, start=1):
            ends = eq.profile.end[eq.profile.pop == pop.id]
            assert ends.size, "every population arrives somewhere"
            assert ends.max() == pytest.approx(
                eq.arrival_epochs[i], abs=1e-9
            )
        # densities equal gamma * mu on their supports
        pops = {p.id: p for p in s.populations}
        mus = {q.id: q.mu for q in s.queues}
        for g in eq.profile.segments:
            pop = pops[g.population]
            mu = mus[g.queue]
            assert g.density == pytest.approx(pop.gamma * mu, rel=1e-9)


# -- structural properties of solved profiles ----------------------------------


def test_all_queues_drain_at_common_terminal_time():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = random_feasible_single(rng)
        eq = cq.solve_single(s)
        for q in s.queues:
            ql = cq.fluid_queue(eq.profile, q)
            assert ql(eq.terminal_time) == pytest.approx(0.0, abs=1e-9)
            before = eq.terminal_time - 1e-6
            if before > eq.first_arrivals[q.id]:
                assert ql(before) > 0.0


def test_no_idling_on_equilibrium_support():
    rng = np.random.default_rng(21)
    for _ in range(20):
        s = random_feasible_single(rng)
        eq = cq.solve_single(s)
        for q in s.queues:
            psi = cq.fluid_regulator(eq.profile, q)
            ts = np.linspace(eq.first_arrivals[q.id], eq.terminal_time, 64)
            assert np.max(psi(ts)) <= 1e-12


# -- verify_equilibrium -------------------------------------------------------


def test_verifier_accepts_solved_profile():
    s = two_queue_worked_scenario()
    eq = cq.solve_single(s)
    report = cq.verify_equilibrium(s, eq.profile)
    assert report.is_equilibrium
    assert max(report.max_support_cost_deviation.values()) <= 1e-9
    assert min(report.min_off_support_cost_gap.values()) >= -1e-9
    assert report.support_costs[1] == pytest.approx(0.75, abs=1e-12)


def test_verifier_rejects_wrong_support():
    # uniform on [0, 2] has the right mass but the wrong support: arriving
    # just before 0 is strictly cheaper
    s = single_queue_scenario()
    wrong = cq.ArrivalProfile((cq.Segment(1, 1, 0.0, 2.0, 0.5),))
    report = cq.verify_equilibrium(s, wrong)
    assert not report.is_equilibrium
    assert report.min_off_support_cost_gap[1] < -1e-3


def test_verifier_flags_interior_gap():
    # equilibrium mass rearranged to leave a hole in the middle
    s = single_queue_scenario()
    gapped = cq.ArrivalProfile(
        (cq.Segment(1, 1, -1.0, -0.2, 0.625), cq.Segment(1, 1, 0.2, 1.0, 0.625))
    )
    report = cq.verify_equilibrium(s, gapped)
    assert not report.is_equilibrium


def test_verifier_rejects_density_perturbation():
    # mass-preserving +/-1% tilt on one queue's support breaks flatness
    s = two_queue_worked_scenario()
    eq = cq.solve_single(s)
    segs = []
    for g in eq.profile.segments:
        if g.queue == 1:
            mid = 0.5 * (g.start + g.end)
            segs.append(cq.Segment(g.population, g.queue, g.start, mid, g.density * 1.01))
            segs.append(cq.Segment(g.population, g.queue, mid, g.end, g.density * 0.99))
        else:
            segs.append(g)
    perturbed = cq.ArrivalProfile(tuple(segs))
    assert perturbed.mass(queue=1) == pytest.approx(eq.profile.mass(queue=1), abs=1e-12)
    report = cq.verify_equilibrium(s, perturbed)
    assert not report.is_equilibrium


def test_verifier_names_its_witnesses():
    # queue 1's density raised by 1e-4: the support cost deviates most at the
    # end of population 1's window at queue 1, where the perturbed mass has
    # built up the most wait; the lowest off-support cost lies just past it
    s = two_queue_worked_scenario()
    eq = cq.solve_single(s)
    segs = [replace(g, density=g.density * (1 + 1e-4)) if g.queue == 1 else g
            for g in eq.profile.segments]
    report = cq.verify_equilibrium(s, cq.ArrivalProfile(tuple(segs)))
    assert not report.is_equilibrium
    pop, queue, t = report.worst_support_deviation_at
    assert any(g.population == pop and g.queue == queue and g.start <= t <= g.end for g in segs)
    assert report.worst_support_deviation_at == (1, 1, 0.75)
    assert report.min_off_support_gap_at == (1, 1, 0.750075)
    assert "worst_support_deviation_at" not in report.to_dict()
    # at the equilibrium itself the deviation is 0 everywhere: the first
    # support point is the witness
    exact = cq.verify_equilibrium(s, eq.profile)
    assert exact.max_support_cost_deviation == {1: 0.0}
    assert exact.worst_support_deviation_at == (1, 1, -0.75)


def test_verifier_rejects_multi_population_perturbation():
    s = two_population_single_queue_scenario()
    eq = cq.solve_multi(s)
    segs = []
    for g in eq.profile.segments:
        if g.population == 2:
            mid = 0.5 * (g.start + g.end)
            segs.append(cq.Segment(g.population, g.queue, g.start, mid, g.density * 1.01))
            segs.append(cq.Segment(g.population, g.queue, mid, g.end, g.density * 0.99))
        else:
            segs.append(g)
    report = cq.verify_equilibrium(s, cq.ArrivalProfile(tuple(segs)))
    assert not report.is_equilibrium
    # both witnesses name the tilted population, just before its window
    # for the gap
    assert report.worst_support_deviation_at == (2, 1, 1.0)
    assert report.min_off_support_gap_at == (2, 1, -0.0078125)


def test_verifier_per_population_on_multi():
    s = two_population_single_queue_scenario()
    eq = cq.solve_multi(s)
    report = cq.verify_equilibrium(s, eq.profile)
    assert report.is_equilibrium
    assert set(report.max_support_cost_deviation) == {1, 2}
    assert report.support_costs[1] == pytest.approx(4.0, abs=1e-12)
    assert report.support_costs[2] == pytest.approx(2.0, abs=1e-12)


def test_verifier_rejects_empty_profile():
    with pytest.raises(cq.DomainError):
        cq.verify_equilibrium(single_queue_scenario(), cq.ArrivalProfile(()))


def test_verifier_rejects_unknown_queue():
    stray = cq.ArrivalProfile((cq.Segment(1, 9, 0.0, 1.0, 1.0),))
    with pytest.raises(cq.DomainError, match="unknown queues"):
        cq.verify_equilibrium(single_queue_scenario(), stray)


@pytest.mark.parametrize("kwargs", [{"grid_step": 0.0}, {"grid_step": -0.1}, {"tol": -1.0}])
def test_verifier_rejects_bad_grid_step_and_tol(kwargs):
    # the verifier reads its grid step and tolerance from the scenario's
    # options, which refuse these values when they are set
    s = two_queue_worked_scenario()
    with pytest.raises(cq.DomainError):
        cq.verify_equilibrium(replace(s, options=replace(s.options, **kwargs)), cq.solve_single(s).profile)


def test_profile_to_dict_shifts_times():
    s = make_scenario([(1.0, 2.0)], [{"alpha": 1, "beta": 1}])
    eq = cq.solve_single(s)
    out = eq.to_dict(time_origin=s.time_origin)
    assert out["terminal_time"] == pytest.approx(3.0)
    assert out["first_arrivals"]["1"] == pytest.approx(1.0)


# -- relabelling ----------------------------------------------------------------


def relabelling_invariants(doc):
    """The verifier's verdict on the solved profile, the multiset of its
    support costs and the price of anarchy of the scenario document."""
    s = cq.scenario_from_dict(doc)
    report = cq.verify_equilibrium(s, cq.solve_multi(s).profile)
    return report.is_equilibrium, sorted(report.support_costs.values()), cq.poa_multi(s).eta


def relabelled(doc, queue_order, population_order):
    """The document with its queues and populations listed in other orders,
    which gives every queue and population another id."""
    return {**doc, "queues": [doc["queues"][i] for i in queue_order],
            "populations": [doc["populations"][i] for i in population_order]}


@st.composite
def relabelled_documents(draw):
    """A scenario document with distinct openings and gammas that needs no
    pruning, and orders to list its queues and populations in."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    openings = draw(st.lists(st.floats(0.0, 1.5), min_size=k, max_size=k, unique=True))
    gammas = draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n, unique=True))
    betas = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    doc = {
        "queues": [{"mu": draw(st.floats(0.3, 3.0)), "t_start": t} for t in openings],
        "populations": [{"alpha": g / (1 - g) * b, "beta": b} for g, b in zip(gammas, betas)],
    }
    s = cq.scenario_from_dict(doc)
    assume(len({p.gamma for p in s.populations}) == n and not cq.pruned_scenario(s)[1].pruned_queues)
    return doc, draw(st.permutations(range(k))), draw(st.permutations(range(n)))


@given(relabelled_documents())
@settings(max_examples=60, deadline=None)
def test_relabelling_leaves_verdict_support_costs_and_eta_unchanged(case):
    doc, queue_order, population_order = case
    assert relabelling_invariants(relabelled(doc, queue_order, population_order)) \
        == relabelling_invariants(doc)


@pytest.mark.parametrize("build", [wide_scenario, two_queue_worked_scenario])
def test_relabelling_the_pinned_scenarios_changes_nothing(build):
    doc = cq.scenario_to_dict(build())
    want = relabelling_invariants(doc)
    assert want[0]
    rng = np.random.default_rng(2011)
    for _ in range(3):
        queue_order = rng.permutation(len(doc["queues"])).tolist()
        population_order = rng.permutation(len(doc["populations"])).tolist()
        assert relabelling_invariants(relabelled(doc, queue_order, population_order)) == want


# -- open verifier defects (ROADMAP item 3): each fails until that change --------


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the verdict depends on the time unit")
def test_verdict_does_not_depend_on_the_time_unit():
    # the worked pair with rates x c and openings / c, and queue 1's solver
    # density x (1 + 1e-4): rejected at c = 1 and 2^10, accepted at 2^20
    verdicts = []
    for c in (1.0, 2.0**10, 2.0**20):
        s = make_scenario([(c, 0.0), (c, 0.5 / c)], [{"alpha": 1, "beta": 1}])
        p = cq.solve_multi(s).profile
        tilted = np.where(p.queue == 1, p.density * (1 + 1e-4), p.density)
        profile = cq.ArrivalProfile.from_rows(zip(p.pop, p.queue, p.start, p.end, tilted))
        verdicts.append(cq.verify_equilibrium(s, profile).is_equilibrium)
    assert len(set(verdicts)) == 1, verdicts


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the verdict depends on the cost unit")
def test_solver_profile_is_accepted_at_large_costs():
    # beta = 1e12: the support cost is 7.5e11, and its deviation of 4.3e6 is
    # below one ulp of the cancelling beta * t terms
    s = make_scenario([(1.0, 0.0), (1.0, 0.5)], [{"alpha": 1, "beta": 1e12}])
    assert cq.verify_equilibrium(s, cq.solve_multi(s).profile).is_equilibrium


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the verifier ignores population masses")
def test_profile_without_the_population_mass_is_not_accepted():
    # a routed mass of 1e-320 against the population's 1
    profile = cq.ArrivalProfile.from_rows([(1, 1, 0.0, 1e-320, 1.0)])
    try:
        report = cq.verify_equilibrium(two_queue_worked_scenario(), profile)
    except cq.DomainError:
        return
    assert not report.is_equilibrium
