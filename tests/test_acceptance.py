"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Tolerances are fixed here, not configurable: closed-form identities at
1e-12, best-response checks at 1e-9, Monte Carlo gates as stated inline.
"""

import time

import numpy as np
import pytest

import concertq as cq
from concertq import sim
from concertq.cli import main
from conftest import (
    make_scenario,
    random_feasible_multi,
    random_feasible_single,
    single_queue_scenario,
    two_population_single_queue_scenario,
    two_queue_worked_scenario,
)
from oracles import convergence_study


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_single_population_equilibrium_oracle():
    """200 randomized feasible scenarios: solver output passes the
    best-response verifier at 1e-9, within 10 seconds total."""
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    worst_dev = 0.0
    worst_gap = 0.0
    for _ in range(200):
        s = random_feasible_single(rng)
        eq = cq.solve_single(s)
        rep = cq.verify_equilibrium(s, eq.profile)
        worst_dev = max(worst_dev, max(rep.max_support_cost_deviation.values()))
        worst_gap = min(worst_gap, min(rep.min_off_support_cost_gap.values()))
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-9 and worst_gap >= -1e-9 and elapsed <= 10.0
    _report(
        "criterion 1 (equilibrium oracle, 200 scenarios)",
        ok,
        f"max support deviation {worst_dev:.3e}, min off-support gap {worst_gap:.3e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_2_worked_scenario_exact_values():
    """K=2, mu=(1,1), openings (0, 0.5), alpha=beta=1: all quantities exact
    to 1e-12, closed forms against integral routes."""
    s = two_queue_worked_scenario()
    eq = cq.solve_single(s)
    report = cq.poa_single(s)
    checks = {
        "T": (eq.terminal_time, 0.75),
        "p1": (eq.routing[(1, 1)], 0.75),
        "p2": (eq.routing[(1, 2)], 0.25),
        "first1": (eq.first_arrivals[1], -0.75),
        "first2": (eq.first_arrivals[2], 0.25),
        "J_eq": (report.j_eq, 0.75),
        "J_opt": (report.j_opt, 0.4375),
        "eta": (report.eta, 12.0 / 7.0),
        "eta_closed": (report.closed_form_eta, 12.0 / 7.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    _report(
        "criterion 2 (worked scenario)",
        worst <= 1e-12,
        f"max abs deviation {worst:.3e} across {len(checks)} quantities",
    )


def test_criterion_3_poa_bounds_and_special_case():
    """eta <= 2 + 1e-9 on the randomized suite; eta = 2 exactly at
    simultaneous openings; the equal-rate formula matches the general one to
    1e-9 and sits in (4/3, 2) for K > 1, tau > 0."""
    rng = np.random.default_rng(31415)
    worst_excess = -np.inf
    for _ in range(200):
        s = random_feasible_single(rng)
        report = cq.poa_single(s)
        worst_excess = max(worst_excess, report.eta - 2.0)
    bound_ok = worst_excess <= 1e-9

    zero_start = make_scenario([(1.3, 0.0), (0.4, 0.0)], [{"alpha": 2, "beta": 1}])
    zero_report = cq.poa_single(zero_start)
    exact_two_ok = zero_report.closed_form_eta == 2.0 and abs(zero_report.eta - 2.0) <= 1e-12

    agree = 0.0
    interior_ok = True
    for K in (2, 3, 4, 6):
        for tau in (0.02, 0.1, 0.3):
            for mu in (0.8, 2.0):
                if mu * tau * (K - 1) >= 2.0:
                    continue
                eta = cq.poa_equal_rate_case(K, mu, tau)
                s = make_scenario(
                    [(mu / K, tau * k) for k in range(K)], [{"alpha": 1, "beta": 1}]
                )
                agree = max(agree, abs(eta - cq.poa_closed_form(s)))
                interior_ok &= 4.0 / 3.0 < eta < 2.0
    ok = bound_ok and exact_two_ok and agree <= 1e-9 and interior_ok
    _report(
        "criterion 3 (PoA bounds)",
        ok,
        f"max eta-2 excess {worst_excess:.3e}, simultaneous-opening eta exact: "
        f"{exact_two_ok}, special-case agreement {agree:.3e}, interior bounds: {interior_ok}",
    )


def test_criterion_4_multi_population():
    """The N=2, K=1 reference scenario solves to the exact epochs and passes
    per-population verification at 1e-9; ordering and no-gap invariants hold
    on 100 randomized multi scenarios (N <= 4)."""
    s = two_population_single_queue_scenario()
    eq = cq.solve_multi(s)
    exact_ok = (
        eq.arrival_epochs == (-4.0, 0.0, 2.0)
        and eq.first_arrivals == {1: -4.0}
        and sorted(g.density for g in eq.profile.segments) == [0.25, 0.5]
    )
    rep = cq.verify_equilibrium(s, eq.profile)
    verify_ok = (
        rep.is_equilibrium
        and max(rep.max_support_cost_deviation.values()) <= 1e-9
        and min(rep.min_off_support_cost_gap.values()) >= -1e-9
    )

    rng = np.random.default_rng(777)
    invariants_ok = True
    verified = 0
    for _ in range(100):
        sm = random_feasible_multi(rng)
        eqm = cq.solve_multi(sm)
        taus = eqm.service_epochs
        epochs = eqm.arrival_epochs
        invariants_ok &= all(a < b for a, b in zip(taus, taus[1:]))
        invariants_ok &= all(a < b for a, b in zip(epochs, epochs[1:]))
        for q in sm.queues:
            rows = eqm.profile.queue_rows(q.id)
            segs = sorted((eqm.profile.segments[i] for i in rows), key=lambda g: g.start)
            pops = [g.population for g in segs]
            invariants_ok &= pops == sorted(pops)  # ordered by gamma
            for a, b in zip(segs, segs[1:]):
                invariants_ok &= abs(b.start - a.end) <= 1e-9  # no holes
            invariants_ok &= abs(segs[-1].end - eqm.terminal_time) <= 1e-9
        vrep = cq.verify_equilibrium(sm, eqm.profile)
        verified += int(
            max(vrep.max_support_cost_deviation.values()) <= 1e-9
            and min(vrep.min_off_support_cost_gap.values()) >= -1e-9
        )
    ok = exact_ok and verify_ok and invariants_ok and verified == 100
    _report(
        "criterion 4 (multi-population)",
        ok,
        f"reference scenario exact: {exact_ok}, verified at 1e-9: {verify_ok}, "
        f"invariants on 100 scenarios: {invariants_ok}, verifier passes {verified}/100",
    )


def test_criterion_5_serve_count_exhaustive():
    """Formula serve count equals exhaustive integer search for all l <= 50
    and mu*tau in {0.01, ..., 0.90}, ties recorded."""
    mismatches = 0
    tie_seen = False
    for l in range(1, 51):
        for j in range(1, 91):
            mt = j / 100.0
            r = cq.optimal_serve_count(l, 1.0, mt, 64)
            best = min(r.t_l_at_k.values())
            if r.t_l_at_k[r.k_star] > best + 1e-12 * max(1.0, best):
                mismatches += 1
            if l == 1 and j == 10:
                tie_seen = r.tie and abs(r.t_l_at_k[4] - 0.4) <= 1e-12 and abs(
                    r.t_l_at_k[5] - 0.4
                ) <= 1e-12
    ok = mismatches == 0 and tie_seen
    _report(
        "criterion 5 (serve count)",
        ok,
        f"{mismatches} mismatches over 4500 grid points; l=1, mu*tau=0.1 tie at "
        f"k in {{4,5}} recorded: {tie_seen}",
    )


def test_criterion_6_fluid_limit_convergence():
    """K=1 equilibrium, exponential service: mean sup |Q^n/n - fluid queue|
    at n=1e4 is at most one third of its n=1e2 value, and
    sup |A^n/n - F| < 0.02 in at least 95% of replications at n=1e4.
    Runtime budget 60 s."""
    t0 = time.perf_counter()
    s = single_queue_scenario()
    profile = cq.solve_single(s).profile
    cfg = sim.SimConfig(
        n=100, seed=42, replications=20, grid=sim.default_grid(profile, s)
    )
    small, big, ratios = convergence_study(s, profile, cfg, n_factor=100)
    ratio = ratios["queue_length"]
    arrivals_hit = np.mean(
        [e < 0.02 for e in big.processes["arrivals"].per_replication]
    )
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.0 / 3.0 and arrivals_hit >= 0.95 and elapsed <= 60.0
    _report(
        "criterion 6 (fluid-limit convergence)",
        ok,
        f"queue-length error ratio {ratio:.4f} (gate 1/3), arrivals < 0.02 in "
        f"{arrivals_hit:.0%} of reps (gate 95%), runtime {elapsed:.1f}s",
    )


def test_criterion_7_two_user_invariants_and_pins():
    """Algebraic invariants on 100 random parameter sets; diagnostics for the
    symmetric case pinned to 1e-6.  The closed form's normalization is
    reported, not asserted."""
    rng = np.random.default_rng(2718)
    algebra_ok = True
    for _ in range(100):
        mu1 = float(rng.uniform(0.3, 3.0))
        mu2 = float(rng.uniform(0.3, 3.0))
        alpha = float(rng.uniform(0.2, 4.0))
        beta = float(rng.uniform(0.2, 4.0))
        eq = cq.solve_two_user(mu1, mu2, alpha, beta)
        ts = np.linspace(eq.t_first, eq.t_last, 41)[:-1]
        algebra_ok &= float(np.max(np.abs(eq.routing(1, ts) + eq.routing(2, ts) - 1.0))) <= 1e-12
        algebra_ok &= abs(float(eq.density(eq.t_last))) <= 1e-9
        gamma = alpha / (alpha + beta)
        pre = eq.density(np.linspace(eq.t_first, 0.0, 5))
        algebra_ok &= bool(np.allclose(pre, gamma * (mu1 + mu2), atol=1e-12))

    d = cq.two_user_diagnostics(cq.solve_two_user(1.0, 1.0, 1.0, 1.0))
    norm_pin = abs(d.normalization_residual - 1.0) <= 1e-6
    flat_pin = abs(d.cost_flatness - 1.3181072142209871e-05) <= 1e-6
    ok = algebra_ok and norm_pin and flat_pin
    _report(
        "criterion 7 (two-user module)",
        ok,
        f"algebraic invariants on 100 draws: {algebra_ok}; normalization residual "
        f"{d.normalization_residual:.12g} (pinned 1.0), cost flatness "
        f"{d.cost_flatness:.6g} (pinned 1.3181e-05)",
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Reruns of every artifact-producing command with identical inputs and
    seed are byte-identical."""
    scenario = tmp_path / "s.json"
    scenario.write_text(
        '{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":0.5}],'
        '"populations":[{"alpha":1,"beta":1}]}'
    )
    multi = tmp_path / "m.json"
    multi.write_text(
        '{"queues":[{"mu":1,"t_start":0}],'
        '"populations":[{"alpha":1,"beta":3},{"alpha":1,"beta":1}]}'
    )
    commands = {
        "eq-single": ["eq-single", "--scenario", str(scenario)],
        "eq-multi": ["eq-multi", "--scenario", str(multi)],
        "poa": ["poa", "--scenario", str(scenario)],
        "serve-count": ["serve-count", "--l", "7", "--mu", "1", "--tau", "0.1"],
        "eq-two": ["eq-two", "--mu1", "1", "--mu2", "2", "--alpha", "1", "--beta", "1"],
        "fluid": ["fluid", "--scenario", str(scenario)],
        "simulate": [
            "simulate", "--scenario", str(scenario), "--n", "300", "--reps", "2",
            "--seed", "11",
        ],
    }
    all_same = True
    for name, argv in commands.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}.out"
            code = main(argv + ["--out", str(out)])
            assert code == 0, name
            blob = out.read_bytes()
            side = out.with_suffix(".summary.json")
            if side.exists():
                blob += side.read_bytes()
            blobs.append(blob)
        all_same &= blobs[0] == blobs[1]
    _report(
        "criterion 8 (CLI determinism)",
        all_same,
        f"{len(commands)} commands rerun byte-identically",
    )
