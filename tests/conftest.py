"""Shared builders for scenarios used across the test suite."""

import numpy as np

import concertq as cq


def make_scenario(queues, populations, **options):
    doc = {
        "queues": [{"mu": m, "t_start": t} for m, t in queues],
        "populations": [dict(p) for p in populations],
    }
    if options:
        doc["options"] = options
    return cq.scenario_from_dict(doc)


def two_queue_worked_scenario():
    """K=2, mu=(1,1), openings (0, 0.5), alpha=beta=1."""
    return make_scenario([(1.0, 0.0), (1.0, 0.5)], [{"alpha": 1, "beta": 1}])


def wide_scenario():
    """K=126 unit-rate queues opening every 0.0025 and N=20 unit-mass
    populations with beta=1 and gamma = linspace(0.1, 0.9, 20)."""
    return make_scenario(
        [(1.0, 0.0025 * k) for k in range(126)],
        [{"alpha": g / (1.0 - g), "beta": 1.0, "mass": 1.0} for g in np.linspace(0.1, 0.9, 20)],
    )


def single_queue_scenario():
    return make_scenario([(1.0, 0.0)], [{"alpha": 1, "beta": 1}])


def two_population_single_queue_scenario():
    """N=2, K=1: gammas 0.25 and 0.5."""
    return make_scenario(
        [(1.0, 0.0)], [{"alpha": 1, "beta": 3}, {"alpha": 1, "beta": 1}]
    )


def random_feasible_single(rng: np.random.Generator):
    """A random single-population scenario that survives pruning."""
    while True:
        K = int(rng.integers(1, 7))
        mus = rng.uniform(0.2, 5.0, size=K)
        starts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, size=K - 1))))
        s = make_scenario(
            [(float(m), float(t)) for m, t in zip(mus, starts)],
            [{"alpha": float(rng.uniform(0.1, 4.0)), "beta": float(rng.uniform(0.1, 4.0))}],
        )
        if not cq.validate_scenario(s).pruned_queues:
            return s


def random_feasible_multi(rng: np.random.Generator, max_populations: int = 4):
    """A random multi-population scenario: distinct openings, strictly
    increasing gammas, unit masses, surviving pruning."""
    while True:
        N = int(rng.integers(2, max_populations + 1))
        K = int(rng.integers(1, 5))
        mus = rng.uniform(0.3, 3.0, size=K)
        starts = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 1.5, size=K - 1))))
        if len(np.unique(starts)) != K:
            continue
        gammas = np.sort(rng.uniform(0.05, 0.95, size=N))
        if np.min(np.diff(gammas)) < 1e-3 if N > 1 else False:
            continue
        pops = []
        for g in gammas:
            beta = float(rng.uniform(0.5, 3.0))
            alpha = float(g / (1 - g) * beta)
            pops.append({"alpha": alpha, "beta": beta})
        s = make_scenario([(float(m), float(t)) for m, t in zip(mus, starts)], pops)
        if cq.validate_scenario(s).pruned_queues:
            continue
        return s
