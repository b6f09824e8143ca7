"""Closed-form equilibrium solvers and the grid best-response verifier.

The solvers construct the unique equilibrium arrival profile for one or many
populations on K parallel queues with staggered openings.  The construction
exploits two facts that pin the equilibrium down:

* every open queue works at full rate until the common terminal time, so the
  mass routed to queue k while population i is in service is
  mu_k * (tau_i - max(tau_{i-1}, t_start_k)), where tau_i is the instant the
  last population-i user leaves service;
* within each population's arrival window the density at queue k is
  gamma_i * mu_k, which keeps that population's arrival cost flat.

The service epochs tau_i satisfy
    tau_i = (cumulative mass of populations 1..i
             + sum of mu_k * t_start_k over queues open by tau_i)
            / (total rate of queues open by tau_i).
``model.service_windows`` finds them in one pass over the queues in opening
order: a queue opens in the first population's window whose epoch, without
it, falls after its opening.  Ties in openings or in gammas are allowed.

``verify_equilibrium`` is the independent check: it evaluates every
population's exact cost curve at every queue over a grid plus all curve
breakpoints, and reports the cost flatness on the profile's support and the
best-response gap off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fluid
from .fluid import ArrivalProfile
from .model import DomainError, Scenario, service_windows


class SolverError(DomainError):
    """Equilibrium hypothesis violated or construction infeasible."""


_MASS_RTOL = 1e-9
# largest verifier grid: 64 times the default resolution of 1,025 points
MAX_GRID_POINTS = 1 << 16


@dataclass(frozen=True)
class EquilibriumProfile:
    """Solved equilibrium: arrival segments plus all derived quantities.

    ``arrival_epochs`` is (T_0, ..., T_N): T_0 is the first arrival into the
    network and T_i the last arrival instant of population i.
    ``service_epochs`` is (tau_0, ..., tau_N): tau_i is the instant the last
    population-i user finishes service (tau_0 is the first queue opening).
    ``serve_sets`` lists, per population, the queues whose opening falls in
    that population's service window.  ``first_arrivals`` maps each queue to
    its first arrival time, ``routing`` maps (population, queue) to routed
    mass, and ``equilibrium_costs`` maps population to its constant cost.
    """

    profile: ArrivalProfile
    terminal_time: float
    arrival_epochs: tuple[float, ...]
    service_epochs: tuple[float, ...]
    first_arrivals: dict[int, float]
    serve_sets: tuple[tuple[int, ...], ...]
    routing: dict[tuple[int, int], float]
    equilibrium_costs: dict[int, float]

    def to_dict(self, time_origin: float = 0.0) -> dict:
        """JSON-ready summary; times are shifted back by ``time_origin``."""
        o = time_origin
        return {
            "terminal_time": self.terminal_time + o,
            "arrival_epochs": [t + o for t in self.arrival_epochs],
            "service_epochs": [t + o for t in self.service_epochs],
            "first_arrivals": {str(k): t + o for k, t in sorted(self.first_arrivals.items())},
            "serve_sets": [list(js) for js in self.serve_sets],
            "routing": [
                {"population": p, "queue": q, "mass": m}
                for (p, q), m in sorted(self.routing.items())
            ],
            "equilibrium_costs": {str(p): c for p, c in sorted(self.equilibrium_costs.items())},
            "time_origin": o,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Best-response check of a candidate profile.

    ``max_support_cost_deviation`` is, per population, the sup over its
    arrival support of |cost - mean support cost|;
    ``min_off_support_cost_gap`` is the minimum of cost - mean support cost
    over all (queue, time) pairs off the support.  A profitable deviation
    exists exactly when that gap is negative beyond tolerance.

    ``worst_support_deviation_at`` and ``min_off_support_gap_at`` are the
    witnesses, as (population id, queue id, t) with t in the scenario's
    shifted time: where the largest support deviation and the most negative
    off-support gap over all populations are attained (the first such point
    in population, queue and time order).  ``to_dict`` leaves them out.
    """

    max_support_cost_deviation: dict[int, float]
    min_off_support_cost_gap: dict[int, float]
    is_equilibrium: bool
    support_costs: dict[int, float]
    tol: float
    grid_points: int
    window: tuple[float, float]
    worst_support_deviation_at: tuple[int, int, float]
    min_off_support_gap_at: tuple[int, int, float]

    def to_dict(self, time_origin: float = 0.0) -> dict:
        """JSON-ready report; the window is shifted back by ``time_origin``."""
        return {
            "is_equilibrium": self.is_equilibrium,
            "max_support_cost_deviation": {
                str(k): v for k, v in sorted(self.max_support_cost_deviation.items())
            },
            "min_off_support_cost_gap": {
                str(k): v for k, v in sorted(self.min_off_support_cost_gap.items())
            },
            "support_costs": {str(k): v for k, v in sorted(self.support_costs.items())},
            "tol": self.tol,
            "grid_points": self.grid_points,
            "window": [t + time_origin for t in self.window],
        }


# -- construction -----------------------------------------------------------


def arrival_epochs(pops, taus) -> tuple[list[float], list[float]]:
    """Arrival epochs T_1..T_N of populations served in order over the
    service epochs ``taus`` (tau_0..tau_N), by backward recursion from T_N =
    tau_N: population i's window has length (tau_i - tau_{i-1}) / gamma_i.
    T_0 is left 0.0 for the caller.  Also each population's cost
    (alpha_i + beta_i) tau_i - alpha_i T_i."""
    n = len(pops)
    T = [0.0] * (n + 1)
    T[n] = taus[n]
    for i in range(n, 1, -1):
        T[i - 1] = T[i] - (taus[i] - taus[i - 1]) / pops[i - 1].gamma
    return T, [p.weight * taus[i] - p.alpha * T[i] for i, p in enumerate(pops, start=1)]


def _solve(s: Scenario) -> EquilibriumProfile:
    queues, pops = s.queues, s.populations
    N = s.n_populations

    if pops[0].gamma == 0.0:
        raise SolverError(
            "population with alpha = 0 puts no weight on waiting, so the "
            "uniform-density equilibrium construction does not apply"
        )

    windows, taus = service_windows(queues, [p.mass for p in pops])
    for i in range(N):
        if not taus[i + 1] > taus[i]:
            raise SolverError(
                f"service epochs are not increasing (tau_{i}={taus[i]:g}, "
                f"tau_{i + 1}={taus[i + 1]:g}); population {pops[i].id}'s mass "
                "is lost to rounding against the epoch"
            )

    T, pop_costs = arrival_epochs(pops, taus)
    costs = {pop.id: c for pop, c in zip(pops, pop_costs)}

    serve_sets = tuple(
        tuple(q.id for q, a in zip(queues, windows) if a == i) for i in range(N)
    )

    routing: dict[tuple[int, int], float] = {}
    first_arrivals: dict[int, float] = {}
    rows: list[tuple] = []  # (pop, queue, start, end, density)

    for i, pop in enumerate(pops, start=1):
        tau_prev, tau_i = taus[i - 1], taus[i]
        gamma = pop.gamma
        mass_check = 0.0
        for q, a in zip(queues, windows):
            if a > i - 1:
                continue  # queue opens in a later window; this population never sees it
            if a == i - 1:
                # queue opens inside this population's window
                p_mass = q.mu * (tau_i - q.t_start)
                first = T[i] - (tau_i - q.t_start) / gamma
                first_arrivals[q.id] = first
            else:
                # queue opened earlier; serves this population on [T_{i-1}, T_i]
                p_mass = q.mu * (tau_i - tau_prev)
                first = T[i - 1]
            if p_mass < -_MASS_RTOL:
                raise SolverError(
                    f"negative routed mass for population {pop.id} at queue {q.id}"
                )
            routing[(pop.id, q.id)] = p_mass
            mass_check += p_mass
            if T[i] > first and p_mass > 0:
                density = p_mass / (T[i] - first)
                rows.append((pop.id, q.id, first, T[i], density))
        if abs(mass_check - pop.mass) > _MASS_RTOL * max(1.0, pop.mass):
            raise SolverError(
                f"population {pop.id} routes mass {mass_check:.15g} != {pop.mass:.15g}; "
                "scenario is infeasible"
            )

    T[0] = min(first_arrivals.values())
    return EquilibriumProfile(
        profile=ArrivalProfile.from_rows(rows),
        terminal_time=T[N],
        arrival_epochs=tuple(T),
        service_epochs=tuple(taus),
        first_arrivals=first_arrivals,
        serve_sets=serve_sets,
        routing=routing,
        equilibrium_costs=costs,
    )


def solve_single(s: Scenario) -> EquilibriumProfile:
    """Equilibrium arrival profile for a single population.

    The terminal time T solves sum_k mu_k (T - t_start_k) = mass; queue k
    receives mass mu_k (T - t_start_k) at density gamma * mu_k starting at
    T - (T - t_start_k) / gamma.  Queues that open at or after T get no
    arrivals: the result equals the solve of the pruned scenario.
    """
    if s.n_populations != 1:
        raise SolverError(f"single-population solver got N={s.n_populations}")
    return _solve(s)


def solve_multi(s: Scenario) -> EquilibriumProfile:
    """Equilibrium arrival profile for one or more populations.

    Ties are allowed.  Queues that open together open in the same window.
    Populations with equal gammas are served in the scenario's order
    (gamma, then id); any order of them is an equilibrium, because their
    costs are proportional.  With N = 1 the output is identical to
    ``solve_single`` (same arithmetic).
    """
    return _solve(s)


# -- verification -----------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # costs that overflow are refused below
def verify_equilibrium(s: Scenario, profile: ArrivalProfile) -> VerificationReport:
    """Best-response check of ``profile`` against the exact cost curves.

    For each population the cost is evaluated at every queue on the union of
    a uniform grid over [first support point - 1, last support point + 1]
    (step ``s.options.grid_step``, by default 1/1024 of that window) and all
    cost-curve breakpoints (the curves are piecewise linear, so extrema are
    attained there; the grid is belt and braces).  The profile is an
    equilibrium when every population's support cost is flat within
    ``s.options.tol`` and no off-support (queue, time) pair undercuts it by
    more than that.

    Every queue's wait path is a row of one ``fluid.fluid_table``.  The
    costs are batched per queue: every population's costs at the queue's B_k
    wait breakpoints and G grid points as one (N, B_k + G) matrix, so the
    working set is O(N * (B_k + G)) per queue beside the table.
    Only the support costs and their points are kept across queues (the
    mean needs them; at most one value per population and point on its
    support); the off-support side keeps a running minimum and where it was
    attained.  A grid of more than ``MAX_GRID_POINTS`` points is refused with
    a DomainError before anything is allocated.
    """
    tol, grid_step = s.options.tol, s.options.grid_step

    if profile.total_mass <= 0:
        raise DomainError("cannot verify an empty profile")
    profile.require_queues(s.queues)

    lo, hi = profile.support_bounds()
    window = (lo - 1.0, hi + 1.0)
    if grid_step is None:
        grid_step = (window[1] - window[0]) / 1024.0
    if (window[1] - window[0]) / grid_step + 1.0 > MAX_GRID_POINTS:
        raise DomainError(
            f"grid step {grid_step:g} puts more than {MAX_GRID_POINTS} points on the "
            f"window [{window[0]:g}, {window[1]:g}]; use a coarser grid step"
        )
    grid = np.arange(window[0], window[1] + 0.5 * grid_step, grid_step)

    horizon = fluid.default_horizon(profile, s.queues, cover=window)

    pops = s.populations
    pop_row = profile.population_positions(pops)  # a row of the cost matrix, or -1
    # per population: (queue id, times, costs) of its support at each queue
    support: list[list[tuple[int, np.ndarray, np.ndarray]]] = [[] for _ in pops]
    off_min = np.full(len(pops), np.inf)
    off_at: list[tuple[int, float] | None] = [None] * len(pops)
    n_points = 0

    table = fluid.fluid_table(profile, s.queues, horizon)
    columns = fluid.cost_columns(pops)
    for k, q in enumerate(s.queues):
        row = slice(*table.bounds[k:k + 2].tolist())
        times, wait = table.times[row], table.wait[row]
        ts = fluid.sorted_unique(times, grid)
        ts = ts[(ts >= window[0]) & (ts <= window[1])]
        n_points += len(pops) * ts.size
        # the horizon reaches past the window, so ts lies inside wait's span
        costs = _interp_rows(ts, times, fluid.arrival_costs(columns, times, wait))
        # a population's support: the points of ts inside one of its
        # positive-mass segments at this queue (ts is sorted)
        rows = profile.queue_rows(q.id)
        rows = rows[(profile.row_mass[rows] > 0) & (pop_row[rows] >= 0)]
        first = np.searchsorted(ts, profile.start[rows], side="left")
        stop = np.searchsorted(ts, profile.end[rows], side="right")
        in_support = np.zeros(costs.shape, dtype=bool)
        for j, i0, i1 in zip(pop_row[rows].tolist(), first.tolist(), stop.tolist()):
            in_support[j, i0:i1] = True
        for j in set(pop_row[rows].tolist()):
            support[j].append((q.id, ts[in_support[j]], costs[j][in_support[j]]))
        # min(x) - c == min(x - c): rounding is monotone
        np.copyto(costs, np.inf, where=in_support)
        at = costs.argmin(axis=1)
        lowest = costs[np.arange(len(pops)), at]
        for j in np.flatnonzero(lowest < off_min).tolist():
            off_at[j] = (q.id, float(ts[at[j]]))
        off_min = np.minimum(off_min, lowest)

    deviations: dict[int, float] = {}
    gaps: dict[int, float] = {}
    support_costs: dict[int, float] = {}
    # witnesses per population: (population id, queue id, t)
    deviation_at: dict[int, tuple[int, int, float]] = {}
    gap_at: dict[int, tuple[int, int, float]] = {}
    for pop, kept, lowest_off, lowest_at in zip(pops, support, off_min.tolist(), off_at):
        if not kept:
            raise DomainError(f"population {pop.id} has no support in the profile")
        queue_ids, times, values = zip(*kept)
        sup_all = np.concatenate(values)
        c = float(np.mean(sup_all))
        support_costs[pop.id] = c
        spread = np.abs(sup_all - c)
        i = int(spread.argmax())
        deviations[pop.id] = float(spread[i])
        deviation_at[pop.id] = (
            pop.id, int(np.repeat(queue_ids, [t.size for t in times])[i]), float(np.concatenate(times)[i])
        )
        gaps[pop.id] = lowest_off - c
        if not np.isfinite([c, deviations[pop.id], gaps[pop.id]]).all():
            raise DomainError(f"population {pop.id}: support cost {c!r} and off-support gap "
                              f"{gaps[pop.id]!r} are not both finite; the scenario's scale overflows")
        gap_at[pop.id] = (pop.id, *lowest_at)

    ok = all(d <= tol for d in deviations.values()) and all(
        g >= -tol for g in gaps.values()
    )
    return VerificationReport(
        max_support_cost_deviation=deviations,
        min_off_support_cost_gap=gaps,
        is_equilibrium=ok,
        support_costs=support_costs,
        tol=tol,
        grid_points=n_points,
        window=window,
        worst_support_deviation_at=deviation_at[max(deviations, key=deviations.get)],
        min_off_support_gap_at=gap_at[min(gaps, key=gaps.get)],
    )


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, row)`` for every row of ``fp`` at once, bit for bit
    (``fluid.interp_at``); ``x`` must be sorted and inside [xp[0], xp[-1]]."""
    j = np.searchsorted(xp, x, side="right") - 1  # xp[j] <= x < xp[j + 1]
    return fluid.interp_at(x, xp, fp, j, j == xp.size - 1)
