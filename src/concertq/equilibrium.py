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

``verify_equilibrium`` is the independent check: it reports the cost
flatness on the profile's support and the best-response gap off it, as
every population's exact cost curve at every queue reads them on a grid
plus the curve's breakpoints.  It evaluates only the points that decide that
report: the support points, the breakpoints, and the two end grid points of
each off-support stretch between two breakpoints, where the interpolated
cost is monotone.
"""

from __future__ import annotations

import math
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
    T, pop_costs = arrival_epochs(pops, taus)
    for i, (pop, cost) in enumerate(zip(pops, pop_costs)):
        if not all(map(math.isfinite, (taus[i + 1], T[i + 1], cost))):
            raise SolverError(f"population {pop.id}: epochs {taus[i + 1]!r}, {T[i + 1]!r} and cost "
                              f"{cost!r} are not all finite; the scenario's scale overflows")
        if not taus[i + 1] > taus[i]:
            raise SolverError(
                f"service epochs are not increasing (tau_{i}={taus[i]:g}, "
                f"tau_{i + 1}={taus[i + 1]:g}); population {pop.id}'s mass "
                "is lost to rounding against the epoch"
            )
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
    (step ``s.options.grid_step``, by default 1/1024 of that window) and the
    queue's wait breakpoints in that window.  The profile is an equilibrium
    when every population's support cost is flat within ``s.options.tol``
    and no off-support (queue, time) pair undercuts it by more than that.
    A grid of more than ``MAX_GRID_POINTS`` points is refused with a
    DomainError before anything is allocated.

    The report is the one that evaluating all those points gives, but only
    the points that decide it are evaluated, in one pass over the flat
    arrays of one ``fluid.fluid_table`` of all queues.  Every profile row's
    ends are breakpoints of its queue's wait path, so a population's support
    holds either all or none of the grid points strictly between two
    breakpoints.  There the cost is np.interp's slope * (t - t_b) + cost_b,
    which stays monotone in t because rounding is monotone, so the lowest
    cost of such a run of off-support grid points is at its first or its
    last point.  Population by population, the verifier evaluates every
    support point (the mean needs each, in queue and time order), every
    breakpoint in the window and the two end grid points of each
    off-support interval; the gap's witness comes from re-evaluating the one
    queue that holds it, for the one population that has it.  Beside the
    table the working set is O(B + S_j + G): B breakpoints of all queues,
    population j's S_j support points and G grid points.
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
    grid = fluid.sorted_unique(np.arange(window[0], window[1] + 0.5 * grid_step, grid_step))
    grid = grid[(grid >= window[0]) & (grid <= window[1])]

    horizon = fluid.default_horizon(profile, s.queues, cover=window)
    table = fluid.fluid_table(profile, s.queues, horizon)
    t, wait, bounds = table.times, table.wait, table.bounds
    of_t = np.repeat(np.arange(len(s.queues)), np.diff(bounds))
    # interval b runs from t[b] to t[b + 1] in one row, with the grid points
    # grid[after[b]:after[b] + inner[b]] strictly inside; the horizon reaches
    # past the window, so every grid point is a breakpoint or in an interval
    after = np.searchsorted(grid, t, side="right")
    inner = np.append(np.searchsorted(grid, t[1:], side="left") - after[:-1], 0)
    inner[bounds[1:] - 1] = 0
    in_window = (t >= window[0]) & (t <= window[1])
    n_points = len(s.populations) * (int(np.count_nonzero(in_window)) + int(inner.sum()))
    # the intervals that hold grid points, with their first and last
    held = np.flatnonzero(inner)
    ends = (grid[after[held]], grid[after[held] + inner[held] - 1])

    pops = s.populations
    pop_row = profile.population_positions(pops)
    per_queue = [profile.queue_rows(q.id) for q in s.queues]
    rows = np.concatenate(per_queue)
    of_row = np.repeat(np.arange(len(per_queue)), [r.size for r in per_queue])
    kept = (profile.row_mass[rows] > 0) & (pop_row[rows] >= 0)
    rows, of_row = rows[kept], of_row[kept]
    # each support row's ends, as breakpoint numbers
    owner = pop_row[rows]
    first = fluid.last_at_or_before(t, bounds, profile.start[rows], of_row)
    last = fluid.last_at_or_before(t, bounds, profile.end[rows], of_row)

    def on_support(j: int) -> tuple[np.ndarray, np.ndarray]:
        """Population j's support: its breakpoints and its intervals."""
        mine = owner == j
        starts = np.bincount(first[mine], minlength=t.size + 1)
        return tuple(
            np.cumsum(starts - np.bincount(stops, minlength=t.size + 1))[:-1] > 0
            for stops in (last[mine] + 1, last[mine])
        )

    deviations: dict[int, float] = {}
    gaps: dict[int, float] = {}
    support_costs: dict[int, float] = {}
    # witnesses per population: (population id, queue id, t), and the gap's
    # population and queue positions until its t is found
    deviation_at: dict[int, tuple[int, int, float]] = {}
    gap_at: dict[int, tuple[int, int]] = {}
    for j, pop in enumerate(pops):
        on_point, on_inner = on_support(j)
        costs = fluid.arrival_costs((pop.weight, pop.beta), t, wait)
        # the support points in queue and time order, each with the
        # breakpoint at or before it: breakpoint b, then interval b's grid points
        count = on_point + np.where(on_inner, inner, 0)
        if not count.any():
            raise DomainError(f"population {pop.id} has no support in the profile")
        at = np.repeat(np.arange(t.size), count)
        rank = np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
        points = np.where(on_point[at] & (rank == 0), t[at], grid[after[at] + rank - on_point[at]])
        values = fluid.interp_at(points, t, costs, at, np.zeros(at.size, dtype=bool))
        c = float(np.mean(values))
        support_costs[pop.id] = c
        spread = np.abs(values - c)
        i = int(spread.argmax())
        deviations[pop.id] = float(spread[i])
        deviation_at[pop.id] = (pop.id, s.queues[of_t[at[i]]].id, float(points[i]))
        # off the support: the breakpoints in the window, and for each
        # interval the lower of its first and last grid point
        off = np.full((t.size, 2), np.inf)
        off[:, 0] = np.where(on_point | ~in_window, np.inf, costs)
        lower = np.minimum(*(fluid.interp_at(x, t, costs, held, np.zeros(held.size, dtype=bool)) for x in ends))
        off[held, 1] = np.where(on_inner[held], np.inf, lower)
        k = int(off.argmin())
        gaps[pop.id] = float(off.flat[k]) - c
        gap_at[pop.id] = (j, int(of_t[k // 2]))
        if not np.isfinite([c, deviations[pop.id], gaps[pop.id]]).all():
            raise DomainError(f"population {pop.id}: support cost {c!r} and off-support gap "
                              f"{gaps[pop.id]!r} are not both finite; the scenario's scale overflows")

    ok = all(d <= tol for d in deviations.values()) and all(
        g >= -tol for g in gaps.values()
    )
    # the gap's witness: the first lowest off-support point of its queue's
    # points, evaluated as a whole
    lowest = min(gaps, key=gaps.get)
    j, k = gap_at[lowest]
    row = slice(*bounds[k:k + 2].tolist())
    ts = fluid.sorted_unique(t[row][in_window[row]], grid)
    at = row.start + np.searchsorted(t[row], ts, side="right") - 1
    costs = fluid.interp_at(ts, t, fluid.arrival_costs((pops[j].weight, pops[j].beta), t, wait),
                            at, at == row.stop - 1)
    on_point, on_inner = on_support(j)
    costs[np.where(t[at] == ts, on_point[at], on_inner[at])] = np.inf
    return VerificationReport(
        max_support_cost_deviation=deviations,
        min_off_support_cost_gap=gaps,
        is_equilibrium=ok,
        support_costs=support_costs,
        tol=tol,
        grid_points=n_points,
        window=window,
        worst_support_deviation_at=deviation_at[max(deviations, key=deviations.get)],
        min_off_support_gap_at=(lowest, s.queues[k].id, float(ts[costs.argmin()])),
    )
