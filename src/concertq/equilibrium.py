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
the off-support stretches between two breakpoints that can hold the lowest
cost.  Nothing here loads numpy: the solvers build the profile's rows as
floats, and the verifier reads one ``fluid`` table in plain floats, with
np.arange's grid, np.interp's formula and np.sum's pairwise summation.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress

from .model import ArrivalProfile, DomainError, Scenario, service_windows


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
        profile=ArrivalProfile(rows),
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


def verify_equilibrium(s: Scenario, profile: ArrivalProfile) -> VerificationReport:
    """Best-response check of ``profile`` against the exact cost curves.

    For each population the cost is evaluated at every queue on the union of
    a uniform grid over [first support point - 1, last support point + 1]
    (step ``s.options.grid_step``, by default 1/1024 of that window, filled
    as ``np.arange`` fills it) and the queue's wait breakpoints in that
    window.  The profile is an equilibrium when every population's support
    cost is flat within ``s.options.tol`` and no off-support (queue, time)
    pair undercuts it by more than that.  A grid of more than
    ``MAX_GRID_POINTS`` points is refused with a DomainError before anything
    is allocated.

    The report is the one that evaluating all those points gives, but only
    the points that decide it are evaluated, in plain floats, on one
    ``fluid.fluid_table`` of all queues.  Every profile row's ends are
    breakpoints of its queue's wait path, so a population's support holds
    all or none of the grid points strictly between two breakpoints, where
    the cost is np.interp's slope * (t - t_b) + cost_b.  Population by
    population, every support point (the mean, numpy's pairwise sum, needs
    each, in queue and time order) and every breakpoint in the window is
    evaluated.  That cost lies between its interval's two breakpoint costs
    up to a rounding margin (``_margin``) and is monotone in t, so an
    off-support interval can hold the lowest cost only at its first or last
    grid point, and only where the lower of its breakpoint costs is within
    that margin of the lowest off-support breakpoint cost: only those end
    points are evaluated.  The lowest names the gap's witness: a breakpoint,
    or the first lowest of an interval's grid points.  Beside the table the
    working set is O(B + S_j + G): B breakpoints of all queues, population
    j's S_j support points and G grid points.
    """
    from . import fluid

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
    grid = [x for x in sorted(set(_arange(window[0], window[1] + 0.5 * grid_step, grid_step)))
            if window[0] <= x <= window[1]]

    horizon = fluid.default_horizon(profile, s.queues, cover=window)
    table = fluid.fluid_table(profile, s.queues, horizon)
    t, wait, bounds = table.times.tolist(), table.wait.tolist(), table.bounds
    # interval b runs from t[b] to t[b + 1] in one row, with the grid points
    # grid[after[b]:after[b] + inner[b]] strictly inside; the horizon reaches
    # past the window, so every grid point is a breakpoint or in an interval
    after = [bisect_right(grid, x) for x in t]
    inner = [bisect_left(grid, x, i) - i for x, i in zip(t[1:], after)] + [0]
    for end in bounds[1:]:
        inner[end - 1] = 0
    outside = [b for b, x in enumerate(t) if not window[0] <= x <= window[1]]
    n_points = len(s.populations) * (len(t) - len(outside) + sum(inner))
    # the largest |wait| and |t|, and the narrowest and widest interval that
    # holds grid points, for ``_margin``
    held = [t[b + 1] - t[b] for b, n in enumerate(inner) if n]
    sizes = max(map(abs, wait)), max(map(abs, t)), min(held, default=math.inf), max(held, default=0.0)

    pops = s.populations
    # each population's support rows, as their first and last breakpoints
    spans = [[] for _ in pops]
    for j, first, last in zip(*table.support_rows(profile, pops)[1:]):
        spans[j].append((first, last))

    def queue_of(b: int) -> int:
        return s.queues[bisect_right(bounds, b) - 1].id

    def run(b: int) -> list[float]:
        return grid[after[b]:after[b] + inner[b]]

    def interval(b: int, costs, points) -> list[float]:
        # np.interp on the interval's own two breakpoints
        slope, t0, cost = (costs[b + 1] - costs[b]) / (t[b + 1] - t[b]), t[b], costs[b]
        return [slope * (x - t0) + cost for x in points]

    # per population: deviations, gaps, support costs and the witnesses
    # (population id, queue id, t) of the first two
    deviations, gaps, support_costs, deviation_at, gap_at = {}, {}, {}, {}, {}
    for pop, rows in zip(pops, spans):
        if not rows:
            raise DomainError(f"population {pop.id} has no support in the profile")
        on_point, on_inner = bytearray(len(t)), bytearray(len(t))
        for first, last in rows:
            on_point[first:last + 1] = b"\1" * (last + 1 - first)
            on_inner[first:last] = b"\1" * (last - first)
        costs = fluid.arrival_costs(pop.weight, pop.beta, t, wait)
        # the support points' costs in queue and time order: breakpoint
        # support[i], from position starts[i], then its interval's grid points
        support, values, starts = list(compress(range(len(t)), on_point)), [], []
        for b in support:
            starts.append(len(values))
            values.append(costs[b])
            if on_inner[b] and inner[b]:
                values += interval(b, costs, run(b))
        c = fluid.pairwise_sum(values) / len(values)
        # |v - c| rounds monotonically on either side of c: largest at an extreme v
        deviation = max(abs(max(values) - c), abs(min(values) - c))
        # off the support: the breakpoints in the window (inf elsewhere), and
        # interval b's lower end grid point cost where the lower of its
        # breakpoint costs can reach a bar a rounding margin above the
        # lowest of those
        off = costs.copy()
        for b in chain(outside, support):
            off[b] = math.inf
        lowest, margin = min(off), _margin(pop, *sizes)
        bar = lowest + margin
        near = [b for b, x in enumerate(costs) if not x > bar]
        between = {}
        for b in dict.fromkeys(i for b in near for i in (b - 1, b)):  # ascending, once each
            if b >= 0 and inner[b] and not on_inner[b]:
                first, last = interval(b, costs, (grid[after[b]], grid[after[b] + inner[b] - 1]))
                between[b] = first if first <= last or first != first else last  # np.minimum
        # np.argmin of the off-support costs keyed 2 b for breakpoint b and
        # 2 b + 1 for interval b: the first lowest, or the first NaN, which
        # only an infinite margin lets in and which is refused below
        lowest, k = min([(lowest, 2 * off.index(lowest))] + [(x, 2 * b + 1) for b, x in between.items()])
        if margin == math.inf and any(map(math.isnan, chain(off, between.values()))):
            lowest, k = math.nan, 0
        deviations[pop.id], gaps[pop.id], support_costs[pop.id] = deviation, lowest - c, c
        if not (math.isfinite(c) and math.isfinite(deviation) and math.isfinite(gaps[pop.id])):
            raise DomainError(f"population {pop.id}: support cost {c!r} and off-support gap "
                              f"{gaps[pop.id]!r} are not both finite; the scenario's scale overflows")
        i = next(i for i, v in enumerate(values) if abs(v - c) == deviation)
        j = bisect_right(starts, i) - 1
        b, r = support[j], i - starts[j]
        deviation_at[pop.id] = (pop.id, queue_of(b), grid[after[b] + r - 1] if r else t[b])
        # the gap's witness: breakpoint b itself, or the first lowest of
        # interval b's grid points, as a falling run can tie at its low end
        b, x = k // 2, t[k // 2]
        if k % 2:
            costs_run = interval(b, costs, run(b))
            x = run(b)[costs_run.index(min(costs_run))]
        gap_at[pop.id] = (pop.id, queue_of(b), x)

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


def _arange(start: float, stop: float, step: float) -> list[float]:
    """``np.arange(start, stop, step)``: start and start + step, then
    numpy's fill start + i * delta with delta = (start + step) - start."""
    n = math.ceil((stop - start) / step)
    delta = (start + step) - start
    points = [start + i * delta for i in range(n)]
    points[1:2] = [start + step][:n - 1]  # arange sets its second value before the fill
    return points


def _margin(pop, wait: float, t: float, narrowest: float, widest: float) -> float:
    """How far below the lower of its two breakpoint costs np.interp's
    rounded cost of ``pop`` inside an interval can fall, given the largest
    |wait| and |t| at a breakpoint and the narrowest and widest interval, or
    inf when an overflow could reach it.  The difference, the slope, the
    offset, their product and the sum each round once (relative error 2^-53
    each), and a quotient or product that underflows adds at most 2^-1074
    times the width.  With every |cost| below scale / 2 = weight |wait| +
    beta |t|, 16 ulps of scale cover that while the slopes and their
    products stay below 2^1000.  So with a finite margin every cost is
    finite."""
    scale = 2.0 * (pop.weight * wait + pop.beta * t)
    if not (scale < 2.0 ** 1000 and scale / narrowest < 2.0 ** 1000):
        return math.inf
    return 16 * sys.float_info.epsilon * scale + 2.0 ** -1000 * (widest + 1.0)
