"""Reference forms of batched library code.

The verifier and the social cost: each population's cost curve is built as
its own ``arrival_cost`` path and evaluated, masked and integrated pair by
pair.  The library batches the same float operations per queue.

The sampler: each draw's interval is searched in the cumulative masses,
routing counts the cumulative columns one column at a time over all draws,
and the event order is numpy's stable argsort of the times, regrouped by a
stable argsort of the queue ids (``grouped_by_queue``).  The library sorts
the draws once by their time uniform, so each interval's draws are one
slice, routes and inverts slice by slice, and groups the times by queue in
one stable sort of the routed columns, keeping each queue's block bounds
instead of a queue id per event.

The arrival profile: CSV rows parsed, shifted and tabulated one ``Segment``
record at a time.  The library keeps the profile as compact columns.

The capacity epochs: the solver's serve sets as a fixed point over
queue-to-window assignments, pruning as a loop from the last opening, and
the optimal profile's window boundaries by inverting the cumulative
capacity between its knots.  The library finds all of them in one pass over
the queue openings (``model.service_windows``).

The fluid kernel: each queue's CDF as one row-by-breakpoint matrix, its
netflow, and its reflection as a loop over the netflow's segments, queue by
queue (``queue_fluid_per_queue``).  The library builds every queue's paths
in one table (``fluid.fluid_table``) with plain-float loops.

The vectorized kernel those loops replaced: every queue's paths in one
table of numpy arrays, each step run on all queues at once
(``fluid_table_by_rows``, with its row kernels), and the verifier, the
social cost and the closed-form price of anarchy on those arrays
(``verify_by_arrays``, ``social_cost_by_arrays``,
``poa_closed_form_by_arrays``), numpy's ``np.mean`` and ``np.sum`` where
the library has its pairwise-sum port.  They agree with the loops byte for
byte.

The simulator's grid reads: each process of each queue read from its event
record by its own searches, the busy periods found twice (for busy time and
again for the virtual wait) against a shifted copy of the completions, and
the presented work read from the prefix sums with a 0 in front.  The library
reads each queue in one pass and copies no n-sized array to do it.

The simulator's fluid reference: F_k read on its own breakpoints
(``fluid_on_grid``).  The library reads it at the fluid table's marks, its
breakpoints and the horizon's ends.

The convergence study: reports at n and at n times a factor with shared
replication seeds and the ratio of their mean sup errors, built from
``sim.convergence_report``.  The library has no two-point study.

Tests assert that both forms agree exactly (the optimal profile's
boundaries to 1e-12).
"""

import io
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from concertq import fluid, model, sim
from concertq.equilibrium import MAX_GRID_POINTS, SolverError, VerificationReport
from concertq.fluid import ArrivalProfile, PiecewisePath, Segment
from concertq.model import DomainError, ParseError


def profile_arrays(profile):
    """The profile's five stored columns as numpy arrays that share their
    memory: int64 population and queue ids, float64 start, end and density."""
    return [np.asarray(column) for column in profile.columns]


def queue_rows(profile, queue):
    """``profile.rows_at(queue)`` as an int64 numpy array."""
    return np.frombuffer(profile.rows_at(queue), dtype=np.int64)


def reflect_by_loop(x):
    """``fluid.reflect`` as a loop over the segments of x."""
    # plain floats: the same IEEE arithmetic as numpy scalars
    t, v = x.times.tolist(), x.values.tolist()
    running = max(0.0, -v[0])
    out_t = [t[0]]
    out_psi = [running]
    for i in range(1, len(t)):
        g0, g1 = -v[i - 1], -v[i]
        if g1 > running:
            if g0 < running:
                # -x crosses the old maximum inside this segment; the stored
                # crossing time is rounded, so re-evaluate -x there to keep
                # the regulator exact at every stored breakpoint
                frac = (running - g0) / (g1 - g0)
                cross = t[i - 1] + frac * (t[i] - t[i - 1])
                if cross > out_t[-1] and cross < t[i]:
                    out_t.append(cross)
                    out_psi.append(max(running, g0 + (g1 - g0) * (cross - t[i - 1]) / (t[i] - t[i - 1])))
            running = g1
        out_t.append(t[i])
        out_psi.append(running)
    psi = PiecewisePath(np.asarray(out_t), np.asarray(out_psi), extend="const")
    phi = PiecewisePath(
        psi.times, np.maximum(np.interp(psi.times, x.times, x.values) + psi.values, 0.0)
    )
    return phi, psi


def queue_cdf_by_matrix(profile, queue):
    """``ArrivalProfile.queue_cdf`` as one (rows, breakpoints) matrix."""
    rows = queue_rows(profile, queue)
    if not rows.size:
        return PiecewisePath(np.array([0.0]), np.array([0.0]), extend="const")
    _, _, start, end, density = profile_arrays(profile)
    a, b = start[rows, None], end[rows, None]
    ts = sim.sorted_unique(a, b)
    # an axis-0 reduce adds the rows one after another in profile order
    per_segment = density[rows, None] * (np.clip(ts, a, b) - a)
    return PiecewisePath(ts, np.add.reduce(per_segment, axis=0, initial=0.0), extend="const")


def netflow_of_path(f_k, q, horizon=None):
    """``fluid.netflow`` on the ``sim.sorted_unique`` union of breakpoints."""
    if not f_k.is_nondecreasing():
        raise DomainError("cumulative arrival path must be nondecreasing")
    extra = [q.t_start]
    if horizon is not None:
        extra.extend(horizon)
    ts = sim.sorted_unique(f_k.times, np.asarray(extra, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f_k(ts) - q.mu * np.maximum(ts - q.t_start, 0.0)
    if not np.isfinite(vals).all():
        raise DomainError(f"queue {q.id}: the netflow at rate {q.mu!r} is not finite "
                          "on the horizon; the scenario's scale overflows")
    return PiecewisePath(ts, vals, extend="slope")


class QueueFluid(NamedTuple):
    """Every fluid path of one queue, all from one reflection of its netflow."""

    cdf: PiecewisePath
    netflow: PiecewisePath
    queue_length: PiecewisePath
    regulator: PiecewisePath
    busy: PiecewisePath
    wait: PiecewisePath


def queue_fluid_per_queue(profile, q, horizon=None):
    """One row of ``fluid.fluid_table`` composed of the per-queue forms above."""
    if horizon is None:
        horizon = fluid.default_horizon(profile, [q])
    cdf = queue_cdf_by_matrix(profile, q.id)
    x = netflow_of_path(cdf, q, horizon)
    phi, psi = reflect_by_loop(x)
    ts = psi.times
    busy = np.maximum(ts - q.t_start, 0.0) - psi.values / q.mu
    wait = phi.values / q.mu + np.maximum(q.t_start - ts, 0.0)
    return QueueFluid(
        cdf=cdf,
        netflow=x,
        queue_length=phi,
        regulator=PiecewisePath(ts, psi.values, extend="idle"),
        busy=PiecewisePath(ts, busy, extend="slope"),
        wait=PiecewisePath(ts, wait, extend="wait"),
    )


def arrival_cost(pop, wait):
    """The population's arrival cost (alpha + beta) * wait + beta * t at a
    queue with virtual waiting time ``wait``, as one path."""
    return PiecewisePath(wait.times, pop.weight * wait.values + pop.beta * wait.times, extend="slope")


def pair_segments(profile, population, queue):
    """The profile's ``Segment`` records of one (population, queue) pair, in
    profile order."""
    rows = queue_rows(profile, queue)
    return [profile.segments[i] for i in rows[profile_arrays(profile)[0][rows] == population].tolist()]


def verify_pairwise(s, profile):
    """``verify_equilibrium`` evaluated pair by pair (no grid cap)."""
    tol, grid_step = s.options.tol, s.options.grid_step
    if not profile.segments or profile.total_mass <= 0:
        raise DomainError("cannot verify an empty profile")
    strays = [qid for qid in profile.queue_ids if qid not in {q.id for q in s.queues}]
    if strays:
        raise DomainError(f"profile routes mass to unknown queues {strays}")
    lo, hi = profile.support_bounds()
    window = (lo - 1.0, hi + 1.0)
    if grid_step is None:
        grid_step = (window[1] - window[0]) / 1024.0
    grid = np.arange(window[0], window[1] + 0.5 * grid_step, grid_step)
    horizon = fluid.default_horizon(profile, s.queues)
    horizon = (min(horizon[0], window[0] - 1.0), max(horizon[1], window[1] + 1.0))
    per_queue = []
    for q in s.queues:
        wait = queue_fluid_per_queue(profile, q, horizon).wait
        ts = np.union1d(wait.times, grid)
        per_queue.append((q, wait, ts[(ts >= window[0]) & (ts <= window[1])]))

    deviations, gaps, support_costs, deviation_at, gap_at = {}, {}, {}, {}, {}
    n_points = 0
    for pop in s.populations:
        sup_vals, off_vals = [], []
        sup_ids, sup_ts, off_ids, off_ts = [], [], [], []  # where each value is
        for q, wait, ts in per_queue:
            cs = arrival_cost(pop, wait)(ts)
            n_points += ts.size
            in_support = np.zeros(ts.shape, dtype=bool)
            for seg in pair_segments(profile, pop.id, q.id):
                if seg.mass > 0:
                    in_support |= (ts >= seg.start) & (ts <= seg.end)
            sup_vals.append(cs[in_support])
            off_vals.append(cs[~in_support])
            for ids, times, where in ((sup_ids, sup_ts, in_support), (off_ids, off_ts, ~in_support)):
                ids.append(np.full(where.sum(), q.id))
                times.append(ts[where])
        sup_all = np.concatenate(sup_vals)
        off_all = np.concatenate(off_vals)
        if sup_all.size == 0:
            raise DomainError(f"population {pop.id} has no support in the profile")
        c = float(np.mean(sup_all))
        support_costs[pop.id] = c
        deviations[pop.id] = float(np.max(np.abs(sup_all - c)))
        gaps[pop.id] = float(np.min(off_all - c)) if off_all.size else np.inf
        i = int(np.argmax(np.abs(sup_all - c)))
        deviation_at[pop.id] = (pop.id, int(np.concatenate(sup_ids)[i]), float(np.concatenate(sup_ts)[i]))
        if off_all.size:
            j = int(np.argmin(off_all))
            gap_at[pop.id] = (pop.id, int(np.concatenate(off_ids)[j]), float(np.concatenate(off_ts)[j]))
    ok = all(d <= tol for d in deviations.values()) and all(g >= -tol for g in gaps.values())
    return VerificationReport(
        max_support_cost_deviation=deviations,
        min_off_support_cost_gap=gaps,
        is_equilibrium=ok,
        support_costs=support_costs,
        tol=tol,
        grid_points=n_points,
        window=window,
        worst_support_deviation_at=deviation_at[max(deviations, key=deviations.get)],
        min_off_support_gap_at=gap_at.get(min(gaps, key=gaps.get)),
    )


def social_cost_pairwise(s, profile):
    """``social_cost`` with one ``arrival_cost`` path and one
    ``PiecewisePath.integral`` per segment."""
    if not profile.segments:
        return 0.0
    horizon = fluid.default_horizon(profile, s.queues)
    waits = {q.id: queue_fluid_per_queue(profile, q, horizon).wait for q in s.queues}
    total = 0.0
    for pop in s.populations:
        for q in s.queues:
            curve = arrival_cost(pop, waits[q.id])
            for seg in pair_segments(profile, pop.id, q.id):
                if seg.mass > 0:
                    total += seg.density * curve.integral(seg.start, seg.end)
    return total


def route_by_columns(density, total_density, idx, v):
    """``sim._route`` as a count, over the K columns, of the cumulative
    routing probabilities at or below each draw's v."""
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.cumsum(density / total_density[:, None], axis=1)
    width = table.shape[1]
    choice = np.zeros(v.size, dtype=np.intp)
    for k in range(width):
        choice += v >= table[idx, k]
    tail = np.nonzero(choice == width)[0]
    if tail.size:
        last_positive = width - 1 - np.argmax(density[:, ::-1] > 0, axis=1)
        choice[tail] = last_positive[idx[tail]]
    return choice


def stable_argsort(keys):
    """The sampler's event order: equal keys keep their index order."""
    return np.argsort(keys, kind="stable")


def sample_arrivals_in_draw_order(profile, n, seed, replication=0):
    """``sim.sample_arrivals`` computed in draw order: the same streams,
    density table and inverse-CDF float operations (a time past its
    interval's right knot set to that knot), every draw's interval searched
    in the cumulative masses, routed by ``route_by_columns`` and the events
    put in ``stable_argsort`` order of their times."""
    density = density_table_by_segments(profile)
    segs = [g for g in profile.segments if g.mass > 0]
    knots = np.union1d([g.start for g in segs], [g.end for g in segs])
    total_density = density.sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(total_density * np.diff(knots))))
    u = sim._stream(seed, replication, sim._ARRIVAL_STREAM).random(n) * cum[-1]
    v = sim._stream(seed, replication, sim._ROUTING_STREAM).random(n)
    idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, knots.size - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        times = knots[idx] + (u - cum[idx]) / total_density[idx]
    times = np.where(times > knots[idx + 1], knots[idx + 1], times)
    queues = np.asarray(profile.queue_ids, dtype=int)[route_by_columns(density, total_density, idx, v)]
    order = stable_argsort(times)
    return times[order], queues[order]


def grouped_by_queue(times, queues, queue_ids=None):
    """The (time, queue id) events regrouped by a stable argsort of their
    ids, as the ``(times, queue_ids, bounds)`` that ``sim.sample_arrivals``
    returns and ``sim.run_des`` takes: one block per id of ``queue_ids``
    (default: the distinct ids of ``queues``), in increasing order."""
    order = stable_argsort(queues)
    ids = np.unique(queues) if queue_ids is None else np.asarray(queue_ids, dtype=int)
    counts = [np.count_nonzero(queues == q) for q in ids.tolist()]
    return times[order], ids, np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def queue_labels(events):
    """The queue id of every time of ``(times, queue_ids, bounds)`` events."""
    _, queue_ids, bounds = events
    return np.repeat(queue_ids, np.diff(bounds))


def convergence_study(s, profile, cfg, n_factor=100):
    """Convergence reports at n and n * n_factor with shared replication
    seeds, plus the mean-sup-error ratio per process (large over small)."""
    small = sim.convergence_report(s, profile, cfg)
    big = sim.convergence_report(s, profile, replace(cfg, n=cfg.n * n_factor, grid=small.grid))
    ratios = {
        name: big.processes[name].mean / small.processes[name].mean
        if small.processes[name].mean > 0
        else 0.0
        for name in small.processes
    }
    return small, big, ratios


def profile_segments_from_csv(text):
    """``ArrivalProfile.from_csv`` one ``Segment`` per row: the same cell
    checks and ParseError text, then each row's domain checks in order (end
    >= start, a nonnegative density and a finite mass)."""
    segs = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        row = raw.strip()
        if not row or row.startswith("#") or row.lower().startswith("pop,"):
            continue
        parts = row.split(",")
        where = f"bad profile row {lineno}: {row!r}"
        if len(parts) != 5:
            raise ParseError(f"{where}: expected 5 cells")
        seg = Segment(*model._cells(parts, (int, int, float, float, float), where))
        if not seg.end >= seg.start:
            raise DomainError(f"segment has end < start: {seg}")
        if seg.density < 0:
            raise DomainError(f"segment has negative density: {seg}")
        if not math.isfinite(seg.mass):
            raise DomainError(f"profile row {lineno} has non-finite mass")
        segs.append(seg)
    return segs


def shifted_segments(segments, dt):
    """Every segment moved by dt, one record at a time."""
    return [Segment(g.population, g.queue, g.start + dt, g.end + dt, g.density) for g in segments]


def segment_columns(segments):
    """The five profile columns of the records, in record order."""
    return (
        np.array([g.population for g in segments], dtype=np.int64),
        np.array([g.queue for g in segments], dtype=np.int64),
        np.array([g.start for g in segments], dtype=float),
        np.array([g.end for g in segments], dtype=float),
        np.array([g.density for g in segments], dtype=float),
    )


def density_table_by_segments(profile):
    """The sampler's (interval, queue) density table, one positive-mass
    segment at a time in profile order."""
    segs = [g for g in profile.segments if g.mass > 0]
    qindex = {qid: j for j, qid in enumerate(profile.queue_ids)}
    knots = np.union1d([g.start for g in segs], [g.end for g in segs])
    density = np.zeros((knots.size - 1, len(qindex)))
    for g in segs:
        a = np.searchsorted(knots, g.start)
        b = np.searchsorted(knots, g.end)
        density[a:b, qindex[g.queue]] += g.density
    return density


def _service_epochs(s, assign):
    """tau_0..tau_N given, per queue, the population window it opens in."""
    queues, pops = s.queues, s.populations
    taus = [queues[0].t_start]
    cum_mass = 0.0
    rate = 0.0
    weighted = 0.0
    for i, pop in enumerate(pops):
        cum_mass += pop.mass
        for q, a in zip(queues, assign):
            if a == i:
                rate += q.mu
                weighted += q.mu * q.t_start
        taus.append((cum_mass + weighted) / rate)
    return taus


def _assign_serve_sets(s):
    """Fixed point for serve sets: start with every queue in the first
    population's window, then reassign each queue to the window containing
    its opening time until stable.

    A queue opening exactly at a window boundary joins the later population.
    """
    K, N = s.n_queues, s.n_populations
    starts = [q.t_start for q in s.queues]
    assign = [0] * K
    sweeps = K * N + 8
    for _ in range(sweeps):
        taus = _service_epochs(s, assign)
        new_assign = []
        for t0 in starts:
            for i in range(N):
                if t0 < taus[i + 1]:
                    new_assign.append(i)
                    break
            else:
                new_assign.append(N - 1)
        if new_assign == assign:
            return assign, taus
        assign = new_assign
    raise SolverError(
        f"serve-set assignment did not stabilize after {sweeps} sweeps; "
        f"last assignment (queue -> population): "
        f"{ {q.id: a + 1 for q, a in zip(s.queues, assign)} }"
    )


def no_idling_terminal_time(mass, queues):
    """Time at which servers that never idle after opening finish ``mass``.

    Solves sum_k mu_k * (T - t_start_k) = mass over the given queues.
    """
    total_rate = sum(q.mu for q in queues)
    weighted_starts = sum(q.mu * q.t_start for q in queues)
    return (mass + weighted_starts) / total_rate


def back_pruned(s):
    """``pruned_scenario``'s pruning as a loop from the back: the last
    opening queue is dropped while the queues before it finish all mass by
    its opening.  Returns the pruned ids and messages, last opening first."""
    messages = []
    pruned = []
    active = list(s.queues)
    mass = s.total_mass
    while len(active) > 1:
        rest = active[:-1]
        last = active[-1]
        t_rest = no_idling_terminal_time(mass, rest)
        if last.t_start >= t_rest:
            pruned.append(last.id)
            messages.append(
                f"queue {last.id} pruned: starts at {last.t_start:g} but the remaining "
                f"queues alone finish all mass at {t_rest:g}, so it would see no arrivals"
            )
            active = rest
        else:
            break
    return tuple(pruned), tuple(messages)


def optimal_profile_by_capacity_inverse(s):
    """``optimal_profile`` with each window boundary found by inverting the
    cumulative capacity C(t) = sum_k mu_k (t - t_start_k)_+ on the knot
    interval that holds the cumulative scheduled mass."""
    queues = s.queues
    order = sorted(s.populations, key=lambda p: (-p.beta, p.id))

    start_ts = np.array([q.t_start for q in queues])
    mus = np.array([q.mu for q in queues])
    knots = sim.sorted_unique(start_ts)

    def capacity(t):
        return float(np.sum(mus * np.maximum(t - start_ts, 0.0)))

    knot_caps = np.array([capacity(float(t)) for t in knots])

    def invert_capacity(mass):
        idx = int(np.searchsorted(knot_caps, mass))
        if idx == 0:
            return float(knots[0])
        left = float(knots[idx - 1])
        active = float(np.sum(mus[start_ts <= left]))
        return left + (mass - float(knot_caps[idx - 1])) / active

    boundaries = [float(knots[0])]
    cum = 0.0
    for pop in order:
        cum += pop.mass
        boundaries.append(invert_capacity(cum))

    rows = []
    cost = 0.0
    for i, pop in enumerate(order):
        w0, b = boundaries[i], boundaries[i + 1]
        for q in queues:
            a = max(q.t_start, w0)
            if b > a:
                rows.append((pop.id, q.id, a, b, q.mu))
                cost += pop.beta * q.mu * 0.5 * (b * b - a * a)
    return ArrivalProfile(rows), cost


def arrivals_at(rec, grid):
    return np.searchsorted(rec.arrivals, grid, side="right").astype(float)


def departures_at(rec, grid):
    return np.searchsorted(rec.completions, grid, side="right").astype(float)


def queue_length_at(rec, grid):
    return arrivals_at(rec, grid) - departures_at(rec, grid)


def workload_presented_at(rec, grid):
    """Total service requirement of everyone arrived by t."""
    prefix = np.concatenate(([0.0], np.cumsum(rec.services)))
    return prefix[np.searchsorted(rec.arrivals, grid, side="right")]


def busy_periods_by_shift(rec):
    """(starts, ends) of the busy periods: a period opens where service
    starts after the previous completion, read against a shifted copy of the
    completions with -inf in front."""
    if rec.count == 0:
        return np.empty(0), np.empty(0)
    starts_service = rec.completions - rec.services
    prev_completion = np.concatenate(([-np.inf], rec.completions[:-1]))
    opens = starts_service > prev_completion
    idxs = np.nonzero(opens)[0]
    last = np.concatenate((idxs[1:] - 1, [rec.count - 1]))
    return starts_service[opens], rec.completions[last]


def busy_time_at(rec, grid):
    return sim._time_covered(*busy_periods_by_shift(rec), grid)


def virtual_wait_at(rec, grid):
    """Presented workload minus busy time, plus the pre-opening gap."""
    w = workload_presented_at(rec, grid) - busy_time_at(rec, grid)
    return w - np.where(grid <= rec.t_start, grid - rec.t_start, 0.0)


def scaled_paths_by_process(paths, grid):
    """``sim.scaled_paths`` read process by process, one search per read."""
    m, recs = paths.mass_scale, paths.records.values()
    return np.array([
        [arrivals_at(rec, grid) * m for rec in recs],
        [queue_length_at(rec, grid) * m for rec in recs],
        [busy_time_at(rec, grid) for rec in recs],
        [virtual_wait_at(rec, grid) for rec in recs],
    ])


def fluid_on_grid(profile, table, grid):
    """``sim.fluid_reference`` of the fluid table of ``profile``, ``table``,
    as ``FluidTable.on_grid`` read it: one (4, K, G) array of np.interp of
    each queue's row, F_k on its own breakpoints (``fluid._arrivals``).  The
    library reads F_k at the table's marks instead."""
    times, *paths = map(np.frombuffer, (table.times, table.queue_length, table.busy, table.wait))
    out = np.empty((4, len(table.queues), grid.size))
    for k, q in enumerate(table.queues):
        p = slice(*table.bounds[k:k + 2])
        out[0, k] = np.interp(grid, *fluid._arrivals(profile, q.id))
        for i, values in enumerate(paths, start=1):
            out[i, k] = np.interp(grid, times[p], values[p])
    return out


# -- the vectorized fluid kernel: several paths end to end, row k in
# bounds[k]:bounds[k + 1], each step on all queues at once ---------------------


class ArrayTable(NamedTuple):
    """``fluid.FluidTable``'s fields as numpy arrays (``refined`` a bool
    array, the bounds int64 arrays)."""

    queues: tuple
    netflow_times: np.ndarray
    arrivals: np.ndarray
    netflow_values: np.ndarray
    refined: np.ndarray
    netflow_bounds: np.ndarray
    times: np.ndarray
    queue_length: np.ndarray
    regulator: np.ndarray
    busy: np.ndarray
    wait: np.ndarray
    bounds: np.ndarray

    def support_rows(self, profile, pops):
        """``FluidTable.support_rows`` as arrays, found by one gather."""
        per_queue = [queue_rows(profile, q.id) for q in self.queues]
        rows = np.concatenate(per_queue)
        of_row = np.repeat(np.arange(len(per_queue)), [r.size for r in per_queue])
        position = {p.id: i for i, p in enumerate(pops)}
        pop, _, start, end, density = profile_arrays(profile)
        owner = np.array([position.get(p, -1) for p in pop[rows].tolist()], dtype=np.int64)
        kept = ((density * (end - start))[rows] > 0) & (owner >= 0)
        rows, of_row = rows[kept], of_row[kept]
        first, last = (last_at_or_before(self.times, self.bounds, x[rows], of_row) for x in (start, end))
        return rows, owner[kept], first, last


def fluid_table_by_rows(profile, queues, horizon=None):
    """``fluid.fluid_table`` with each step run on all queues at once: the
    queues' breakpoint unions from one stable lexsort, the arrivals adding
    the rows of one rank at every queue as one vector step, the regulators
    one ``np.maximum.accumulate`` of exact integer keys, and the crossings
    the reflection's own formulas elementwise."""
    queues = tuple(queues)
    if horizon is None:
        horizon = fluid.default_horizon(profile, queues)
    k = len(queues)
    cdf_times, cdf_values, cdf_bounds = _cdf_rows(profile, [q.id for q in queues])
    ts, net_bounds = _union_rows(
        np.concatenate((cdf_times, [q.t_start for q in queues], np.repeat(horizon, k))),
        np.concatenate((row_of(cdf_bounds), np.tile(np.arange(k), 3))), k,
    )
    of_t = row_of(net_bounds)
    j = last_at_or_before(cdf_times, cdf_bounds, ts, of_t)
    arrivals = interp_at(ts, cdf_times, cdf_values, j, j == cdf_bounds[of_t + 1] - 1)
    net_values = _netflow_rows(ts, arrivals, net_bounds, queues)
    with np.errstate(over="ignore", invalid="ignore"):
        times, psi, phi, bounds = _reflect_rows(ts, net_values, net_bounds)
        t_start, mu = _queue_columns(queues, bounds)
        busy = np.maximum(times - t_start, 0.0) - psi / mu
        wait = phi / mu + np.maximum(t_start - times, 0.0)
    finite = np.isfinite(phi) & np.isfinite(psi) & np.isfinite(busy) & np.isfinite(wait)
    overflowed = row_of(bounds)[~finite]
    if overflowed.size:
        raise fluid._overflow(queues[overflowed[0]], "queue length, regulator, busy time or wait")
    return ArrayTable(
        queues, ts, arrivals, net_values,
        (cdf_times[j] == ts) | (ts == horizon[0]) | (ts == horizon[1]), net_bounds,
        times, phi, psi, busy, wait, bounds,
    )


def _queue_columns(queues, bounds):
    """Each entry's queue opening and service rate, row k being queue k."""
    of = row_of(bounds)
    return np.array([q.t_start for q in queues])[of], np.array([q.mu for q in queues])[of]


def _union_rows(values, of, n_rows):
    """``sim.sorted_unique`` of the values of each row ``of``, and the
    bounds, from one stable lexsort: of equal values the first in input
    order stays."""
    order = np.lexsort((values, of))
    values, of = values[order], of[order]
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = (values[1:] != values[:-1]) | (of[1:] != of[:-1])
    return values[keep], np.searchsorted(of[keep], np.arange(n_rows + 1))


def _cdf_rows(profile, ids):
    """F_k of the queues ``ids``: breakpoints (its rows' ends, [0.0] with no
    row), values and bounds.  The values add each row's density *
    (clip(t, a, b) - a) to 0.0 in profile order, one rank at every queue
    per vector step."""
    per_queue = [queue_rows(profile, i) for i in ids]
    counts = np.array([rows.size for rows in per_queue], dtype=np.int64)
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *per_queue])
    of_row, empty = np.repeat(np.arange(counts.size), counts), np.flatnonzero(counts == 0)
    _, _, start, end, density = profile_arrays(profile)
    ts, bounds = _union_rows(
        np.concatenate((start[rows], end[rows], np.zeros(empty.size))),
        np.concatenate((of_row, of_row, empty)), counts.size,
    )
    of_t, first_row = row_of(bounds), np.cumsum(counts) - counts
    values = np.zeros(ts.size)
    with np.errstate(over="ignore"):
        for rank in range(counts.max(initial=0)):
            at = np.flatnonzero(counts[of_t] > rank)
            r = rows[first_row[of_t[at]] + rank]
            a = start[r]
            values[at] += density[r] * (np.clip(ts[at], a, end[r]) - a)
    return ts, values, bounds


def _netflow_rows(ts, arrivals, bounds, queues):
    """Netflow arrivals - mu (t - t_start)_+ of each queue at its
    breakpoints; DomainError for the first queue whose netflow is not finite."""
    t_start, mu = _queue_columns(queues, bounds)
    with np.errstate(over="ignore", invalid="ignore"):
        values = arrivals - mu * np.maximum(ts - t_start, 0.0)
    overflowed = row_of(bounds)[~np.isfinite(values)]
    if overflowed.size:
        raise fluid._overflow(queues[overflowed[0]])
    return values


def _reflect_rows(t, v, bounds):
    """The reflection of every row (none empty): breakpoints, regulator
    psi, reflected path phi and the new bounds.  psi is one
    np.maximum.accumulate of exact integer keys (row, rank of the value),
    and the crossings come from the segment loop's formulas, elementwise."""
    n = t.size
    of_t = row_of(bounds)
    g = -v
    seed = g.copy()
    seed[bounds[:-1]] = np.maximum(seed[bounds[:-1]], 0.0)
    order = np.argsort(seed, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    offset = of_t * n
    running = seed[order[np.maximum.accumulate(offset + rank) - offset]] + 0.0

    r, g0, g1, t0, t1 = running[:-1], g[:-1], g[1:], t[:-1], t[1:]
    seg = np.flatnonzero((of_t[1:] == of_t[:-1]) & (g1 > r) & (g0 < r))
    cross = t0[seg] + (r[seg] - g0[seg]) / (g1[seg] - g0[seg]) * (t1[seg] - t0[seg])
    inside = (cross > t0[seg]) & (cross < t1[seg])
    seg, cross = seg[inside], cross[inside]
    r, g0, g1, t0, t1 = r[seg], g0[seg], g1[seg], t0[seg], t1[seg]
    climb = g0 + (g1 - g0) * (cross - t0) / (t1 - t0)

    step = np.zeros(n, dtype=np.int64)
    step[seg + 1] = 1
    at = np.arange(n) + np.cumsum(step)
    before = at[seg + 1] - 1
    size = n + seg.size
    ts, psi, x = np.empty(size), np.empty(size), np.empty(size)
    ts[at], ts[before] = t, cross
    psi[at], psi[before] = running, np.where(climb > r, climb, r)
    x[at], x[before] = v, interp_at(cross, t, v, seg, np.zeros(seg.size, dtype=bool))
    return ts, psi, np.maximum(x + psi, 0.0), np.append(at, size)[bounds]


def row_of(bounds):
    """The row of every entry of rows laid end to end in ``bounds``."""
    bounds = np.asarray(bounds)
    return np.repeat(np.arange(bounds.size - 1), np.diff(bounds))


def last_at_or_before(xp, bounds, x, of_x):
    """The last breakpoint of row ``of_x`` of ``xp`` at or before each point
    (the row's first for a point left of it), on exact integer keys (row,
    number of all breakpoints at or before the value)."""
    everywhere = np.sort(xp)
    width = xp.size + 1
    keys = row_of(bounds) * width + np.searchsorted(everywhere, xp, side="right")
    at_x = of_x * width + np.searchsorted(everywhere, x, side="right")
    return np.maximum(np.searchsorted(keys, at_x, side="right") - 1, bounds[of_x])


def interp_at(x, xp, fp, j, end):
    """``np.interp`` at the points ``x``, bit for bit, on breakpoints ``xp``
    and values ``fp`` (one row, or rows along its last axis).  ``j`` is each
    point's breakpoint of its own path at or before it, and ``end`` marks
    the points whose ``j`` is their path's last.  Those and the points at or
    left of xp[j] take fp[j]; the others take numpy's own slope * (x -
    xp[j]) + fp[j]."""
    if xp.size < 2:
        return fp[..., j]
    left = np.minimum(j, xp.size - 2)
    runs = np.bincount(left, minlength=xp.size - 1)
    with np.errstate(all="ignore"):
        out = np.repeat(np.diff(fp) / np.diff(xp), runs, axis=-1)
        out *= x - xp[left]
        out += np.repeat(fp[..., :-1], runs, axis=-1)
    at = np.flatnonzero(end | (xp[j] >= x))
    out[..., at] = fp[..., j[at]]
    return out


def verify_by_arrays(s, profile):
    """``verify_equilibrium`` on one ``fluid_table_by_rows`` with numpy
    arrays: every off-support interval's two end grid points evaluated, the
    support mean by ``np.mean``."""
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
    grid = sim.sorted_unique(np.arange(window[0], window[1] + 0.5 * grid_step, grid_step))
    grid = grid[(grid >= window[0]) & (grid <= window[1])]
    horizon = fluid.default_horizon(profile, s.queues, cover=window)
    table = fluid_table_by_rows(profile, s.queues, horizon)
    t, wait, bounds = table.times, table.wait, table.bounds
    of_t = row_of(bounds)
    after = np.searchsorted(grid, t, side="right")
    inner = np.append(np.searchsorted(grid, t[1:], side="left") - after[:-1], 0)
    inner[bounds[1:] - 1] = 0
    in_window = (t >= window[0]) & (t <= window[1])
    n_points = len(s.populations) * (int(np.count_nonzero(in_window)) + int(inner.sum()))
    held = np.flatnonzero(inner)
    ends = (grid[after[held]], grid[after[held] + inner[held] - 1])
    pops = s.populations
    _, owner, first, last = table.support_rows(profile, pops)
    deviations, gaps, support_costs, deviation_at, gap_at = {}, {}, {}, {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for j, pop in enumerate(pops):
            mine = owner == j
            starts = np.bincount(first[mine], minlength=t.size + 1)
            on_point, on_inner = (
                np.cumsum(starts - np.bincount(stops, minlength=t.size + 1))[:-1] > 0
                for stops in (last[mine] + 1, last[mine])
            )
            costs = pop.weight * wait + pop.beta * t
            count = on_point + np.where(on_inner, inner, 0)
            if not count.any():
                raise DomainError(f"population {pop.id} has no support in the profile")
            at = np.repeat(np.arange(t.size), count)
            rank = np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
            points = np.where(on_point[at] & (rank == 0), t[at], grid[after[at] + rank - on_point[at]])
            values = interp_at(points, t, costs, at, np.zeros(at.size, dtype=bool))
            c = float(np.mean(values))
            support_costs[pop.id] = c
            spread = np.abs(values - c)
            i = int(spread.argmax())
            deviations[pop.id] = float(spread[i])
            deviation_at[pop.id] = (pop.id, s.queues[of_t[at[i]]].id, float(points[i]))
            off = np.full((t.size, 2), np.inf)
            off[:, 0] = np.where(on_point | ~in_window, np.inf, costs)
            lower = np.minimum(*(interp_at(x, t, costs, held, np.zeros(held.size, dtype=bool)) for x in ends))
            off[held, 1] = np.where(on_inner[held], np.inf, lower)
            k = int(off.argmin())
            gaps[pop.id] = float(off.flat[k]) - c
            if not np.isfinite([c, deviations[pop.id], gaps[pop.id]]).all():
                raise DomainError(f"population {pop.id}: support cost {c!r} and off-support gap "
                                  f"{gaps[pop.id]!r} are not both finite; the scenario's scale overflows")
            b = k // 2
            x = t[b]
            if k % 2:
                run = grid[after[b]:after[b] + inner[b]]
                x = run[interp_at(run, t, costs, np.full(run.size, b), np.zeros(run.size, dtype=bool)).argmin()]
            gap_at[pop.id] = (pop.id, s.queues[of_t[b]].id, float(x))
    ok = all(d <= tol for d in deviations.values()) and all(g >= -tol for g in gaps.values())
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


def social_cost_by_arrays(s, profile):
    """``poa.social_cost`` with every segment integrated at once on one
    ``fluid_table_by_rows``: each end's cost by ``interp_at`` between the
    breakpoints around it, and rows with the same number of trapezoids one
    matrix summed along ``axis=1``."""
    if not len(profile):
        return 0.0
    table = fluid_table_by_rows(profile, s.queues)
    rows, owner, at_a, at_b = table.support_rows(profile, s.populations)
    weight = np.array([p.weight for p in s.populations])[owner]
    beta = np.array([p.beta for p in s.populations])[owner]
    _, _, start, end, density = profile_arrays(profile)
    a, b = start[rows], end[rows]
    t, wait = table.times, table.wait

    def cost_at(x, j):
        pair = np.stack((j, np.minimum(j + 1, t.size - 1)), axis=1).ravel()
        fp = np.repeat(weight, 2) * wait[pair] + np.repeat(beta, 2) * t[pair]
        return interp_at(x, t[pair], fp, 2 * np.arange(x.size), np.zeros(x.size, dtype=bool))

    with np.errstate(over="ignore", invalid="ignore"):
        first = at_a + 1
        inner = at_b + (t[at_b] < b) - first
        ends = (cost_at(a, at_a), cost_at(b, at_b))
        integrals = np.empty(a.size)
        for m in set(inner.tolist()):
            sel = np.flatnonzero(inner == m)
            at = first[sel, None] + np.arange(m)
            ts, vs = np.empty((2, sel.size, m + 2))
            ts[:, 0], ts[:, -1], ts[:, 1:-1] = a[sel], b[sel], t[at]
            vs[:, 0], vs[:, -1] = ends[0][sel], ends[1][sel]
            vs[:, 1:-1] = weight[sel, None] * wait[at] + beta[sel, None] * t[at]
            integrals[sel] = np.sum(0.5 * (vs[:, 1:] + vs[:, :-1]) * np.diff(ts, axis=1), axis=1)
        terms = (density[rows] * integrals)[np.argsort(owner, kind="stable")]
    total = 0.0
    for term in terms.tolist():
        total += term
    if not math.isfinite(total):
        raise DomainError(f"social cost is {total!r}: the scenario's times or rates overflow")
    return total


def poa_closed_form_by_arrays(s):
    """``poa.poa_closed_form`` with its sums by ``np.sum``: over mu_k t_k and
    over the (k, l) matrix."""
    mus = np.array([q.mu for q in s.queues])
    ts = np.array([q.t_start for q in s.queues])
    with np.errstate(over="ignore", invalid="ignore"):
        mt = float(np.sum(mus * ts))
        cross = float(np.sum(np.outer(mus, mus) * ts[None, :] * (ts[:, None] - ts[None, :])))
    eta = 2.0 * (1.0 + mt) / (1.0 + cross + 2.0 * mt)
    if not all(map(math.isfinite, (mt, cross, eta))):
        raise DomainError(f"the closed-form price of anarchy is {eta!r}: the scenario's scale overflows")
    return eta
