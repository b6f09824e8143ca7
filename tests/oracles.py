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
record at a time.  The library keeps the profile as numpy columns.

The capacity epochs: the solver's serve sets as a fixed point over
queue-to-window assignments, pruning as a loop from the last opening, and
the optimal profile's window boundaries by inverting the cumulative
capacity between its knots.  The library finds all of them in one pass over
the queue openings (``model.service_windows``).

The fluid kernel: each queue's CDF as one row-by-breakpoint matrix, its
netflow, and its reflection as a loop over the netflow's segments, queue by
queue (``queue_fluid_per_queue``).  The library builds every queue's paths
in one table (``fluid.fluid_table``).

The simulator's grid reads: each process of each queue read from its event
record by its own searches, the busy periods found twice (for busy time and
again for the virtual wait) against a shifted copy of the completions, and
the presented work read from the prefix sums with a 0 in front.  The library
reads each queue in one pass and copies no n-sized array to do it.

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

from concertq import fluid, sim
from concertq.equilibrium import SolverError, VerificationReport
from concertq.fluid import ArrivalProfile, PiecewisePath, Segment
from concertq.model import DomainError, ParseError


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
    rows = profile.queue_rows(queue)
    if not rows.size:
        return PiecewisePath(np.array([0.0]), np.array([0.0]), extend="const")
    a, b = profile.start[rows, None], profile.end[rows, None]
    ts = fluid.sorted_unique(a, b)
    # an axis-0 reduce adds the rows one after another in profile order
    per_segment = profile.density[rows, None] * (np.clip(ts, a, b) - a)
    return PiecewisePath(ts, np.add.reduce(per_segment, axis=0, initial=0.0), extend="const")


def netflow_of_path(f_k, q, horizon=None):
    """``fluid.netflow`` on the ``sorted_unique`` union of breakpoints."""
    if not f_k.is_nondecreasing():
        raise DomainError("cumulative arrival path must be nondecreasing")
    extra = [q.t_start]
    if horizon is not None:
        extra.extend(horizon)
    ts = fluid.sorted_unique(f_k.times, np.asarray(extra, dtype=float))
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
    rows = profile.queue_rows(queue)
    return [profile.segments[i] for i in rows[profile.pop[rows] == population].tolist()]


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
    checks and ParseError text, Segment's own domain checks and a finite
    mass."""
    segs = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        row = raw.strip()
        if not row or row.startswith("#") or row.lower().startswith("pop,"):
            continue
        parts = row.split(",")
        where = f"bad profile row {lineno}: {row!r}"
        if len(parts) != 5:
            raise ParseError(f"{where}: expected 5 cells")
        segs.append(Segment(*fluid._cells(parts, (int, int, float, float, float), where)))
        if not math.isfinite(segs[-1].mass):
            raise DomainError(f"profile row {lineno} has non-finite mass")
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
    knots = fluid.sorted_unique(start_ts)

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
    return ArrivalProfile.from_rows(rows), cost


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
