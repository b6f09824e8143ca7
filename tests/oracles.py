"""Reference forms of batched library code.

The verifier and the social cost: each population's cost curve is built as
its own ``arrival_cost`` path and evaluated, masked and integrated pair by
pair.  The library batches the same float operations per queue.

The sampler: routing counts the cumulative columns one column at a time over
all draws, and the event order is numpy's stable argsort.  The library
searches each interval's row once and repairs an unstable argsort.

The arrival profile: CSV rows parsed, shifted and tabulated one ``Segment``
record at a time.  The library keeps the profile as numpy columns.

Tests assert that both forms agree exactly.
"""

import io

import numpy as np

from concertq import fluid
from concertq.equilibrium import VerificationReport
from concertq.fluid import Segment
from concertq.model import DomainError, ParseError


def pair_segments(profile, population, queue):
    """The profile's ``Segment`` records of one (population, queue) pair, in
    profile order."""
    rows = profile.queue_rows(queue)
    return [profile.segments[i] for i in rows[profile.pop[rows] == population].tolist()]


def verify_pairwise(s, profile, grid_step=None, tol=None):
    """``verify_equilibrium`` evaluated pair by pair (no option checks)."""
    tol = s.options.tol if tol is None else tol
    grid_step = s.options.grid_step if grid_step is None else grid_step
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
        wait = fluid.queue_fluid(profile, q, horizon).wait
        ts = np.union1d(wait.times, grid)
        per_queue.append((q, wait, ts[(ts >= window[0]) & (ts <= window[1])]))

    deviations, gaps, support_costs = {}, {}, {}
    n_points = 0
    for pop in s.populations:
        sup_vals, off_vals = [], []
        for q, wait, ts in per_queue:
            cs = fluid.arrival_cost(pop, wait)(ts)
            n_points += ts.size
            in_support = np.zeros(ts.shape, dtype=bool)
            for seg in pair_segments(profile, pop.id, q.id):
                if seg.mass > 0:
                    in_support |= (ts >= seg.start) & (ts <= seg.end)
            sup_vals.append(cs[in_support])
            off_vals.append(cs[~in_support])
        sup_all = np.concatenate(sup_vals)
        off_all = np.concatenate(off_vals)
        if sup_all.size == 0:
            raise DomainError(f"population {pop.id} has no support in the profile")
        c = float(np.mean(sup_all))
        support_costs[pop.id] = c
        deviations[pop.id] = float(np.max(np.abs(sup_all - c)))
        gaps[pop.id] = float(np.min(off_all - c)) if off_all.size else np.inf
    ok = all(d <= tol for d in deviations.values()) and all(g >= -tol for g in gaps.values())
    return VerificationReport(
        max_support_cost_deviation=deviations,
        min_off_support_cost_gap=gaps,
        is_equilibrium=ok,
        support_costs=support_costs,
        tol=tol,
        grid_points=n_points,
        window=window,
    )


def social_cost_pairwise(s, profile):
    """``social_cost`` with one ``arrival_cost`` path and one
    ``PiecewisePath.integral`` per segment."""
    if not profile.segments:
        return 0.0
    horizon = fluid.default_horizon(profile, s.queues)
    waits = {q.id: fluid.queue_fluid(profile, q, horizon).wait for q in s.queues}
    total = 0.0
    for pop in s.populations:
        for q in s.queues:
            curve = fluid.arrival_cost(pop, waits[q.id])
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


def profile_segments_from_csv(text):
    """``ArrivalProfile.from_csv`` one ``Segment`` per row: the same cell
    checks and ParseError text, and Segment's own domain checks."""
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
