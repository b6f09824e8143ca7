"""Monte Carlo discrete-event simulator for sampled arrivals into parallel
FIFO queues, with convergence reporting against the fluid objects.

n users draw i.i.d. arrival times from an arrival profile by exact inverse
CDF; the queue joined at a sampled time t is chosen with probability
proportional to the per-queue densities at t.  Each user carries fluid mass
M / n (M the scenario's total mass, which the profile must carry), so
service times are drawn with mean M / (n mu_k): the simulated paths, scaled
by M / n, converge uniformly to the fluid paths as n grows.  Busy time and
virtual waiting time are order one and are compared unscaled.

Memory is O(n + I K) for n users, K queues and I knot intervals of the
profile: the sampler routes through one per-interval cumulative table and
never holds an n x K array.  Replications run one at a time.

Of the profile and the fluid table only this module reads numpy forms:
their columns are read as numpy arrays over their buffers, with no copy,
where they are used (``_arrays``, ``fluid_reference``).

Randomness is fully reproducible: every stream is a Philox (counter-based)
generator keyed by SeedSequence([seed, replication, stream index]), with
stream 0 for arrival times, stream 1 for routing, and stream 16 + q for the
service times of the q-th queue.  Identical (scenario, config, seed) inputs
give bit-identical paths on any platform.

Event conventions: the sampler hands the DES its events as ``(times,
queue_ids, bounds)``, queue ``queue_ids[k]``'s times nondecreasing in
``times[bounds[k]:bounds[k + 1]]``, with no queue label per user, and every
queue is simulated on its own block.  At equal timestamps arrivals are
processed before departures; tied arrivals are served in their order in the
block.  Step functions are right-continuous (counts include events at
exactly t).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, replace
from operator import attrgetter

import numpy as np

from . import fluid
from .model import DEFAULT_TOL, ArrivalProfile, DomainError, Scenario

_ARRIVAL_STREAM = 0
_ROUTING_STREAM = 1
_SERVICE_STREAM_BASE = 16

_SERVICE_DISTS = ("exponential", "deterministic")

# the scaled processes compared with their fluid limits, in sim.csv column order
PROCESSES = ("arrivals", "queue_length", "busy_time", "virtual_wait")


def _stream(seed: int, replication: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), int(replication), int(stream)]))
    )


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int = 0
    service_dist: str = "exponential"
    grid: np.ndarray | None = None
    replications: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.replications < 1:
            raise DomainError(f"need replications >= 1, got {self.replications}")
        if self.service_dist not in _SERVICE_DISTS:
            raise DomainError(
                f"service_dist must be one of {_SERVICE_DISTS}, got {self.service_dist!r}"
            )
        if self.grid is not None:
            g = _checked_grid(self.grid, min_points=2)
            g.flags.writeable = False
            object.__setattr__(self, "grid", g)


def _checked_grid(grid, min_points: int) -> np.ndarray:
    """``grid`` as floats, refused unless it is a finite, strictly ascending
    1-d array of at least ``min_points`` points."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < min_points or not (np.isfinite(g).all() and (np.diff(g) > 0).all()):
        raise DomainError("grid must be a finite, strictly ascending 1-d array")
    return g


def default_grid(profile: ArrivalProfile, s: Scenario, points: int = 512) -> np.ndarray:
    """Equispaced evaluation grid over [first support point - 0.1, T + 0.5],
    where T bounds the time the last user leaves."""
    lo, drain = fluid.default_horizon(profile, s.queues, pad=0.0)
    return np.linspace(lo - 0.1, drain + 0.5, points)


def _arrays(profile: ArrivalProfile) -> list[np.ndarray]:
    """The profile's five stored columns as read-only numpy arrays over their
    memory: int64 population and queue ids, float64 start, end and density."""
    return [np.asarray(column) for column in profile.columns]


def sorted_unique(*arrays):
    """The sorted distinct values of the arrays together: ``np.union1d`` (or
    ``np.unique`` of one array) by the same sort and mask, without the
    ``numpy.ma`` import, some 20 ms, that np.unique makes on its first call."""
    values = np.sort(np.concatenate(arrays, axis=None))
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _route(
    density: np.ndarray, total_density: np.ndarray, bounds: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Column of the queue each draw joins, in the least unsigned type that
    holds the column count.

    ``density`` is the (I, K) per-interval density table with row sums
    ``total_density``.  The draws come grouped by interval: interval i's
    uniform routing draws are ``v[bounds[i]:bounds[i + 1]]``.  Draw j joins
    the first column whose cumulative routing probability in its interval
    exceeds v[j]: each row of cumulative probabilities is nondecreasing, so
    one ``searchsorted`` per occupied interval counts the columns at or below
    v, and memory is O(n + I K).  A draw at or above the row's last
    cumulative value (a rounding tail, the row summing just below 1) joins
    the row's last queue with positive density.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.cumsum(density / total_density[:, None], axis=1)
    width = table.shape[1]
    last_positive = width - 1 - np.argmax(density[:, ::-1] > 0, axis=1)
    choice = np.empty(v.size, dtype=np.min_scalar_type(width))
    for i, a, b in _occupied(bounds):
        row = choice[a:b]
        row[:] = np.searchsorted(table[i], v[a:b], side="right")
        row[row == width] = last_positive[i]
    return choice


def _occupied(bounds: np.ndarray) -> list[tuple[int, int, int]]:
    """(interval, first, end) of each interval whose slice is not empty."""
    edges = bounds.tolist()
    return [(i, edges[i], edges[i + 1]) for i in np.flatnonzero(np.diff(bounds)).tolist()]


def _uniform_order(r: np.ndarray) -> np.ndarray:
    """``np.lexsort((np.arange(r.size), r))`` for r in [0, 1): the order of
    increasing r, equal r in increasing index.

    One value sort of uint64 keys does nearly all of it.  With b the bit
    length of n - 1, a key holds floor(r 2^53) in its high bits, less its
    lowest b - 11 bits when b > 11, and the index in its low b bits.  Keys
    whose high bits tie sit in index order; only the positions in such a run
    are reordered, by one lexsort of (run, r), about n^2 / 2^(65 - b) pairs
    of n uniforms.
    """
    n = r.size
    b = max(n - 1, 0).bit_length()
    key = np.empty(n, dtype=np.uint64)
    np.multiply(r, 2.0**53, out=key, casting="unsafe")
    key >>= max(0, b - 11)
    key <<= b
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    # every index is below 2^63, so its bits read the same as an int64
    order = (key & ((1 << b) - 1)).view(np.int64)
    key >>= b
    # after[j]: the high bits of key j tie with those of key j - 1
    after = np.zeros(n, dtype=bool)
    np.equal(key[1:], key[:-1], out=after[1:])
    if after.any():
        members = np.flatnonzero(after | np.append(after[1:], False))
        # a run starts at each member not tied to the one before it
        runs = np.cumsum(~after[members])
        del after
        at = order[members]
        order[members] = at[np.lexsort((r[at], runs))]
    return order


def sample_arrivals(
    profile: ArrivalProfile, n: int, seed: int, replication: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n arrival events from the profile as ``(times, queue_ids,
    bounds)``: ``queue_ids`` are the profile's queues in increasing order,
    and queue ``queue_ids[k]``'s times, nondecreasing, are
    ``times[bounds[k]:bounds[k + 1]]`` (``bounds`` runs from 0 to n).

    Times invert the aggregate piecewise-linear CDF of the profile
    (renormalized to a probability mixture); queues are then drawn from the
    conditional routing probabilities d_k(t) / d(t).  Deterministic given
    (seed, replication): the times are the n draws sorted by time, ties in
    draw order, then stably grouped by queue.  Within a queue, tied times
    come in the order of their time uniforms instead; they are equal values,
    so only the sign of a tied zero could show it.

    The draws are sorted once, by their time uniform (``_uniform_order``:
    one sort of packed uint64 keys), so each knot interval holds one slice
    of them: the inverse CDF and the routing run slice by slice.  Each time
    is capped at its interval's right knot, which rounding can pass, so the
    times are nondecreasing by construction.  One stable argsort of the
    routed columns, which numpy radix-sorts when there are fewer than 2^16
    queues, then groups the times by queue, and the column counts give the
    bounds.  Memory is O(n + I K) for K queues and I knot intervals.  Each
    n-sized array is freed once it has been used for the last time: at the
    peak four are alive, 32 bytes per user, whether or not times tie, and
    the events keep 8, the times.  A profile whose total mass overflows is
    refused with a DomainError.
    """
    _, queue, start, end, rates = _arrays(profile)
    live = np.flatnonzero(rates * (end - start) > 0)
    if not live.size:
        raise DomainError("cannot sample from a profile with zero total mass")
    queue_ids = profile.queue_ids
    start, end = start[live], end[live]

    # interval decomposition of the union of segment supports; each cell
    # adds its rows' densities in profile order, starting from 0.0
    knots = sorted_unique(start, end)
    density = np.zeros((knots.size - 1, len(queue_ids)))
    with np.errstate(over="ignore"):  # a mass that overflows is refused below
        for a, b, k, d in zip(
            np.searchsorted(knots, start).tolist(),
            np.searchsorted(knots, end).tolist(),
            np.searchsorted(queue_ids, queue[live]).tolist(),
            rates[live].tolist(),
        ):
            density[a:b, k] += d
        total_density = density.sum(axis=1)
        interval_mass = total_density * np.diff(knots)
        cum = np.concatenate(([0.0], np.cumsum(interval_mass)))
    total_mass = cum[-1]
    if not np.isfinite(total_mass):
        raise DomainError("cannot sample from a profile whose total mass overflows")

    # u becomes the times: the uniforms sorted and scaled to the total mass,
    # then inverted in place interval by interval
    r = _stream(seed, replication, _ARRIVAL_STREAM).random(n)
    draw = _uniform_order(r)
    u = r[draw]
    del r
    u *= total_mass
    # interval i holds the u in [cum[i], cum[i + 1]); the last interval also
    # takes a u that rounds up to the total mass
    bounds = np.concatenate(([0], np.searchsorted(u, cum[1:-1], side="left"), [n]))
    # each time is capped at its interval's right knot, which rounding can
    # pass, so the times are nondecreasing: u is, and interval i + 1's times
    # start at the knot that ends interval i's
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, a, b in _occupied(bounds):
            t = u[a:b]
            t[:] = knots[i] + (t - cum[i]) / total_density[i]
            t[t > knots[i + 1]] = knots[i + 1]
    v = _stream(seed, replication, _ROUTING_STREAM).random(n)[draw]
    del draw
    columns = _route(density, total_density, bounds, v)
    del v
    # a stable sort keeps each queue's times in their nondecreasing order
    counts = np.bincount(columns, minlength=len(queue_ids))
    order = np.argsort(columns, kind="stable")
    del columns
    u = u[order]
    del order
    return u, np.asarray(queue_ids, dtype=int), np.concatenate(([0], np.cumsum(counts)))


def _time_covered(starts: np.ndarray, ends: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Length of the union of the sorted disjoint intervals [starts, ends]
    lying left of each grid point."""
    lengths = ends - starts
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    idx = np.searchsorted(ends, grid, side="right")
    # one empty interval at +inf: every grid point has an interval at or after it
    starts, lengths = np.append(starts, np.inf), np.append(lengths, 0.0)
    return cum[idx] + np.clip(grid - starts[idx], 0.0, lengths[idx])


@dataclass(frozen=True)
class QueueRecord:
    """Per-queue event record: arrival order equals service order (FIFO)."""

    queue_id: int
    mu: float
    t_start: float
    arrivals: np.ndarray        # sorted arrival times
    services: np.ndarray        # accelerated service times, arrival order
    completions: np.ndarray     # departure times, arrival order (sorted)

    @property
    def count(self) -> int:
        return int(self.arrivals.size)

    def _busy_periods(self) -> tuple[np.ndarray, np.ndarray]:
        if self.count == 0:
            return np.empty(0), np.empty(0)
        starts_service = self.completions - self.services
        # a period opens at the first arrival and wherever service starts
        # after the previous completion
        opens = np.empty(self.count, dtype=bool)
        opens[0] = True
        np.greater(starts_service[1:], self.completions[:-1], out=opens[1:])
        period_starts = starts_service[opens]
        # each period ends at the completion preceding the next period's start
        idxs = np.nonzero(opens)[0]
        last = np.concatenate((idxs[1:] - 1, [self.count - 1]))
        return period_starts, self.completions[last]

    def empty_time_at(self, grid: np.ndarray, origin: float) -> np.ndarray:
        """Time with nobody in the system, accumulated from ``origin``."""
        gap_starts = np.concatenate(([origin], self.completions))
        gap_ends = np.concatenate((self.arrivals, [np.inf]))
        # an empty interval needs its completion to precede the next arrival
        keep = gap_ends > gap_starts
        return _time_covered(gap_starts[keep], gap_ends[keep], grid)


@dataclass(frozen=True)
class SimPaths:
    """One replication's event-level output."""

    mass_scale: float           # fluid mass carried by one user
    records: dict[int, QueueRecord]


def run_des(
    s: Scenario, events: tuple[np.ndarray, np.ndarray, np.ndarray], cfg: SimConfig,
    replication: int = 0
) -> SimPaths:
    """Exact FIFO simulation of the sampled events.

    Work-conserving single server per queue, infinite buffer, server k idle
    before its opening time.  Service times are drawn per queue with mean
    mass_scale / mu_k (acceleration drawn directly at the scaled mean).
    Completion times follow the FIFO recursion
    c_i = max(a_i, t_start, c_{i-1}) + service_i, vectorized via prefix sums.

    The events are ``(times, queue_ids, bounds)``, as ``sample_arrivals``
    returns them: queue ``queue_ids[k]``'s arrivals are its block
    ``times[bounds[k]:bounds[k + 1]]``, kept as a view.  Bounds that do not
    run nondecreasing from 0 to ``times.size`` with one block per id, or a
    scenario queue's block out of time order, are refused with a
    DomainError.  Blocks at an id outside the scenario are ignored.  The DES
    peaks at 26 bytes per user on the worked pair and keeps 24, each
    record's arrival, service and completion times.
    """
    times, queue_ids, bounds = events
    ids, edges = np.asarray(queue_ids).tolist(), np.asarray(bounds).tolist()
    blocks = {q: times[a:b] for q, a, b in zip(ids, edges, edges[1:])}
    arrivals = [blocks.get(q.id, times[:0]) for q in s.queues]
    if not (edges[:1] == [0] and edges[-1:] == [times.size]
            and len(blocks) == len(edges) - 1 == len(ids)
            and all(a <= b for a, b in zip(edges, edges[1:]))
            and all(np.all(arr[1:] >= arr[:-1]) for arr in arrivals)):
        raise DomainError("events must hold one block of nondecreasing times per queue id, "
                          "with bounds running from 0 to the number of times")
    mass_scale = s.total_mass / cfg.n

    records: dict[int, QueueRecord] = {}
    for qi, (q, arr) in enumerate(zip(s.queues, arrivals)):
        rng = _stream(cfg.seed, replication, _SERVICE_STREAM_BASE + qi)
        mean = mass_scale / q.mu
        if cfg.service_dist == "exponential":
            svc = rng.exponential(mean, size=arr.size)
        else:
            svc = np.full(arr.size, mean)
        # c_i = csum_i + max over j <= i of (ready_j - csum_{j-1}), in one buffer
        completions = np.maximum(arr, q.t_start)
        csum = np.cumsum(svc)
        completions[1:] -= csum[:-1]
        np.maximum.accumulate(completions, out=completions)
        completions += csum
        del csum
        records[q.id] = QueueRecord(
            queue_id=q.id,
            mu=q.mu,
            t_start=q.t_start,
            arrivals=arr,
            services=svc,
            completions=completions,
        )
    return SimPaths(mass_scale=mass_scale, records=records)


def scaled_paths(paths: SimPaths, grid: np.ndarray) -> np.ndarray:
    """The simulated processes on the grid, in fluid units, shaped like
    ``fluid_reference``: one (process in ``PROCESSES`` order, queue in
    record order, grid point) array.

    Arrival and queue-length counts are multiplied by the per-user fluid
    mass; busy time and virtual wait are already order one.  The virtual
    wait is the presented workload minus busy time, plus the pre-opening gap.
    """
    grid = _checked_grid(grid, min_points=1)
    m = paths.mass_scale
    table = np.empty((len(PROCESSES), len(paths.records), grid.size))
    for k, rec in enumerate(paths.records.values()):
        arrived = np.searchsorted(rec.arrivals, grid, side="right")
        counts = arrived.astype(float)
        departed = np.searchsorted(rec.completions, grid, side="right")
        busy = _time_covered(*rec._busy_periods(), grid)
        # the work of the first ``arrived`` users, 0 before the first arrival
        presented = np.zeros(grid.size)
        some = arrived > 0
        presented[some] = np.cumsum(rec.services)[arrived[some] - 1]
        opening_gap = np.where(grid <= rec.t_start, grid - rec.t_start, 0.0)
        table[:, k] = counts * m, (counts - departed) * m, busy, (presented - busy) - opening_gap
    return table


@dataclass(frozen=True)
class ProcessErrors:
    """Sup-norm distances to the fluid path, in the JSON report's key order."""

    mean: float
    max: float
    per_replication: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConvergenceReport:
    """Distances between scaled simulated paths and their fluid limits.

    ``first_arrivals`` is each replication's earliest sampled time.  The
    scaled tables themselves are not kept: ``replications`` yields them.
    """

    n: int
    replications: int
    processes: dict[str, ProcessErrors]
    first_arrivals: tuple[float, ...]
    support_infimum: float
    grid: np.ndarray

    def to_dict(self, time_origin: float = 0.0) -> dict:
        """JSON-ready report; its times are shifted back by ``time_origin``."""
        o = time_origin
        return {
            "n": self.n,
            "replications": self.replications,
            "processes": {k: v.to_dict() for k, v in sorted(self.processes.items())},
            "first_arrivals": [t + o for t in self.first_arrivals],
            "support_infimum": self.support_infimum + o,
            "grid": {
                "points": int(self.grid.size),
                "start": float(self.grid[0]) + o,
                "end": float(self.grid[-1]) + o,
            },
        }


@dataclass(frozen=True)
class Replication:
    """One replication's ``scaled_paths`` table, earliest sampled time and
    sup-norm distance to the fluid reference per process (``PROCESSES``
    order)."""

    scaled: np.ndarray
    first_arrival: float
    sup_errors: tuple[float, ...]


def fluid_reference(s: Scenario, profile: ArrivalProfile, grid: np.ndarray) -> np.ndarray:
    """Fluid paths evaluated on the grid, shaped like the scaled sim paths
    (process, queue in scenario order, grid point): np.interp of every
    queue's rows of one fluid table, read through numpy views of its
    columns.  The arrivals are read at the table's marks, F_k's breakpoints
    and the horizon's ends: the horizon reaches past the grid, and F_k is
    constant past its breakpoints, so np.interp reads F_k itself there."""
    horizon = fluid.default_horizon(profile, s.queues, cover=(float(grid[0]), float(grid[-1])))
    table = fluid.fluid_table(profile, s.queues, horizon)
    marks = np.frombuffer(table.refined, dtype=bool)
    ts, arrivals, times, *paths = map(np.frombuffer, (table.netflow_times, table.arrivals, table.times,
                                                      table.queue_length, table.busy, table.wait))
    # queue k's marked points are cdf_t[c] and cdf_v[c], c = cdf_bounds[k]:cdf_bounds[k + 1]
    cdf_t, cdf_v = ts[marks], arrivals[marks]
    cdf_bounds = np.concatenate(([0], np.cumsum(marks)))[table.netflow_bounds].tolist()
    out = np.empty((len(PROCESSES), len(s.queues), grid.size))
    for k in range(len(s.queues)):
        c, p = slice(*cdf_bounds[k:k + 2]), slice(*table.bounds[k:k + 2])
        out[0, k] = np.interp(grid, cdf_t[c], cdf_v[c])
        for i, values in enumerate(paths, start=1):
            out[i, k] = np.interp(grid, times[p], values[p])
    return out


def _replication(s, profile, cfg, grid, reference, rep) -> Replication:
    """Replication ``rep``; its events and event records are unreachable
    once it returns."""
    paths = run_des(s, sample_arrivals(profile, cfg.n, cfg.seed, replication=rep), cfg,
                    replication=rep)
    # n >= 1 and every sampled queue is in the scenario, so some record is
    # not empty; each is sorted, so this is the earliest sampled time
    first = min(float(r.arrivals[0]) for r in paths.records.values() if r.count)
    scaled = scaled_paths(paths, grid)
    gaps = scaled - reference  # the one (process, queue, point) temporary
    return Replication(scaled, first, tuple(np.abs(gaps, out=gaps).max(axis=(1, 2)).tolist()))


def replications(s: Scenario, profile: ArrivalProfile, cfg: SimConfig) -> Iterator[Replication]:
    """``cfg.replications`` independent simulations on ``cfg.grid`` (or the
    default grid), run one at a time as they are asked for: a caller that
    lets go of each before asking for the next holds one scaled table at a
    time.  Each user carries ``s.total_mass / cfg.n``, so the profile must
    route the scenario's total mass (to ``DEFAULT_TOL`` relative) to its
    queues.  The profile is checked and the fluid reference built on this
    call, before any replication runs.

    A replication's traced memory peaks in the sampler, at 32 bytes per user
    (``sample_arrivals``): ``run_des`` and
    ``scaled_paths`` hold less while busy periods are few against users, as
    on an equilibrium profile, where the fluid queue stays positive."""
    profile.require_queues(s.queues)
    if not abs(profile.total_mass - s.total_mass) <= DEFAULT_TOL * s.total_mass:
        raise DomainError(f"profile mass {profile.total_mass!r} is not the scenario's "
                          f"total mass {s.total_mass!r}")
    grid = cfg.grid if cfg.grid is not None else default_grid(profile, s)
    reference = fluid_reference(s, profile, grid)
    return (_replication(s, profile, cfg, grid, reference, rep) for rep in range(cfg.replications))


def convergence_report(
    s: Scenario, profile: ArrivalProfile, cfg: SimConfig, runs: Iterable[Replication] | None = None
) -> ConvergenceReport:
    """Run ``cfg.replications`` independent simulations (``replications``,
    with its refusals) and compare each scaled process with its fluid
    counterpart in sup norm on the grid.

    ``runs`` stands in for the simulations: ``replications(s, profile,
    cfg)``, passed through by a caller that uses each table (the CLI writes
    it) before handing it on.  They are not checked again here."""
    grid = cfg.grid if cfg.grid is not None else default_grid(profile, s)
    if runs is None:
        runs = replications(s, profile, replace(cfg, grid=grid))
    # map lets go of each replication before it asks for the next, so no
    # table outlives its turn
    first_arrivals, errors = zip(*map(attrgetter("first_arrival", "sup_errors"), runs))
    return ConvergenceReport(
        n=cfg.n,
        replications=cfg.replications,
        processes={name: ProcessErrors(float(np.mean(v)), float(np.max(v)), v)
                   for name, v in zip(PROCESSES, zip(*errors))},
        first_arrivals=first_arrivals,
        # numpy's least start, whose zero keeps numpy's sign
        support_infimum=float(_arrays(profile)[2].min()),
        grid=grid,
    )
