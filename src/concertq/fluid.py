"""Exact fluid objects for parallel FIFO queues under a deterministic
arrival profile.

Everything here is computed on exact piecewise-linear paths, with no
discretization: cumulative arrivals F_k, the netflow X_k = F_k - mu_k
(t - t_start)_+, the reflection pair (queue length, cumulative regulator),
busy time, virtual waiting time, and per-population arrival cost curves.
A grid enters only where a caller reads the exact paths at its points:
``FluidTable.on_grid`` (the simulator's reference) and the verifier.

The regulator of a path X is Psi(t) = sup over s <= t of max(-X(s), 0),
taken from the first breakpoint of X; the reflected path Phi = X + Psi is
the fluid queue length.  For piecewise-linear X the regulator is again
piecewise linear, with extra breakpoints only where X drops back to a
previously attained minimum.

``fluid_table`` builds every path of every queue in one pass, each kind of
path laid end to end in flat arrays (row k in ``bounds[k]:bounds[k + 1]``):
the row kernels ``_cdf_rows``, ``_union_rows``, ``_netflow_rows`` and
``_reflect_rows`` run on all queues at once, and ``row_of``,
``last_at_or_before``, ``interp_at`` and ``FluidTable.support_rows`` (the
profile rows that carry support costs) read such rows.  ``queue_cdf``,
``netflow``, ``reflect`` and the per-queue accessors (``fluid_queue`` ...
``cost_curve``) are their one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# ArrivalProfile and Segment live in model, which needs no numpy, and are served here too
from .model import ArrivalProfile, DomainError, PopulationSpec, QueueSpec, Segment

_EXTEND_MODES = ("const", "slope", "wait", "idle")


def sorted_unique(*arrays):
    """The sorted distinct values of the arrays together: ``np.union1d`` (or
    ``np.unique`` of one array) by the same sort and mask, without the
    ``numpy.ma`` import, some 20 ms, that np.unique makes on its first call."""
    values = np.sort(np.concatenate(arrays, axis=None))
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@dataclass(frozen=True)
class PiecewisePath:
    """A piecewise-linear function of time.

    ``times`` are strictly ascending breakpoints, ``values`` the function
    values there; the path interpolates linearly in between.  Outside the
    breakpoint span it either stays constant (``extend="const"``, the right
    mode for CDF-like paths), continues with the boundary segment slope
    (``extend="slope"``, the right mode for netflow-like paths), or rises by
    one per unit of time into the past and stays constant into the future
    (``extend="wait"``, the virtual wait of a queue that is empty and not yet
    open before its first breakpoint and has drained after its last), or stays
    constant into the past and keeps its last slope into the future
    (``extend="idle"``, the cumulative idleness of a queue: none before it
    opens, growing at its service rate once it has drained).
    """

    times: np.ndarray
    values: np.ndarray
    extend: str = "const"

    def __post_init__(self):
        # private copies: the caller's arrays must stay writeable
        t = np.array(self.times, dtype=float, ndmin=1)
        v = np.array(self.values, dtype=float, ndmin=1)
        if t.ndim != 1 or v.shape != t.shape or t.size == 0:
            raise ValueError("times and values must be matching 1-d arrays")
        if not (t[1:] > t[:-1]).all():
            raise ValueError("breakpoints must be strictly ascending")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("breakpoints and values must be finite")
        if self.extend not in _EXTEND_MODES:
            raise ValueError(f"extend must be one of {_EXTEND_MODES}")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        scalar = tt.ndim == 0
        tt = np.atleast_1d(tt)
        out = np.interp(tt, self.times, self.values)
        if self.extend == "wait":
            left = tt < self.times[0]
            out[left] = self.values[0] + (self.times[0] - tt[left])
        elif self.extend in ("slope", "idle") and self.times.size > 1:
            t0, t1 = self.times[0], self.times[-1]
            sl_left = (self.values[1] - self.values[0]) / (self.times[1] - self.times[0])
            sl_right = (self.values[-1] - self.values[-2]) / (self.times[-1] - self.times[-2])
            left = tt < t0
            right = tt > t1
            if np.any(left) and self.extend == "slope":
                out[left] = self.values[0] + sl_left * (tt[left] - t0)
            if np.any(right):
                out[right] = self.values[-1] + sl_right * (tt[right] - t1)
        return float(out[0]) if scalar else out

    # -- algebra ------------------------------------------------------------

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the path over [a, b]."""
        if b < a:
            raise ValueError(f"integration bounds out of order: [{a}, {b}]")
        if b == a:
            return 0.0
        inner = self.times[(self.times > a) & (self.times < b)]
        ts = np.concatenate(([a], inner, [b]))
        vs = self(ts)
        return float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts)))

    def is_nondecreasing(self) -> bool:
        return bool((np.diff(self.values) >= 0.0).all())


def reflect(x: PiecewisePath) -> tuple[PiecewisePath, PiecewisePath]:
    """One-sided reflection of a piecewise-linear path at zero.

    Returns (phi, psi) with psi(t) = running max of (-x)^+ from the first
    breakpoint of x, and phi = x + psi >= 0.  Both are exact: a breakpoint is
    inserted wherever x falls back to a previously attained minimum, which is
    where psi switches from flat to increasing (``_reflect_rows`` on one row).
    """
    ts, psi, phi, _ = _reflect_rows(x.times, x.values, np.array([0, x.times.size]))
    return PiecewisePath(ts, phi), PiecewisePath(ts, psi, extend="const")


# -- fluid processes --------------------------------------------------------


def default_horizon(
    profile: ArrivalProfile, queues, pad: float = 1.0, cover: tuple[float, float] | None = None
) -> tuple[float, float]:
    """A window on which every fluid object of the profile is fully resolved,
    reaching ``pad`` past the interval ``cover`` when one is given.

    The right edge is past the moment each queue has provably drained: after
    arrivals stop, a queue holding at most its total routed mass empties in
    mass/mu time units.  DomainError for the first queue whose drain time is
    not finite.
    """
    starts = [q.t_start for q in queues]
    if len(profile):
        lo, hi = profile.support_bounds()
    else:
        lo, hi = min(starts), min(starts)
    # each queue's mass(queue=q.id), read from the profile's row index
    masses = (sum(profile.row_mass[profile.queue_rows(q.id)].tolist()) for q in queues)
    drains = [max(hi, q.t_start) + mass / q.mu for q, mass in zip(queues, masses)]
    for q, drain in zip(queues, drains):
        if not math.isfinite(drain):
            raise _overflow(q)
    lo, hi = min(lo, min(starts)), max(hi, *drains)
    if cover is not None:
        lo, hi = min(lo, cover[0]), max(hi, cover[1])
    return lo - pad, hi + pad


def netflow(
    f_k: PiecewisePath, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Netflow X_k = F_k - mu_k (t - t_start)_+ as an exact path.

    Breakpoints are the union of the CDF's breakpoints, the queue opening
    time, and the horizon endpoints (``_netflow_rows`` on one row).
    """
    if not f_k.is_nondecreasing():
        raise DomainError("cumulative arrival path must be nondecreasing")
    ends = np.concatenate((f_k.times, [q.t_start], horizon or ()))
    ts, bounds = _union_rows(ends, np.zeros(ends.size, dtype=np.int64), 1)
    values = _netflow_rows(ts, f_k(ts), bounds, [q])
    return PiecewisePath(ts, values, extend="slope")


class FluidTable(NamedTuple):
    """Every fluid path of ``queues``, row k for queue k, each kind laid end
    to end: F_k is ``cdf_times`` and ``cdf_values`` in ``cdf_bounds[k]:
    cdf_bounds[k + 1]``; the netflow is ``netflow_times`` and
    ``netflow_values`` (F_k there: ``arrivals``) in ``netflow_bounds``; the
    queue length, regulator, busy time and wait share the reflection's
    ``times`` in ``bounds``.  ``refined`` marks the netflow breakpoints that
    are F_k's or the horizon's ends (all but a lone opening)."""

    queues: tuple[QueueSpec, ...]
    cdf_times: np.ndarray
    cdf_values: np.ndarray
    cdf_bounds: np.ndarray
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

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Every queue's arrivals, queue length, busy time and wait at the
        points ``grid``, one (4, K, G) array: np.interp of each row, the
        paths' own values on a grid inside the table's horizon."""
        out = np.empty((4, len(self.queues), grid.size))
        for k in range(len(self.queues)):
            c, p = (slice(*b[k:k + 2].tolist()) for b in (self.cdf_bounds, self.bounds))
            out[0, k] = np.interp(grid, self.cdf_times[c], self.cdf_values[c])
            for i, values in enumerate((self.queue_length, self.busy, self.wait), start=1):
                out[i, k] = np.interp(grid, self.times[p], values[p])
        return out

    def support_rows(self, profile: ArrivalProfile, pops) -> tuple[np.ndarray, ...]:
        """The rows of ``profile`` (the table's own) of positive mass whose
        population is in ``pops``, queue by queue and in profile order at
        each queue: their row numbers, each one's population as its position
        in ``pops``, and the last breakpoints of its queue's row of ``times``
        at or before its start and at or before its end."""
        per_queue = [profile.queue_rows(q.id) for q in self.queues]
        rows = np.concatenate(per_queue)
        of_row = np.repeat(np.arange(len(per_queue)), [r.size for r in per_queue])
        position = {p.id: i for i, p in enumerate(pops)}
        owner = np.array([position.get(p, -1) for p in profile.pop[rows].tolist()], dtype=np.int64)
        kept = (profile.row_mass[rows] > 0) & (owner >= 0)
        rows, of_row = rows[kept], of_row[kept]
        first, last = (last_at_or_before(self.times, self.bounds, x[rows], of_row)
                       for x in (profile.start, profile.end))
        return rows, owner[kept], first, last


def fluid_table(
    profile: ArrivalProfile, queues, horizon: tuple[float, float] | None = None
) -> FluidTable:
    """Every fluid path of every queue of ``queues`` in one pass (see
    ``FluidTable``) on the horizon, by default ``default_horizon``.  Each
    step runs on all queues at once, value for value the per-queue step of
    ``queue_cdf``, ``netflow`` (on F_k's breakpoints, the opening and the
    horizon's ends), ``reflect``, ``fluid_busy`` and ``fluid_wait``.
    DomainError for the first queue, in order, whose netflow, or else whose
    queue length, regulator, busy time or wait, is not finite.
    """
    queues = tuple(queues)
    if horizon is None:
        horizon = default_horizon(profile, queues)
    k = len(queues)
    cdf_times, cdf_values, cdf_bounds = _cdf_rows(profile, [q.id for q in queues])
    ts, net_bounds = _union_rows(
        np.concatenate((cdf_times, [q.t_start for q in queues], np.repeat(horizon, k))),
        np.concatenate((row_of(cdf_bounds), np.tile(np.arange(k), 3))), k,
    )
    of_t = row_of(net_bounds)
    j = last_at_or_before(cdf_times, cdf_bounds, ts, of_t)
    arrivals = interp_at(ts, cdf_times, cdf_values, j, j == cdf_bounds[of_t + 1] - 1)
    # F_k is nondecreasing (each row adds a nondecreasing term); arrivals
    # that overflow make the netflow infinite
    net_values = _netflow_rows(ts, arrivals, net_bounds, queues)
    # a reflection crossing or psi / mu that overflows is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        times, psi, phi, bounds = _reflect_rows(ts, net_values, net_bounds)
        t_start, mu = _queue_columns(queues, bounds)
        busy = np.maximum(times - t_start, 0.0) - psi / mu
        wait = phi / mu + np.maximum(t_start - times, 0.0)
    finite = np.isfinite(phi) & np.isfinite(psi) & np.isfinite(busy) & np.isfinite(wait)
    overflowed = row_of(bounds)[~finite]
    if overflowed.size:
        raise _overflow(queues[overflowed[0]], "queue length, regulator, busy time or wait")
    return FluidTable(
        queues=queues,
        cdf_times=cdf_times,
        cdf_values=cdf_values,
        cdf_bounds=cdf_bounds,
        netflow_times=ts,
        arrivals=arrivals,
        netflow_values=net_values,
        refined=(cdf_times[j] == ts) | (ts == horizon[0]) | (ts == horizon[1]),
        netflow_bounds=net_bounds,
        times=times,
        queue_length=phi,
        regulator=psi,
        busy=busy,
        wait=wait,
        bounds=bounds,
    )


# -- row kernels: several paths end to end, row k in bounds[k]:bounds[k + 1] --


def _queue_columns(queues, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's queue opening and service rate, row k being queue k."""
    of = row_of(bounds)
    return np.array([q.t_start for q in queues])[of], np.array([q.mu for q in queues])[of]


def _union_rows(values: np.ndarray, of: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``sorted_unique`` of the values of each row ``of``, and the bounds,
    from one stable lexsort: of equal values the first in input order stays."""
    order = np.lexsort((values, of))
    values, of = values[order], of[order]
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = (values[1:] != values[:-1]) | (of[1:] != of[:-1])
    return values[keep], np.searchsorted(of[keep], np.arange(n_rows + 1))


def _cdf_rows(profile: ArrivalProfile, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_k of the queues ``ids``: breakpoints (its rows' ends, [0.0] with no
    row), values and bounds.  The values add each row's density *
    (clip(t, a, b) - a) to 0.0 in profile order, one rank at every queue
    per vector step."""
    per_queue = [profile.queue_rows(i) for i in ids]
    counts = np.array([rows.size for rows in per_queue], dtype=np.int64)
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *per_queue])
    of_row, empty = np.repeat(np.arange(counts.size), counts), np.flatnonzero(counts == 0)
    ts, bounds = _union_rows(
        np.concatenate((profile.start[rows], profile.end[rows], np.zeros(empty.size))),
        np.concatenate((of_row, of_row, empty)), counts.size,
    )
    of_t, first_row = row_of(bounds), np.cumsum(counts) - counts
    values = np.zeros(ts.size)
    with np.errstate(over="ignore"):  # the netflow of arrivals that overflow is refused
        for rank in range(counts.max(initial=0)):
            at = np.flatnonzero(counts[of_t] > rank)
            r = rows[first_row[of_t[at]] + rank]
            a = profile.start[r]
            values[at] += profile.density[r] * (np.clip(ts[at], a, profile.end[r]) - a)
    return ts, values, bounds


def _netflow_rows(ts, arrivals, bounds, queues) -> np.ndarray:
    """Netflow arrivals - mu (t - t_start)_+ of each queue at its
    breakpoints; DomainError for the first queue whose netflow is not finite."""
    t_start, mu = _queue_columns(queues, bounds)
    with np.errstate(over="ignore", invalid="ignore"):
        values = arrivals - mu * np.maximum(ts - t_start, 0.0)
    overflowed = row_of(bounds)[~np.isfinite(values)]
    if overflowed.size:
        raise _overflow(queues[overflowed[0]])
    return values


def _overflow(q: QueueSpec, path: str = "netflow") -> DomainError:
    return DomainError(f"queue {q.id}: the {path} at rate {q.mu!r} is not finite "
                       "on the horizon; the scenario's scale overflows")


def _reflect_rows(t, v, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``reflect`` of every row (none empty): breakpoints, regulator psi,
    reflected path phi and the new bounds.

    psi is the running maximum of -v from max(-v[first], 0): one
    np.maximum.accumulate of exact integer keys (row, rank of the value),
    and ``+ 0.0`` turns a maximum of signed zeros into the 0.0 that
    max(0.0, .) and ``>`` keep.  Where -v climbs through the maximum inside
    a segment, the crossing comes from the segment loop's own formulas,
    elementwise; -v is re-evaluated at the rounded crossing time.
    """
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

    # every breakpoint moves right by the crossings before it
    step = np.zeros(n, dtype=np.int64)
    step[seg + 1] = 1
    at = np.arange(n) + np.cumsum(step)
    before = at[seg + 1] - 1
    size = n + seg.size
    ts, psi, x = np.empty(size), np.empty(size), np.empty(size)
    ts[at], ts[before] = t, cross
    psi[at], psi[before] = running, np.where(climb > r, climb, r)
    x[at], x[before] = v, interp_at(cross, t, v, seg, np.zeros(seg.size, dtype=bool))
    # phi >= 0 exactly; np.maximum only absorbs rounding at binding points
    return ts, psi, np.maximum(x + psi, 0.0), np.append(at, size)[bounds]


def row_of(bounds: np.ndarray) -> np.ndarray:
    """The row of every entry of rows laid end to end in ``bounds``."""
    return np.repeat(np.arange(bounds.size - 1), np.diff(bounds))


def last_at_or_before(xp, bounds, x, of_x) -> np.ndarray:
    """The last breakpoint of row ``of_x`` of ``xp`` at or before each point
    (the row's first for a point left of it): ``np.searchsorted(row, x,
    "right") - 1`` in every row at once, on exact integer keys (row, number
    of all breakpoints at or before the value)."""
    everywhere = np.sort(xp)
    width = xp.size + 1
    keys = row_of(bounds) * width + np.searchsorted(everywhere, xp, side="right")
    at_x = of_x * width + np.searchsorted(everywhere, x, side="right")
    return np.maximum(np.searchsorted(keys, at_x, side="right") - 1, bounds[of_x])


def interp_at(x, xp, fp, j, end) -> np.ndarray:
    """``np.interp`` at the points ``x``, bit for bit, on breakpoints ``xp``
    and values ``fp`` (one row, or rows along its last axis).  ``xp`` may be
    several paths end to end: ``j`` (nondecreasing) is each point's
    breakpoint of its own path at or before it (the first for a point left
    of the path), and ``end`` marks the points whose ``j`` is their path's
    last.  Those and the points at or left of xp[j] take fp[j]; the others
    take numpy's own slope * (x - xp[j]) + fp[j], slope = (fp[j + 1] -
    fp[j]) / (xp[j + 1] - xp[j]), spread over each interval's run of points.
    """
    if xp.size < 2:
        return fp[..., j]
    left = np.minimum(j, xp.size - 2)
    runs = np.bincount(left, minlength=xp.size - 1)
    # np.interp raises no floating-point warnings, and the slopes between
    # two paths are never read
    with np.errstate(all="ignore"):
        out = np.repeat(np.diff(fp) / np.diff(xp), runs, axis=-1)
        out *= x - xp[left]
        out += np.repeat(fp[..., :-1], runs, axis=-1)
    at = np.flatnonzero(end | (xp[j] >= x))
    out[..., at] = fp[..., j[at]]
    return out


def fluid_queue(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Fluid queue length: the reflection of the queue's netflow."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.queue_length)


def fluid_regulator(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Cumulative idleness regulator of the queue's netflow."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.regulator, extend="idle")


def fluid_busy(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Busy time (t - t_start)_+ - regulator / mu; nondecreasing."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.busy, extend="slope")


def fluid_wait(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Virtual waiting time: queue length / mu, plus the time left until the
    queue opens for arrivals that land before t_start."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.wait, extend="wait")


def cost_columns(pops) -> tuple[np.ndarray, np.ndarray]:
    """Each population's weight alpha + beta and its beta, as (N, 1) columns."""
    return np.array([p.weight for p in pops])[:, None], np.array([p.beta for p in pops])[:, None]


def arrival_costs(columns, times: np.ndarray, wait: np.ndarray) -> np.ndarray:
    """Arrival costs (alpha + beta) * wait + beta * t at the breakpoints
    ``times`` of a wait path with values ``wait``, one row per population of
    ``cost_columns``: every row is an affine map of the one wait path."""
    weights, betas = columns
    return weights * wait + betas * times


def cost_curve(
    pop: PopulationSpec,
    profile: ArrivalProfile,
    q: QueueSpec,
    horizon: tuple[float, float] | None = None,
) -> PiecewisePath:
    """Arrival cost (alpha + beta) * wait + beta * t for the population at the
    queue, exact on the horizon."""
    table = fluid_table(profile, [q], horizon)
    costs = arrival_costs(cost_columns([pop]), table.times, table.wait)
    return PiecewisePath(table.times, costs[0], extend="slope")
