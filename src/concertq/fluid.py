"""Exact fluid objects for parallel FIFO queues under a deterministic
arrival profile.

Everything here is computed on exact piecewise-linear paths, with no
discretization: cumulative arrivals F_k, the netflow X_k = F_k - mu_k
(t - t_start)_+, the reflection pair (queue length, cumulative regulator),
busy time, virtual waiting time, and per-population arrival cost curves.
A grid enters only where a caller reads the exact paths at its points: the
simulator's fluid reference (``sim.fluid_reference``) and the verifier.

The regulator of a path X is Psi(t) = sup over s <= t of max(-X(s), 0),
taken from the first breakpoint of X; the reflected path Phi = X + Psi is
the fluid queue length.  For piecewise-linear X the regulator is again
piecewise linear, with extra breakpoints only where X drops back to a
previously attained minimum.

``fluid_table`` builds every path of every queue with one plain-float loop
per queue, each kind of path laid end to end in ``array.array`` columns.
This module loads no numpy: only ``PiecewisePath``'s methods import it.
``queue_cdf``, ``netflow``, ``reflect`` and the per-queue accessors
(``fluid_queue`` ... ``cost_curve``) are one-queue calls of the same loops,
returned as ``PiecewisePath``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import add
from typing import Any, NamedTuple

# ArrivalProfile and Segment live in model, which needs no numpy, and are served here too
from .model import ArrivalProfile, DomainError, PopulationSpec, QueueSpec, Segment

_EXTEND_MODES = ("const", "slope", "wait", "idle")
Horizon = tuple[float, float]  # a time window (start, end)


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

    times: Any  # read-only float64 numpy arrays, as are the values
    values: Any
    extend: str = "const"

    def __post_init__(self):
        import numpy as np
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
        import numpy as np
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
        import numpy as np
        if b < a:
            raise ValueError(f"integration bounds out of order: [{a}, {b}]")
        if b == a:
            return 0.0
        inner = self.times[(self.times > a) & (self.times < b)]
        ts = np.concatenate(([a], inner, [b]))
        vs = self(ts)
        return float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts)))

    def is_nondecreasing(self) -> bool:
        import numpy as np
        return bool((np.diff(self.values) >= 0.0).all())


def reflect(x: PiecewisePath) -> tuple[PiecewisePath, PiecewisePath]:
    """One-sided reflection of a piecewise-linear path at zero.

    Returns (phi, psi) with psi(t) = running max of (-x)^+ from the first
    breakpoint of x, and phi = x + psi >= 0.  Both are exact: a breakpoint is
    inserted wherever x falls back to a previously attained minimum, which is
    where psi switches from flat to increasing (``_reflection`` of x).
    """
    ts, psi, phi = _reflection(x.times.tolist(), x.values.tolist())
    return PiecewisePath(ts, phi), PiecewisePath(ts, psi, extend="const")


# -- fluid processes --------------------------------------------------------


def default_horizon(
    profile: ArrivalProfile, queues, pad: float = 1.0, cover: Horizon | None = None
) -> Horizon:
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
    _, _, a, b, d = profile.columns
    # each queue's mass(queue=q.id), its rows' masses added in profile order
    masses = (sum(d[r] * (b[r] - a[r]) for r in profile.rows_at(q.id)) for q in queues)
    drains = [max(hi, q.t_start) + mass / q.mu for q, mass in zip(queues, masses)]
    for q, drain in zip(queues, drains):
        if not math.isfinite(drain):
            raise _overflow(q)
    lo, hi = min(lo, min(starts)), max(hi, *drains)
    if cover is not None:
        lo, hi = min(lo, cover[0]), max(hi, cover[1])
    return lo - pad, hi + pad


def netflow(f_k: PiecewisePath, q: QueueSpec, horizon: Horizon | None = None) -> PiecewisePath:
    """Netflow X_k = F_k - mu_k (t - t_start)_+ as an exact path.

    Breakpoints are the union of the CDF's breakpoints, the queue opening
    time, and the horizon endpoints (``_netflow`` of F_k there).
    """
    if not f_k.is_nondecreasing():
        raise DomainError("cumulative arrival path must be nondecreasing")
    ts = sorted({*f_k.times.tolist(), q.t_start, *(horizon or ())})
    values = _netflow(ts, f_k(ts).tolist(), q)
    if not all(map(math.isfinite, values)):
        raise _overflow(q)
    return PiecewisePath(ts, values, extend="slope")


class FluidTable(NamedTuple):
    """Every fluid path of ``queues``, row k for queue k, each kind laid end
    to end in compact float64 columns (``array.array``) with integer bounds:
    the netflow is ``netflow_times`` and ``netflow_values`` (F_k there:
    ``arrivals``) in ``netflow_bounds[k]:netflow_bounds[k + 1]``; the queue
    length, regulator, busy time and wait share the reflection's ``times``
    in ``bounds``.  ``refined`` (bytes, 1 or 0) marks the netflow
    breakpoints that are F_k's or the horizon's ends (all but a lone
    opening), so ``arrivals`` at the marks is F_k, refined with the
    horizon's ends."""

    queues: tuple[QueueSpec, ...]
    netflow_times: array
    arrivals: array
    netflow_values: array
    refined: bytes
    netflow_bounds: list[int]
    times: array
    queue_length: array
    regulator: array
    busy: array
    wait: array
    bounds: list[int]

    def support_rows(self, profile: ArrivalProfile, pops) -> tuple[list[int], ...]:
        """The rows of ``profile`` (the table's own) of positive mass whose
        population is in ``pops``, queue by queue and in profile order at
        each queue: their row numbers, each one's population as its position
        in ``pops``, and the last breakpoints of its queue's row of ``times``
        at or before its start and at or before its end (the row's first for
        a time left of it)."""
        position = {p.id: i for i, p in enumerate(pops)}
        pop, _, a, b, d = (column.tolist() for column in profile.columns)
        times = self.times.tolist()
        rows, owner, first, last = [], [], [], []
        for q, lo, hi in zip(self.queues, self.bounds, self.bounds[1:]):
            for r in profile.rows_at(q.id):
                j = position.get(pop[r], -1)
                if j >= 0 and d[r] * (b[r] - a[r]) > 0:
                    rows.append(r)
                    owner.append(j)
                    first.append(max(bisect_right(times, a[r], lo, hi) - 1, lo))
                    last.append(max(bisect_right(times, b[r], lo, hi) - 1, lo))
        return rows, owner, first, last


def fluid_table(profile: ArrivalProfile, queues, horizon: Horizon | None = None) -> FluidTable:
    """Every fluid path of every queue of ``queues`` (see ``FluidTable``) on
    the horizon, by default ``default_horizon``, queue by queue: F_k at its
    rows' ends (``_arrivals``), the netflow on F_k's breakpoints, the opening
    and the horizon's ends, its reflection (``_reflection``), busy time and
    wait.  DomainError for the first queue, in order, whose netflow, or else
    whose queue length, regulator, busy time or wait, is not finite.
    """
    queues = tuple(queues)
    if horizon is None:
        horizon = default_horizon(profile, queues)
    netflows, paths, refined, late = [], [], bytearray(), None
    for q in queues:
        ts, arrivals, marks = _refined(*_arrivals(profile, q.id), (q.t_start, *horizon), horizon)
        values = _netflow(ts, arrivals, q)
        if not all(map(math.isfinite, values)):
            raise _overflow(q)
        times, psi, phi = _reflection(ts, values)
        s, mu = q.t_start, q.mu
        busy = [(t - s if t > s else 0.0) - p / mu for t, p in zip(times, psi)]
        wait = [f / mu + (s - t if s > t else 0.0) for t, f in zip(times, phi)]
        if late is None and not all(map(math.isfinite, chain(phi, psi, busy, wait))):
            late = q  # refused once every netflow has passed
        netflows.append((ts, arrivals, values))
        paths.append((times, phi, psi, busy, wait))
        refined.extend(marks)
    if late is not None:
        raise _overflow(late, "queue length, regulator, busy time or wait")
    # in FluidTable's field order
    return FluidTable(queues, *_end_to_end(netflows), bytes(refined), _bounds(netflows),
                      *_end_to_end(paths), _bounds(paths))


# -- the per-queue loops ------------------------------------------------------


def _arrivals(profile: ArrivalProfile, queue: int) -> tuple[list[float], list[float]]:
    """F_k of the queue: its rows' ends, sorted and distinct ([0.0] with no
    row; of a tie of 0.0 and -0.0, the first in the order starts then ends),
    and the values there.  Each value adds every row's density * (clip(t, a,
    b) - a) to 0.0 in profile order.  A row adds exactly +0.0 at the
    breakpoints at or before its start, so it is added only right of it:
    O(R_k B_k) at worst for R_k rows and B_k breakpoints."""
    rows = profile.rows_at(queue)
    if not rows:
        return [0.0], [0.0]
    _, _, a_col, b_col, d_col = profile.columns
    starts, ends = [a_col[r] for r in rows], [b_col[r] for r in rows]
    ts = sorted({*starts, *ends})
    values = [0.0] * len(ts)
    for a, b, d in zip(starts, ends, [d_col[r] for r in rows]):
        i = bisect_right(ts, a)
        j = bisect_left(ts, b, i)
        # a term that overflows makes the netflow infinite, which is refused
        if j > i:
            values[i:j] = [v + d * (t - a) for v, t in zip(values[i:j], ts[i:j])]
        full = d * (b - a)
        values[j:] = [v + full for v in values[j:]]
    return ts, values


def _refined(xp, fp, extra, horizon) -> tuple[list[float], list[float], list[int]]:
    """The path (xp, fp) with the points ``extra`` inserted in order, each
    unless it equals a point already there (of a tie of 0.0 and -0.0 the
    first stays): the breakpoints, np.interp of the path at each, and 1 for
    each point of the path or horizon end, else 0.  A point left or right of
    the path takes its end value; the others take numpy's own slope * (x -
    xp[j]) + fp[j], slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]), for
    xp[j] < x < xp[j + 1]."""
    ts, values, marks = list(xp), list(fp), [1] * len(xp)
    for x in extra:
        i, j = bisect_left(ts, x), bisect_right(xp, x) - 1
        if ts[i:i + 1] != [x]:
            inside = 0 <= j < len(xp) - 1
            values.insert(i, (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j] if inside
                          else fp[max(j, 0)])
            ts.insert(i, x)
            marks.insert(i, x == horizon[0] or x == horizon[1])
    return ts, values, marks


def _netflow(ts, arrivals, q: QueueSpec) -> list[float]:
    """Netflow arrivals - mu (t - t_start)_+ at the breakpoints ``ts``."""
    s, mu = q.t_start, q.mu
    return [f - mu * (t - s if t > s else 0.0) for t, f in zip(ts, arrivals)]


def _positive(x: float) -> float:
    """np.maximum(x, 0.0): 0.0 for a zero of either sign, NaN kept."""
    return x if x > 0.0 or x != x else 0.0


def _reflection(t, v) -> tuple[list[float], list[float], list[float]]:
    """Breakpoints, regulator psi and reflected path phi of the path with
    breakpoints ``t`` and values ``v``.

    psi is the running maximum of -v from max(-v[0], 0).  Where -v climbs
    through the maximum inside a segment, the crossing time is inserted, and
    -v is re-evaluated at the rounded crossing time, so psi is exact at
    every breakpoint; phi = max(v + psi, 0.0), which only absorbs rounding
    at binding points.
    """
    g = [-x for x in v]
    running = list(accumulate(g[1:], max, initial=_positive(g[0])))
    ts, psi, x, done = [], [], [], 0
    # the segments where -v climbs through the maximum so far
    for i in [i for i in range(1, len(t)) if g[i] > running[i - 1] > g[i - 1]]:
        r, t0, t1, g0, g1 = running[i - 1], t[i - 1], t[i], g[i - 1], g[i]
        cross = t0 + (r - g0) / (g1 - g0) * (t1 - t0)
        ts += t[done:i]
        psi += running[done:i]
        x += v[done:i]
        done = i
        if t0 < cross < t1:
            climb = g0 + (g1 - g0) * (cross - t0) / (t1 - t0)
            ts.append(cross)
            psi.append(climb if climb > r else r)
            x.append((v[i] - v[i - 1]) / (t1 - t0) * (cross - t0) + v[i - 1])
    ts += t[done:]
    psi += running[done:]
    x += v[done:]
    return ts, psi, list(map(_positive, map(add, x, psi)))


def _end_to_end(rows) -> list[array]:
    """Each field of the per-queue tuples of lists ``rows``, laid end to end."""
    return [array("d", list(chain.from_iterable(field))) for field in zip(*rows)]


def _bounds(rows) -> list[int]:
    """Where each queue's row starts in ``_end_to_end(rows)``, and the end."""
    return [0, *accumulate(len(row[0]) for row in rows)]


def _overflow(q: QueueSpec, path: str = "netflow") -> DomainError:
    return DomainError(f"queue {q.id}: the {path} at rate {q.mu!r} is not finite "
                       "on the horizon; the scenario's scale overflows")


def pairwise_sum(values) -> float:
    """``np.sum`` of a float64 sequence, bit for bit: numpy's pairwise
    summation added to 0.0."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values, lo: int, n: int) -> float:
    """numpy's pairwise sum of values[lo:lo + n]: fewer than 8 terms in
    order, up to 128 terms in eight interleaved partial sums, and longer
    runs halved at a multiple of 8."""
    if n < 8:
        total = 0.0
        for x in values[lo:lo + n]:
            total += x
        return total
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, values[lo + i:lo + m:8]) for i in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[lo + m:lo + n], total)
    half = n // 2 - n // 2 % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def fluid_queue(profile: ArrivalProfile, q: QueueSpec, horizon: Horizon | None = None) -> PiecewisePath:
    """Fluid queue length: the reflection of the queue's netflow."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.queue_length)


def fluid_regulator(profile: ArrivalProfile, q: QueueSpec, horizon: Horizon | None = None) -> PiecewisePath:
    """Cumulative idleness regulator of the queue's netflow."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.regulator, extend="idle")


def fluid_busy(profile: ArrivalProfile, q: QueueSpec, horizon: Horizon | None = None) -> PiecewisePath:
    """Busy time (t - t_start)_+ - regulator / mu; nondecreasing."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.busy, extend="slope")


def fluid_wait(profile: ArrivalProfile, q: QueueSpec, horizon: Horizon | None = None) -> PiecewisePath:
    """Virtual waiting time: queue length / mu, plus the time left until the
    queue opens for arrivals that land before t_start."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, table.wait, extend="wait")


def arrival_costs(weight: float, beta: float, times, wait) -> list[float]:
    """Arrival costs weight * wait + beta * t (weight = alpha + beta) at the
    breakpoints ``times`` of a wait path with values ``wait``: the one home
    of the cost formula, an affine map of the wait path."""
    return [weight * w + beta * t for t, w in zip(times, wait)]


def cost_curve(
    pop: PopulationSpec, profile: ArrivalProfile, q: QueueSpec, horizon: Horizon | None = None
) -> PiecewisePath:
    """Arrival cost (alpha + beta) * wait + beta * t for the population at the
    queue, exact on the horizon."""
    table = fluid_table(profile, [q], horizon)
    return PiecewisePath(table.times, arrival_costs(pop.weight, pop.beta, table.times, table.wait),
                         extend="slope")
