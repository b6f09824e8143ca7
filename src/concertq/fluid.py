"""Exact fluid objects for parallel FIFO queues under a deterministic
arrival profile.

Everything here is computed on exact piecewise-linear paths, with no
discretization: cumulative arrivals F_k, the netflow X_k = F_k - mu_k
(t - t_start)_+, the reflection pair (queue length, cumulative regulator),
busy time, virtual waiting time, and per-population arrival cost curves.
Grids appear only in test oracles.

The regulator of a path X is Psi(t) = sup over s <= t of max(-X(s), 0),
taken from the first breakpoint of X; the reflected path Phi = X + Psi is
the fluid queue length.  For piecewise-linear X the regulator is again
piecewise linear, with extra breakpoints only where X drops back to a
previously attained minimum.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import DomainError, ParseError, PopulationSpec, QueueSpec

_EXTEND_MODES = ("const", "slope", "wait", "idle")


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

    def refine(self, extra_times) -> "PiecewisePath":
        """Same path with additional breakpoints inserted (exact)."""
        ts = sorted_unique(self.times, np.asarray(extra_times, dtype=float))
        return PiecewisePath(ts, self(ts), extend=self.extend)

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


def sorted_unique(*arrays) -> np.ndarray:
    """The sorted distinct values of the arrays together: ``np.union1d``, or
    ``np.unique`` of one array, by the same sort and the same mask, without
    the ``numpy.ma`` import that np.unique triggers on its first call (some
    20 ms in every command that would otherwise make it)."""
    values = np.sort(np.concatenate(arrays, axis=None))
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _cells(parts: list[str], kinds: tuple, where: str) -> list:
    """CSV cells converted by ``kinds``; ParseError naming ``where`` unless
    every cell converts and is finite."""
    try:
        vals = [kind(p) for kind, p in zip(kinds, parts)]
    except ValueError:
        names = ",".join(kind.__name__ for kind in kinds)
        raise ParseError(f"{where}: expected cells of types {names}") from None
    for kind, v in zip(kinds, vals):
        if kind is int and not -(2**63) <= v < 2**63:
            raise ParseError(f"{where}: ids must fit in 64 bits")
        if kind is float and not math.isfinite(v):
            raise ParseError(f"{where}: values must be finite")
    return vals


def reflect(x: PiecewisePath) -> tuple[PiecewisePath, PiecewisePath]:
    """One-sided reflection of a piecewise-linear path at zero.

    Returns (phi, psi) with psi(t) = running max of (-x)^+ from the first
    breakpoint of x, and phi = x + psi >= 0.  Both are exact: a breakpoint is
    inserted wherever x falls back to a previously attained minimum, which is
    where psi switches from flat to increasing.
    """
    # plain floats: the same IEEE arithmetic as numpy scalars, without their
    # per-operation overhead
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
    # phi >= 0 exactly; np.maximum only absorbs rounding at binding points.
    # psi's breakpoints lie inside x's span, where x is plain interpolation.
    phi = PiecewisePath(
        psi.times, np.maximum(np.interp(psi.times, x.times, x.values) + psi.values, 0.0)
    )
    return phi, psi


# -- arrival profiles -------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Constant-density arrivals of one population at one queue on [start, end]."""

    population: int
    queue: int
    start: float
    end: float
    density: float

    def __post_init__(self):
        if any(isinstance(x, bool) for x in (self.start, self.end, self.density)):
            raise TypeError("bool is not a number here")
        if not (self.end >= self.start):
            raise DomainError(f"segment has end < start: {self}")
        if self.density < 0:
            raise DomainError(f"segment has negative density: {self}")

    @property
    def mass(self) -> float:
        return self.density * (self.end - self.start)


class ArrivalProfile:
    """Constant-density segments, one or more per (population, queue) pair,
    stored as read-only numpy columns ``pop``, ``queue``, ``start``, ``end``
    and ``density``, one row per segment in profile order.  Each row's mass
    (``row_mass``) and each queue's rows are derived once.  Build it from
    ``Segment`` records or with ``from_rows``; ``segments`` is the rows as
    records, built on first use."""

    def __init__(self, segments=()):
        rows = [(s.population, s.queue, s.start, s.end, s.density) for s in segments]
        self._set_columns(*_transposed(rows))

    @classmethod
    def from_rows(cls, rows) -> "ArrivalProfile":
        """The profile with one row per (pop, queue, start, end, density)
        tuple; DomainError naming the first row, by position, with a
        non-finite value, end < start, negative density or non-finite mass."""
        return cls.__new__(cls)._set_columns(*_transposed(rows))

    def _set_columns(self, pop, queue, start, end, density) -> "ArrivalProfile":
        self.pop = np.array(pop, dtype=np.int64)
        self.queue = np.array(queue, dtype=np.int64)
        self.start = np.array(start, dtype=float)
        self.end = np.array(end, dtype=float)
        self.density = np.array(density, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            self.row_mass = self.density * (self.end - self.start)  # Segment.mass
        # Segment's checks and finite values and masses, on every row at once,
        # in from_csv's order
        checks = (
            ("a non-finite value", ~np.isfinite([self.start, self.end, self.density]).all(axis=0)),
            ("end < start", ~(self.end >= self.start)),
            ("negative density", self.density < 0),
            ("non-finite mass", ~np.isfinite(self.row_mass)),
        )
        bad = np.logical_or.reduce([rows for _, rows in checks])
        if bad.any():
            i = int(np.argmax(bad))
            what = next(what for what, rows in checks if rows[i])
            raise DomainError(f"profile row {i} has {what}")
        # a stable sort keeps each queue's rows in profile order
        order = np.argsort(self.queue, kind="stable")
        ids = sorted_unique(self.queue)
        first = np.searchsorted(self.queue[order], ids)
        self._rows_by_queue = dict(zip(ids.tolist(), np.split(order, first[1:])))
        for col in (self.pop, self.queue, self.start, self.end, self.density, self.row_mass,
                    *self._rows_by_queue.values()):
            col.flags.writeable = False
        return self

    def __setattr__(self, name, value):
        # read-only once built (_set_columns sets _rows_by_queue last)
        if "_rows_by_queue" in vars(self):
            raise AttributeError(f"cannot set {name}: ArrivalProfile is read-only")
        super().__setattr__(name, value)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The rows as ``Segment`` records, in profile order."""
        cols = (self.pop, self.queue, self.start, self.end, self.density)
        return tuple(map(Segment, *(col.tolist() for col in cols)))

    def __len__(self) -> int:
        return self.pop.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArrivalProfile):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("pop", "queue", "start", "end", "density")
        )

    def queue_rows(self, queue: int) -> np.ndarray:
        """Row numbers of the queue's segments, in profile order."""
        rows = self._rows_by_queue.get(queue)
        return np.zeros(0, dtype=np.int64) if rows is None else rows

    def population_positions(self, pops) -> np.ndarray:
        """Each row's population as its position in ``pops`` (-1 if absent)."""
        position = {p.id: i for i, p in enumerate(pops)}
        return np.array([position.get(p, -1) for p in self.pop.tolist()], dtype=np.int64)

    @property
    def queue_ids(self) -> tuple[int, ...]:
        return tuple(self._rows_by_queue)

    @property
    def total_mass(self) -> float:
        return self.mass()

    def mass(self, population: int | None = None, queue: int | None = None) -> float:
        """Routed mass, summed in profile order (as the built-in ``sum`` adds)."""
        rows = np.arange(len(self)) if queue is None else self.queue_rows(queue)
        if population is not None:
            rows = rows[self.pop[rows] == population]
        return sum(self.row_mass[rows].tolist())

    def support_bounds(self) -> tuple[float, float]:
        if not len(self):
            raise DomainError("empty profile has no support")
        return float(self.start.min()), float(self.end.max())

    def queue_cdf(self, queue: int) -> PiecewisePath:
        """Aggregate cumulative arrivals F_k at the queue, all populations."""
        rows = self.queue_rows(queue)
        if not rows.size:
            return PiecewisePath(np.array([0.0]), np.array([0.0]), extend="const")
        a, b = self.start[rows, None], self.end[rows, None]
        ts = sorted_unique(a, b)
        # one row per segment; an axis-0 reduce adds the rows one after
        # another in profile order, starting from 0.0
        per_segment = self.density[rows, None] * (np.clip(ts, a, b) - a)
        return PiecewisePath(ts, np.add.reduce(per_segment, axis=0, initial=0.0), extend="const")

    def shifted(self, dt: float) -> "ArrivalProfile":
        return ArrivalProfile.__new__(ArrivalProfile)._set_columns(
            self.pop, self.queue, self.start + dt, self.end + dt, self.density
        )

    def require_queues(self, queues) -> None:
        """DomainError unless every row is at one of ``queues``."""
        known = {q.id for q in queues}
        strays = [qid for qid in self.queue_ids if qid not in known]
        if strays:
            raise DomainError(f"profile routes mass to unknown queues {strays}")

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        from .serialize import csv_rows

        return csv_rows(
            ["pop", "queue", "a", "b", "density"],
            [self.pop, self.queue, self.start, self.end, self.density],
        )

    @classmethod
    def from_csv(cls, text: str) -> "ArrivalProfile":
        rows = []
        for lineno, raw in enumerate(io.StringIO(text), start=1):
            row = raw.strip()
            if not row or row.startswith("#") or row.lower().startswith("pop,"):
                continue
            parts = row.split(",")
            where = f"bad profile row {lineno}: {row!r}"
            if len(parts) != 5:
                raise ParseError(f"{where}: expected 5 cells")
            pop, queue, a, b, density = _cells(parts, (int, int, float, float, float), where)
            # Segment's checks row by row, and a finite mass so that no sum
            # of masses overflows: the first fault in file order wins
            what = ("end < start" if not b >= a else "negative density" if density < 0
                    else None if math.isfinite(density * (b - a)) else "non-finite mass")
            if what:
                raise DomainError(f"profile row {lineno} has {what}")
            rows.append((pop, queue, a, b, density))
        return cls.from_rows(rows)


def _transposed(rows) -> list:
    """The five columns of a list of profile rows."""
    return list(zip(*rows)) or [()] * 5


# -- fluid processes --------------------------------------------------------


def default_horizon(
    profile: ArrivalProfile, queues, pad: float = 1.0, cover: tuple[float, float] | None = None
) -> tuple[float, float]:
    """A window on which every fluid object of the profile is fully resolved,
    reaching ``pad`` past the interval ``cover`` when one is given.

    The right edge is past the moment each queue has provably drained: after
    arrivals stop, a queue holding at most its total routed mass empties in
    mass/mu time units.
    """
    starts = [q.t_start for q in queues]
    if len(profile):
        lo, hi = profile.support_bounds()
    else:
        lo, hi = min(starts), min(starts)
    drain = max(
        max(hi, q.t_start) + profile.mass(queue=q.id) / q.mu for q in queues
    )
    lo, hi = min(lo, min(starts)), max(hi, drain)
    if cover is not None:
        lo, hi = min(lo, cover[0]), max(hi, cover[1])
    return lo - pad, hi + pad


def netflow(
    f_k: PiecewisePath, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Netflow X_k = F_k - mu_k (t - t_start)_+ as an exact path.

    Breakpoints are the union of the CDF's breakpoints, the queue opening
    time, and the horizon endpoints.
    """
    if not f_k.is_nondecreasing():
        raise DomainError("cumulative arrival path must be nondecreasing")
    extra = [q.t_start]
    if horizon is not None:
        extra.extend(horizon)
    ts = sorted_unique(f_k.times, np.asarray(extra, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f_k(ts) - q.mu * np.maximum(ts - q.t_start, 0.0)
    if not np.isfinite(vals).all():
        raise DomainError(f"queue {q.id}: the netflow at rate {q.mu!r} is not finite "
                          "on the horizon; the scenario's scale overflows")
    return PiecewisePath(ts, vals, extend="slope")


@dataclass(frozen=True)
class QueueFluid:
    """Every fluid path of one queue, all from one reflection of its netflow.
    None depends on a population: each population's arrival cost at the
    queue is an affine map of ``wait`` (see ``arrival_cost``)."""

    cdf: PiecewisePath
    netflow: PiecewisePath
    queue_length: PiecewisePath
    regulator: PiecewisePath
    busy: PiecewisePath
    wait: PiecewisePath


def queue_fluid(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> QueueFluid:
    """The queue's fluid paths from one CDF, one netflow and one reflection
    (``fluid_busy`` and ``fluid_wait`` define busy time and virtual wait)."""
    if horizon is None:
        horizon = default_horizon(profile, [q])
    cdf = profile.queue_cdf(q.id)
    x = netflow(cdf, q, horizon)
    phi, psi = reflect(x)
    # the opening is a netflow breakpoint, so phi and psi already break there
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


def fluid_queue(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Fluid queue length: the reflection of the queue's netflow."""
    return queue_fluid(profile, q, horizon).queue_length


def fluid_regulator(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Cumulative idleness regulator of the queue's netflow."""
    return queue_fluid(profile, q, horizon).regulator


def fluid_busy(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Busy time (t - t_start)_+ - regulator / mu; nondecreasing."""
    return queue_fluid(profile, q, horizon).busy


def fluid_wait(
    profile: ArrivalProfile, q: QueueSpec, horizon: tuple[float, float] | None = None
) -> PiecewisePath:
    """Virtual waiting time: queue length / mu, plus the time left until the
    queue opens for arrivals that land before t_start."""
    return queue_fluid(profile, q, horizon).wait


def arrival_costs(pops, wait: PiecewisePath) -> np.ndarray:
    """Arrival costs (alpha + beta) * wait + beta * t at the breakpoints of
    ``wait``, one row per population of ``pops``: every row is an affine map
    of the one wait path."""
    weights = np.array([p.weight for p in pops])[:, None]
    betas = np.array([p.beta for p in pops])[:, None]
    return weights * wait.values + betas * wait.times


def arrival_cost(pop: PopulationSpec, wait: PiecewisePath) -> PiecewisePath:
    """Arrival cost (alpha + beta) * wait + beta * t of the population at a
    queue with virtual waiting time ``wait``."""
    return PiecewisePath(wait.times, arrival_costs([pop], wait)[0], extend="slope")


def cost_curve(
    pop: PopulationSpec,
    profile: ArrivalProfile,
    q: QueueSpec,
    horizon: tuple[float, float] | None = None,
) -> PiecewisePath:
    """Arrival cost (alpha + beta) * wait + beta * t for the population at the
    queue, exact on the horizon."""
    return arrival_cost(pop, fluid_wait(profile, q, horizon))
