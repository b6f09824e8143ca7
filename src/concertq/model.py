"""Scenario model: queues, populations, ingestion and feasibility checks.

A scenario bundles K parallel single-server FIFO queues (service rate and
service start time each) with N user populations (linear waiting / completion
cost weights and a fluid mass each), plus numeric options shared by the
solvers.  Parsing normalizes the time origin so that the earliest queue opens
at time zero; ``Scenario.time_origin`` records the subtracted offset and the
serializers add it back on output.  ``service_windows`` is the one home of
the capacity epochs: the solvers' serve sets, pruning, the terminal time and
the optimal profile's windows all come from it.  Last comes the arrival
profile, ``ArrivalProfile``: its rows are stored once, as read-only compact
columns that are built, checked, compared, shifted, indexed by queue and
written without numpy.  ``ArrivalProfile(rows)`` is its one constructor and
judges every row; a row is a ``Segment``, a plain named tuple (use
``seg._replace(...)`` and ``tuple(seg)``) that checks nothing itself.  This
module loads no numpy.

All model objects are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import io
import json
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, compress, repeat
from operator import add, eq, le, mul, sub
from typing import NamedTuple

from .errors import DomainError, ParseError

DEFAULT_TOL = 1e-9  # closed-form identities and the verifier's flatness


def gamma_of(alpha: float, beta: float) -> float:
    """Waiting-cost share alpha / (alpha + beta) of the total cost weight.

    Raises DomainError if the weights are negative or both zero.
    """
    if alpha < 0 or beta < 0:
        raise DomainError(f"cost weights must be nonnegative, got alpha={alpha}, beta={beta}")
    total = alpha + beta
    if total == 0:
        raise DomainError("alpha + beta must be positive")
    return alpha / total


@dataclass(frozen=True)
class QueueSpec:
    """One FIFO server: rate ``mu`` (> 0), opening time ``t_start`` (>= 0)."""

    id: int
    mu: float
    t_start: float

    def __post_init__(self):
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise DomainError(f"queue {self.id}: mu must be positive and finite, got {self.mu}")
        if not (self.t_start >= 0 and math.isfinite(self.t_start)):
            raise DomainError(
                f"queue {self.id}: t_start must be nonnegative and finite, got {self.t_start}"
            )


@dataclass(frozen=True)
class PopulationSpec:
    """One user population: waiting weight ``alpha`` (>= 0), completion-time
    weight ``beta`` (> 0), and fluid mass (default 1)."""

    id: int
    alpha: float
    beta: float
    mass: float = 1.0

    def __post_init__(self):
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise DomainError(
                f"population {self.id}: alpha must be nonnegative and finite, got {self.alpha}"
            )
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise DomainError(
                f"population {self.id}: beta must be positive and finite, got {self.beta}"
            )
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise DomainError(
                f"population {self.id}: mass must be positive and finite, got {self.mass}"
            )
        if not math.isfinite(self.weight):
            raise DomainError(f"population {self.id}: alpha + beta overflows to {self.weight}")

    @property
    def gamma(self) -> float:
        return gamma_of(self.alpha, self.beta)

    @property
    def weight(self) -> float:
        """Total cost weight alpha + beta."""
        return self.alpha + self.beta


@dataclass(frozen=True)
class Options:
    """Numeric options: closed-form tolerance, verifier grid step, RNG seed."""

    tol: float = DEFAULT_TOL
    grid_step: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.tol >= 0 and math.isfinite(self.tol)):
            raise DomainError(f"tol must be nonnegative and finite, got {self.tol}")
        if self.grid_step is not None and not (
            self.grid_step > 0 and math.isfinite(self.grid_step)
        ):
            raise DomainError(f"grid_step must be positive and finite, got {self.grid_step}")


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance.

    Queues are stored sorted by start time (ties by id) with the earliest
    start shifted to zero; populations are sorted by gamma ascending (ties by
    id).  ``time_origin`` is the offset subtracted from all start times.
    """

    queues: tuple[QueueSpec, ...]
    populations: tuple[PopulationSpec, ...]
    options: Options = field(default_factory=Options)
    time_origin: float = 0.0

    def __post_init__(self):
        if len(self.queues) < 1:
            raise DomainError("scenario needs at least one queue")
        if len(self.populations) < 1:
            raise DomainError("scenario needs at least one population")

    @property
    def n_queues(self) -> int:
        return len(self.queues)

    @property
    def n_populations(self) -> int:
        return len(self.populations)

    @property
    def total_mass(self) -> float:
        return sum(p.mass for p in self.populations)


@dataclass(frozen=True)
class ValidationReport:
    pruned_queues: tuple[int, ...]
    messages: tuple[str, ...]


_TOP_KEYS = {"queues", "populations", "options"}
_OPTION_KEYS = {"tol", "grid_step", "seed"}


def _require_number(value, locus: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{locus}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal past the float range
        raise ParseError(f"{locus}: integer too large for a float") from None
    if not math.isfinite(out):
        raise ParseError(f"{locus}: value must be finite, got {value!r}")
    return out


def _entries(doc: dict, section: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Each entry of the array ``doc[section]`` as (id, number reader), checked
    only when it is reached, so that the caller builds each record before
    the next entry is read.  Ids count from 1 in document order; the reader
    returns the entry's number under a key, or ``default`` if it is absent."""
    entries = doc[section]
    if not isinstance(entries, (list, tuple)):
        raise ParseError(f"{section}: expected an array")
    for i, entry in enumerate(entries):
        locus = f"{section}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{locus}: expected an object")
        unknown = set(entry) - set(required) - set(optional)
        if unknown:
            raise ParseError(f"{locus}: unknown keys {sorted(unknown)}")
        if not all(key in entry for key in required):
            raise ParseError(f"{locus}: needs {' and '.join(map(repr, required))}")
        yield i + 1, lambda key, default=None: _require_number(
            entry.get(key, default), f"{locus}.{key}"
        )


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed scenario document (see parse_scenario)."""
    if not isinstance(doc, dict):
        raise ParseError(f"scenario document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown scenario keys: {sorted(unknown)}")
    if "queues" not in doc or "populations" not in doc:
        raise ParseError("scenario document needs 'queues' and 'populations'")

    queues = [
        QueueSpec(id=i, mu=number("mu"), t_start=number("t_start"))
        for i, number in _entries(doc, "queues", ("mu", "t_start"))
    ]
    populations = [
        PopulationSpec(id=i, alpha=number("alpha"), beta=number("beta"), mass=number("mass", 1.0))
        for i, number in _entries(doc, "populations", ("alpha", "beta"), optional=("mass",))
    ]
    if not queues:
        raise ParseError("queues: at least one queue is required")
    if not populations:
        raise ParseError("populations: at least one population is required")

    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise ParseError("options: expected an object")
    unknown = set(opts) - _OPTION_KEYS
    if unknown:
        raise ParseError(f"options: unknown keys {sorted(unknown)}")
    grid_step = opts.get("grid_step")
    seed = opts.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError(f"options.seed: expected an integer, got {seed!r}")
    options = Options(
        tol=_require_number(opts.get("tol", DEFAULT_TOL), "options.tol"),
        grid_step=None if grid_step is None else _require_number(grid_step, "options.grid_step"),
        seed=seed,
    )

    sorted_queues = tuple(sorted(queues, key=lambda q: (q.t_start, q.id)))
    origin = sorted_queues[0].t_start
    if origin != 0.0:
        sorted_queues = tuple(
            replace(q, t_start=q.t_start - origin) for q in sorted_queues
        )
    return Scenario(
        queues=sorted_queues,
        populations=tuple(sorted(populations, key=lambda p: (p.gamma, p.id))),
        options=options,
        time_origin=origin,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse a UTF-8 JSON scenario document.

    The document is an object with keys ``queues`` (array of
    ``{mu, t_start}``), ``populations`` (array of ``{alpha, beta, mass?}``)
    and optional ``options`` (``{tol?, grid_step?, seed?}``).  Unknown keys
    are rejected.  Raises ParseError with a field locus for malformed input
    and DomainError for out-of-range values.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("scenario document is nested too deeply to parse") from None
    except ValueError:  # int() refuses a literal past its digit limit
        raise ParseError("scenario document holds an integer literal too long to read") from None
    return scenario_from_dict(doc)


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict; start times are in original coordinates.

    Entries are emitted in id order, which is the original document order, so
    parsing the result reproduces the scenario field for field.
    """
    doc: dict = {
        "queues": [
            {"mu": q.mu, "t_start": q.t_start + s.time_origin}
            for q in sorted(s.queues, key=lambda q: q.id)
        ],
        "populations": [
            {"alpha": p.alpha, "beta": p.beta, "mass": p.mass}
            for p in sorted(s.populations, key=lambda p: p.id)
        ],
        "options": {"tol": s.options.tol, "seed": s.options.seed},
    }
    if s.options.grid_step is not None:
        doc["options"]["grid_step"] = s.options.grid_step
    return doc


def service_windows(queues, masses) -> tuple[tuple[int, ...], list[float]]:
    """Which queues open in which mass step, and the service epochs.

    Every open queue serves at full rate until the common terminal time, so
    the epoch that serves out the first i masses is where the cumulative
    capacity sum_k mu_k (t - t_start_k)_+ reaches their sum:
    (cumulative mass + sum of mu_k t_start_k) / (sum of mu_k) over the
    queues open by then.  One pass over ``queues``, which must be in opening
    order: the first queue always opens, and each later one opens in the
    first step whose epoch, without it, falls after its opening.

    Returns ``windows``, the step each opening queue opens in (for a prefix
    of ``queues``; the queues past it never open), and ``epochs``, the first
    opening followed by one epoch per mass.
    """
    windows: list[int] = []
    epochs = [queues[0].t_start]
    cum = rate = weighted = 0.0
    for i, mass in enumerate(masses):
        cum += mass
        while len(windows) < len(queues) and (
            not windows or queues[len(windows)].t_start < (cum + weighted) / rate
        ):
            q = queues[len(windows)]
            rate += q.mu
            weighted += q.mu * q.t_start
            windows.append(i)
        epochs.append((cum + weighted) / rate)
    return tuple(windows), epochs


def pruned_scenario(s: Scenario) -> tuple[Scenario, ValidationReport]:
    """The scenario without the queues that would see no arrivals, and the
    report naming them.  A queue is pruned when it opens at or after the
    moment the queues opening before it finish all mass; those are the last
    queues in opening order, listed last opening first with one message
    each.  ``s`` itself comes back when nothing is pruned.  Never raises for
    feasibility issues; it only reports."""
    windows, epochs = service_windows(s.queues, [s.total_mass])
    late = s.queues[len(windows):][::-1]
    report = ValidationReport(
        pruned_queues=tuple(q.id for q in late),
        messages=tuple(
            f"queue {q.id} pruned: starts at {q.t_start:g} but the remaining "
            f"queues alone finish all mass at {epochs[-1]:g}, so it would see no arrivals"
            for q in late
        ),
    )
    return (replace(s, queues=s.queues[:len(windows)]) if late else s), report


# -- arrival profiles -------------------------------------------------------


class Segment(NamedTuple):
    """One profile row: constant-density arrivals of one population at one
    queue on [start, end].  A plain tuple; ``ArrivalProfile`` judges it."""

    population: int
    queue: int
    start: float
    end: float
    density: float

    @property
    def mass(self) -> float:
        return self.density * (self.end - self.start)


class ArrivalProfile:
    """Constant-density segments, one or more per (population, queue) pair,
    one row per segment in profile order.

    ``ArrivalProfile(rows)`` takes any five-field rows (pop, queue, start,
    end, density), ``Segment``s included: each id converted by ``int`` and
    each value by ``float``; TypeError for a bool start, end or density, and
    DomainError naming the first row, by position, with a non-finite value,
    end < start, negative density or non-finite mass.  The rows are stored
    once, as five read-only ``memoryview`` columns, ``columns`` (format "q"
    population and queue ids, "d" start, end and density: 40 bytes a row).
    Every member reads those columns, and only ``queue_cdf``, which returns
    a numpy-backed ``fluid.PiecewisePath``, loads numpy.  ``rows_at`` (each
    queue's rows, read-only too) and ``segments`` (the rows as ``Segment``s)
    are built on first use."""

    def __init__(self, rows=()):
        columns = list(zip(*rows)) or [()] * 5
        if bool in map(type, chain(*columns[2:])):
            raise TypeError("bool is not a number here")
        self._store(*columns)

    def _store(self, pop, queue, start, end, density) -> "ArrivalProfile":
        """Keep the columns, converted by ``_column``, once every row passes
        ``_row_fault``.  The rows are checked column by column (a finite
        mass implies finite values); only a profile with a fault is scanned
        row by row, to name its first."""
        columns = (_column("q", pop, int), _column("q", queue, int),
                   *(_column("d", values, float) for values in (start, end, density)))
        a, b, d = columns[2:]
        if not (all(map(math.isfinite, map(mul, d, map(sub, b, a)))) and all(map(le, a, b))
                and min(d, default=0.0) >= 0):
            i, what = next((i, what) for i, what in enumerate(map(_row_fault, a, b, d)) if what)
            raise DomainError(f"profile row {i} has {what}")
        object.__setattr__(self, "columns", tuple(map(_readonly, columns)))
        return self

    def __reduce__(self):
        # rebuilt, and judged again, by the constructor: a memoryview does not pickle
        return ArrivalProfile, (list(zip(*self.columns)),)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name}: ArrivalProfile is read-only")

    @cached_property
    def _rows_by_queue(self) -> dict:
        # each queue's rows in profile order
        rows = {queue: array("q") for queue in self.queue_ids}
        for i, queue in enumerate(self.columns[1]):
            rows[queue].append(i)
        return {queue: _readonly(column) for queue, column in rows.items()}

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The rows as ``Segment`` records, in profile order."""
        return tuple(map(Segment, *self.columns))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArrivalProfile):
            return NotImplemented
        return self.columns == other.columns

    def rows_at(self, queue: int) -> memoryview:
        """Row numbers of the queue's segments, in profile order (a
        read-only "q" ``memoryview``, empty for a queue without rows)."""
        return self._rows_by_queue.get(queue, _NO_ROWS)

    @property
    def queue_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.columns[1])))

    @property
    def total_mass(self) -> float:
        return self.mass()

    def mass(self, population: int | None = None, queue: int | None = None) -> float:
        """Routed mass of the population's rows at the queue (every row for
        None), summed in profile order (as the built-in ``sum`` adds)."""
        pops, queues, a, b, d = self.columns
        masses = map(mul, d, map(sub, b, a))
        picks = [map(eq, ids, repeat(wanted))
                 for ids, wanted in ((pops, population), (queues, queue)) if wanted is not None]
        return sum(compress(masses, map(all, zip(*picks))) if picks else masses)

    def support_bounds(self) -> tuple[float, float]:
        """The least start and the greatest end."""
        if not len(self):
            raise DomainError("empty profile has no support")
        return min(self.columns[2]), max(self.columns[3])

    def queue_cdf(self, queue: int):
        """Aggregate cumulative arrivals F_k at the queue, all populations
        (``fluid._arrivals``), as a ``fluid.PiecewisePath``."""
        from . import fluid
        return fluid.PiecewisePath(*fluid._arrivals(self, queue), extend="const")

    def shifted(self, dt: float) -> "ArrivalProfile":
        """The profile with every start and end moved by ``dt``; a time that
        overflows is refused as a non-finite value."""
        pop, queue, a, b, d = self.columns
        dt = float(dt)
        return ArrivalProfile.__new__(ArrivalProfile)._store(
            pop, queue, map(add, a, repeat(dt)), map(add, b, repeat(dt)), d
        )

    def require_queues(self, queues) -> None:
        """DomainError unless every row is at one of ``queues``."""
        known = {q.id for q in queues}
        strays = [qid for qid in self.queue_ids if qid not in known]
        if strays:
            raise DomainError(f"profile routes mass to unknown queues {strays}")

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        """CSV rows ``pop,queue,a,b,density``: ids as integers, values by
        ``serialize.fmt`` (the cells of ``serialize.column_cells``)."""
        from .serialize import column_cells

        rows = zip(*map(column_cells, self.columns))
        return "\n".join(["pop,queue,a,b,density", *map(",".join, rows), ""])

    @classmethod
    def from_csv(cls, text: str) -> "ArrivalProfile":
        """The profile of CSV rows ``pop,queue,a,b,density``, converted with no
        per-row checks and checked as columns; only a file with a fault is
        read again row by row, to name its first fault in file order."""
        columns = pop, queue, a, b, density = ([], [], [], [], [])
        try:
            for _, row in _data_rows(text):
                p, q, x, y, d = row.split(",")
                pop.append(int(p))
                queue.append(int(q))
                a.append(float(x))
                b.append(float(y))
                density.append(float(d))
            return cls.__new__(cls)._store(*columns)
        except (ValueError, OverflowError, DomainError):
            for lineno, row in _data_rows(text):  # raise on the first faulty row
                parts = row.split(",")
                where = f"bad profile row {lineno}: {row!r}"
                if len(parts) != 5:
                    raise ParseError(f"{where}: expected 5 cells")
                what = _row_fault(*_cells(parts, (int, int, float, float, float), where)[2:])
                if what:
                    raise DomainError(f"profile row {lineno} has {what}")
            raise


def _column(typecode: str, values, convert) -> array:
    """``values`` as a compact column of ``typecode`` ("q" or "d"), each
    value converted by ``convert`` (``int`` or ``float``, as numpy converts
    into int64 or float64) unless the column takes them all as they are."""
    try:
        return array(typecode, values)
    except TypeError:  # a str, or a float id
        return array(typecode, map(convert, values))


def _readonly(column: array) -> memoryview:
    """A read-only copy of a compact column, in its format."""
    return memoryview(column.tobytes()).cast(column.typecode)


_NO_ROWS = _readonly(array("q"))  # rows_at of a queue without rows


def _row_fault(a: float, b: float, d: float) -> str | None:
    """What a profile row with start ``a``, end ``b`` and density ``d``
    has that no profile takes, or None: a non-finite value, end < start,
    negative density, then a non-finite mass (so no sum of masses overflows)."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        return "a non-finite value"
    if not b >= a:
        return "end < start"
    if d < 0:
        return "negative density"
    return None if math.isfinite(d * (b - a)) else "non-finite mass"


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


def _data_rows(text: str):
    """(line number, stripped row) of each CSV row that is not blank, a
    comment or the header."""
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        row = raw.strip()
        if row and not row.startswith("#") and not row.lower().startswith("pop,"):
            yield lineno, row
