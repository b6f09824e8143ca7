"""Scenario model: queues, populations, ingestion and feasibility checks.

A scenario bundles K parallel single-server FIFO queues (service rate and
service start time each) with N user populations (linear waiting / completion
cost weights and a fluid mass each), plus numeric options shared by the
solvers.  Parsing normalizes the time origin so that the earliest queue opens
at time zero; ``Scenario.time_origin`` records the subtracted offset and the
serializers add it back on output.  ``service_windows`` is the one home of
the capacity epochs: the solvers' serve sets, pruning, the terminal time and
the optimal profile's windows all come from it.

All model objects are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace


class DomainError(ValueError):
    """A parameter or hypothesis violation (CLI exit code 1)."""


class ParseError(ValueError):
    """A malformed scenario or profile document (CLI exit code 2)."""


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


def validate_scenario(s: Scenario) -> ValidationReport:
    """Pruning report: queues that open at or after the moment the queues
    opening before them finish all mass would see no arrivals.  They are
    listed last opening first, one message each.

    Never raises for feasibility issues; it only reports.
    """
    windows, epochs = service_windows(s.queues, [s.total_mass])
    late = s.queues[len(windows):][::-1]
    return ValidationReport(
        pruned_queues=tuple(q.id for q in late),
        messages=tuple(
            f"queue {q.id} pruned: starts at {q.t_start:g} but the remaining "
            f"queues alone finish all mass at {epochs[-1]:g}, so it would see no arrivals"
            for q in late
        ),
    )


def pruned_scenario(s: Scenario) -> tuple[Scenario, ValidationReport]:
    """Validate and return the scenario with pruned queues removed: they
    are the last queues in opening order."""
    report = validate_scenario(s)
    if report.pruned_queues:
        return replace(s, queues=s.queues[:-len(report.pruned_queues)]), report
    return s, report
