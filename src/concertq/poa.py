"""Social cost, optimal arrival profiles, and price-of-anarchy formulas.

The social cost of a profile integrates each population's exact arrival cost
curve against its own arrival density.  The socially optimal profile has
every user arrive exactly at the instant of service: servers run at full
capacity from their opening times, and populations are scheduled in order of
decreasing beta (an exchange argument; the most tardiness-sensitive users go
first).  The price of anarchy eta is the ratio of equilibrium to optimal
social cost.  For a single population it lies in (1, 2], hitting 2 exactly
when all queues open simultaneously; with heterogeneous populations it can
exceed 2, so reports carry the bound as a flag, not an assertion.

Closed forms are evaluated alongside and cross-checked against the integral
route.  The equal-rate / equally-spaced special cases include an explicit
serve-count optimizer: with K_l queues serving the first l unit populations,
the epoch T_l(k) = l / (mu k) + tau (k - 1) / 2 is convex in k, and the
equilibrium serve count is its integer minimizer, about sqrt(2 l / (mu tau)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import fluid
from .equilibrium import SolverError, arrival_epochs, solve_multi, solve_single
from .fluid import ArrivalProfile
from .model import (
    DEFAULT_TOL, DomainError, Options, PopulationSpec, QueueSpec, Scenario, pruned_scenario,
    service_windows,
)


@dataclass(frozen=True)
class PoaReport:
    j_eq: float
    j_opt: float
    eta: float
    closed_form_eta: float | None
    bound_satisfied: bool
    details: dict

    def to_dict(self, time_origin: float = 0.0) -> dict:
        """JSON-ready report; the one time in it, the single-population
        ``details["terminal_time"]``, is shifted back by ``time_origin``."""
        out = asdict(self)
        if "terminal_time" in out["details"]:
            out["details"]["terminal_time"] += time_origin
        return out

    def summary_line(self) -> str:
        cf = "n/a" if self.closed_form_eta is None else f"{self.closed_form_eta:.12g}"
        return (
            f"eta={self.eta:.12g}, j_eq={self.j_eq:.12g}, j_opt={self.j_opt:.12g}, "
            f"closed_form_eta={cf}, bound_ok={str(self.bound_satisfied).lower()}"
        )


@dataclass(frozen=True)
class ServeSetResult:
    """Integer serve-count optimization for the equal-rate, equally-spaced
    case.  The fields are in the key order of the JSON report; ``t_l_at_k``
    holds the epochs in increasing k."""

    l: float
    k_star: int
    tie: bool
    t_l_at_k: dict[int, float]

    def to_dict(self) -> dict:
        return asdict(self)


@np.errstate(over="ignore", invalid="ignore")  # a total that overflows is refused below
def social_cost(s: Scenario, profile: ArrivalProfile) -> float:
    """Exact integral sum_{j,k} of cost_{j,k}(t) dF_{j,k}(t).

    The cost curves are piecewise linear and the densities piecewise
    constant, so every term is a closed-form segment integral.  Every
    segment is integrated at once on its queue's wait path, a row of one
    fluid table, and the terms are added population by population, queue by
    queue, in profile order.
    """
    if not len(profile):
        return 0.0
    table = fluid.fluid_table(profile, s.queues, fluid.default_horizon(profile, s.queues))
    pop_row = profile.population_positions(s.populations)
    # the rows queue by queue, in profile order at each queue
    per_queue = [profile.queue_rows(q.id) for q in s.queues]
    rows = np.concatenate(per_queue)
    of_row = np.repeat(np.arange(len(per_queue)), [r.size for r in per_queue])
    kept = (profile.row_mass[rows] > 0) & (pop_row[rows] >= 0)
    rows, of_row = rows[kept], of_row[kept]
    weights, betas = (c[pop_row[rows], 0] for c in fluid.cost_columns(s.populations))
    integrals = _segment_integrals(table, of_row, weights, betas, profile.start[rows], profile.end[rows])
    # a stable sort by population gives the summation order population,
    # queue, profile order
    order = np.argsort(pop_row[rows], kind="stable")
    total = 0.0
    for term in (profile.density[rows] * integrals)[order].tolist():
        total += term
    if not math.isfinite(total):
        raise DomainError(f"social cost is {total!r}: the scenario's times or rates overflow")
    return total


def _segment_integrals(table, of_row, weight, beta, a, b) -> np.ndarray:
    """Exact integral over [a[r], b[r]] of the arrival cost weight[r] * wait
    + beta[r] * t on the wait path of queue ``of_row[r]`` of ``table``, for
    every row r at once, with a < b inside the table's horizon.  The
    trapezoids between a, the breakpoints strictly inside and b are summed
    as ``PiecewisePath.integral`` sums them: a breakpoint takes the cost
    there, a and b take np.interp's value between the breakpoints around
    them, and rows with the same number of trapezoids are one matrix."""
    t, wait = table.times, table.wait

    def cost_at(x, j):
        # np.interp on each point's two-breakpoint path (t[j], t[j + 1])
        pair = np.stack((j, np.minimum(j + 1, t.size - 1)), axis=1).ravel()
        fp = np.repeat(weight, 2) * wait[pair] + np.repeat(beta, 2) * t[pair]
        return fluid.interp_at(x, t[pair], fp, 2 * np.arange(x.size), np.zeros(x.size, dtype=bool))

    at_a = fluid.last_at_or_before(t, table.bounds, a, of_row)
    at_b = fluid.last_at_or_before(t, table.bounds, b, of_row)
    first = at_a + 1  # the breakpoints in (a, b) are first, ..., first + inner - 1
    inner = at_b + (t[at_b] < b) - first
    ends = (cost_at(a, at_a), cost_at(b, at_b))
    out = np.empty(a.size)
    for m in set(inner.tolist()):
        sel = np.flatnonzero(inner == m)
        at = first[sel, None] + np.arange(m)
        ts, vs = np.empty((2, sel.size, m + 2))
        ts[:, 0], ts[:, -1], ts[:, 1:-1] = a[sel], b[sel], t[at]
        vs[:, 0], vs[:, -1] = ends[0][sel], ends[1][sel]
        vs[:, 1:-1] = weight[sel, None] * wait[at] + beta[sel, None] * t[at]
        out[sel] = np.sum(0.5 * (vs[:, 1:] + vs[:, :-1]) * np.diff(ts, axis=1), axis=1)
    return out


def optimal_profile(s: Scenario) -> tuple[ArrivalProfile, float]:
    """Socially optimal profile and its cost.

    Users arrive exactly when served: queue k contributes density mu_k from
    its opening until the common terminal time.  Populations are ordered by
    decreasing beta and occupy consecutive service windows; each window ends
    where the cumulative service capacity reaches the cumulative scheduled
    mass (``model.service_windows``).
    """
    order = sorted(s.populations, key=lambda p: (-p.beta, p.id))
    _, boundaries = service_windows(s.queues, [p.mass for p in order])

    rows: list[tuple] = []  # (pop, queue, start, end, density)
    cost = 0.0
    for i, pop in enumerate(order):
        w0, b = boundaries[i], boundaries[i + 1]
        for q in s.queues:
            a = max(q.t_start, w0)
            if b > a:
                rows.append((pop.id, q.id, a, b, q.mu))
                cost += pop.beta * q.mu * 0.5 * (b * b - a * a)
    return ArrivalProfile.from_rows(rows), cost


def poa_closed_form(s: Scenario) -> float:
    """Single-population price of anarchy in closed form.

    eta = 2 (1 + sum mu_k t_k) / (1 + sum_{k,l} mu_k mu_l t_l (t_k - t_l)
          + 2 sum mu_k t_k), with start times t_k measured from the first
    opening and unit total mass.
    """
    mus = np.array([q.mu for q in s.queues])
    ts = np.array([q.t_start for q in s.queues])
    mt = float(np.sum(mus * ts))
    cross = float(np.sum(np.outer(mus, mus) * ts[None, :] * (ts[:, None] - ts[None, :])))
    return 2.0 * (1.0 + mt) / (1.0 + cross + 2.0 * mt)


def _eta(j_eq: float, j_opt: float) -> float:
    if not (0.0 < j_eq < math.inf and 0.0 < j_opt < math.inf):
        raise DomainError(f"the price of anarchy needs finite j_eq > 0 and j_opt > 0, got "
                          f"j_eq={j_eq!r}, j_opt={j_opt!r}: a social cost underflows or overflows")
    return j_eq / j_opt


def poa_single(s: Scenario) -> PoaReport:
    """Price of anarchy for a single population.

    ``eta`` comes from the integral social costs of the solved equilibrium
    and the optimal profile; ``closed_form_eta`` from the closed form (unit
    mass only) over the queues that open.  The bound eta <= 2 is checked.
    """
    if s.n_populations != 1:
        raise SolverError(f"single-population report got N={s.n_populations}")
    s, _ = pruned_scenario(s)  # the closed form reads every queue of s
    pop = s.populations[0]

    eq = solve_single(s)
    j_eq = social_cost(s, eq.profile)
    opt_profile, j_opt = optimal_profile(s)
    eta = _eta(j_eq, j_opt)

    closed = poa_closed_form(s) if abs(pop.mass - 1.0) <= 1e-12 else None
    bound_ok = eta <= 2.0 + s.options.tol
    details = {
        "terminal_time": eq.terminal_time,
        "equilibrium_cost": eq.equilibrium_costs[pop.id],
        "j_eq_closed_form": pop.beta * eq.terminal_time * pop.mass,
        "j_opt_integral_check": social_cost(s, opt_profile),
    }
    return PoaReport(
        j_eq=j_eq,
        j_opt=j_opt,
        eta=eta,
        closed_form_eta=closed,
        bound_satisfied=bound_ok,
        details=details,
    )


def poa_equal_rate_case(K: int, mu: float, tau: float) -> float:
    """Price of anarchy when K queues share the total rate ``mu`` equally and
    open tau apart: eta = (2 + mu tau (K-1)) /
    (1 + mu tau (K-1) - mu^2 tau^2 (K^2 - 1) / 12).

    Cross-checked against the general closed form on the matching scenario.
    For K > 1 and tau > 0 the value satisfies 4/3 < eta < 2.
    """
    if K < 1:
        raise DomainError(f"need K >= 1, got {K}")
    if mu <= 0 or tau < 0:
        raise DomainError(f"need mu > 0 and tau >= 0, got mu={mu}, tau={tau}")
    x = mu * tau * (K - 1)
    if x >= 2.0:
        raise DomainError(
            f"mu*tau*(K-1) = {x:g} >= 2: the last queue would open after all "
            "mass is served, so the all-queues-active formula does not apply"
        )
    denom = 1.0 + x - (mu * tau) ** 2 * (K * K - 1) / 12.0
    if denom <= 0:
        raise DomainError(f"formula denominator is {denom:g} <= 0; infeasible tau")
    eta = (2.0 + x) / denom

    scenario = Scenario(
        queues=tuple(
            QueueSpec(id=k + 1, mu=mu / K, t_start=k * tau) for k in range(K)
        ),
        populations=(PopulationSpec(id=1, alpha=1.0, beta=1.0),),
        options=Options(),
    )
    general = poa_closed_form(scenario)
    if abs(general - eta) > DEFAULT_TOL * max(1.0, abs(eta)):
        raise AssertionError(
            f"equal-rate special case disagrees with the general closed form: "
            f"{eta!r} vs {general!r}"
        )
    if K > 1 and tau > 0 and not 4.0 / 3.0 < eta < 2.0:
        raise AssertionError(f"eta={eta!r} outside (4/3, 2)")
    return eta


def equal_rate_multi_eta(s: Scenario, mu: float, tau: float) -> float:
    """Closed-form price of anarchy for N unit populations on equal-rate
    queues opening ``tau`` apart, with the serve counts relaxed to
    K_l = sqrt(2 l / (mu tau)).

    Under the relaxation the service epochs are tau_l = sqrt(2 l tau / mu)
    - tau / 2; the equilibrium cost sums (alpha_l + beta_l) tau_l -
    alpha_l T_l over populations, and the optimal cost schedules populations
    by decreasing beta over the same epochs, integrating beta t against the
    ramping capacity (a midpoint rule replaces the sum over integer queue
    openings).  Because K_l is a continuous relaxation of an integer count,
    the value approximates the integral-based eta rather than reproducing
    it; the gap is a fraction of a percent for mu tau well below one.
    """
    pops = s.populations
    n = len(pops)
    taus = [0.0] + [math.sqrt(2.0 * l * tau / mu) - 0.5 * tau for l in range(1, n + 1)]
    j_eq = sum(arrival_epochs(pops, taus)[1])

    betas_desc = sorted((p.beta for p in pops), reverse=True)
    cube = lambda l: l * math.sqrt(l)
    j_opt = sum(
        b * (mu / (3.0 * tau) * (2.0 * tau / mu) ** 1.5 * (cube(l) - cube(l - 1)) - 0.5 * tau)
        for l, b in enumerate(betas_desc, start=1)
    )
    return j_eq / j_opt


def _equal_rate_spacing(s: Scenario) -> tuple[float, float] | None:
    """Return (mu, tau) when all queues share one rate and open tau apart."""
    mus = {q.mu for q in s.queues}
    if len(mus) != 1 or s.n_queues < 2:
        return None
    starts = sorted(q.t_start for q in s.queues)
    gaps = {round(b - a, 12) for a, b in zip(starts, starts[1:])}
    if len(gaps) != 1:
        return None
    tau = starts[1] - starts[0]
    if tau <= 0:
        return None
    return mus.pop(), tau


def poa_multi(s: Scenario) -> PoaReport:
    """Price of anarchy for multiple populations.

    ``j_eq`` sums each population's constant equilibrium cost times its mass
    (cross-checked against the social-cost integral), ``j_opt`` comes from the
    optimal profile.  On equal-rate, equally-spaced scenarios with unit
    masses the relaxed closed form is evaluated alongside as
    ``closed_form_eta``; it is an approximation by construction.
    """
    if s.n_populations == 1:
        return poa_single(s)
    s, _ = pruned_scenario(s)  # the equal-rate spacing reads every queue of s

    eq = solve_multi(s)
    j_eq = sum(eq.equilibrium_costs[p.id] * p.mass for p in s.populations)
    j_eq_integral = social_cost(s, eq.profile)
    opt_profile, j_opt = optimal_profile(s)
    eta = _eta(j_eq, j_opt)

    masses_equal = len({p.mass for p in s.populations}) == 1
    unit_masses = masses_equal and abs(s.populations[0].mass - 1.0) <= 1e-12
    closed = None
    notes = []
    if not masses_equal:
        notes.append(
            "closed forms skipped: populations have unequal masses, so the "
            "decreasing-beta reordering does not preserve the service windows"
        )
    else:
        spacing = _equal_rate_spacing(s)
        if spacing is not None and unit_masses:
            mu, tau = spacing
            closed = equal_rate_multi_eta(s, mu, tau)

    details = {
        "equilibrium_costs": {str(p.id): eq.equilibrium_costs[p.id] for p in s.populations},
        "j_eq_integral_check": j_eq_integral,
        "j_opt_integral_check": social_cost(s, opt_profile),
        "notes": notes,
    }
    return PoaReport(
        j_eq=j_eq,
        j_opt=j_opt,
        eta=eta,
        closed_form_eta=closed,
        bound_satisfied=eta <= 2.0 + s.options.tol,
        details=details,
    )


# largest serve count searched: one epoch per count is held and written
MAX_SERVE_COUNT = 1 << 16


def serve_epoch(l: float, mu: float, tau: float, k: int) -> float:
    """Epoch at which the first l unit populations are served out when k
    equal-rate queues (rate mu each, openings tau apart) serve them."""
    return l / (mu * k) + 0.5 * tau * (k - 1)


def optimal_serve_count(l: float, mu: float, tau: float, K: int) -> ServeSetResult:
    """Integer serve count minimizing the service epoch T_l(k) over [1, K].

    ``k_star`` is the nearest integer (half away from zero) to
    sqrt(2 l / (mu tau)), clamped to [1, K]; an exhaustive search confirms it
    and flags exact ties between adjacent counts.  For mu * tau >= 1 the
    one-queue-per-population reading breaks down and a warning is issued,
    but the minimizer is still returned.  K is at most ``MAX_SERVE_COUNT``,
    and inputs whose mu * tau, sqrt argument or epochs leave the finite
    positive floats are refused.
    """
    for name, v in (("l", l), ("mu", mu), ("tau", tau)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")
    if l < 1:
        raise DomainError(f"need l >= 1, got {l}")
    if not 1 <= K <= MAX_SERVE_COUNT:
        raise DomainError(f"need 1 <= K <= {MAX_SERVE_COUNT}, got {K}")
    if mu <= 0 or tau <= 0:
        raise DomainError(f"need mu > 0 and tau > 0, got mu={mu}, tau={tau}")
    if not mu * tau > 0:
        raise DomainError(f"mu*tau underflows to 0 for mu={mu}, tau={tau}")

    ratio = 2.0 * l / (mu * tau)
    if not math.isfinite(ratio):
        raise DomainError(f"2*l/(mu*tau) overflows for l={l}, mu={mu}, tau={tau}")
    raw = math.sqrt(ratio)
    k_formula = int(math.floor(raw + 0.5))  # nearest integer, half away from zero
    k_star = min(max(k_formula, 1), K)

    epochs = {k: serve_epoch(l, mu, tau, k) for k in range(1, K + 1)}
    if not all(math.isfinite(v) for v in epochs.values()):
        raise DomainError(f"the serve epochs overflow for l={l}, mu={mu}, tau={tau}")
    if mu * tau >= 1:
        warnings.warn(
            f"mu*tau = {mu * tau:g} >= 1: several queues open within one "
            "population's service window; the sqrt rule is a formal minimizer only",
            stacklevel=2,
        )
    best = min(epochs.values())
    tie_tol = 1e-12 * max(1.0, abs(best))
    minimizers = [k for k, v in sorted(epochs.items()) if v - best <= tie_tol]
    if k_star not in minimizers:
        # the formula and the exhaustive search must agree; ties aside this
        # would indicate a numerical problem
        k_star = minimizers[0]
    return ServeSetResult(l=float(l), k_star=k_star, tie=len(minimizers) > 1, t_l_at_k=epochs)
