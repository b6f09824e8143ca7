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
route, the equal-rate / equally-spaced special cases included (their integer
serve count is ``serve.optimal_serve_count``).  Everything here is plain
float arithmetic, its sums numpy's pairwise summation
(``fluid.pairwise_sum``), so ``poa`` loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain

from . import fluid
from .equilibrium import SolverError, arrival_epochs, solve_multi
from .model import (
    DEFAULT_TOL, ArrivalProfile, DomainError, Options, PopulationSpec, QueueSpec, Scenario,
    pruned_scenario, service_windows,
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


def social_cost(s: Scenario, profile: ArrivalProfile) -> float:
    """Exact integral sum_{j,k} of cost_{j,k}(t) dF_{j,k}(t).

    The cost curves are piecewise linear and the densities piecewise
    constant, so every term is a closed-form segment integral.  Every
    segment is integrated on its queue's wait path, a row of one fluid
    table: every row's ends are breakpoints of that path, so the integral
    is the trapezoids between them, summed as ``PiecewisePath.integral``
    sums them (numpy's pairwise sum).  The terms are added population by
    population, queue by queue, in profile order.
    """
    if not len(profile):
        return 0.0
    table = fluid.fluid_table(profile, s.queues)
    times, wait, density = table.times.tolist(), table.wait.tolist(), profile.columns[4]
    terms = [[] for _ in s.populations]
    for r, j, first, last in zip(*table.support_rows(profile, s.populations)):
        pop, t = s.populations[j], times[first:last + 1]
        costs = fluid.arrival_costs(pop.weight, pop.beta, t, wait[first:last + 1])
        trapezoids = [0.5 * (c1 + c0) * (t1 - t0) for t0, t1, c0, c1 in zip(t, t[1:], costs, costs[1:])]
        terms[j].append(density[r] * fluid.pairwise_sum(trapezoids))
    total = 0.0
    for term in chain.from_iterable(terms):
        total += term
    if not math.isfinite(total):
        raise DomainError(f"social cost is {total!r}: the scenario's times or rates overflow")
    return total


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
    return ArrivalProfile(rows), cost


def poa_closed_form(s: Scenario) -> float:
    """Single-population price of anarchy in closed form.

    eta = 2 (1 + sum mu_k t_k) / (1 + sum_{k,l} mu_k mu_l t_l (t_k - t_l)
          + 2 sum mu_k t_k), with start times t_k measured from the first
    opening and unit total mass; each sum is numpy's pairwise sum, over k
    and over (k, l) in row order.  Raises DomainError if a sum or eta is
    not finite.
    """
    mt = fluid.pairwise_sum([q.mu * q.t_start for q in s.queues])
    cross = fluid.pairwise_sum([a.mu * b.mu * b.t_start * (a.t_start - b.t_start)
                                for a in s.queues for b in s.queues])
    eta = 2.0 * (1.0 + mt) / (1.0 + cross + 2.0 * mt)
    if not all(map(math.isfinite, (mt, cross, eta))):
        raise DomainError(f"the closed-form price of anarchy is {eta!r}: the scenario's scale overflows")
    return eta


def poa_single(s: Scenario) -> PoaReport:
    """Price of anarchy for a single population: ``poa_multi`` after the N
    check.  Here eta lies in (1, 2]."""
    if s.n_populations != 1:
        raise SolverError(f"single-population report got N={s.n_populations}")
    return poa_multi(s)


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
    try:
        eta = j_eq / sum(
            b * (mu / (3.0 * tau) * (2.0 * tau / mu) ** 1.5 * (cube(l) - cube(l - 1)) - 0.5 * tau)
            for l, b in enumerate(betas_desc, start=1)
        )
    except (OverflowError, ZeroDivisionError):  # ** overflows, or the optimal cost underflows
        eta = math.nan
    if not math.isfinite(eta):
        raise DomainError(f"the equal-rate closed-form price of anarchy is {eta!r}: the scenario's "
                          "scale overflows")
    return eta


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
    """Price of anarchy for one or more populations.

    ``j_opt`` comes from the optimal profile.  With one population ``j_eq``
    is the social-cost integral of the solved equilibrium and
    ``closed_form_eta`` the closed form (unit mass only) over the queues
    that open.  With several, ``j_eq`` sums each population's constant
    equilibrium cost times its mass (the integral is kept as a check), and
    on equal-rate, equally-spaced scenarios with unit masses the relaxed
    closed form is evaluated alongside as ``closed_form_eta``; it is an
    approximation by construction.  The bound eta <= 2 is reported, not
    asserted: it holds for one population only.
    """
    s, _ = pruned_scenario(s)  # the closed forms read every queue of s
    pops = s.populations
    single = len(pops) == 1

    eq = solve_multi(s)
    j_eq_integral = social_cost(s, eq.profile)
    j_eq = j_eq_integral if single else sum(eq.equilibrium_costs[p.id] * p.mass for p in pops)
    opt_profile, j_opt = optimal_profile(s)
    if not (0.0 < j_eq < math.inf and 0.0 < j_opt < math.inf and 0.0 < j_eq / j_opt < math.inf):
        raise DomainError(f"the price of anarchy needs finite positive j_eq, j_opt and j_eq / j_opt, got "
                          f"j_eq={j_eq!r}, j_opt={j_opt!r}: a cost or the ratio underflows or overflows")
    eta = j_eq / j_opt

    closed = None
    unit_mass = abs(pops[0].mass - 1.0) <= 1e-12
    if single:
        pop = pops[0]
        if unit_mass:
            closed = poa_closed_form(s)
        details = {
            "terminal_time": eq.terminal_time,
            "equilibrium_cost": eq.equilibrium_costs[pop.id],
            "j_eq_closed_form": pop.beta * eq.terminal_time * pop.mass,
        }
    else:
        notes, spacing = [], _equal_rate_spacing(s)
        if len({p.mass for p in pops}) > 1:
            notes.append(
                "closed forms skipped: populations have unequal masses, so the "
                "decreasing-beta reordering does not preserve the service windows"
            )
        elif unit_mass and spacing is not None:
            closed = equal_rate_multi_eta(s, *spacing)
        # the optimal integral is filled in last, after the closed form; its key keeps its place
        details = {
            "equilibrium_costs": {str(p.id): eq.equilibrium_costs[p.id] for p in pops},
            "j_eq_integral_check": j_eq_integral,
            "j_opt_integral_check": None,
            "notes": notes,
        }
    details["j_opt_integral_check"] = social_cost(s, opt_profile)
    return PoaReport(
        j_eq=j_eq,
        j_opt=j_opt,
        eta=eta,
        closed_form_eta=closed,
        bound_satisfied=eta <= 2.0 + s.options.tol,
        details=details,
    )
