"""The exact two-user, two-queue arrival game.

Closed-form symmetric equilibrium for two strategic users choosing arrival
times and a queue, both queues opening at time zero.  The mixed-strategy
density is uniform before opening and affine after, hitting zero at the last
arrival time; routing splits proportionally to the service rates with a
time-dependent correction when the rates differ.

Sign convention: the first-arrival epoch is negative and stored as
``t_first``; formulas that need the positive magnitude (the constant
equilibrium cost is alpha times that magnitude) use ``-t_first``.  This is
the convention under which the expected cost is continuous at the opening
instant and the expected-queue-length dynamics reproduce the closed-form
state probabilities.

The closed form is internally consistent except for normalization: the
density does not integrate to one for general parameters (at mu1 = mu2 = 1,
alpha = beta = 1 the integral is exactly 2).  This module therefore reports
diagnostics instead of asserting equilibrium: residuals are computed,
regression-pinned in the tests, and never silently clipped.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import DomainError, sorted_unique


@dataclass(frozen=True)
class TwoUserEquilibrium:
    """Closed-form strategy pair for the two-user game.

    ``t_first`` < 0 < ``t_last`` bound the common support; ``density``,
    ``routing`` and state probabilities are exposed as vectorized methods,
    which return arrays (0-d for a scalar ``t``).
    """

    mu1: float
    mu2: float
    alpha: float
    beta: float
    t_first: float
    t_last: float

    @property
    def gamma(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def rate_sum(self) -> float:
        return self.mu1 + self.mu2

    @property
    def rate_square_sum(self) -> float:
        return self.mu1 * self.mu1 + self.mu2 * self.mu2

    @property
    def cost(self) -> float:
        """Constant expected cost on the support: alpha times |t_first|."""
        return self.alpha * (-self.t_first)

    def density(self, t) -> np.ndarray:
        """Arrival density: gamma (mu1 + mu2) before opening, affine after,
        zero before t_first and from t_last on (the affine part vanishes at
        t_last, where its rounded value can be a stray 1e-16)."""
        tt = np.asarray(t, dtype=float)
        pre = self.gamma * self.rate_sum
        post = (self.gamma - 1.0) * self.rate_sum + self.rate_square_sum * (
            self.cost - self.beta * tt
        ) / (self.alpha + self.beta)
        out = np.where(tt <= 0.0, pre, post)
        return np.where((tt < self.t_first) | (tt >= self.t_last), 0.0, out)

    def routed_density(self, i: int, t) -> np.ndarray:
        """p_i(t) * density(t), the bounded inflow rate into queue i.

        After opening this is mu_i (gamma - 1) + mu_i^2 (cost - beta t) /
        (alpha + beta): exactly the inflow under which the expected queue
        length tracks the closed-form occupancy probability and the expected
        cost stays flat.  Before opening it is gamma * mu_i.
        """
        tt = np.asarray(t, dtype=float)
        mu_i = self.mu1 if i == 1 else self.mu2
        pre = self.gamma * mu_i
        post = mu_i * (self.gamma - 1.0) + mu_i * mu_i * (
            self.cost - self.beta * tt
        ) / (self.alpha + self.beta)
        out = np.where(tt <= 0.0, pre, post)
        return np.where((tt < self.t_first) | (tt > self.t_last), 0.0, out)

    def routing(self, i: int, t) -> np.ndarray:
        """Routing probability to queue i, routed_density / density: constant
        mu_i / (mu1 + mu2) before opening, divergent toward the right endpoint
        when the rates differ, and the rate share mu_i / (mu1 + mu2) wherever
        the density is not positive (the endpoint itself, outside the support)."""
        tt = np.asarray(t, dtype=float)
        f = self.density(tt)
        share = (self.mu1 if i == 1 else self.mu2) / self.rate_sum
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(f > 0, self.routed_density(i, tt) / f, share)

    def queue_occupied_prob(self, i: int, t) -> np.ndarray:
        """P(queue i holds the other user) = expected queue length seen by
        one user.  Linear ramp before opening, then the closed form."""
        tt = np.asarray(t, dtype=float)
        mu_i = self.mu1 if i == 1 else self.mu2
        pre = self.gamma * mu_i * (tt - self.t_first)
        post = mu_i * (self.cost - self.beta * tt) / (self.alpha + self.beta)
        out = np.where(tt <= 0.0, pre, post)
        return np.where(tt < self.t_first, 0.0, out)

    def expected_cost(self, occupied, t) -> np.ndarray:
        """Expected cost of arriving at time t at each queue:
        (alpha + beta) (occupied / mu - min(t, 0)) + beta t, where
        ``occupied[..., k]`` is the probability that queue k + 1 holds the
        other user and t broadcasts against the leading axes."""
        tt = np.asarray(t, dtype=float)[..., None]
        rates = np.array([self.mu1, self.mu2])
        wait = np.asarray(occupied, dtype=float) / rates - np.minimum(tt, 0.0)
        return (self.alpha + self.beta) * wait + self.beta * tt

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "gamma": self.gamma,
            "cost": self.cost,
            "pre_opening_density": self.gamma * self.rate_sum,
        }


@dataclass(frozen=True)
class TwoUserDiagnostics:
    """Numerical consistency report for a TwoUserEquilibrium.

    All residuals are reported as computed; in particular the normalization
    residual is known to be far from zero for the closed form and is tracked
    as a regression value, not a correctness assertion.
    """

    normalization_residual: float
    min_density: float
    cost_flatness: float
    routing_sum_residual: float
    ode_dt: float

    def to_dict(self) -> dict:
        return asdict(self)


def solve_two_user(mu1: float, mu2: float, alpha: float, beta: float) -> TwoUserEquilibrium:
    """Evaluate the closed-form two-user equilibrium.

    No equilibrium property is asserted here; run ``two_user_diagnostics``
    to quantify the internal consistency of the formulas.  Inputs whose
    support is not finite around 0 in floating point raise DomainError.
    """
    for name, v in (("mu1", mu1), ("mu2", mu2), ("alpha", alpha), ("beta", beta)):
        if not (v > 0 and math.isfinite(v)):
            raise DomainError(f"{name} must be positive and finite, got {v}")
    square_sum = mu1 * mu1 + mu2 * mu2
    if square_sum == 0.0:
        raise DomainError(f"the square sum {mu1:g}^2 + {mu2:g}^2 of these rates rounds to 0: "
                          "the closed form underflows")
    ratio = (mu1 + mu2) / square_sum
    r = beta / alpha
    t_first = -ratio * math.sqrt((2.0 + r) * r)
    t_last = ratio * (math.sqrt(2.0 * alpha / beta + 1.0) - 1.0)
    if not -math.inf < t_first < 0.0 < t_last < math.inf:
        raise DomainError(f"the support [{t_first:g}, {t_last:g}] of these rates and weights is "
                          "not a finite interval around 0: the closed form underflows or overflows")
    return TwoUserEquilibrium(
        mu1=mu1, mu2=mu2, alpha=alpha, beta=beta, t_first=t_first, t_last=t_last
    )


@dataclass
class QueuePairState:
    """State of the expected-queue-length dynamics: one expected length per
    queue, each identical to the probability the queue is occupied."""

    lengths: np.ndarray
    rates: tuple[float, float]
    clamp_events: int = 0


def _euler_path(lengths, rates, inflow, dt, active) -> tuple[np.ndarray, int]:
    """Forward Euler for the expected queue lengths, clamped to [0, 1].

    Step j moves queue k by (inflow[j][k] - outflow) * dt[j], where the
    outflow is rates[k] times the queue's length when active[j] and zero
    otherwise; each clamp is counted.  Returns the path (the initial
    ``lengths`` first) and the clamp count.  The arguments are Python floats
    and lists, and the two queues are scalars of the loop: per-step numpy
    calls, or per-step lists, cost far more than the arithmetic.
    """
    q1, q2 = lengths
    mu1, mu2 = rates
    path = [(q1, q2)]
    clamp_events = 0
    for (a1, a2), h, on in zip(inflow, dt, active):
        x1 = q1 + (a1 - (mu1 * q1 if on else 0.0)) * h
        x2 = q2 + (a2 - (mu2 * q2 if on else 0.0)) * h
        # an in-range x is its own clamp; NaN fails the test and takes min(max())
        q1 = x1 if 0.0 <= x1 <= 1.0 else min(max(x1, 0.0), 1.0)
        q2 = x2 if 0.0 <= x2 <= 1.0 else min(max(x2, 0.0), 1.0)
        clamp_events += (q1 != x1) + (q2 != x2)
        path.append((q1, q2))
    return np.array(path), clamp_events


def expected_queue_ode_step(
    state: QueuePairState,
    t: float,
    dt: float,
    profile_density: float,
    routing: tuple[float, float],
    service_active: bool,
) -> QueuePairState:
    """One forward-Euler step of the two-state birth-death dynamics.

    Inflow to queue k is routing_k * density; outflow is mu_k times the
    probability the queue is occupied, which for two users equals the
    expected length itself.  The state is clamped to [0, 1] and clamp events
    are counted rather than hidden.
    """
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    inflow = [[r * profile_density for r in routing]]
    lengths = np.asarray(state.lengths, dtype=float).tolist()
    path, events = _euler_path(lengths, state.rates, inflow, [dt], [service_active])
    return QueuePairState(path[-1], state.rates, state.clamp_events + events)


# step of the min_density and routing_sum_residual grid, or ode_dt if coarser
_COARSE_STEP = 1e-3
# largest Euler grid: 2**18 points, a bound on the diagnostics' memory
# (about 140 MB peak RSS at the cap)
MAX_EULER_POINTS = 1 << 18


def _euler_grid(t_first: float, t_last: float, dt: float) -> np.ndarray:
    ts = np.arange(t_first, t_last, dt)
    ts = sorted_unique(ts, [0.0, t_last])
    return ts[(ts >= t_first) & (ts <= t_last)]


def two_user_diagnostics(eq: TwoUserEquilibrium, ode_dt: float = 1e-4) -> TwoUserDiagnostics:
    """Quantify the closed form's internal consistency.

    * normalization_residual: |integral of the density - 1| (exact segment
      integrals: the density is constant then affine);
    * min_density: infimum of the density over the support, on a grid of
      step max(1e-3, ``ode_dt``), so at most ``MAX_EULER_POINTS`` points;
    * cost_flatness: range of the expected cost along the support, with the
      expected queue lengths obtained by integrating the dynamics under the
      closed-form strategy (forward Euler, step ``ode_dt``, which must be
      positive and finite and put at most ``MAX_EULER_POINTS`` points on
      the support);
    * routing_sum_residual: sup |p_1 + p_2 - 1| over the support interior, on that grid.
    """
    if not (ode_dt > 0 and math.isfinite(ode_dt)):
        raise DomainError(f"ode_dt must be positive and finite, got {ode_dt}")
    if (eq.t_last - eq.t_first) / ode_dt + 1.0 > MAX_EULER_POINTS:
        raise DomainError(
            f"ode_dt {ode_dt:g} puts more than {MAX_EULER_POINTS} Euler points on the "
            f"support [{eq.t_first:g}, {eq.t_last:g}]; use a larger step"
        )
    pre_mass = eq.gamma * eq.rate_sum * (-eq.t_first)
    f0 = float(eq.density(np.nextafter(0.0, 1.0)))
    fT = float(eq.density(eq.t_last))
    post_mass = 0.5 * (f0 + fT) * eq.t_last
    normalization_residual = abs(pre_mass + post_mass - 1.0)

    coarse = _euler_grid(eq.t_first, eq.t_last, max(_COARSE_STEP, ode_dt))
    interior = coarse[coarse < eq.t_last]
    min_density = float(np.min(eq.density(coarse)))

    p1 = eq.routing(1, interior)
    p2 = eq.routing(2, interior)
    routing_sum_residual = float(np.max(np.abs(p1 + p2 - 1.0)))

    ts = _euler_grid(eq.t_first, eq.t_last, ode_dt)
    starts = ts[:-1]
    routing = np.column_stack((eq.routing(1, starts), eq.routing(2, starts)))
    inflow = routing * eq.density(starts)[:, None]
    path, _ = _euler_path(
        [0.0, 0.0], (eq.mu1, eq.mu2), inflow.tolist(), np.diff(ts).tolist(), (starts >= 0.0).tolist()
    )
    costs = eq.expected_cost(path, ts)
    cost_flatness = float(np.max(costs.max(axis=0) - costs.min(axis=0)))

    return TwoUserDiagnostics(
        normalization_residual=normalization_residual,
        min_density=min_density,
        cost_flatness=cost_flatness,
        routing_sum_residual=routing_sum_residual,
        ode_dt=ode_dt,
    )
