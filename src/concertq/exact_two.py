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
regression-pinned in the tests, and never silently clipped.  It is all
plain float arithmetic, in numpy's operations and order, bit for bit.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import islice

from .errors import DomainError


@dataclass(frozen=True)
class TwoUserEquilibrium:
    """Closed-form strategy pair for the two-user game: ``t_first`` < 0 <
    ``t_last`` bound the common support, and the density, routing, state
    probabilities and expected cost are float methods of one time ``t``."""

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

    def density(self, t: float) -> float:
        """Arrival density: gamma (mu1 + mu2) before opening, affine after,
        zero before t_first and from t_last on (the affine part vanishes at
        t_last, where its rounded value can be a stray 1e-16)."""
        if t < self.t_first or t >= self.t_last:
            return 0.0
        if t <= 0.0:
            return self.gamma * self.rate_sum
        return ((self.gamma - 1.0) * self.rate_sum
                + self.rate_square_sum * (self.cost - self.beta * t) / (self.alpha + self.beta))

    def routed_density(self, i: int, t: float) -> float:
        """p_i(t) * density(t), the bounded inflow rate into queue i.

        After opening this is mu_i (gamma - 1) + mu_i^2 (cost - beta t) /
        (alpha + beta): exactly the inflow under which the expected queue
        length tracks the closed-form occupancy probability and the expected
        cost stays flat.  Before opening it is gamma * mu_i.
        """
        if t < self.t_first or t > self.t_last:
            return 0.0
        mu_i = self.mu1 if i == 1 else self.mu2
        if t <= 0.0:
            return self.gamma * mu_i
        return mu_i * (self.gamma - 1.0) + mu_i * mu_i * (self.cost - self.beta * t) / (self.alpha + self.beta)

    def routing(self, i: int, t: float) -> float:
        """Routing probability to queue i, routed_density / density: constant
        mu_i / (mu1 + mu2) before opening, divergent toward the right endpoint
        when the rates differ, and the rate share mu_i / (mu1 + mu2) wherever
        the density is not positive (the endpoint itself, outside the support)."""
        f = self.density(t)
        if f > 0:
            return self.routed_density(i, t) / f
        return (self.mu1 if i == 1 else self.mu2) / self.rate_sum

    def queue_occupied_prob(self, i: int, t: float) -> float:
        """P(queue i holds the other user) = expected queue length seen by
        one user.  Linear ramp before opening, then the closed form."""
        if t < self.t_first:
            return 0.0
        mu_i = self.mu1 if i == 1 else self.mu2
        if t <= 0.0:
            return self.gamma * mu_i * (t - self.t_first)
        return mu_i * (self.cost - self.beta * t) / (self.alpha + self.beta)

    def expected_cost(self, i: int, occupied: float, t: float) -> float:
        """Expected cost of arriving at time t at queue i when it holds the
        other user with probability ``occupied``:
        (alpha + beta) (occupied / mu_i - min(t, 0)) + beta t."""
        mu_i = self.mu1 if i == 1 else self.mu2
        return (self.alpha + self.beta) * (occupied / mu_i - (t if t < 0.0 else 0.0)) + self.beta * t

    def trace_times(self, points: int) -> list[float]:
        """``np.linspace(t_first, t_last, points)``: i * step + t_first with
        step = (t_last - t_first) / (points - 1), and t_last last (numpy's
        branch for a step that rounds to 0 needs a support no rates give)."""
        step = (self.t_last - self.t_first) / max(points - 1, 1)
        ts = [i * step + self.t_first for i in range(points - 1)]
        return ts + [self.t_last if points > 1 else self.t_first]

    def to_dict(self) -> dict:
        return {**asdict(self), "gamma": self.gamma, "cost": self.cost,
                "pre_opening_density": self.gamma * self.rate_sum}


@dataclass(frozen=True)
class TwoUserDiagnostics:
    """Numerical consistency report for a TwoUserEquilibrium: every residual
    as computed; the normalization residual, far from zero for the closed
    form, is a tracked regression value, not a correctness assertion."""

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
    return TwoUserEquilibrium(mu1=mu1, mu2=mu2, alpha=alpha, beta=beta, t_first=t_first, t_last=t_last)


@dataclass
class QueuePairState:
    """State of the expected-queue-length dynamics: one expected length per
    queue, each identical to the probability the queue is occupied."""

    lengths: tuple[float, float]
    rates: tuple[float, float]
    clamp_events: int = 0


def expected_queue_ode_step(state: QueuePairState, t: float, dt: float, profile_density: float,
                            routing: tuple[float, float], service_active: bool) -> QueuePairState:
    """One forward-Euler step of the two-state birth-death dynamics, the step
    of ``two_user_diagnostics``' pass: inflow to queue k is routing_k *
    density, outflow mu_k times the probability the queue is occupied (for
    two users, its expected length).  The state is clamped to [0, 1] and
    clamp events are counted rather than hidden."""
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    lengths, clamps = [], 0
    for q, mu, r in zip(state.lengths, state.rates, routing):
        x = q + (r * profile_density - (mu * q if service_active else 0.0)) * dt
        # an in-range x is its own clamp; NaN fails the test and takes min(max())
        q = x if 0.0 <= x <= 1.0 else min(max(x, 0.0), 1.0)
        lengths.append(q)
        clamps += q != x
    return QueuePairState(tuple(lengths), state.rates, state.clamp_events + clamps)


# step of the min_density and routing_sum_residual grid, or ode_dt if coarser
_COARSE_STEP = 1e-3
# largest Euler grid: 2**18 points, a bound on the diagnostics' memory
# (about 33 bytes a point; 27 MB peak RSS at the cap)
MAX_EULER_POINTS = 1 << 18


def _reduced(pick, values) -> float:
    """``pick`` (min or max) of the values, NaN if one is NaN, as in numpy."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else pick(values)


def _euler_grid(t_first: float, t_last: float, dt: float) -> list[float]:
    """``np.union1d(np.arange(t_first, t_last, dt), [0, t_last])`` up to t_last:
    arange's t_first and t_first + dt, then its fill t_first + i * delta with
    delta = (t_first + dt) - t_first, increasing, so 0 and t_last are bisected in."""
    n = math.ceil((t_last - t_first) / dt)
    delta = (t_first + dt) - t_first
    ts = [t_first + i * delta for i in range(n)]
    ts[1:2] = [t_first + dt][:n - 1]  # arange sets its second value before the fill
    for t in (0.0, t_last):
        i = bisect_left(ts, t)
        if ts[i:i + 1] != [t]:
            ts.insert(i, t)
    del ts[bisect_right(ts, t_last):]
    return ts


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

    A diagnostic that is not finite, which no artifact can hold, is refused
    with a DomainError.

    One pass over the Euler grid takes each step's inflow p_k * f, its clamped
    step and each queue's running cost range: it holds nothing per point.
    """
    if not (ode_dt > 0 and math.isfinite(ode_dt)):
        raise DomainError(f"ode_dt must be positive and finite, got {ode_dt}")
    if (eq.t_last - eq.t_first) / ode_dt + 1.0 > MAX_EULER_POINTS:
        raise DomainError(
            f"ode_dt {ode_dt:g} puts more than {MAX_EULER_POINTS} Euler points on the "
            f"support [{eq.t_first:g}, {eq.t_last:g}]; use a larger step"
        )
    pre_mass = eq.gamma * eq.rate_sum * (-eq.t_first)
    post_mass = 0.5 * (eq.density(math.nextafter(0.0, 1.0)) + eq.density(eq.t_last)) * eq.t_last
    normalization_residual = abs(pre_mass + post_mass - 1.0)

    coarse = _euler_grid(eq.t_first, eq.t_last, max(_COARSE_STEP, ode_dt))
    min_density = _reduced(min, map(eq.density, coarse))
    interior = coarse[:-1]  # every grid point but t_last
    routing_sum_residual = _reduced(max, (abs(eq.routing(1, t) + eq.routing(2, t) - 1.0) for t in interior))

    # the methods' float operations inlined: each (routed) density is level + slope * x / weight
    mu1, mu2, beta, cost, weight = eq.mu1, eq.mu2, eq.beta, eq.cost, eq.alpha + eq.beta
    share1, share2 = mu1 / eq.rate_sum, mu2 / eq.rate_sum
    pre = eq.gamma * eq.rate_sum, eq.gamma * mu1, eq.gamma * mu2
    f_level, r1_level, r2_level = ((eq.gamma - 1.0) * eq.rate_sum, mu1 * (eq.gamma - 1.0),
                                   mu2 * (eq.gamma - 1.0))
    f_slope, r1_slope, r2_slope = eq.rate_square_sum, mu1 * mu1, mu2 * mu2
    ts = _euler_grid(eq.t_first, eq.t_last, ode_dt)
    q1, q2, t = 0.0, 0.0, ts[0]
    lo1 = hi1 = lo2 = hi2 = eq.expected_cost(1, 0.0, t)  # both queues start empty: one cost
    for after in islice(ts, 1, None):
        if t <= 0.0:  # before opening the densities are constants
            f, r1, r2 = pre
        else:
            x = cost - beta * t
            f = f_level + f_slope * x / weight
            r1 = r1_level + r1_slope * x / weight
            r2 = r2_level + r2_slope * x / weight
        h = after - t
        x1 = q1 + ((r1 / f if f > 0 else share1) * f - (mu1 * q1 if t >= 0.0 else 0.0)) * h
        x2 = q2 + ((r2 / f if f > 0 else share2) * f - (mu2 * q2 if t >= 0.0 else 0.0)) * h
        q1 = x1 if 0.0 <= x1 <= 1.0 else min(max(x1, 0.0), 1.0)
        q2 = x2 if 0.0 <= x2 <= 1.0 else min(max(x2, 0.0), 1.0)
        t = after
        m = t if t < 0.0 else 0.0
        c1, c2 = weight * (q1 / mu1 - m) + beta * t, weight * (q2 / mu2 - m) + beta * t
        # a NaN cost makes the range NaN, as numpy's reductions do
        lo1, hi1 = (c1 if c1 < lo1 or c1 != c1 else lo1), (c1 if c1 > hi1 or c1 != c1 else hi1)
        lo2, hi2 = (c2 if c2 < lo2 or c2 != c2 else lo2), (c2 if c2 > hi2 or c2 != c2 else hi2)
    cost_flatness = _reduced(max, (hi1 - lo1, hi2 - lo2))
    diags = TwoUserDiagnostics(normalization_residual, min_density, cost_flatness, routing_sum_residual, ode_dt)
    for name, value in asdict(diags).items():
        if not math.isfinite(value):
            raise DomainError(f"the {name} {value!r} is not finite: the closed form overflows at these "
                              "rates and weights")
    return diags
