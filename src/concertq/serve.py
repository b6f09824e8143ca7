"""The serve-count optimizer of the equal-rate, equally spaced case, on plain
floats: ``serve-count`` loads neither the scenario model nor numpy."""

import math
import warnings
from dataclasses import asdict, dataclass

from .errors import DomainError

# largest serve count searched: one epoch per count is held and written
MAX_SERVE_COUNT = 1 << 16


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
