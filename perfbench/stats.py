"""Summary statistics shared by every workload."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples that lie beyond the reported tail

# two-sided probability that a normal deviate lies beyond 4 sigma
FOUR_SIGMA_ALPHA = math.erfc(4.0 / math.sqrt(2.0))


def tail(values) -> tuple:
    """The highest percentile of values with TAIL_BEYOND samples beyond it.

    Returns (value, percentile): the value at nearest rank n - TAIL_BEYOND.
    Raises ValueError when there are not more than TAIL_BEYOND values.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"{len(ordered)} samples leave none with {TAIL_BEYOND} beyond it")
    return ordered[rank - 1], 100 * rank / len(ordered)


def _binomial_pmf(k: int, trials: int, p: float) -> float:
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == trials else 0.0
    log = (math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
           + k * math.log(p) + (trials - k) * math.log1p(-p))
    return math.exp(log)


def binomial_two_sided_p(k: int, trials: int, p: float) -> float:
    """Exact two-sided tail probability of k successes in `trials` draws at rate p.

    Twice the smaller of P(K <= k) and P(K >= k), capped at 1.  Unlike a
    normal band, this stays valid when p is close to 0 or 1.
    """
    pmf = [_binomial_pmf(i, trials, p) for i in range(trials + 1)]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return min(1.0, 2.0 * min(lower, upper))
