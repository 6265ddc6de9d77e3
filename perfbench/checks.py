"""Correctness checks.  None of them runs inside a timed section."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import coverpebbling as cp

from .stats import FOUR_SIGMA_ALPHA, binomial_two_sided_p
from .tracing import NullTracer

# solve_bruteforce cross-checks UNSOLVABLE verdicts up to this size
ORACLE_MAX_VERTICES = 7
ORACLE_MAX_PEBBLES = 16


@dataclass
class SolveCheck:
    """Problems found with one solve() verdict, and whether the oracle was asked."""

    problems: list = field(default_factory=list)
    oracle_checked: bool = False
    oracle_agrees: bool = False


def check_solve(g, c, result, tracer=NullTracer()) -> SolveCheck:
    """Check one verdict: certificates replay, refutations agree with the oracle.

    An undecided verdict is a failure.  A SOLVABLE verdict must carry a
    certificate that verify_certificate accepts and whose execute/apply
    replay ends with every vertex covered.  A small UNSOLVABLE verdict must
    agree with solve_bruteforce.
    """
    out = SolveCheck()
    if result.status == cp.UNDECIDED:
        out.problems.append(f"undecided after {result.nodes_expanded} nodes")
    elif result.status == cp.SOLVABLE:
        out.problems.extend(replay_problems(g, c, result.certificate, tracer))
    elif g.vertex_count <= ORACLE_MAX_VERTICES and c.total <= ORACLE_MAX_PEBBLES:
        out.oracle_checked = True
        out.oracle_agrees = not cp.solve_bruteforce(g, c)
        if not out.oracle_agrees:
            out.problems.append("UNSOLVABLE verdict, but the brute-force oracle solves it")
    return out


def replay_problems(g, c, certificate, tracer=NullTracer()) -> list:
    """Verify a certificate, execute it into moves and replay them move by move."""
    if certificate is None:
        return ["SOLVABLE verdict without a certificate"]
    with tracer.span("solvability.verify_certificate"):
        valid = cp.verify_certificate(g, c, certificate)
    if not valid:
        return ["certificate rejected by verify_certificate"]
    try:
        with tracer.span("solvability.execute_certificate"):
            sequence = cp.execute_certificate(g, c, certificate)
        with tracer.span("solvability.apply_moves"):
            final = cp.apply_moves(g, c, sequence)
    except ValueError as exc:
        return [f"certificate replay failed: {exc}"]
    if min(final.pebbles, default=1) < 1:
        return ["certificate replay leaves a vertex uncovered"]
    return []


def be_solvable_probability(n: int, t: int) -> Fraction:
    """Exact P(K_n solvable) = P(X >= 2n - t) under Bose-Einstein."""
    lo = max(0, 2 * n - t)
    lo += (t - lo) % 2  # X has the parity of t
    return sum(
        (cp.be_odd_stack_pmf(n, t, x) for x in range(lo, min(n, t) + 1, 2)),
        Fraction(0),
    )


def sweep_problems(records, window, exact=None) -> list:
    """Endpoint anchors, the crossing window and, given exact values, a 4-sigma band.

    `window` bounds crossing / n.  The first point must sit at or below
    p = 0.05 and the last at or above 0.95.  With `exact` (t -> probability),
    every p_hat must lie within 4 sigma of it; the band is the exact binomial
    tail with the 4-sigma false-alarm rate shared over the sweep's points,
    so one sweep is held to the error rate of a single 4-sigma test.
    """
    problems = []
    curve = cp.ThresholdCurve(tuple(records))
    first, last = curve.records[0], curve.records[-1]
    if first.p_hat > 0.05:
        problems.append(f"p({first.t}) = {first.p_hat} above 0.05")
    if last.p_hat < 0.95:
        problems.append(f"p({last.t}) = {last.p_hat} below 0.95")
    crossing = curve.crossing
    n = first.n
    if crossing is None or not window[0] <= crossing / n <= window[1]:
        problems.append(f"crossing {crossing} outside {window[0]}n..{window[1]}n")
    if exact is not None:
        alpha = FOUR_SIGMA_ALPHA / len(records)
        for r in records:
            p_value = binomial_two_sided_p(r.solvable_count, r.trials, float(exact[r.t]))
            if p_value < alpha:
                problems.append(
                    f"p_hat({r.t}) = {r.p_hat} vs exact {float(exact[r.t]):.6f}: "
                    f"tail probability {p_value:.3g} beyond 4 sigma")
    return problems
