"""Working-precision management for cancellation-prone q-series.

Every alternating q-series in this package has terms that first grow like
q^(-m^2)-ish powers before decaying super-geometrically, so the final value
can be many orders of magnitude below the largest partial sum.  The policy
here is: sum once at the requested precision while tracking the largest
partial-sum magnitude, measure how many digits were lost to cancellation,
and re-run with that many extra digits until the surviving accuracy meets
the request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from mpmath import mp, mpf


class PrecisionError(ArithmeticError):
    """Adaptive escalation could not reach the requested accuracy."""


class DivergenceError(ValueError):
    """Parameters outside the convergence region (e.g. |q| >= 1)."""


# hard cap on the terms of any series, product or lattice sum
MAX_TERMS = 200_000
# least precision growth factor of one escalation step
ESCALATION_FACTOR = 1.5
# guard digits carried above the accuracy target of a summation pass
EXTRA_GUARD = 10


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision shared by all evaluations: digits >= 30 decimal."""

    digits: int = 120

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError(f"digits must be >= 30, got {self.digits}")

    @property
    def series_tol(self) -> mpf:
        """Relative truncation tolerance 10^-(digits+10), held at 30 dps."""
        with mp.workdps(30):
            return mpf(10) ** (-(self.digits + 10))

    def workdps(self, extra: int = 0):
        """Context manager setting mpmath precision to digits + extra."""
        return mp.workdps(self.digits + extra)

    def with_digits(self, digits: int) -> "PrecisionContext":
        return PrecisionContext(digits)

    @property
    def dps_cap(self) -> int:
        """Upper limit for escalated working precision."""
        return max(20 * self.digits, self.digits + 2000)


@dataclass
class EvalResult:
    """Value of a series evaluation plus its cancellation accounting."""

    value: mpf
    max_partial_magnitude: mpf
    terms_used: int
    precision_used: int

    @property
    def cancellation_ratio(self) -> mpf:
        """Largest partial-sum magnitude over |value| (inf when value = 0)."""
        if self.value == 0:
            return mp.inf
        return self.max_partial_magnitude / abs(self.value)


def tracked_sum(terms: Iterable, dps: int, max_terms: int,
                min_terms: int = 4) -> tuple[mpf, mpf, int]:
    """Sum a term stream at the ambient precision, tracking magnitudes.

    The package's one truncation rule, shared by the adaptive series passes
    and the open-ended lattice sums (qcore.lattice_sum): once at least
    min_terms terms are in, stop after three consecutive terms below
    max_magnitude * 10^(-dps), where max_magnitude is the largest term or
    partial sum so far; the trailing small terms are kept in the sum.
    Returns (value, max_magnitude, terms_used).  Must be called inside
    mp.workdps.
    """
    total = mpf(0)
    max_mag = mpf(0)
    cutoff_scale = mpf(10) ** (-dps)
    small_streak = 0
    n = 0
    for term in terms:
        total += term
        n += 1
        mag = abs(term)
        if mag > max_mag:
            max_mag = mag
        pmag = abs(total)
        if pmag > max_mag:
            max_mag = pmag
        if n >= min_terms and mag <= max_mag * cutoff_scale:
            small_streak += 1
            if small_streak >= 3:
                return total, max_mag, n
        else:
            small_streak = 0
        if n >= max_terms:
            raise PrecisionError(
                f"series cap of {max_terms} terms exhausted")
    return total, max_mag, n


def adaptive_sum(make_terms: Callable[[], Iterable], ctx: PrecisionContext,
                 *, min_terms: int = 4) -> EvalResult:
    """Evaluate a series with automatic precision escalation.

    ``make_terms`` is called inside each mp.workdps block and must yield the
    series terms computed at the ambient precision.  The run is accepted once
    the working precision exceeds the requested digits plus the digits lost
    to cancellation (largest partial over final value).
    """
    dps = ctx.digits
    while True:
        with mp.workdps(dps + EXTRA_GUARD):
            value, max_mag, n = tracked_sum(
                make_terms(), dps, MAX_TERMS, min_terms=min_terms)
        if max_mag == 0:
            return EvalResult(value, max_mag, n, dps)
        if value == 0:
            lost = mp.inf
        else:
            with mp.workdps(30):
                lost = mp.log10(max_mag / abs(value))
        if lost != mp.inf and dps >= ctx.digits + lost + 5:
            return EvalResult(value, max_mag, n, dps)
        if dps >= ctx.dps_cap:
            # Value is genuinely zero to every precision we allow; report
            # it with the accounting intact rather than looping forever.
            return EvalResult(value, max_mag, n, dps)
        if lost == mp.inf:
            next_dps = math.ceil(dps * ESCALATION_FACTOR)
        else:
            next_dps = max(int(mp.ceil(ctx.digits + lost)) + EXTRA_GUARD,
                           math.ceil(dps * ESCALATION_FACTOR))
        dps = min(next_dps, ctx.dps_cap)
