"""Working-precision management for cancellation-prone q-series.

Every alternating q-series in this package has terms that first grow like
q^(-m^2)-ish powers before decaying super-geometrically, so the final value
can be many orders of magnitude below the largest partial sum.  One
escalation loop serves values (adaptive_sum) and signs (certified_sign):
sum a pass while tracking the largest partial-sum magnitude, count the
digits lost to cancellation, and rerun with that many extra digits until
the surviving accuracy meets the request, or until no rounding can flip
the sign.  Reaching dps_cap without that raises PrecisionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from mpmath import mp, mpf
from mpmath.libmp import normalize


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
_LOG10_2 = math.log10(2)


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


def tracked_sum(terms: Iterable, dps: int, max_terms: int,
                min_terms: int = 4, exp: int | None = None
                ) -> tuple[mpf, mpf, int]:
    """Sum a stream of finite terms, tracking magnitudes.

    The terms are mpfs or, with ``exp``, Python ints t standing for
    t * 2^exp, all at that one scale.  An infinite or nan term raises
    ValueError.

    The package's one truncation rule, shared by the adaptive series passes
    and the open-ended lattice sums (qcore.lattice_sum): once at least
    min_terms terms are in, stop after three consecutive terms below
    max_magnitude * 10^(-dps), where max_magnitude is the largest term or
    partial sum so far; the trailing small terms are kept in the sum.

    The sum is exact: each term's mantissa is added into one Python int,
    and the result is rounded once, at the ambient precision.  Magnitudes
    are compared by binary exponent, and exactly where the exponents tie.
    Returns (value, max_magnitude, terms_used).  Must be called inside
    mp.workdps.
    """
    prec, rnd = mp._prec_rounding
    scale = 10 ** dps               # |t| <= top * 10^-dps  <=>  |t| scale <= top
    scale_bits = scale.bit_length()
    acc = 0                         # the partial sum, exactly acc * 2^acc_exp
    acc_exp = e = 0 if exp is None else exp
    top_man = top_exp = 0           # max_magnitude, exactly top_man * 2^top_exp
    top = None                      # 2^(top-1) <= max_magnitude < 2^top
    small_streak = 0
    n = 0
    for term in terms:
        if exp is None:
            sign, man, e, bc = term._mpf_
            signed = -man if sign else man
        else:
            signed = term
            man = -term if term < 0 else term
            bc = man.bit_length()
        n += 1
        if man:
            if e == acc_exp:
                acc += signed
            elif e > acc_exp:
                acc += signed << (e - acc_exp)
            else:
                acc = (acc << (acc_exp - e)) + signed
                acc_exp = e
            mag = e + bc            # 2^(mag-1) <= |term| < 2^mag
            if top is None or mag > top or (
                    mag == top and _exceeds(man, e, top_man, top_exp)):
                top_man, top_exp, top = man, e, mag
            pmag = acc_exp + acc.bit_length()
            if pmag > top or (pmag == top and _exceeds(
                    abs(acc), acc_exp, top_man, top_exp)):
                top_man, top_exp, top = abs(acc), acc_exp, pmag
            # |term| scale lies in [2^(mag+scale_bits-2), 2^(mag+scale_bits))
            small = mag + scale_bits < top or (
                mag + scale_bits - 2 < top
                and not _exceeds(man * scale, e, top_man, top_exp))
        elif bc:                    # inf and nan carry mantissa 0 too
            raise ValueError(f"series term {n} is {term}, not finite")
        else:
            small = True            # a zero term is below any cutoff
        if small and n >= min_terms:
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
        if n >= max_terms:
            raise PrecisionError(
                f"series cap of {max_terms} terms exhausted")
    value = mp.make_mpf(raw_mpf(acc, acc_exp, prec, rnd))
    max_mag = mp.make_mpf(raw_mpf(top_man, top_exp, prec, rnd))
    return value, max_mag, n


def _exceeds(a_man: int, a_exp: int, b_man: int, b_exp: int) -> bool:
    """a_man 2^a_exp > b_man 2^b_exp, for mantissas >= 0."""
    if a_exp >= b_exp:
        return a_man << (a_exp - b_exp) > b_man
    return a_man > b_man << (b_exp - a_exp)


def raw_mpf(man: int, exp: int, prec: int, rnd: str) -> tuple:
    """The normalised raw mpf (an mpf's _mpf_ tuple) of man * 2^exp, for a
    signed integer man, rounded once to prec bits in direction rnd."""
    if man < 0:
        return normalize(1, -man, exp, man.bit_length(), prec, rnd)
    return normalize(0, man, exp, man.bit_length(), prec, rnd)


def _lost_digits(max_mag: mpf, value: mpf) -> int:
    """ceil(log10(max_mag / |value|)) for nonzero mpfs, exactly: the least
    integer c with max_mag <= |value| * 10^c."""
    _, a_man, a_exp, a_bc = max_mag._mpf_
    _, b_man, b_exp, b_bc = value._mpf_
    # log2 of the ratio exceeds bits - 1, so c >= (bits - 1) log10(2); one
    # below that float estimate is a safe start
    bits = a_exp + a_bc - b_exp - b_bc
    c = math.floor((bits - 1) * _LOG10_2) - 1
    while True:
        if c >= 0:
            above = _exceeds(a_man, a_exp, b_man * 10 ** c, b_exp)
        else:
            above = _exceeds(a_man * 10 ** -c, a_exp, b_man, b_exp)
        if not above:
            return c
        c += 1


def _escalate(make_terms: Callable, dps: int, cap: int,
              need: Callable[[int, int], float], min_terms: int,
              what: str) -> tuple[mpf, mpf, int, int]:
    """The one escalation loop of adaptive_sum and certified_sign: a pass of
    n terms at ``dps`` that lost ``lost`` digits (an exact 0 loses all dps)
    is accepted once dps >= need(lost, n), else rerun at
    min(max(ceil(need) + 5, ceil(1.5 dps)), cap).  Returns (value,
    max_magnitude, terms_used, dps); raises PrecisionError at ``cap``."""
    while True:
        with mp.workdps(dps + EXTRA_GUARD):
            made = make_terms()
            terms, exp = made if isinstance(made, tuple) else (made, None)
            value, max_mag, n = tracked_sum(
                terms, dps, MAX_TERMS, min_terms=min_terms, exp=exp)
        lost = dps if value == 0 else _lost_digits(max_mag, value)
        want = need(lost, n)
        if dps >= want:
            return value, max_mag, n, dps
        if dps >= cap:
            raise PrecisionError(f"no certified {what} within {cap} digits")
        dps = min(max(math.ceil(want) + 5,
                      math.ceil(dps * ESCALATION_FACTOR)), cap)


def adaptive_sum(make_terms: Callable[[], Iterable | tuple[Iterable, int]],
                 ctx: PrecisionContext, *, min_terms: int = 4) -> EvalResult:
    """Evaluate a series with automatic precision escalation.

    ``make_terms`` is called inside each mp.workdps block and returns the
    series terms computed at the ambient precision: an iterable of mpfs, or
    a pair (ints, exp) of Python ints at the one scale 2^exp (tracked_sum).
    A pass is accepted once its dps reaches the requested digits plus the
    digits lost to cancellation (_lost_digits) plus 5; the first runs at
    digits + EXTRA_GUARD, the least dps that accepts 5 lost digits.
    """
    d = ctx.digits
    return EvalResult(*_escalate(make_terms, d + EXTRA_GUARD, ctx.dps_cap,
                                 lambda lost, n: d + lost + 5, min_terms,
                                 f"value to {d} digits"))


def certified_sign(make_terms: Callable[[], tuple[Iterable, int]],
                   dps: int, cap: int) -> tuple[int, int, mpf]:
    """Sign of a series of (ints, exp) passes as for adaptive_sum, the dps
    of the pass that certified it, and that pass's sum: from ``dps`` on, a
    pass of n terms is accepted once dps >= lost + log10(2 n^2) + EXTRA_GUARD,
    so that rounding the argument or the steps cannot flip it."""
    value, _, _, dps = _escalate(
        make_terms, dps, cap,
        lambda lost, n: lost + math.log10(2 * n * n) + EXTRA_GUARD, 2, "sign")
    return (1 if value > 0 else -1), dps, value
