"""q-arithmetic core: q-shifted factorials, the Thomae q-integral on [0,1],
and the L_q^2[0,1] inner product.

The q-integral of f over [0,1] is the lattice sum (1-q) * sum_k f(q^k) q^k,
so a function only matters on the geometric lattice {q^k}.  Every such sum
in the package goes through lattice_sum: a LatticeFunction, which captures
exactly that support with an explicit truncation, is summed in full over
its samples; an analytic integrand is summed over the open-ended lattice
under the package's one truncation rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

from mpmath import mp, mpf

from .precision import (MAX_TERMS, DivergenceError, PrecisionContext,
                        PrecisionError, tracked_sum)

Numeric = str | float | int | mpf


class BaseMismatchError(ValueError):
    """Two lattice quantities were combined over different bases."""


def _as_mp(x: Numeric) -> mpf:
    """Convert to mpf at the ambient precision (strings re-parsed exactly)."""
    return mp.mpf(x)


@dataclass(frozen=True)
class QParams:
    """Base q in (0,1) and order nu > -1, shared by all evaluations."""

    q: Numeric
    nu: Numeric

    def __post_init__(self):
        with mp.workdps(50):
            qv = _as_mp(self.q)
            nuv = _as_mp(self.nu)
            if not (0 < qv < 1):
                raise ValueError(f"q must satisfy 0 < q < 1, got {self.q}")
            if not (nuv > -1 and mp.isfinite(nuv)):
                raise ValueError(
                    f"nu must be finite and satisfy nu > -1, got {self.nu}")

    def q_mp(self) -> mpf:
        return _as_mp(self.q)

    def nu_mp(self) -> mpf:
        return _as_mp(self.nu)


@dataclass(frozen=True)
class LatticeFunction:
    """A function known on the q-lattice {q^j : j = 0..N-1}; zero beyond N."""

    values: tuple
    base: Numeric

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("LatticeFunction needs at least one sample")
        with mp.workdps(50):
            b = _as_mp(self.base)
            if not (0 < b < 1):
                raise ValueError(f"base must be in (0,1), got {self.base}")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def truncation(self) -> int:
        return len(self.values)

    def value(self, j: int) -> mpf:
        if 0 <= j < len(self.values):
            return _as_mp(self.values[j])
        return mpf(0)

    def base_mp(self) -> mpf:
        return _as_mp(self.base)

    def to_json(self, digits: int = 50) -> str:
        with mp.workdps(digits + 10):
            payload = {
                "q": mp.nstr(self.base_mp(), digits),
                "N": self.truncation,
                "values": [mp.nstr(self.value(j), digits)
                           for j in range(self.truncation)],
            }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "LatticeFunction":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "q" not in payload \
                or not isinstance(payload.get("values"), list):
            raise ValueError("lattice JSON must be an object with a base "
                             "\"q\" and a list of \"values\"")
        values = tuple(payload["values"])
        with mp.workdps(50):
            if not all(isinstance(x, (str, int, float))
                       and not isinstance(x, bool) and mp.isfinite(_as_mp(x))
                       for x in (payload["q"], *values)):
                raise ValueError("lattice JSON base \"q\" and every sample "
                                 "must be a finite number or numeric string")
        if payload.get("N") is not None and payload["N"] != len(values):
            raise ValueError("declared N does not match number of samples")
        return cls(values=values, base=payload["q"])


def same_base(a: LatticeFunction | Numeric,
              b: LatticeFunction | Numeric) -> bool:
    """Whether two bases agree to a relative 1e-30."""
    with mp.workdps(50):
        av = a.base_mp() if isinstance(a, LatticeFunction) else _as_mp(a)
        bv = b.base_mp() if isinstance(b, LatticeFunction) else _as_mp(b)
        return abs(av - bv) <= 1e-30 * abs(av)


# most products held by _POCH_CACHE; the oldest are dropped first
POCH_CACHE_ENTRIES = 512
# (a, q, precision) -> (a;q)_inf, oldest first
_POCH_CACHE: dict = {}


def qpochhammer_infinite(a: Numeric, q: Numeric,
                         ctx: PrecisionContext) -> mpf:
    """(a;q)_inf, truncated when |a q^n| falls below series_tol.

    The dropped tail satisfies |log prod_{i>=n}(1-a q^i)| <= ~|a| q^n/(1-q),
    so the truncation criterion bounds the relative error by series_tol/(1-q).
    Products are memoised per (a, q, precision), at most POCH_CACHE_ENTRIES
    of them.
    """
    with ctx.workdps(10):
        av = _as_mp(a)
        qv = _as_mp(q)
        if not abs(qv) < 1:
            raise DivergenceError(f"(a;q)_inf diverges for |q| >= 1, q={q}")
        key = (av._mpf_, qv._mpf_, mp.prec)
        hit = _POCH_CACHE.get(key)
        if hit is not None:
            return hit
        tol = mpf(ctx.series_tol)
        prod = mpf(1)
        aq = av
        n = 0
        while abs(aq) >= tol:
            prod *= (1 - aq)
            aq *= qv
            n += 1
            if n > MAX_TERMS:
                raise PrecisionError("q-Pochhammer product cap exhausted")
        _POCH_CACHE[key] = prod
        while len(_POCH_CACHE) > POCH_CACHE_ENTRIES:
            del _POCH_CACHE[next(iter(_POCH_CACHE))]
        return prod


def qpochhammer_multi(a_list: Sequence[Numeric], q: Numeric,
                      ctx: PrecisionContext) -> mpf:
    """(a_1, ..., a_r; q)_inf as the product of the single-argument symbols."""
    with ctx.workdps(10):
        prod = mpf(1)
        for a in a_list:
            prod *= qpochhammer_infinite(a, q, ctx)
        return prod


def lattice_sum(term: Callable[[int, mpf], mpf], q: mpf,
                ctx: PrecisionContext, min_terms: int = 0,
                n: int | None = None) -> mpf:
    """(1-q) * sum_j term(j, q^j) over the lattice.

    With n, the sum runs over j < n in full, zero terms included.  Without
    it, the lattice is open-ended and the sum is truncated by tracked_sum's
    rule at 10^-(digits+10) relative to the largest term or partial sum,
    never before min_terms terms (counted from 1).  Call inside
    ctx.workdps(10).
    """
    def terms():
        t = mpf(1)
        j = 0
        while n is None or j < n:
            yield term(j, t)
            j += 1
            t *= q

    floor, cap = (min_terms, MAX_TERMS) if n is None else (n, n + 1)
    total, _, _ = tracked_sum(terms(), ctx.digits + 10, cap, floor)
    return (1 - q) * total


def qintegral_01(f: LatticeFunction | Callable, ctx: PrecisionContext,
                 q: Numeric | None = None) -> mpf:
    """Thomae q-integral of f over [0,1].

    A LatticeFunction is integrated exactly as a finite sum.  A callable is
    treated as an analytic integrand and summed over the open-ended lattice
    with the truncation policy of the context; the base q must be supplied.
    """
    if isinstance(f, LatticeFunction):
        if q is not None and not same_base(f, q):
            raise BaseMismatchError(
                f"lattice base {f.base} != integration base {q}")
        with ctx.workdps(10):
            return lattice_sum(lambda j, t: f.value(j) * t, f.base_mp(), ctx,
                               n=f.truncation)
    if q is None:
        raise ValueError("analytic integrands require the base q")
    with ctx.workdps(10):
        return lattice_sum(lambda j, t: f(t) * t, _as_mp(q), ctx, 9)


def inner_product(f: LatticeFunction, g: LatticeFunction,
                  ctx: PrecisionContext) -> mpf:
    """<f, g> = integral of f*g over [0,1] (real-valued, so no conjugation).

    The shorter lattice is zero-padded to the longer one.
    """
    if not same_base(f, g):
        raise BaseMismatchError(f"bases differ: {f.base} vs {g.base}")
    with ctx.workdps(10):
        return lattice_sum(lambda j, t: f.value(j) * g.value(j) * t,
                           f.base_mp(), ctx,
                           n=max(f.truncation, g.truncation))


def norm_lq2(f: LatticeFunction, ctx: PrecisionContext) -> mpf:
    """L_q^2[0,1] norm, sqrt(<f, f>)."""
    with ctx.workdps(10):
        return mp.sqrt(inner_product(f, f, ctx))
