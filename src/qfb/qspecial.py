"""Evaluation of 1phi1(0;w;q,z), the third Jackson q-Bessel function
J_nu(z;q^2) and their z-derivatives.

All series are summed with the adaptive cancellation policy of
qfb.precision: near z = q^(-m) the largest term grows like q^(-m^2)-scale
powers while the value itself stays moderate, so the required working
precision is detected and escalated automatically.

Consecutive terms of the J_nu series differ by the factor z^2 r_k, with
r_k = -p^k / ((1 - p^(nu+k)) (1 - p^k)) independent of z.  The ratios are
kept in one table per (base, nu, precision bucket): a bucket is the ambient
precision plus 16 guard bits, rounded up to a multiple of 64 bits, and the
table derives p from q (or the given base) at that precision, so it is never
coarser than the pass that reads it.  Tables grow lazily with k; together
they hold at most RATIO_CACHE_TERMS ratios, and the oldest tables are
dropped first.  The 1phi1 series keep their own term recurrences, so the
two routes that `consistency` compares stay independent.
"""

from __future__ import annotations

from typing import Callable, Iterator

from mpmath import mp, mpf

from .precision import (DivergenceError, EvalResult, PrecisionContext,
                        adaptive_sum)
from .qcore import Numeric, QParams, _as_mp, qpochhammer_infinite

# most ratios held by all term-ratio tables together
RATIO_CACHE_TERMS = 10_000
# a table's precision: ambient + _GUARD_BITS, rounded up to _BUCKET_BITS
_GUARD_BITS = 16
_BUCKET_BITS = 64
# ratios appended per extension of a table
_RATIO_CHUNK = 32

# (q or None, base or None, nu, bucket precision) -> _RatioTable, oldest first
_RATIO_TABLES: dict = {}


def _check_base(q: Numeric) -> None:
    with mp.workdps(50):
        qv = _as_mp(q)
        if not (0 < qv < 1):
            raise DivergenceError(f"base must satisfy 0 < q < 1, got {q}")


def phi11(omega: Numeric, q: Numeric, z: Numeric,
          ctx: PrecisionContext) -> EvalResult:
    """1phi1(0; omega; q, z) = sum_k (-1)^k q^(k(k-1)/2) z^k
    / ((omega;q)_k (q;q)_k), for 0 <= omega < 1 and 0 < q < 1."""
    _check_base(q)
    with mp.workdps(50):
        ov = _as_mp(omega)
        if not (0 <= ov < 1):
            raise ValueError(f"omega must lie in [0,1), got {omega}")

    def terms() -> Iterator[mpf]:
        qv = _as_mp(q)
        ov_ = _as_mp(omega)
        zv = _as_mp(z)
        term = mpf(1)
        yield term
        k = 1
        qk1 = mpf(1)          # q^(k-1)
        qk = qv               # q^k
        while True:
            term *= -qk1 * zv / ((1 - ov_ * qk1) * (1 - qk))
            yield term
            k += 1
            qk1 = qk
            qk *= qv

    return adaptive_sum(terms, ctx)


def phi11_derivative(omega: Numeric, q: Numeric, z: Numeric,
                     ctx: PrecisionContext) -> EvalResult:
    """d/dz of 1phi1(0; omega; q, z), summed term by term."""
    _check_base(q)
    with mp.workdps(50):
        ov = _as_mp(omega)
        if not (0 <= ov < 1):
            raise ValueError(f"omega must lie in [0,1), got {omega}")

    def terms() -> Iterator[mpf]:
        qv = _as_mp(q)
        ov_ = _as_mp(omega)
        zv = _as_mp(z)
        k = 1
        qk1 = mpf(1)
        qk = qv
        zpow = mpf(1)         # z^(k-1)
        coeff = mpf(1)        # (-1)^k q^(k(k-1)/2) / ((omega;q)_k (q;q)_k)
        while True:
            coeff *= -qk1 / ((1 - ov_ * qk1) * (1 - qk))
            yield k * coeff * zpow
            k += 1
            qk1 = qk
            qk *= qv
            zpow *= zv

    return adaptive_sum(terms, ctx, min_terms=2)


class _RatioTable:
    """The term ratios r_k = -p^k / ((1 - p^(nu+k)) (1 - p^k)), k = 1, 2, ...,
    of the J_nu series, computed at one precision and extended on demand."""

    def __init__(self, p_of: Callable[[], mpf], nu: Numeric, prec: int):
        self.prec = prec
        with mp.workprec(prec):
            self._p = p_of()
            self._pk = self._p                        # p^k of the next ratio
            self._pnuk = self._p ** (_as_mp(nu) + 1)  # p^(nu+k) of the next
        self.ratios: list[mpf] = []

    def extend(self) -> None:
        with mp.workprec(self.prec):
            p, pk, pnuk = self._p, self._pk, self._pnuk
            for _ in range(_RATIO_CHUNK):
                self.ratios.append(-pk / ((1 - pnuk) * (1 - pk)))
                pk *= p
                pnuk *= p
            self._pk, self._pnuk = pk, pnuk
        total = sum(len(t.ratios) for t in _RATIO_TABLES.values())
        for key in list(_RATIO_TABLES):
            if total <= RATIO_CACHE_TERMS:
                break
            total -= len(_RATIO_TABLES.pop(key).ratios)


def _ratio_table(q: Numeric, base: Numeric | None, nu: Numeric,
                 p_of: Callable[[], mpf]) -> _RatioTable:
    """The shared table of the J_nu(z; base) series (base None: q^2) for the
    ambient precision's bucket; p_of derives the base at the ambient
    precision."""
    prec = -(-(mp.prec + _GUARD_BITS) // _BUCKET_BITS) * _BUCKET_BITS
    key = (q if base is None else None, base, nu, prec)
    table = _RATIO_TABLES.get(key)
    if table is None:
        table = _RATIO_TABLES[key] = _RatioTable(p_of, nu, prec)
    return table


def _jnu_series_result(nu: Numeric, base: Numeric | None, q: Numeric,
                       z: Numeric, ctx: PrecisionContext,
                       derivative: bool) -> EvalResult:
    """Shared evaluator for J_nu(z; base) and its z-derivative.

    J_nu(z;p) = z^nu * (p^(nu+1);p)_inf/(p;p)_inf
                * sum_k (-1)^k p^(k(k+1)/2) z^(2k) / ((p^(nu+1);p)_k (p;p)_k)
    and the derivative series carries the extra factor (nu + 2k) with the
    power z^(nu-1).

    ``base=None`` means q^2, recomputed from ``q`` at the ambient precision
    of every escalation attempt (for the term ratios, at that attempt's
    bucket, which is finer).  The base must never be pre-materialised at
    a fixed low precision: the huge intermediate partial sums amplify a base
    perturbation by the full cancellation ratio, which would make the final
    error independent of the working precision.  ``z`` may likewise be a
    zero-argument callable, re-evaluated at the ambient precision of every
    attempt; this is essential near the zeros, where the value is
    superexponentially smaller than the local derivative and a fixed-precision
    argument would dominate the result.
    """

    def base_mp() -> mpf:
        if base is None:
            return _as_mp(q) ** 2
        return _as_mp(base)

    def z_mp() -> mpf:
        return z() if callable(z) else _as_mp(z)

    def terms() -> Iterator[mpf]:
        table = _ratio_table(q, base, nu, base_mp)
        ratios = table.ratios
        nuv = _as_mp(nu)
        zv = z_mp()
        z2 = zv * zv
        term = mpf(1)
        k = 0
        yield nuv if derivative else term
        while True:
            if k == len(ratios):
                table.extend()
            term = term * z2 * ratios[k]
            k += 1
            yield term * (nuv + 2 * k) if derivative else term

    res = adaptive_sum(terms, ctx, min_terms=2)
    with mp.workdps(res.precision_used + 10):
        pv = base_mp()
        nuv = _as_mp(nu)
        zv = z_mp()
        pref = (qpochhammer_infinite(pv ** (nuv + 1), pv, ctx)
                / qpochhammer_infinite(pv, pv, ctx))
        zexp = nuv - 1 if derivative else nuv
        if zv == 0:
            power = mpf(1) if zexp == 0 else mpf(0)
        else:
            power = mp.power(zv, zexp)
        scale = pref * power
        value = scale * res.value
        max_mag = abs(scale) * res.max_partial_magnitude
    return EvalResult(value, max_mag, res.terms_used, res.precision_used)


def jnu3(params: QParams, z: Numeric, ctx: PrecisionContext,
         base: Numeric | None = None) -> EvalResult:
    """Third Jackson (Hahn-Exton) q-Bessel function J_nu(z; base).

    ``base`` defaults to q^2, the convention used by the zero and expansion
    machinery; pass base=params.q for the plain-base function.  ``z`` may be
    a zero-argument callable producing the argument at the ambient precision;
    use that form for arguments superexponentially close to a zero.
    """
    if base is not None:       # QParams already holds 0 < q < 1
        _check_base(base)
    with mp.workdps(50):
        nuv = params.nu_mp()
        zv = z() if callable(z) else _as_mp(z)
        if zv < 0 and nuv != mp.floor(nuv):
            raise ValueError(
                f"z < 0 requires integer nu (got z={z}, nu={params.nu})")
        if zv == 0 and nuv < 0:
            raise ValueError("z = 0 is singular for nu < 0")
    return _jnu_series_result(params.nu, base, params.q, z, ctx,
                              derivative=False)


def jnu3_derivative(params: QParams, z: Numeric, ctx: PrecisionContext,
                    base: Numeric | None = None) -> EvalResult:
    """z-derivative of J_nu(z; base), by term-by-term differentiation."""
    if base is not None:       # QParams already holds 0 < q < 1
        _check_base(base)
    with mp.workdps(50):
        nuv = params.nu_mp()
        zv = z() if callable(z) else _as_mp(z)
        if zv < 0:
            raise ValueError("derivative is evaluated on z >= 0 only")
        if zv == 0 and nuv < 1:
            raise ValueError("derivative is singular at z = 0 for nu < 1")
    return _jnu_series_result(params.nu, base, params.q, z, ctx,
                              derivative=True)
