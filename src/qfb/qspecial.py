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
dropped first.  A J series pass runs in Python-int fixed point over the
table's integer mantissas.  The prefactor (p^(nu+1);p)_inf/(p;p)_inf is
memoised per (base, nu), at most PREFACTOR_CACHE_ENTRIES of them.  The
1phi1 series keep their own mpf term recurrences, so the two routes that
`consistency` compares stay independent.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from mpmath import mp, mpf

from .precision import (MAX_TERMS, DivergenceError, EvalResult,
                        PrecisionContext, adaptive_sum, raw_mpf)
from .qcore import Numeric, QParams, _as_mp, qpochhammer_infinite

# most ratios held by all term-ratio tables together
RATIO_CACHE_TERMS = 10_000
# bits above the ambient precision carried by a ratio table (before it is
# rounded up to _BUCKET_BITS) and by a fixed-point series pass
_GUARD_BITS = 16
_BUCKET_BITS = 64
# ratios appended per extension of a table
_RATIO_CHUNK = 32
# most prefactors held, one per (base, nu)
PREFACTOR_CACHE_ENTRIES = 64
_LOG2_10 = math.log2(10)

# (q or None, base or None, nu, bucket precision) -> _RatioTable, oldest first
_RATIO_TABLES: dict = {}
# (q or None, base or None, nu) -> (digits, prefactor), oldest first
_PREFACTORS: dict = {}


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
    of the J_nu series, computed at one precision and extended on demand.
    Each ratio is kept as _fixed_factor's (mantissa, shift) of its mpf."""

    def __init__(self, p_of: Callable[[], mpf], nu: Numeric, prec: int):
        self.prec = prec
        with mp.workprec(prec):
            self._p = p_of()
            self._pk = self._p                        # p^k of the next ratio
            self._pnuk = self._p ** (_as_mp(nu) + 1)  # p^(nu+k) of the next
        self.ratios: list[tuple[int, int]] = []

    def extend(self) -> None:
        with mp.workprec(self.prec):
            p, pk, pnuk = self._p, self._pk, self._pnuk
            for _ in range(_RATIO_CHUNK):
                self.ratios.append(
                    _fixed_factor(-pk / ((1 - pnuk) * (1 - pk))))
                pk *= p
                pnuk *= p
            self._pk, self._pnuk = pk, pnuk
        total = sum(len(t.ratios) for t in _RATIO_TABLES.values())
        for key in list(_RATIO_TABLES):
            if total <= RATIO_CACHE_TERMS:
                break
            total -= len(_RATIO_TABLES.pop(key).ratios)


def _fixed_factor(x: mpf) -> tuple[int, int]:
    """(m, s) with x = m 2^(-s) exactly, m a signed integer and s >= 0, so
    that a fixed-point value times x is (value * m) >> s."""
    sign, man, exp, _ = x._mpf_
    if sign:
        man = -man
    return (man << exp, 0) if exp > 0 else (man, -exp)


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


def _prefactor(q: Numeric, base: Numeric | None, nu: Numeric,
               p_of: Callable[[], mpf], ctx: PrecisionContext) -> mpf:
    """(p^(nu+1);p)_inf / (p;p)_inf to 10^-(ctx.digits + 10) or better.

    One value is memoised per (base, nu) and serves every request whose
    target it meets.  A new value is computed for the target rounded up to
    a multiple of _BUCKET_BITS bits, unless that would take more than
    MAX_TERMS factors (q near 1); then for the exact target.
    """
    key = (q if base is None else None, base, nu)
    target = ctx.digits + 10
    hit = _PREFACTORS.get(key)
    if hit is not None and hit[0] >= target:
        return hit[1]
    bits = -(-math.ceil(target * _LOG2_10) // _BUCKET_BITS) * _BUCKET_BITS
    digits = max(target, int(bits / _LOG2_10))
    with mp.workdps(30):
        log_p = math.log10(p_of())
        power = min(1.0, float(_as_mp(nu)) + 1)
    # factors of the longer product, (a;p)_inf with a = p^min(1, nu+1)
    if (digits + power * log_p) / -log_p >= MAX_TERMS:
        digits = target
    with mp.workdps(digits):
        pv = p_of()
        pctx = PrecisionContext(digits - 10)
        value = (qpochhammer_infinite(pv ** (_as_mp(nu) + 1), pv, pctx)
                 / qpochhammer_infinite(pv, pv, pctx))
    _PREFACTORS.pop(key, None)
    _PREFACTORS[key] = (digits, value)
    while len(_PREFACTORS) > PREFACTOR_CACHE_ENTRIES:
        del _PREFACTORS[next(iter(_PREFACTORS))]
    return value


def _jnu_series_result(nu: Numeric, base: Numeric | None, q: Numeric,
                       z: Numeric, ctx: PrecisionContext,
                       derivative: bool) -> EvalResult:
    """Shared evaluator for J_nu(z; base) and its z-derivative.

    J_nu(z;p) = z^nu * (p^(nu+1);p)_inf/(p;p)_inf
                * sum_k (-1)^k p^(k(k+1)/2) z^(2k) / ((p^(nu+1);p)_k (p;p)_k)
    and the derivative series carries the extra factor (nu + 2k) with the
    power z^(nu-1).

    A series pass runs in fixed point: the bare term t_k (t_0 = 1) is the
    integer t times 2^u, with u = min(0, e) - prec - _GUARD_BITS and
    2^e about the larger of the first two yielded terms (e = 0 for J), a
    lower bound of the pass's largest magnitude.  A step multiplies t
    exactly by the mantissa of z^2, shifts back to scale 2^u, and does the
    same with r_k; each term is yielded as an mpf rounded once from t.

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
        prec, rnd = mp._prec_rounding
        make_mpf = mp.make_mpf
        nuv = _as_mp(nu)
        zv = z_mp()
        z2 = zv * zv
        zman, zshift = _fixed_factor(z2)
        lead = 0
        if derivative:
            if not ratios:
                table.extend()
            rman, rshift = ratios[0]
            y1 = (nuv + 2) * z2 * mpf((rman, -rshift))
            _, man, exp, bc = max(abs(nuv), abs(y1))._mpf_
            lead = min(0, exp + bc - 1) if man else 0
        u = lead - prec - _GUARD_BITS
        t = 1 << -u
        k = 0
        yield nuv if derivative else mpf(1)
        while True:
            if k == len(ratios):
                table.extend()
            rman, rshift = ratios[k]
            k += 1
            t = (t * zman >> zshift) * rman >> rshift
            term = make_mpf(raw_mpf(t, u, prec, rnd))
            yield term * (nuv + 2 * k) if derivative else term

    res = adaptive_sum(terms, ctx, min_terms=2)
    pref = _prefactor(q, base, nu, base_mp, ctx)
    with mp.workdps(res.precision_used + 10):
        nuv = _as_mp(nu)
        zv = z_mp()
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
