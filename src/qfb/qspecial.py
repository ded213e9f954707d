"""Evaluation of 1phi1(0;w;q,z), the third Jackson q-Bessel function
J_nu(z;q^2) and their z-derivatives.

All series are summed with the adaptive cancellation policy of
qfb.precision: near z = q^(-m) the largest term grows like q^(-m^2)-scale
powers while the value itself stays moderate, so the required working
precision is detected and escalated automatically.

Consecutive terms of the J_nu series differ by the factor z^2 r_k, with
r_k = -p^k / ((1 - p^(nu+k)) (1 - p^k)) independent of z.  What the series
reuses across calls lives in one record per (base, nu): its ratios, in one
table per precision bucket, and its prefactor (p^(nu+1);p)_inf/(p;p)_inf.
A bucket is the ambient precision plus 16 guard bits, rounded up to a
multiple of 64 bits; its table derives p from q (or the given base) at that
precision, so it is never coarser than the pass that reads it.  Tables grow
lazily with k; all records together hold at most RATIO_CACHE_TERMS ratios,
and the oldest records are dropped first.  A J series pass, for a value
or for jnu3_sign's certified sign, runs in Python-int fixed point over the
tables' integer mantissas.  jnu3_lattice steps along the lattice q^i z:
each value is jnu3's pass, and the argument and its power z^nu are stepped
by q and q^nu instead of formed afresh.  The 1phi1 series keep their own
mpf term recurrences, so the two routes that `consistency` compares stay
independent.
"""

from __future__ import annotations

import math
from typing import Iterator

from mpmath import mp, mpf

from .precision import (EXTRA_GUARD, MAX_TERMS, DivergenceError, EvalResult,
                        PrecisionContext, adaptive_sum, certified_sign)
from .qcore import Numeric, QParams, _as_mp, qpochhammer_infinite

# most ratios held by all series records together
RATIO_CACHE_TERMS = 10_000
# bits above the ambient precision carried by a ratio table (before it is
# rounded up to _BUCKET_BITS) and by a fixed-point series pass
_GUARD_BITS = 16
_BUCKET_BITS = 64
# ratios appended per extension of a table
_RATIO_CHUNK = 32
_LOG2_10 = math.log2(10)

# (q or None, base or None, nu) -> _Series, oldest first
_SERIES: dict = {}


def _check_base(q: Numeric, omega: Numeric = 0) -> None:
    """0 < q < 1 (else DivergenceError) and 0 <= omega < 1."""
    with mp.workdps(50):
        if not (0 < _as_mp(q) < 1):
            raise DivergenceError(f"base must satisfy 0 < q < 1, got {q}")
        if not (0 <= _as_mp(omega) < 1):
            raise ValueError(f"omega must lie in [0,1), got {omega}")


def phi11(omega: Numeric, q: Numeric, z: Numeric,
          ctx: PrecisionContext) -> EvalResult:
    """1phi1(0; omega; q, z) = sum_k (-1)^k q^(k(k-1)/2) z^k
    / ((omega;q)_k (q;q)_k), for 0 <= omega < 1 and 0 < q < 1."""
    _check_base(q, omega)

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
    _check_base(q, omega)

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


def _round_up(bits: int) -> int:
    return -(-bits // _BUCKET_BITS) * _BUCKET_BITS


class _Series:
    """What every J_nu(z; p) evaluation for one (q, base, nu) reuses, p
    being the base or, for base None, q^2: ``tables`` maps a precision
    bucket to the ratios r_k = -p^k / ((1 - p^(nu+k)) (1 - p^k)),
    k = 1, 2, ..., at that precision, each as _fixed_factor's (mantissa,
    shift) of its mpf; ``pref`` is the prefactor as (digits, value).

    Making a record checks the base and reads the facts about nu that the
    argument rule needs (``integer``, ``nonneg``: nu >= 0, ``at_least_one``:
    nu >= 1); nu itself is kept per bucket (``nu_at``)."""

    def __init__(self, q: Numeric | None, base: Numeric | None,
                 nu: Numeric):
        if base is not None:        # QParams already holds 0 < q < 1
            _check_base(base)
        self.q, self.base, self.nu = q, base, nu
        self.tables: dict[int, list[tuple[int, int]]] = {}
        self._next: dict[int, tuple] = {}   # bucket -> (p, p^k, p^(nu+k))
        self.pref: tuple[int, mpf | None] = (0, None)
        self._nu: dict[int, tuple[mpf, int, int]] = {}   # bucket -> nu_at
        with mp.workdps(50):
            nuv = _as_mp(nu)
            self.integer = nuv == mp.floor(nuv)
            self.nonneg, self.at_least_one = nuv >= 0, nuv >= 1

    def __len__(self) -> int:
        return sum(map(len, self.tables.values()))

    def p(self) -> mpf:
        """The base at the ambient precision."""
        return _as_mp(self.q) ** 2 if self.base is None else _as_mp(self.base)

    def ratios(self, n: int) -> list[tuple[int, int]]:
        """The table of the ambient precision's bucket with n ratios or
        more, n at most one past its length.  A short table is extended in
        place by _RATIO_CHUNK ratios; then the oldest records are dropped
        until all of them hold RATIO_CACHE_TERMS ratios or fewer."""
        prec = _round_up(mp.prec + _GUARD_BITS)
        table = self.tables.setdefault(prec, [])
        if len(table) >= n:
            return table
        with mp.workprec(prec):
            if not table:
                p = self.p()
                self._next[prec] = (p, p, p ** (self.nu_at(prec)[0] + 1))
            p, pk, pnuk = self._next[prec]
            for _ in range(_RATIO_CHUNK):
                table.append(_fixed_factor(-pk / ((1 - pnuk) * (1 - pk))))
                pk *= p
                pnuk *= p
            self._next[prec] = (p, pk, pnuk)
        total = sum(map(len, _SERIES.values()))
        for key in list(_SERIES):
            if total <= RATIO_CACHE_TERMS:
                break
            total -= len(_SERIES.pop(key))
        return table

    def nu_at(self, bucket: int) -> tuple[mpf, int, int]:
        """nu at a bucket's precision, with its _fixed_factor pair."""
        hit = self._nu.get(bucket)
        if hit is None:
            with mp.workprec(bucket):
                nuv = _as_mp(self.nu)
            hit = self._nu[bucket] = (nuv, *_fixed_factor(nuv))
        return hit

    def prefactor(self, ctx: PrecisionContext) -> mpf:
        """(p^(nu+1);p)_inf / (p;p)_inf to 10^-(ctx.digits + 10) or better.

        The stored value serves every request whose target it meets.  A new
        value is computed for the target rounded up to a multiple of
        _BUCKET_BITS bits, unless that would take more than MAX_TERMS
        factors (q near 1); then for the exact target.
        """
        target = ctx.digits + 10
        if self.pref[0] >= target:
            return self.pref[1]
        bits = _round_up(math.ceil(target * _LOG2_10))
        digits = max(target, int(bits / _LOG2_10))
        with mp.workdps(30):
            log_p = float(mp.log10(self.p()))
            power = min(1.0, float(_as_mp(self.nu)) + 1)
        # factors of the longer product, (a;p)_inf with a = p^min(1, nu+1)
        if (digits + power * log_p) / -log_p >= MAX_TERMS:
            digits = target
        with mp.workdps(digits):
            pv = self.p()
            pctx = PrecisionContext(digits - 10)
            value = (qpochhammer_infinite(pv ** (_as_mp(self.nu) + 1), pv,
                                          pctx)
                     / qpochhammer_infinite(pv, pv, pctx))
        self.pref = (digits, value)
        return value


def _fixed_factor(x: mpf) -> tuple[int, int]:
    """(m, s) with x = m 2^(-s) exactly, m a signed integer and s >= 0, so
    that a fixed-point value times x is (value * m) >> s."""
    sign, man, exp, _ = x._mpf_
    if sign:
        man = -man
    return (man << exp, 0) if exp > 0 else (man, -exp)


def _pass_terms(series: _Series, z: Numeric, derivative: bool, last: list):
    """make_terms of the J (or J') fixed-point pass that _evaluate describes;
    each pass leaves its z and nu in ``last``."""

    def make_terms() -> tuple[Iterator[int], int]:
        ratios = series.ratios(1)
        prec = mp.prec
        nuv, nu_man, nu_shift = series.nu_at(_round_up(prec + _GUARD_BITS))
        zv = z() if callable(z) else _as_mp(z)
        last[:] = zv, nuv
        z2 = zv * zv
        zman, zshift = _fixed_factor(z2)
        lead = 0
        if derivative:
            rman, rshift = ratios[0]
            y1 = (nuv + 2) * z2 * mpf((rman, -rshift))
            _, man, exp, bc = max(abs(nuv), abs(y1))._mpf_
            lead = min(0, exp + bc - 1) if man else 0
        u = lead - prec - _GUARD_BITS

        def terms() -> Iterator[int]:
            t = 1 << -u
            k = 0
            yield t * nu_man if derivative else t
            while True:
                if k == len(ratios):
                    series.ratios(k + 1)
                rman, rshift = ratios[k]
                k += 1
                t = (t * zman >> zshift) * rman >> rshift
                yield t * (nu_man + (k << (nu_shift + 1))) if derivative else t

        return terms(), (u - nu_shift if derivative else u)

    return make_terms


def _evaluate(params: QParams, z: Numeric, ctx: PrecisionContext,
              base: Numeric | None, derivative: bool) -> EvalResult:
    """Shared evaluator for J_nu(z; base) and its z-derivative.

    J_nu(z;p) = z^nu * (p^(nu+1);p)_inf/(p;p)_inf
                * sum_k (-1)^k p^(k(k+1)/2) z^(2k) / ((p^(nu+1);p)_k (p;p)_k)
    and the derivative series carries the extra factor (nu + 2k) with the
    power z^(nu-1).  z must be finite; both are defined at z < 0 for integer
    nu only, and at z = 0 for nu >= 0 (J) or nu >= 1 (J').

    A series pass runs in fixed point: the bare term t_k (t_0 = 1) is the
    integer t times 2^u, with u = min(0, e) - prec - _GUARD_BITS and
    2^e about the larger of the first two yielded terms (e = 0 for J), a
    lower bound of the pass's largest magnitude.  A step multiplies t
    exactly by the mantissa of z^2, shifts back to scale 2^u, and does the
    same with r_k.  J's terms reach tracked_sum as t itself at scale 2^u;
    J' yields t times the fixed-point nu + 2k, exactly, at scale 2^(u-s)
    for nu = m 2^(-s).

    ``base=None`` means q^2, recomputed from ``q`` at the ambient precision
    of every escalation attempt (for the term ratios, at that attempt's
    bucket, which is finer).  The base must never be pre-materialised at
    a fixed low precision: the huge intermediate partial sums amplify a base
    perturbation by the full cancellation ratio, which would make the final
    error independent of the working precision.  ``z`` may likewise be a
    zero-argument callable, re-evaluated at the ambient precision of every
    attempt; this is essential near the zeros, where the value is
    superexponentially smaller than the local derivative and a fixed-precision
    argument would dominate the result.  The scale z^nu times the prefactor
    is built from the z and nu of the last pass.
    """
    key = (params.q if base is None else None, base, params.nu)
    series = _SERIES.get(key)
    if series is None:
        series = _Series(*key)

    with mp.workdps(50):
        zv = z() if callable(z) else _as_mp(z)
        if not mp.isfinite(zv):
            raise ValueError(f"z must be finite, got {z}")
        if zv < 0 and not series.integer:
            raise ValueError(
                f"z < 0 requires integer nu (got z={z}, nu={params.nu})")
        if zv == 0 and not (series.at_least_one if derivative
                            else series.nonneg):
            raise ValueError(
                f"z = 0 is singular for nu < {1 if derivative else 0}")
    _SERIES.setdefault(key, series)     # no record for a rejected call
    last = []                           # z and nu of the latest pass
    res = adaptive_sum(_pass_terms(series, z, derivative, last), ctx,
                       min_terms=2)
    pref = series.prefactor(ctx)
    zv, nuv = last
    with mp.workdps(res.precision_used + EXTRA_GUARD):
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
    return _evaluate(params, z, ctx, base, derivative=False)


def jnu3_derivative(params: QParams, z: Numeric, ctx: PrecisionContext,
                    base: Numeric | None = None) -> EvalResult:
    """z-derivative of J_nu(z; base), by term-by-term differentiation."""
    return _evaluate(params, z, ctx, base, derivative=True)


def jnu3_sign(params: QParams, z: Numeric, ctx: PrecisionContext,
              dps: int) -> tuple[int, int, mpf]:
    """certified_sign of J_nu(z; q^2), z > 0 (a callable z as for jnu3): the
    prefactor and z^nu are positive, so only the bare series is summed, and
    its accepted sum is returned with the sign and the dps."""
    key = (params.q, None, params.nu)
    series = _SERIES.get(key)
    if series is None:
        series = _SERIES[key] = _Series(*key)
    return certified_sign(_pass_terms(series, z, False, []), dps, ctx.dps_cap)


def jnu3_lattice(params: QParams, z: mpf, ctx: PrecisionContext,
                 dps: int) -> Iterator[mpf]:
    """J_nu(q^i z; q^2) for i = 0, 1, 2, ..., for z > 0 formed at ``dps``
    digits.

    Each value is jnu3's certified pass at q^i z times the prefactor and
    (q^i z)^nu, in _evaluate's order.  The argument steps by q at ``dps``,
    and its power by q^nu at digits + 20, so a column makes one mp.power.
    Every value reads the (q, nu) record from _SERIES afresh, so a long
    column never grows a record that RATIO_CACHE_TERMS has dropped.
    """
    with mp.workdps(dps):
        z, q = _as_mp(z), params.q_mp()
    if not 0 < z < mp.inf:
        raise ValueError(f"z must be positive and finite, got {z}")
    key = (params.q, None, params.nu)
    with ctx.workdps(20):
        nuv = params.nu_mp()
        power, q_power = mp.power(z, nuv), mp.power(q, nuv)

    def column() -> Iterator[mpf]:
        nonlocal z, power
        while True:
            series = _SERIES.get(key)
            if series is None:
                series = _SERIES[key] = _Series(*key)
            res = adaptive_sum(_pass_terms(series, z, False, []), ctx,
                               min_terms=2)
            pref = series.prefactor(ctx)
            with mp.workdps(res.precision_used + EXTRA_GUARD):
                value = pref * power * res.value
            yield value
            with mp.workdps(dps):
                z = z * q
            with ctx.workdps(20):
                power = power * q_power

    return column()
