"""q-Fourier-Bessel analysis: squared norms eta_k, expansion coefficients,
partial sums, Gram matrices of the orthonormal system, and the
Riemann-Lebesgue decay diagnostics.

The k-th basis function is J_nu(q j_k x; q^2) on the q-lattice; its squared
weighted norm eta_k admits two closed forms in terms of J_(nu+1), J_nu and
J'_nu at the zero, which are cross-checked against the direct lattice
integral.  Coefficient integrals against mode m involve J_nu at arguments up
to ~ q^(1-m), so every point evaluation runs under the adaptive cancellation
policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from mpmath import mp, mpf

from .precision import PrecisionContext, PrecisionError
from .qcore import LatticeFunction, Numeric, QParams, _as_mp, lattice_sum
from .zeros import ZeroRecord
from .qspecial import jnu3, jnu3_derivative

ETA_METHODS = ("integral", "closed_form_nu_plus_1", "closed_form_nu")


class BasisFunction:
    """Marker for f(t) = J_nu(q j_n t; q^2), the n-th expansion mode.

    On the lattice this function must be read from the shared ModeCache
    rather than evaluated through a generic callable: the arguments
    q^(j+1) j_n land superexponentially close to smaller zeros, where a
    point handed over at generic precision would be meaningless.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"mode index must be >= 1, got {n}")
        self.n = n


class ModeCache:
    """Lazy cache of basis-function values J_nu(q j_k q^j; q^2).

    Values are computed once per (k, j) at the context's precision; the
    per-point adaptive escalation makes each one accurate relative to its
    own magnitude, which is what the strongly cancelling cross-mode
    integrals need.
    """

    def __init__(self, params: QParams, records: dict[int, ZeroRecord],
                 ctx: PrecisionContext):
        self.params = params
        self.records = records
        self.ctx = ctx
        self._vals: dict[tuple[int, int], mpf] = {}

    def value(self, k: int, j: int) -> mpf:
        key = (k, j)
        hit = self._vals.get(key)
        if hit is None:
            rec = self.records[k]
            # q^(j+1)*j_k lands superexponentially close to smaller zeros;
            # build it at the precision the refined zero carries.
            with mp.workdps(max(self.ctx.digits + 10, rec.arg_dps)):
                z = self.params.q_mp() ** (j + 1) * rec.j
            hit = jnu3(self.params, z, self.ctx).value
            self._vals[key] = hit
        return hit


def _mode_integral(cache: ModeCache, n: int, m: int,
                   extra: Callable[[mpf], mpf] | None = None) -> mpf:
    """(1-q) sum_j q^(2j) J_n(q^j) J_m(q^j) [extra(q^j)] over the lattice.

    ``extra`` multiplies in an additional factor of the lattice point (used
    for the coefficient integrals via f).  The terms oscillate or stay
    positive but always decay like q^((2+2nu)j) once j passes the mode
    indices, so the first max(n, m) + 5 terms are always summed.
    """
    def term(j: int, t: mpf) -> mpf:
        v = t * t * cache.value(n, j) * cache.value(m, j)
        return v if extra is None else v * extra(t)

    with cache.ctx.workdps(10):
        return lattice_sum(term, cache.params.q_mp(), cache.ctx,
                           max(n, m) + 5)


def eta_k(params: QParams, record: ZeroRecord, ctx: PrecisionContext,
          method: str = "closed_form_nu_plus_1",
          cache: ModeCache | None = None) -> mpf:
    """Squared weighted norm eta_k = integral of t J_nu^2(q j_k t; q^2) d_q t.

    method="integral" sums the lattice directly; the closed forms are
      (q-1)/2 * q^(nu-1) * J_(nu+1)(q j_k; q^2) * J'_nu(j_k; q^2)   and
      (q-1)/(2 j_k) * q^(nu-2) * J_nu(q j_k; q^2) * J'_nu(j_k; q^2).
    """
    if method not in ETA_METHODS:
        raise ValueError(f"unknown eta method {method!r}")
    with ctx.workdps(10):
        q = params.q_mp()
        nu = params.nu_mp()
        if method == "integral":
            if cache is None:
                cache = ModeCache(params, {record.k: record}, ctx)
            return _mode_integral(cache, record.k, record.k)
        deriv = jnu3_derivative(params, record.j, ctx).value
        with mp.workdps(max(ctx.digits + 10, record.arg_dps)):
            z_shift = params.q_mp() * record.j
        if method == "closed_form_nu_plus_1":
            with mp.workdps(ctx.digits + 40):
                up = QParams(params.q, params.nu_mp() + 1)
            jval = jnu3(up, z_shift, ctx).value
            return (q - 1) / 2 * q ** (nu - 1) * jval * deriv
        jval = jnu3(params, z_shift, ctx).value
        return (q - 1) / (2 * record.j) * q ** (nu - 2) * jval * deriv


def _integrand_value(f, t: mpf, j: int) -> mpf:
    if isinstance(f, LatticeFunction):
        return f.value(j)
    return mp.mpf(f(t))


def coefficient(params: QParams, f, record: ZeroRecord,
                eta_value: Numeric, ctx: PrecisionContext,
                cache: ModeCache | None = None,
                weighted: bool = False) -> mpf:
    """Expansion coefficient a_k(f) = (1/eta_k) integral t f(t) J_nu(q j_k t).

    ``weighted=True`` returns the t^(1/2)-regrouped coefficient, i.e. the
    same integral with integrand t^(1/2) f(t) instead of t f(t).
    ``f`` is a callable on (0,1] or a LatticeFunction over base q.
    """
    with ctx.workdps(10):
        eta = _as_mp(eta_value)
        if not eta > 0:
            raise ValueError("eta_k must be positive")
        if cache is None:
            cache = ModeCache(params, {record.k: record}, ctx)
        q = params.q_mp()
        k = record.k
        if isinstance(f, LatticeFunction):
            total = mpf(0)
            t = mpf(1)
            for j in range(f.truncation):
                w = t * t if not weighted else t * mp.sqrt(t)
                total += w * f.value(j) * cache.value(k, j)
                t *= q
            return (1 - q) * total / eta
        if isinstance(f, BasisFunction):
            extra = (lambda t: 1 / mp.sqrt(t)) if weighted else None
            return _mode_integral(cache, f.n, k, extra) / eta

        def term(j: int, t: mpf) -> mpf:
            w = t * t if not weighted else t * mp.sqrt(t)
            return w * mp.mpf(f(t)) * cache.value(k, j)

        return lattice_sum(term, q, ctx, k + 5) / eta


def partial_sum(params: QParams, coeffs: Sequence, records: dict,
                x_points: Iterable, K: int, ctx: PrecisionContext) -> list:
    """S_K(x) = sum_{k=1..K} a_k J_nu(q j_k x; q^2) at each requested x."""
    if K > len(coeffs):
        raise ValueError(f"K={K} exceeds available coefficients")
    out = []
    with ctx.workdps(10):
        q = params.q_mp()
        for x in x_points:
            s = mpf(0)
            for k in range(1, K + 1):
                with mp.workdps(max(ctx.digits + 10, records[k].arg_dps)):
                    z = params.q_mp() * records[k].j * _as_mp(x)
                s += _as_mp(coeffs[k - 1]) * jnu3(params, z, ctx).value
            out.append(s)
    return out


def gram_matrix(params: QParams, records: dict[int, ZeroRecord], K: int,
                ctx: PrecisionContext,
                cache: ModeCache | None = None) -> list[list[mpf]]:
    """Gram matrix G[n][m] = <u_n, u_m> of the orthonormal system

    u_k(x) = x^(1/2) J_nu(q j_k x; q^2) / sqrt(eta_k), expected ~ identity.

    Normalization uses the closed-form eta, so the diagonal tests the
    closed form against the direct integral rather than dividing a number
    by itself.
    """
    for k in range(1, K + 1):
        if k not in records:
            raise ValueError(f"zero record for k={k} missing")
    if cache is None:
        cache = ModeCache(params, records, ctx)
    with ctx.workdps(10):
        etas = [eta_k(params, records[k], ctx, "closed_form_nu_plus_1")
                for k in range(1, K + 1)]
        roots = [mp.sqrt(e) for e in etas]
        g = [[mpf(0)] * K for _ in range(K)]
        for n in range(1, K + 1):
            for m in range(n, K + 1):
                raw = _mode_integral(cache, n, m)
                val = raw / (roots[n - 1] * roots[m - 1])
                g[n - 1][m - 1] = val
                g[m - 1][n - 1] = val
    return g


def riemann_lebesgue_rate(params: QParams, f, records: dict,
                          m_values: Iterable[int],
                          ctx: PrecisionContext,
                          cache: ModeCache | None = None) -> dict:
    """Decay diagnostics for I_m = integral t f(t) J_nu(q j_m t; q^2) d_q t.

    Reports |I_m|, successive ratios, the rate statistic |I_m| q^(-m), and
    the per-m Cauchy-Schwarz envelope
    |I_m| <= (integral t |f|^2 d_q t)^(1/2) * eta_m^(1/2).
    The hypothesis t^(1/2) f in L_q^2[0,1] is checked via the finiteness of
    that weighted norm; a violation is reported, not fatal.
    """
    if cache is None:
        cache = ModeCache(params, records, ctx)
    rows = []
    with ctx.workdps(10):
        q = params.q_mp()
        # integral of t |f|^2: the squared norm of t^(1/2) f
        try:
            if isinstance(f, BasisFunction):
                wnorm2 = _mode_integral(cache, f.n, f.n)
            elif isinstance(f, LatticeFunction):
                wnorm2 = mpf(0)
                t = mpf(1)
                for j in range(f.truncation):
                    wnorm2 += t * t * f.value(j) ** 2
                    t *= q
                wnorm2 *= (1 - q)
            else:
                wnorm2 = lattice_sum(lambda j, t: t * t * mp.mpf(f(t)) ** 2,
                                     q, ctx, 9)
            hypothesis_ok = mp.isfinite(wnorm2)
        except (PrecisionError, OverflowError):
            wnorm2 = mp.inf
            hypothesis_ok = False
        sup_rate = mpf(0)
        prev_abs = None
        for m in m_values:
            rec = records[m]
            eta = eta_k(params, rec, ctx, "closed_form_nu_plus_1")
            i_m = coefficient(params, f, rec, 1, ctx, cache=cache)
            rate = abs(i_m) * q ** (-m)
            sup_rate = max(sup_rate, rate)
            envelope = (mp.sqrt(wnorm2) * mp.sqrt(eta)
                        if hypothesis_ok else mp.inf)
            rows.append({
                "m": m,
                "integral": i_m,
                "rate": rate,
                "ratio": (abs(i_m) / prev_abs
                          if prev_abs not in (None, mpf(0)) else None),
                "cs_envelope": envelope,
                "cs_holds": bool(abs(i_m) <= envelope * (1 + mpf(10) ** (-20)))
                if hypothesis_ok else None,
            })
            prev_abs = abs(i_m)
    return {"rows": rows, "sup_rate": sup_rate,
            "hypothesis_ok": hypothesis_ok,
            "weighted_norm_sq": wnorm2}


@dataclass
class ExpansionResult:
    """Full expansion of a function: norms, coefficients, partial sums."""

    params: QParams
    K: int
    eta: list
    coeffs: list
    lattice_points: list
    partial_sum_values: list
    decay: dict = field(default_factory=dict)

    def to_json(self, digits: int = 50) -> str:
        with mp.workdps(digits + 10):
            payload = {
                "q": str(self.params.q),
                "nu": str(self.params.nu),
                "K": self.K,
                "eta": [mp.nstr(e, digits) for e in self.eta],
                "coeffs": [mp.nstr(c, digits) for c in self.coeffs],
                "lattice_points": [mp.nstr(_as_mp(x), digits)
                                   for x in self.lattice_points],
                "partial_sum_values": [mp.nstr(v, digits)
                                       for v in self.partial_sum_values],
                "decay": {k: (mp.nstr(v, 30) if isinstance(v, mpf) else v)
                          for k, v in self.decay.items()},
            }
        return json.dumps(payload, indent=2)


def expand(params: QParams, f, records: dict[int, ZeroRecord], K: int,
           ctx: PrecisionContext, lattice_sample_count: int = 12
           ) -> ExpansionResult:
    """Compute eta, coefficients and lattice partial sums for f up to K modes."""
    if K > len(records):
        raise ValueError(
            f"K={K} exceeds the {len(records)} available zero records")
    cache = ModeCache(params, records, ctx)
    with ctx.workdps(10):
        q = params.q_mp()
        etas = []
        coeffs = []
        for k in range(1, K + 1):
            e = eta_k(params, records[k], ctx, "closed_form_nu_plus_1")
            etas.append(e)
            coeffs.append(coefficient(params, f, records[k], e, ctx,
                                      cache=cache))
        xs = [q ** j for j in range(lattice_sample_count)]
        values = partial_sum(params, coeffs, records, xs, K, ctx)
        decay = {}
        if K >= 2:
            with mp.workdps(30):
                decay["coeff_ratio_last"] = (
                    abs(coeffs[-1]) / abs(coeffs[-2])
                    if coeffs[-2] != 0 else None)
    return ExpansionResult(params=params, K=K, eta=etas, coeffs=coeffs,
                           lattice_points=xs, partial_sum_values=values,
                           decay=decay)
