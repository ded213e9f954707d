"""q-Fourier-Bessel analysis: squared norms eta_k, expansion coefficients,
partial sums, Gram matrices of the orthonormal system, and the
Riemann-Lebesgue decay diagnostics.

The k-th basis function is J_nu(q j_k x; q^2) on the q-lattice; its squared
weighted norm eta_k admits two closed forms in terms of J_(nu+1), J_nu and
J'_nu at the zero, which are cross-checked against the direct lattice
integral.  Coefficient integrals against mode m involve J_nu at arguments up
to ~ q^(1-m), so every point evaluation runs under the adaptive cancellation
policy.  A mode's lattice values form one column, stepped along the lattice
by qspecial.jnu3_lattice, and an integrand is read once per lattice point
for all the sums of one call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from mpmath import mp, mpf

from .precision import PrecisionContext, PrecisionError
from .qcore import (BaseMismatchError, LatticeFunction, Numeric, QParams,
                    _as_mp, lattice_sum, same_base)
from .zeros import ZeroRecord
from .qspecial import jnu3, jnu3_derivative, jnu3_lattice

ETA_METHODS = ("integral", "closed_form_nu_plus_1", "closed_form_nu")
LATTICE_SAMPLES = 12


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
    """Lazy cache of per-zero values, the one place where they are
    evaluated: basis-function values J_nu(q j_k q^j; q^2), J'_nu(j_k; q^2),
    J_(nu+1)(q j_k; q^2) and the closed-form eta_k.

    The lattice values of mode k are one column, a list extended on demand
    from one jnu3_lattice kernel; the other values are computed once per
    key.  All are at the context's precision, and the per-point adaptive
    escalation makes each one accurate relative to its own magnitude, which
    is what the strongly cancelling cross-mode integrals need.
    """

    def __init__(self, params: QParams, records: dict[int, ZeroRecord],
                 ctx: PrecisionContext):
        self.params = params
        self.records = records
        self.ctx = ctx
        self._vals: dict = {}
        # mode -> (values so far, the kernel that extends them)
        self._columns: dict[int, tuple[list[mpf], Iterator[mpf]]] = {}

    def memo(self, key, compute: Callable[[], object]):
        """compute(), called once per key for the life of the cache."""
        hit = self._vals.get(key)
        if hit is None:
            hit = self._vals[key] = compute()
        return hit

    def value(self, k: int, j: int) -> mpf:
        """J_nu(q^(j+1) j_k; q^2), entry j of mode k's column.

        The column starts at scaled(1) and steps its argument by q at the
        precision the zero carries: q^(j+1) j_k lands superexponentially
        close to smaller zeros for j <= k - 2, and the j/2 ulp that stepping
        adds there stays inside that precision's guard digits.  A kernel
        that raised is closed, so its column is dropped and restarts.
        """
        column = self._columns.get(k)
        if column is None:
            rec = self.records[k]
            column = self._columns[k] = ([], jnu3_lattice(
                self.params, rec.scaled(self.params, self.ctx, 1), self.ctx,
                max(self.ctx.digits + 10, rec.arg_dps)))
        values, kernel = column
        try:
            while len(values) <= j:
                values.append(next(kernel))
        except BaseException:
            del self._columns[k]
            raise
        return values[j]

    def derivative(self, k: int) -> mpf:
        """J'_nu(j_k; q^2)."""
        return self.memo(("derivative", k), lambda: jnu3_derivative(
            self.params, self.records[k].j, self.ctx).value)

    def upper(self, k: int) -> mpf:
        """J_(nu+1)(q j_k; q^2), the order above at the shifted zero."""
        def compute() -> mpf:
            with mp.workdps(self.ctx.digits + 40):
                up = QParams(self.params.q, self.params.nu_mp() + 1)
            return jnu3(up, self.records[k].scaled(self.params, self.ctx),
                        self.ctx).value
        return self.memo(("upper", k), compute)

    def eta(self, k: int) -> mpf:
        """eta_k by the closed form through J_(nu+1), computed once per k."""
        return self.memo(("eta", k), lambda: eta_k(self, k))

    def eta_root(self, k: int) -> mpf:
        """sqrt(eta_k).  A squared norm that is not positive was computed
        from a zero or a value that lost its accuracy: PrecisionError."""
        eta = self.eta(k)
        if not eta > 0:
            raise PrecisionError(
                f"eta_{k} = {mp.nstr(eta, 8)} is not positive")
        return mp.sqrt(eta)


class _Integrand(NamedTuple):
    """f on the lattice: its value at (j, q^j), its mode index or 0, and its
    sample count or None."""

    value: Callable[[int, mpf], mpf]
    mode: int
    count: int | None


def _read(f, cache: ModeCache) -> _Integrand:
    """f on the lattice, read at most once per lattice point: a
    LatticeFunction's samples and a callable's values at q^j into a list, a
    BasisFunction from the cache's column; an _Integrand as it is.  Lattice
    sums read j = 0, 1, 2, ... in turn, and each steps t = q^j alike, so
    the list holds f at the points where each sum would call it.  Call
    inside ctx.workdps(10).  A LatticeFunction must be sampled on the
    cache's base q, and a BasisFunction's mode must have a zero record."""
    if isinstance(f, _Integrand):
        return f
    if isinstance(f, LatticeFunction):
        if not same_base(f, cache.params.q):
            raise BaseMismatchError(
                f"lattice base {f.base} != expansion base {cache.params.q}")
        samples = [f.value(j) for j in range(f.truncation)]
        return _Integrand(lambda j, t: samples[j], 0, f.truncation)
    if isinstance(f, BasisFunction):
        if f.n not in cache.records:
            raise ValueError(f"mode {f.n} has no zero record (the table "
                             f"holds k in {sorted(cache.records)})")
        return _Integrand(lambda j, t: cache.value(f.n, j), f.n, None)
    values: list[mpf] = []

    def value(j: int, t: mpf) -> mpf:
        if j == len(values):
            values.append(mp.mpf(f(t)))
        return values[j]

    return _Integrand(value, 0, None)


def _integral(cache: ModeCache, f, k: int) -> mpf:
    """(1-q) sum_j q^(2j) f(q^j) J_k(q^j) over the lattice.

    A LatticeFunction is summed over its samples.  Otherwise the terms
    oscillate or stay positive but decay like q^((2+2nu)j) once j passes
    the mode indices, so the first max(n, k) + 5 terms are always summed,
    with n the mode index of f (0 for a callable).
    """
    with cache.ctx.workdps(10):
        value, mode, count = _read(f, cache)

        def term(j: int, t: mpf) -> mpf:
            return t * t * value(j, t) * cache.value(k, j)

        return lattice_sum(term, cache.params.q_mp(), cache.ctx,
                           max(mode, k) + 5, n=count)


def eta_k(cache: ModeCache, k: int,
          method: str = "closed_form_nu_plus_1") -> mpf:
    """Squared weighted norm eta_k = integral of t J_nu^2(q j_k t; q^2) d_q t.

    method="integral" sums the lattice directly; the closed forms are
      (q-1)/2 * q^(nu-1) * J_(nu+1)(q j_k; q^2) * J'_nu(j_k; q^2)   and
      (q-1)/(2 j_k) * q^(nu-2) * J_nu(q j_k; q^2) * J'_nu(j_k; q^2),
    with the values at the zero read from the cache.
    """
    if method not in ETA_METHODS:
        raise ValueError(f"unknown eta method {method!r}")
    if method == "integral":
        return _integral(cache, BasisFunction(k), k)
    with cache.ctx.workdps(10):
        q = cache.params.q_mp()
        nu = cache.params.nu_mp()
        if method == "closed_form_nu_plus_1":
            return ((q - 1) / 2 * q ** (nu - 1) * cache.upper(k)
                    * cache.derivative(k))
        return ((q - 1) / (2 * cache.records[k].j) * q ** (nu - 2)
                * cache.value(k, 0) * cache.derivative(k))


def coefficient(cache: ModeCache, f, k: int, eta_value: Numeric) -> mpf:
    """Expansion coefficient a_k(f) = (1/eta_k) integral t f(t) J_nu(q j_k t).

    The integral is the lattice sum (1-q) sum_j q^(2j) f(q^j) J_nu(q j_k q^j).
    ``f`` is a callable on (0,1], a LatticeFunction over base q (summed over
    its samples) or a BasisFunction (read from the cache, which must then
    hold its zero record).
    """
    with cache.ctx.workdps(10):
        eta = _as_mp(eta_value)
        if not eta > 0:
            raise ValueError("eta_k must be positive")
        return _integral(cache, f, k) / eta


def partial_sum(cache: ModeCache, coeffs: Sequence) -> list:
    """S_K(q^j) = sum_{k=1..K} a_k J_nu(q^(j+1) j_k; q^2) at the lattice
    points q^j, j < LATTICE_SAMPLES, with K = len(coeffs); the mode values
    are read from the cache."""
    out = []
    with cache.ctx.workdps(10):
        for j in range(LATTICE_SAMPLES):
            s = mpf(0)
            for k, a in enumerate(coeffs, 1):
                s += _as_mp(a) * cache.value(k, j)
            out.append(s)
    return out


def gram_matrix(cache: ModeCache, K: int) -> list[list[mpf]]:
    """Gram matrix G[n][m] = <u_n, u_m> of the orthonormal system

    u_k(x) = x^(1/2) J_nu(q j_k x; q^2) / sqrt(eta_k), expected ~ identity.

    Normalization uses the closed-form eta, so the diagonal tests the
    closed form against the direct integral rather than dividing a number
    by itself.
    """
    for k in range(1, K + 1):
        if k not in cache.records:
            raise ValueError(f"zero record for k={k} missing")
    with cache.ctx.workdps(10):
        roots = [cache.eta_root(k) for k in range(1, K + 1)]
        g = [[mpf(0)] * K for _ in range(K)]
        for n in range(1, K + 1):
            for m in range(n, K + 1):
                raw = _integral(cache, BasisFunction(n), m)
                val = raw / (roots[n - 1] * roots[m - 1])
                g[n - 1][m - 1] = val
                g[m - 1][n - 1] = val
    return g


def riemann_lebesgue_rate(cache: ModeCache, f,
                          m_values: Iterable[int]) -> dict:
    """Decay diagnostics for I_m = integral t f(t) J_nu(q j_m t; q^2) d_q t.

    Reports |I_m|, successive ratios, the rate statistic |I_m| q^(-m), and
    the per-m Cauchy-Schwarz envelope
    |I_m| <= (integral t |f|^2 d_q t)^(1/2) * eta_m^(1/2).
    The hypothesis t^(1/2) f in L_q^2[0,1] is checked via the finiteness of
    that weighted norm; a violation is reported, not fatal.  f is read once
    per lattice point for the norm and every I_m.
    """
    rows = []
    with cache.ctx.workdps(10):
        q = cache.params.q_mp()
        f = _read(f, cache)
        # integral of t |f|^2: the squared norm of t^(1/2) f
        try:
            if f.mode:
                wnorm2 = _integral(cache, f, f.mode)
            else:
                wnorm2 = lattice_sum(lambda j, t: t * t * f.value(j, t) ** 2,
                                     q, cache.ctx, 9, n=f.count)
            hypothesis_ok = mp.isfinite(wnorm2)
        except (PrecisionError, OverflowError):
            wnorm2 = mp.inf
            hypothesis_ok = False
        sup_rate = mpf(0)
        prev_abs = None
        for m in m_values:
            eta_root = cache.eta_root(m)
            i_m = coefficient(cache, f, m, 1)
            rate = abs(i_m) * q ** (-m)
            sup_rate = max(sup_rate, rate)
            envelope = (mp.sqrt(wnorm2) * eta_root
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
           ctx: PrecisionContext) -> ExpansionResult:
    """Compute eta, coefficients and lattice partial sums for f up to K modes.

    eta_k is the closed form through J_(nu+1); S_K is taken at the lattice
    points q^j, j < LATTICE_SAMPLES.  f is read once per lattice point for
    all K coefficients.
    """
    if K > len(records):
        raise ValueError(
            f"K={K} exceeds the {len(records)} available zero records")
    cache = ModeCache(params, records, ctx)
    with ctx.workdps(10):
        q = params.q_mp()
        f = _read(f, cache)
        etas = []
        coeffs = []
        for k in range(1, K + 1):
            e = cache.eta(k)
            etas.append(e)
            coeffs.append(coefficient(cache, f, k, e))
        xs = [q ** j for j in range(LATTICE_SAMPLES)]
        values = partial_sum(cache, coeffs)
        decay = {}
        if K >= 2:
            with mp.workdps(30):
                decay["coeff_ratio_last"] = (
                    abs(coeffs[-1]) / abs(coeffs[-2])
                    if coeffs[-2] != 0 else None)
    return ExpansionResult(params=params, K=K, eta=etas, coeffs=coeffs,
                           lattice_points=xs, partial_sum_values=values,
                           decay=decay)
