"""Localization and refinement of the positive zeros j_k of J_nu(z;q^2),
plus the structural verifications built on them: shifted-zero interlacing,
derivative sign patterns, sign constancy, and decay bounds.

Zeros sit near q^(-k): j_k = q^(-k+eps_k) with 0 < eps_k < alpha_k from some
empirically detected index k0 on.  The bracket (q^(-k+alpha_k), q^(-k)) is
tried first; smaller k fall back to a dense geometric sign scan.  Refinement
is bisection only, since sign evaluations stay reliable under the adaptive
cancellation policy while derivative-based steps near critical points do not.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from mpmath import mp, mpf

from .precision import PrecisionContext
from .qcore import Numeric, QParams, _as_mp, qpochhammer_multi, \
    qpochhammer_infinite
from .qspecial import jnu3, jnu3_derivative, phi11_derivative

SCAN_RATIO = mpf(1) + mpf(1) / 1000   # no two zeros share a cell for k <= 12
# J' samples per interval of the sign-constancy check
SAMPLES_PER_INTERVAL = 32


class ScanExhaustedError(RuntimeError):
    """No sign change found on the scanned grid."""


@dataclass
class ZeroRecord:
    """A refined positive zero j_k of J_nu(z;q^2) and its derived exponents."""

    k: int
    bracket_lo: mpf
    bracket_hi: mpf
    j: mpf
    epsilon_k: mpf
    alpha_k: mpf | None
    refined_to: int
    asymptotic_bracket_ok: bool
    # working decimal digits carried by j; arithmetic that forms arguments
    # from j (q*j, q^m*j, gaps to neighbours) must run at this precision,
    # because those arguments land superexponentially close to other zeros.
    arg_dps: int = 0

    def scaled(self, params: QParams, ctx: PrecisionContext, m: int = 1,
               x: Numeric = 1) -> mpf:
        """The argument q^m * j * x, formed at the precision j carries."""
        with mp.workdps(max(ctx.digits + 10, self.arg_dps)):
            return params.q_mp() ** m * self.j * _as_mp(x)

    def to_json_dict(self, digits: int = 50) -> dict:
        with mp.workdps(digits + 10):
            return {
                "k": self.k,
                "j": mp.nstr(self.j, digits),
                "bracket_lo": mp.nstr(self.bracket_lo, digits),
                "bracket_hi": mp.nstr(self.bracket_hi, digits),
                "epsilon_k": mp.nstr(self.epsilon_k, 30),
                "alpha_k": (mp.nstr(self.alpha_k, 30)
                            if self.alpha_k is not None else None),
                "refined_to": self.refined_to,
                "asymptotic_bracket_ok": self.asymptotic_bracket_ok,
            }


def alpha_k(params: QParams, k: int,
            ctx: PrecisionContext | None = None) -> mpf | None:
    """alpha_k = log(1 - q^(2(k+nu)) / (1 - q^(2k))) / (2 log q), or None
    where the log argument is <= 0 (q near 1 at small k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dps = (ctx.digits if ctx is not None else max(mp.dps, 60)) + 10
    with mp.workdps(dps):
        q = params.q_mp()
        nu = params.nu_mp()
        arg = 1 - q ** (2 * (k + nu)) / (1 - q ** (2 * k))
        return mp.log(arg) / (2 * mp.log(q)) if arg > 0 else None


def _sgn(v: mpf) -> int:
    return (v > 0) - (v < 0)


def _sign(params: QParams, z: mpf, ctx: PrecisionContext) -> int:
    return _sgn(jnu3(params, z, ctx).value)


def dense_scan_brackets(params: QParams, z_lo: Numeric, z_hi: Numeric,
                        ctx: PrecisionContext,
                        ratio: mpf = SCAN_RATIO,
                        max_brackets: int | None = None) -> list[tuple]:
    """Multiplicative sign scan of J_nu(.;q^2) over (z_lo, z_hi].

    Returns the list of consecutive-grid-point brackets where the sign flips.
    """
    brackets = []
    with ctx.workdps(10):
        lo = _as_mp(z_lo)
        hi = _as_mp(z_hi)
        r = _as_mp(ratio)
        z = lo
        s = _sign(params, z, ctx)
        while z < hi:
            z_next = min(z * r, hi)
            s_next = _sign(params, z_next, ctx)
            if s_next != s and s != 0:
                brackets.append((z, z_next))
                if max_brackets is not None and len(brackets) >= max_brackets:
                    return brackets
            z, s = z_next, s_next
    return brackets


def _materialize_endpoint(params: QParams, point: Callable[[], mpf],
                          s_target: int, ctx: PrecisionContext) -> mpf:
    """Round a bracket endpoint to an mpf that stays on its side of the zero.

    ``point`` re-derives the exact endpoint at the ambient precision and
    ``s_target`` is the sign of J_nu(.;q^2) at the exact endpoint.  When the
    endpoint lies superexponentially close to the zero, a low-precision
    rounding can land on the wrong side; the precision is doubled until the
    sign at the rounded value matches the exact one.
    """
    dps = ctx.digits + 40
    for _ in range(12):
        with mp.workdps(dps):
            v = point()
        if _sign(params, v, PrecisionContext(dps)) == s_target:
            return v
        dps *= 2
    raise RuntimeError(
        "could not represent a bracket endpoint on the correct side of "
        f"the zero at q={params.q}, nu={params.nu}")


def bracket_zero(params: QParams, k: int, ctx: PrecisionContext,
                 prev_zero: mpf | None = None) -> tuple[mpf, mpf]:
    """Sign-change bracket for the k-th zero.

    Uses the asymptotic bracket (q^(-k+alpha_k), q^(-k)) when alpha_k is
    small enough that the bracket cannot hold more than one zero
    (consecutive zeros are separated by at least roughly a factor 1/q); for
    larger alpha_k, or when the endpoint signs do not flip, falls back to a
    dense geometric scan above the previous zero.  Returns (lo, hi).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scan_ctx = PrecisionContext(30)
    with ctx.workdps(10):
        q = params.q_mp()
        hi = q ** (-k)
        a = alpha_k(params, k, ctx)
        if a is not None and a <= mpf(1) / 5:
            lo = q ** (-k + a)
            inside = prev_zero is None or lo > prev_zero
            # The endpoint q^(-k) can sit superexponentially close to the
            # zero, so its sign is queried through a callable that re-derives
            # the point at each adaptive attempt's precision.
            def lo_point() -> mpf:
                return params.q_mp() ** (-k + alpha_k(params, k))

            def hi_point() -> mpf:
                return params.q_mp() ** (-k)

            if inside:
                s_lo = _sign(params, lo_point, ctx)
                s_hi = _sign(params, hi_point, ctx)
                if s_lo != s_hi and s_lo != 0 and s_hi != 0:
                    lo_m = _materialize_endpoint(params, lo_point, s_lo, ctx)
                    hi_m = _materialize_endpoint(params, hi_point, s_hi, ctx)
                    return lo_m, hi_m
        # fallback: dense scan upward from just above the previous zero.
        # Before the asymptotic regime sets in, j_k may lie above q^(-k)
        # (common for q near 1 at small k), so the scan ceiling is extended
        # past q^(-k) when needed; the first sign change above j_(k-1) is
        # j_k because the zeros are simple and ordered.
        if prev_zero is not None:
            start = prev_zero * (SCAN_RATIO ** 2)
        else:
            start = q ** (k + 3)
        top = max(hi, start * SCAN_RATIO)
        for _ in range(6):
            found = dense_scan_brackets(params, start, top, scan_ctx,
                                        max_brackets=1)
            if found:
                return found[0][0], found[0][1]
            if prev_zero is None:
                start = start * start   # push the scan start toward 0
            top = top / q               # raise the ceiling
        raise ScanExhaustedError(
            f"no sign change of J_nu(.;q^2) in ({mp.nstr(start, 8)}, "
            f"{mp.nstr(top, 8)}] for k={k}, q={params.q}, nu={params.nu}")


def find_zero(params: QParams, k: int, ctx: PrecisionContext,
              prev_zero: mpf | None = None) -> ZeroRecord:
    """Bisect the k-th zero.

    The bracket is first narrowed to relative width 10^(-digits/2).  When
    the previous zero is known, refinement continues until the width is
    10^(-digits/2) of the gap q*j_k - j_(k-1): quantities like
    J_nu(q j_k; q^2) are differences across that gap, which shrinks like
    eps_(k-1) relative to j_k, so gap-relative accuracy is what downstream
    closed forms actually consume.  The working precision for the bracket
    arithmetic and the sign queries grows with the shrinking relative width.
    """
    # the endpoints are kept verbatim: bracket_zero may have materialised
    # them at far more digits than work_dps, and rounding one would move it
    # across the zero it brackets.
    lo, hi = bracket_lo, bracket_hi = bracket_zero(params, k, ctx, prev_zero)
    work_dps = ctx.digits + 40
    max_iters = 6000
    iters = 0
    with mp.workdps(work_dps):
        tol_rel = mpf(10) ** (-mpf(ctx.digits) / 2)
        if prev_zero is None:
            prev = None
        else:
            prev = (prev_zero if isinstance(prev_zero, mpf)
                    else _as_mp(prev_zero))
    s_lo = _sign(params, lo, ctx)
    s_hi = _sign(params, hi, ctx)
    if s_lo == s_hi:
        raise ValueError(f"bracket carries no sign change at k={k}")

    while True:
        with mp.workdps(work_dps):
            width = hi - lo
            mid = (lo + hi) / 2
            done = width <= tol_rel * mid
            if done and prev is not None:
                # q at the current precision: the gap shrinks like
                # eps_(k-1) j_k, below the rounding of a q fixed earlier
                q = params.q_mp()
                gap = q * mid - prev
                done = gap > 0 and width <= tol_rel * gap / q
            # keep ~digits/2 working digits beyond the bracket resolution
            rel_exp = mp.mag(width / mid)          # binary exponent
            needed = ctx.digits + 40 + max(0, int(-rel_exp * 0.302) + 10)
            if needed > work_dps:
                work_dps = needed
        if done:
            break
        s_mid = _sign(params, mid, PrecisionContext(work_dps))
        if s_mid == 0:
            lo = hi = mid
            break
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
        iters += 1
        if iters > max_iters:
            raise RuntimeError(f"bisection did not converge at k={k}")

    with mp.workdps(work_dps):
        j = (lo + hi) / 2
        # q re-derived at the final working precision: eps_k can be smaller
        # than the *initial* working precision's representation of log q.
        eps = k + mp.log(j) / mp.log(params.q_mp())
        a = alpha_k(params, k, ctx)
        # the asymptotic localisation claim, checked on the refined zero
        asymptotic_ok = a is not None and bool(0 < eps < a)
    return ZeroRecord(k=k, bracket_lo=bracket_lo, bracket_hi=bracket_hi,
                      j=j, epsilon_k=eps, alpha_k=a,
                      refined_to=ctx.digits, asymptotic_bracket_ok=asymptotic_ok,
                      arg_dps=work_dps)


def zero_table(params: QParams, k_max: int,
               ctx: PrecisionContext) -> list[ZeroRecord]:
    """Ordered records for k = 1..k_max, computed sequentially."""
    records: list[ZeroRecord] = []
    prev = None
    for k in range(1, k_max + 1):
        rec = find_zero(params, k, ctx, prev_zero=prev)
        records.append(rec)
        prev = rec.j
    return records


def empirical_k0(records: Sequence[ZeroRecord]) -> int | None:
    """First index from which the asymptotic bracket isolates every zero."""
    k0 = None
    for rec in records:
        if rec.asymptotic_bracket_ok:
            if k0 is None:
                k0 = rec.k
        else:
            k0 = None
    return k0


def count_zeros_below(params: QParams, z_max: Numeric,
                      ctx: PrecisionContext) -> int:
    """Dense-scan census of zeros in (0, z_max] (oracle for small ranges)."""
    scan_ctx = PrecisionContext(30)
    with mp.workdps(40):
        q = params.q_mp()
        start = q ** 8
    return len(dense_scan_brackets(params, start, z_max, scan_ctx))


def verify_shifted_zero(params: QParams, k: int,
                        records: dict[int, ZeroRecord]) -> dict:
    """Check j_(k-1) < q j_k < q^(1-k), plus the companion location of j_k/q.

    Margins are reported relative to the interval endpoints.
    """
    if k - 1 not in records or k not in records:
        raise ValueError(f"records for k-1 and k required (k={k})")
    work = max(records[k].refined_to + 40, records[k].arg_dps,
               records[k - 1].arg_dps)
    with mp.workdps(work):
        q = params.q_mp()
        jk = records[k].j
        jkm1 = records[k - 1].j
        shifted = q * jk
        upper = q ** (1 - k)
        ok = jkm1 < shifted < upper
        row = {
            "k": k,
            "holds": bool(ok),
            "margin_lower": (shifted - jkm1) / jkm1,
            "margin_upper": (upper - shifted) / upper,
            "eps_decreasing": records[k].epsilon_k < records[k - 1].epsilon_k,
        }
        # alpha_(k+1) is None only where record k+1 is not asymptotic
        a = alpha_k(params, k + 1) if k + 1 in records else None
        row["companion_holds"] = None if a is None else bool(
            q ** (-k - 1 + a) < jk / q < records[k + 1].j)
    return row


def _theta_value(theta_rule: Callable[[int], Numeric], m: int) -> mpf:
    th = _as_mp(theta_rule(m))
    if not (0 <= th < 1):
        raise ValueError(f"theta_m must lie in [0,1), got {th} at m={m}")
    return th


def _check_samples(samples_per_interval: int) -> None:
    if samples_per_interval < 1:
        raise ValueError("need at least one sample per interval")


def derivative_sign_pattern(params: QParams, m_values: Iterable[int],
                            theta_rule: Callable[[int], Numeric],
                            ctx: PrecisionContext,
                            kind: str = "bessel",
                            limit: str = "zero") -> dict:
    """Observed vs predicted signs of the derivative at z = q^(-m+theta_m).

    kind="bessel" checks J'_nu(.;q^2) at z = q^(-m+theta_m); kind="phi11"
    checks the z-derivative of 1phi1(0; q^(2(nu+1)); q^2, z) at
    z = q^(2(-m+theta_m)).  limit="zero" assumes m*theta_m -> 0,
    limit="infinity" assumes m*theta_m -> infinity; the predictions are
    (-1)^m / (-1)^(m-1) for the Bessel case and (-1)^(m+1) / (-1)^m for the
    1phi1 case.  Returns rows plus the first index from which every observed
    sign matches.
    """
    if kind not in ("bessel", "phi11"):
        raise ValueError(f"unknown kind {kind!r}")
    if limit not in ("zero", "infinity"):
        raise ValueError(f"unknown limit {limit!r}")
    rows = []
    with ctx.workdps(10):
        q = params.q_mp()
        nu = params.nu_mp()
        # the 1phi1 statement is checked in the same base-q^2 setting as the
        # rest of the machinery: omega = q^(2(nu+1)), base p = q^2, argument
        # on the p-lattice
        p = q * q
        omega = p ** (nu + 1)
        for m in m_values:
            th = _theta_value(theta_rule, m)
            if kind == "bessel":
                z = q ** (-m + th)
                v = jnu3_derivative(params, z, ctx).value
                predicted = (-1) ** m if limit == "zero" else (-1) ** (m - 1)
            else:
                z = p ** (-m + th)
                v = phi11_derivative(omega, p, z, ctx).value
                predicted = (-1) ** (m + 1) if limit == "zero" else (-1) ** m
            observed = _sgn(v)
            rows.append({"m": m, "theta": th, "observed": observed,
                         "predicted": predicted,
                         "match": observed == predicted})
    threshold = None
    for row in reversed(rows):
        if not row["match"]:
            break
        threshold = row["m"]
    return {"rows": rows, "threshold": threshold, "kind": kind,
            "limit": limit}


def verify_sign_constancy(params: QParams, m_values: Iterable[int],
                          ctx: PrecisionContext,
                          samples_per_interval: int = SAMPLES_PER_INTERVAL
                          ) -> dict:
    """Sample J'_nu(.;q^2) on a geometric grid in (q^(-m+alpha_m), q^(-m)).

    Reports whether the sign is constant in each interval and whether
    adjacent intervals alternate.  Indices where alpha_m falls outside
    [0,1) (alpha_m >= 1 happens pre-asymptotically for q near 1 at small m,
    where the "interval" would span several zeros) are reported as skipped.
    """
    _check_samples(samples_per_interval)
    rows = []
    skipped = []
    with ctx.workdps(10):
        q = params.q_mp()
        for m in m_values:
            th = alpha_k(params, m, ctx)
            if th is None or not th < 1:
                skipped.append(m)
                continue
            signs = []
            n = samples_per_interval
            for i in range(n):
                u = th * (i + 1) / (n + 1)   # interior exponents in (0, th)
                z = q ** (-m + u)
                signs.append(_sgn(jnu3_derivative(params, z, ctx).value))
            rows.append({"m": m, "theta_star": th,
                         "constant": len(set(signs)) == 1,
                         "sign": signs[0] if len(set(signs)) == 1 else 0})
    alternating = all(
        r1["sign"] == -r0["sign"] and r1["sign"] != 0
        for r0, r1 in zip(rows, rows[1:])
        if r1["m"] == r0["m"] + 1)
    return {"rows": rows, "adjacent_alternating": alternating,
            "skipped": skipped}


def verify_decay_bounds(params: QParams, k_values: Iterable[int],
                        records: dict[int, ZeroRecord],
                        ctx: PrecisionContext) -> dict:
    """Shifted-value bounds at the refined zeros.

    Per index k:
      (b) |J_nu(q j_k;q^2)| against the explicit bound
          [(-q^2, -q^(2(nu+1)); q^2)_inf / (q^2;q^2)_inf] * q^((k+nu)(k-1)),
      (c) |J_nu(q^(-k+1);q^2)| against the same bound,
      (d) |J_nu(q j_k;q^2)| against the enlarged bound
          B_mu(q) * q^(-(k+(mu-3)/2-eps_k)^2) with mu = nu and
          B_mu(q) = q^((mu/2)(mu/2-1)) / ((1-q^2)(q^2;q^2)_inf^2).
    """
    rows = []
    with ctx.workdps(10):
        q = params.q_mp()
        nu = params.nu_mp()
        q2 = q * q
        cq = (qpochhammer_multi([-q2, -q ** (2 * (nu + 1))], q2, ctx)
              / qpochhammer_infinite(q2, q2, ctx))
        bmu = (q ** ((nu / 2) * (nu / 2 - 1))
               / ((1 - q2) * qpochhammer_infinite(q2, q2, ctx) ** 2))
        for k in k_values:
            rec = records[k]
            # q*j_k lies superexponentially close to j_(k-1)
            j_shift = abs(jnu3(params, rec.scaled(params, ctx), ctx).value)
            bound_b = cq * q ** ((k + nu) * (k - 1))
            j_lattice = abs(jnu3(
                params, (lambda kk: lambda: params.q_mp() ** (-kk + 1))(k),
                ctx).value)
            bound_d = bmu * q ** (-(k + (nu - 3) / 2 - rec.epsilon_k) ** 2)
            rows.append({
                "k": k,
                "shifted_value": j_shift,
                "bound_b": bound_b,
                "holds_b": bool(j_shift <= bound_b),
                "lattice_value": j_lattice,
                "holds_c": bool(j_lattice <= bound_b),
                "bound_d": bound_d,
                "holds_d": bool(j_shift <= bound_d),
            })
    return {"rows": rows}


def zero_table_to_csv(records: Sequence[ZeroRecord],
                      digits: int = 50) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["k", "j", "epsilon_k", "alpha_k", "digits"])
    with mp.workdps(digits + 10):
        for rec in records:
            writer.writerow([
                rec.k,
                mp.nstr(rec.j, digits),
                mp.nstr(rec.epsilon_k, 30),
                mp.nstr(rec.alpha_k, 30) if rec.alpha_k is not None else "",
                rec.refined_to,
            ])
    return buf.getvalue()


def zero_table_to_json(records: Sequence[ZeroRecord],
                       digits: int = 50) -> str:
    return json.dumps([rec.to_json_dict(digits) for rec in records],
                      indent=2)
