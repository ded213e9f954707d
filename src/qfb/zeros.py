"""Localization and refinement of the positive zeros j_k of J_nu(z;q^2),
plus the structural verifications built on them: shifted-zero interlacing,
derivative sign patterns, sign constancy, and decay bounds.

Zeros sit near q^(-k): j_k = q^(-k+eps_k) with 0 < eps_k < alpha_k from some
empirically detected index k0 on.  The bracket (q^(-k+alpha_k), q^(-k)) is
tried first; smaller k fall back to a dense geometric sign scan; either is
assumed to hold one zero.  Every sign is certified (qspecial.jnu3_sign sums
the bare series, whose sign is J's for z > 0, until its precision exceeds the
digits lost to cancellation by a guard).  Each j_k is the zero bisection
gives; secant steps narrow a certified bracket until it fits in the cell
where bisection would stop.  A scan or a refinement starts each sign query
10 digits below the precision that certified its previous one.  The records
and rows are data; qfb.cli writes them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .precision import PrecisionContext, PrecisionError
from .qcore import Numeric, QParams, _as_mp, qpochhammer_multi, \
    qpochhammer_infinite
from .qspecial import jnu3, jnu3_derivative, jnu3_sign, phi11_derivative

if TYPE_CHECKING:   # expansion imports zeros
    from .expansion import ModeCache

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

    def scaled(self, params: QParams, ctx: PrecisionContext,
               m: int = 1) -> mpf:
        """The argument q^m * j, formed at the precision j carries."""
        with mp.workdps(max(ctx.digits + 10, self.arg_dps)):
            return params.q_mp() ** m * self.j


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
        s, sign_dps, _ = jnu3_sign(params, z, ctx, 30)
        while z < hi:
            z_next = min(z * r, hi)
            s_next, sign_dps, _ = jnu3_sign(params, z_next, ctx,
                                            max(sign_dps - 10, 30))
            if s_next != s:
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
        if jnu3_sign(params, v, PrecisionContext(dps), 30)[0] == s_target:
            return v
        dps *= 2
    raise PrecisionError(
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
                s_lo = jnu3_sign(params, lo_point, ctx, 30)[0]
                s_hi = jnu3_sign(params, hi_point, ctx, 30)[0]
                if s_lo != s_hi:
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


def _bisection_cell(lo: mpf, hi: mpf, a: mpf, b: mpf, tol: mpf,
                    done: Callable[[mpf, mpf], bool]) -> tuple:
    """Bisection of (lo, hi) keeps the cells lo + [i, i+1] (hi - lo) 2^-n
    that hold the zero and stops in the first whose (centre, width) pass
    ``done``; tol, about the width done accepts, seeds the depth.  For the
    zero in (a, b): that cell's exact (centre, width) if a and b share it,
    else (None, the boundary inside (a, b) that bisection queries first).
    """
    exps = [v.man_exp for v in (lo, hi, a, b)]
    f = min(e for _, e in exps)
    lo_i, hi_i, a_i, b_i = (m << (e - f) for m, e in exps)
    d, a_i, b_i = hi_i - lo_i, a_i - lo_i, b_i - lo_i

    def point(n: int, i: int) -> mpf:      # lo + i (hi - lo) 2^-(n+1)
        return mp.make_mpf(from_man_exp((lo_i << (n + 1)) + i * d, f - n - 1))

    def cell(n: int, i: int) -> tuple[mpf, mpf]:
        return point(n, 2 * i + 1), mp.make_mpf(from_man_exp(d, f - n))

    n = max(0, d.bit_length() + f - mp.mag(tol))
    while not done(*cell(n, (a_i << n) // d)):
        n += 1
    while n and done(*cell(n - 1, (a_i << (n - 1)) // d)):
        n -= 1
    # a on a boundary lies in the upper cell, b in the lower
    i_a, i_b = (a_i << n) // d, -(-(b_i << n) // d) - 1
    if i_a == i_b:
        return cell(n, i_a)
    s = (i_a ^ i_b).bit_length() - 1
    return None, point(n, 2 * ((i_b >> s) << s))


def find_zero(params: QParams, k: int, ctx: PrecisionContext,
              prev_zero: mpf | None = None) -> ZeroRecord:
    """The k-th zero as bisection of bracket_zero's bracket gives it.

    Bisection stops at relative width 10^(-digits/2) and, when the previous
    zero is known, at that fraction of the gap q*j_k - j_(k-1), across which
    values like J_nu(q j_k; q^2) are differences.  Anderson-Bjorck steps on
    jnu3_sign's bare sums (each at least tol/2 inside, a bisection step
    after 3 that move the same end) narrow a certified bracket (a, b) to
    about that width; then the cell boundaries _bisection_cell names are
    queried until a and b share bisection's last cell, whose centre is j.
    """
    # the ends are kept verbatim: bracket_zero may have materialised them at
    # far more digits than work, and rounding one could cross the zero
    lo, hi = a, b = bracket_zero(params, k, ctx, prev_zero)
    s_lo, dps, f_a = jnu3_sign(params, lo, ctx, 30)
    s_hi, dps, f_b = jnu3_sign(params, hi, ctx, max(dps - 10, 30))
    if s_lo == s_hi:
        raise ValueError("bracket carries no sign change")
    work = ctx.digits + 40
    with mp.workdps(work):
        tol_rel = mpf(10) ** (-mpf(ctx.digits) / 2)
        prev = (prev_zero if prev_zero is None or isinstance(prev_zero, mpf)
                else _as_mp(prev_zero))

    def done(mid: mpf, width: mpf) -> bool:
        # q at the working precision: the gap shrinks like eps_(k-1) j_k,
        # below the rounding of a q fixed earlier
        gap = mid if prev is None else (q * mid - prev) / q
        return gap > 0 and width <= tol_rel * min(mid, gap)

    j = None
    moved = streak = 0          # the end the last step moved (-1 a, 1 b)
    for _ in range(6000):
        with mp.workdps(work):
            width, mid, q = b - a, (a + b) / 2, params.q_mp()
            tol = tol_rel * (mid if prev is None
                             else min(mid, (q * b - prev) / q))
            # a gap that reads <= 0 is rounding: raise the precision
            need = (ctx.digits + 50 + int(-mp.mag(tol / mid) * 0.302)
                    if tol > 0 else 2 * work)
            if need > work:
                if work >= ctx.dps_cap:
                    break
                work = min(need, ctx.dps_cap)
                continue
            if width > tol:
                x = mid if streak >= 3 else min(max(
                    b - f_b * (b - a) / (f_b - f_a), a + tol / 2), b - tol / 2)
            else:
                j, x = _bisection_cell(lo, hi, a, b, tol, done)
                if j is not None:   # x is the cell's width
                    arg_dps = ctx.digits + 40 + max(
                        0, int(-mp.mag(x / j) * 0.302) + 10)
                    break
        s, dps, f_x = jnu3_sign(params, x, PrecisionContext(work),
                                max(dps - 10, 30))
        side = -1 if s == s_lo else 1
        # an end kept a second time in a row has its value scaled
        m = 1 - f_x / (f_a if side < 0 else f_b) if side == moved else 1
        m = m if m > 0 else 0.5
        if side < 0:
            a, f_a, f_b = x, f_x, f_b * m
        else:
            b, f_b, f_a = x, f_x, f_a * m
        streak = 0 if streak >= 3 else streak * (side == moved) + 1
        moved = side
    if j is None:
        raise PrecisionError(f"refinement did not converge at k={k}")
    with mp.workdps(arg_dps):
        # q re-derived at the final working precision: eps_k can be smaller
        # than the *initial* working precision's representation of log q.
        eps = k + mp.log(j) / mp.log(params.q_mp())
        alpha = alpha_k(params, k, ctx)
        # the asymptotic localisation claim, checked on the refined zero
        asymptotic_ok = alpha is not None and bool(0 < eps < alpha)
    return ZeroRecord(k=k, bracket_lo=lo, bracket_hi=hi, j=j, epsilon_k=eps,
                      alpha_k=alpha, refined_to=ctx.digits,
                      asymptotic_bracket_ok=asymptotic_ok, arg_dps=arg_dps)


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
    """Dense-scan census of zeros in (0, z_max] (oracle for small ranges).

    The scan runs over (z0, z_max], z0 = sqrt((1 - p^(nu+1)) (1 - p) / (2p))
    with p = q^2: for z <= z0 the bare series alternates, its terms shrink
    from the first on and the first ratio is at most 1/2, so J > 0 on
    (0, z0].
    """
    scan_ctx = PrecisionContext(30)
    with mp.workdps(40):
        p = params.q_mp() ** 2
        start = mp.sqrt((1 - p ** (params.nu_mp() + 1)) * (1 - p) / (2 * p))
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


def verify_decay_bounds(cache: ModeCache, k_values: Iterable[int]) -> dict:
    """Shifted-value bounds at the refined zeros of the cache's records.

    Per index k:
      (b) |J_nu(q j_k;q^2)| against the explicit bound
          [(-q^2, -q^(2(nu+1)); q^2)_inf / (q^2;q^2)_inf] * q^((k+nu)(k-1)),
      (c) |J_nu(q^(-k+1);q^2)| against the same bound,
      (d) |J_nu(q j_k;q^2)| against the enlarged bound
          B_mu(q) * q^(-(k+(mu-3)/2-eps_k)^2) with mu = nu and
          B_mu(q) = q^((mu/2)(mu/2-1)) / ((1-q^2)(q^2;q^2)_inf^2).
    (b) and (d) read J_nu(q j_k;q^2) from the cache (its value(k, 0)).
    """
    params, ctx = cache.params, cache.ctx
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
            rec = cache.records[k]
            j_shift = abs(cache.value(k, 0))
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
