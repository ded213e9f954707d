"""Named verification checks over the zero/expansion machinery.

Each check evaluates one structural property of J_nu(z;q^2) — sign patterns,
interlacing of shifted zeros, decay bounds, orthogonality, coefficient decay,
or internal consistency between independent computation routes — and returns
an auditable record: the mathematical statement being tested (the anchor),
the parameters, an observed margin, a threshold index for asymptotic
statements, and a pass/fail status.

Asymptotic statements ("for large indices") are operationalized as: the
property must hold for every index from a reported threshold up to the tested
maximum, and boundedness claims must not degrade when the working precision
is doubled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

from mpmath import mp, mpf

from .precision import PrecisionContext
from .qcore import (Numeric, QParams, _as_mp, qintegral_01,
                    qpochhammer_infinite)
from .qspecial import jnu3, phi11
from .zeros import (SAMPLES_PER_INTERVAL, ZeroRecord, _check_samples,
                    _theta_value, count_zeros_below, derivative_sign_pattern,
                    empirical_k0, verify_decay_bounds, verify_shifted_zero,
                    verify_sign_constancy, zero_table)
from .expansion import (ModeCache, ETA_METHODS, eta_k, gram_matrix,
                        riemann_lebesgue_rate)

ANCHORS = {
    "signs": ("sgn J'_nu(q^(-m+theta_m);q^2) = (-1)^m when m*theta_m -> 0 "
              "and (-1)^(m-1) when m*theta_m -> infinity; for the "
              "z-derivative of 1phi1(0;q^(2(nu+1));q^2,z) at "
              "z = q^(2(-m+theta_m)) the signs are (-1)^(m+1) and (-1)^m "
              "respectively, for all large m"),
    "sign-constancy": ("J'_nu(.;q^2) keeps a constant sign on each interval "
                       "(q^(-m+alpha_m), q^(-m)) and the signs of adjacent "
                       "intervals alternate"),
    "shifted-zeros": ("q^(-k+alpha_k) < j_k < q^(-k) with "
                      "eps_k = k + ln(j_k)/ln(q) in (0, alpha_k) from some "
                      "k0 on; j_(k-1) < q*j_k < q^(1-k); eps_k strictly "
                      "decreasing; j_k/q in (q^(-k-1+alpha_(k+1)), j_(k+1)); "
                      "zero census below q^(-6) matches a dense sign scan"),
    "derivative-decay": ("J'_nu(j_m;q^2) = O(q^(-m(m+nu-2))): the ratio "
                         "|J'_nu(j_m;q^2)|*q^(m(m+nu-2)) stays bounded and "
                         "its supremum does not grow when the working "
                         "precision is doubled"),
    "shifted-value-bound": ("|J_nu(q*j_k;q^2)| <= "
                            "[(-q^2,-q^(2(nu+1));q^2)_inf/(q^2;q^2)_inf]"
                            "*q^((k+nu)(k-1)), the same bound at "
                            "z = q^(-k+1), and the enlarged bound "
                            "B_mu(q)*q^(-(k+(mu-3)/2-eps_k)^2) with "
                            "B_mu(q) = q^((mu/2)(mu/2-1))/"
                            "((1-q^2)(q^2;q^2)_inf^2)"),
    "eta-decay": ("eta_m = O(q^(2m)) and sqrt(eta_m) = O(q^m): the ratios "
                  "eta_m*q^(-2m) are positive, bounded, and stabilize to a "
                  "plateau as m grows"),
    "gram": ("<u_n, u_m> = delta_(n,m) for the orthonormal system "
             "u_m(x) = x^(1/2) J_nu(q*j_m*x;q^2)/sqrt(eta_m) under the "
             "q-integral inner product on [0,1]"),
    "riemann-lebesgue": ("I_m = integral_0^1 t f(t) J_nu(q*j_m*t;q^2) d_q t "
                         "= O(q^m) whenever t^(1/2) f(t) is in L_q^2[0,1], "
                         "with the per-index envelope "
                         "|I_m| <= ||t^(1/2) f|| * sqrt(eta_m)"),
    "consistency": ("J_nu(z;q^2) = z^nu (q^(2(nu+1));q^2)_inf/(q^2;q^2)_inf "
                    "* 1phi1(0;q^(2(nu+1));q^2, q^2 z^2); "
                    "integral_0^1 t^s d_q t = (1-q)/(1-q^(s+1)); the three "
                    "eta_k formulas (lattice integral and the two closed "
                    "forms via J_(nu+1) and J_nu at the shifted zero) agree; "
                    "J_(nu+1)(q*j_k;q^2) = J_nu(q*j_k;q^2)/(q*j_k)"),
}

CHECK_IDS = tuple(ANCHORS)

# the largest acceptable threshold index for asymptotic sign/bound claims
ASYMPTOTIC_THRESHOLD = 6
# modes in the Gram matrix (capped at kmax) and its default tolerance
GRAM_SIZE = 8
GRAM_TOL = "1e-40"
# consistency tolerances: series routes, monomial integrals, eta routes and
# the order recurrence
ROUTE_TOL = "1e-60"
INTEGRAL_TOL = "1e-100"
ETA_TOL = "1e-40"
# integrands of the riemann-lebesgue check; the CLI's --f adds one more
DEFAULT_RL_FUNCTIONS = (
    ("1", lambda t: mpf(1)),
    ("t^(-1/4)", lambda t: t ** (-mpf(1) / 4)),
)


@dataclass
class CheckResult:
    check: str
    anchor: str
    params: dict
    status: str                 # "pass" | "fail"
    margin: mpf | None = None   # the observed worst margin/supremum
    threshold: int | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self, digits: int = 30) -> dict:
        def conv(x):
            if isinstance(x, mpf):
                return mp.nstr(x, digits)
            if isinstance(x, dict):
                return {k: conv(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [conv(v) for v in x]
            return x
        with mp.workdps(digits + 10):
            return {
                "check": self.check,
                "anchor": self.anchor,
                "params": conv(self.params),
                "status": self.status,
                "margin": conv(self.margin),
                "threshold": self.threshold,
                "details": conv(self.details),
            }


@dataclass
class VerificationReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_json(self, digits: int = 30) -> str:
        return json.dumps({
            "passed": self.passed,
            "results": [r.to_json_dict(digits)
                        for r in sorted(self.results, key=lambda r: r.check)],
        }, indent=2)

    def to_csv(self, digits: int = 30) -> str:
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["check", "status", "margin", "threshold", "anchor"])
        with mp.workdps(digits + 10):
            for r in sorted(self.results, key=lambda r: r.check):
                writer.writerow([
                    r.check, r.status,
                    mp.nstr(r.margin, digits) if r.margin is not None else "",
                    r.threshold if r.threshold is not None else "",
                    r.anchor,
                ])
        return buf.getvalue()


def _default_theta_zero(m: int) -> mpf:
    return 1 / mp.mpf(m) ** 2


def _default_theta_inf(m: int) -> mpf:
    return 1 / mp.sqrt(m)


def _result(check: str, params: QParams, ok: bool, own_params: dict,
            findings: dict) -> CheckResult:
    """The envelope every check shares (its id, anchor, q, nu and status)
    around what the check returns: (ok, its own parameters, its findings,
    i.e. the margin, threshold and details fields)."""
    return CheckResult(
        check=check, anchor=ANCHORS[check],
        params={"q": str(params.q), "nu": str(params.nu), **own_params},
        status="pass" if ok else "fail", **findings)


def _check_signs(params, ctx, records, cache, kmax, theta_zero, theta_inf):
    tables = {}
    thresholds = {}
    # m starts at 2: the default rules m^(-2) and m^(-1/2) hit theta = 1
    # (outside [0,1)) at m = 1
    with ctx.workdps(10):
        for kind in ("bessel", "phi11"):
            for limit, rule in (("zero", theta_zero), ("infinity", theta_inf)):
                t = derivative_sign_pattern(params, range(2, kmax + 1), rule,
                                            ctx, kind=kind, limit=limit)
                tables[f"{kind}/{limit}"] = t["rows"]
                thresholds[f"{kind}/{limit}"] = t["threshold"]
    worst = max((t if t is not None else kmax + 1)
                for t in thresholds.values())
    ok = all(t is not None and t <= ASYMPTOTIC_THRESHOLD
             for t in thresholds.values())
    return ok, {"m_max": kmax}, dict(
        threshold=worst,
        details={"thresholds": thresholds,
                 "rows": {k: [{"m": r["m"], "observed": r["observed"],
                               "predicted": r["predicted"]} for r in v]
                          for k, v in tables.items()}})


def _check_sign_constancy(params, ctx, records, cache, kmax, samples):
    m_lo = 2
    rep = verify_sign_constancy(params, range(m_lo, kmax + 1), ctx,
                                samples_per_interval=samples)
    ok = (all(r["constant"] for r in rep["rows"])
          and rep["adjacent_alternating"])
    return ok, {"m_range": [m_lo, kmax], "samples": samples}, dict(
        details={"rows": [{"m": r["m"], "constant": r["constant"],
                           "sign": r["sign"]} for r in rep["rows"]],
                 "adjacent_alternating": rep["adjacent_alternating"],
                 "skipped": rep["skipped"]})


def _check_shifted_zeros(params, ctx, records, cache, kmax):
    recs = [records[k] for k in range(1, kmax + 1)]
    k0 = empirical_k0(recs)
    with mp.workdps(60):
        zmax = params.q_mp() ** (-6) * (1 + mpf(10) ** -30)
    census = count_zeros_below(params, zmax, ctx)
    expected = sum(1 for r in recs if r.j < zmax) if kmax >= 6 else None
    rows = [verify_shifted_zero(params, k, records)
            for k in range(2, kmax + 1)]
    with mp.workdps(ctx.digits):
        margin = min(min(r["margin_lower"] for r in rows),
                     min(r["margin_upper"] for r in rows))
        increasing = all(recs[i].j < recs[i + 1].j
                         for i in range(len(recs) - 1))
    ok = (k0 is not None and k0 <= 4
          and all(r["holds"] for r in rows)
          and all(r["eps_decreasing"] for r in rows if r["k"] > (k0 or 1))
          and all(r["companion_holds"] for r in rows
                  if r["companion_holds"] is not None and r["k"] > (k0 or 1))
          and increasing
          and margin > 0
          and (expected is None or census == expected))
    return ok, {"k_max": kmax}, dict(
        margin=margin, threshold=k0,
        details={"k0": k0, "census_below_q^-6": census,
                 "table_count_below_q^-6": expected,
                 "rows": [{"k": r["k"], "holds": r["holds"],
                           "eps_decreasing": r["eps_decreasing"],
                           "companion_holds": r["companion_holds"]}
                          for r in rows]})


def _derivative_ratios(cache: ModeCache, ks: range) -> list[mpf]:
    """|J'_nu(j_m;q^2)| * q^(m(m+nu-2)) for m in ks, at the cache's
    precision."""
    with cache.ctx.workdps(10):
        q = cache.params.q_mp()
        nu = cache.params.nu_mp()
        return [abs(cache.derivative(m)) * q ** (m * (m + nu - 2))
                for m in ks]


def _check_derivative_decay(params, ctx, records, cache, kmax):
    m_lo = min(4, kmax)
    ks = range(m_lo, kmax + 1)
    ratios = _derivative_ratios(cache, ks)
    ratios2 = _derivative_ratios(
        ModeCache(params, records, PrecisionContext(2 * ctx.digits)), ks)
    with mp.workdps(ctx.digits):
        sup1 = max(ratios)
        sup2 = max(ratios2)
        stable = sup2 <= sup1 * (1 + mpf(10) ** (-30))
    ok = mp.isfinite(sup1) and stable
    return ok, {"m_range": [m_lo, kmax]}, dict(
        margin=sup1,
        details={"sup_ratio": sup1, "sup_ratio_doubled_digits": sup2,
                 "rows": [{"k": k, "ratio_a": r}
                          for k, r in zip(ks, ratios)]})


def _check_shifted_value_bound(params, ctx, records, cache, kmax):
    rows = verify_decay_bounds(cache, range(1, kmax + 1))["rows"]
    k_b = min(4, kmax)
    ok = (all(r["holds_b"] for r in rows if r["k"] >= k_b)
          and all(r["holds_c"] for r in rows if r["k"] >= 2)
          and all(r["holds_d"] for r in rows if r["k"] >= k_b))
    with mp.workdps(ctx.digits):
        margin = min((r["bound_b"] - r["shifted_value"]) / r["bound_b"]
                     for r in rows if r["k"] >= k_b)
    return ok, {"k_max": kmax}, dict(
        margin=margin,
        details={"rows": [{"k": r["k"], "holds_b": r["holds_b"],
                           "holds_c": r["holds_c"], "holds_d": r["holds_d"]}
                          for r in rows]})


def _check_eta_decay(params, ctx, records, cache, kmax):
    with ctx.workdps(10):
        q = params.q_mp()
        ratios = []
        for m in range(1, kmax + 1):
            e = cache.eta(m)
            ratios.append((m, e, e * q ** (-2 * m)))
        sup = max(r for _, _, r in ratios)
        arg_sup = max(ratios, key=lambda t: t[2])[0]
        positive = all(e > 0 for _, e, _ in ratios)
        # the ratio sequence converges to a positive constant from below, so
        # boundedness is operationalized as tail stabilization: the last
        # increment must be negligible against the plateau value
        tail_stable = (abs(ratios[-1][2] - ratios[-2][2])
                       <= ratios[-1][2] * mpf(10) ** (-10))
    ok = (positive and mp.isfinite(sup)
          and (arg_sup <= ASYMPTOTIC_THRESHOLD or tail_stable))
    return ok, {"m_max": kmax}, dict(
        margin=sup, threshold=arg_sup,
        details={"rows": [{"m": m, "eta": e, "eta_q^-2m": r}
                          for m, e, r in ratios]})


def _check_gram(params, ctx, records, cache, kmax, tol):
    K = min(GRAM_SIZE, kmax)
    g = gram_matrix(cache, K)
    with mp.workdps(ctx.digits):
        resid = max(abs(g[i][j] - (1 if i == j else 0))
                    for i in range(K) for j in range(K))
        tol = _as_mp(tol)
    ok = resid < tol
    return ok, {"K": K}, dict(
        margin=resid,
        details={"max_abs_G_minus_I": resid, "tolerance": tol})


def _check_riemann_lebesgue(params, ctx, records, cache, kmax, functions):
    per_f = {}
    ok = True
    sups = []
    for name, f in functions:
        rep = riemann_lebesgue_rate(cache, f, range(1, kmax + 1))
        with mp.workdps(ctx.digits):
            arg_sup = max(rep["rows"], key=lambda r: r["rate"])["m"]
        f_ok = (rep["hypothesis_ok"]
                and mp.isfinite(rep["sup_rate"])
                and all(r["cs_holds"] for r in rep["rows"])
                and arg_sup <= ASYMPTOTIC_THRESHOLD)
        ok = ok and f_ok
        sups.append(rep["sup_rate"])
        per_f[name] = {
            "sup_rate": rep["sup_rate"], "sup_at": arg_sup,
            "hypothesis_ok": rep["hypothesis_ok"],
            "rows": [{"m": r["m"], "rate": r["rate"],
                      "cs_holds": r["cs_holds"]} for r in rep["rows"]],
        }
    return ok, {"m_max": kmax,
                "functions": [name for name, _ in functions]}, dict(
        margin=max(sups), details=per_f)


def _check_consistency(params, ctx, records, cache, kmax):
    details = {}
    with ctx.workdps(10):
        q = params.q_mp()
        nu = params.nu_mp()
        # route agreement between the direct series and the 1phi1 form
        worst_route = mpf(0)
        for zexp in (None, 0, -3, -6):
            z = mpf(1) / 10 if zexp is None else q ** zexp
            direct = jnu3(params, z, ctx).value
            with mp.workdps(ctx.digits + 40):
                q2 = params.q_mp() ** 2
                om = q2 ** (params.nu_mp() + 1)
                zz = q2 * _as_mp(z) ** 2
            phi = phi11(om, q2, zz, ctx).value
            with mp.workdps(ctx.digits + 20):
                pref = (qpochhammer_infinite(om, q2, ctx)
                        / qpochhammer_infinite(q2, q2, ctx))
                alt = pref * _as_mp(z) ** nu * phi
                rel = abs(direct - alt) / abs(direct)
            worst_route = max(worst_route, rel)
        details["route_agreement_rel"] = worst_route
        # monomial q-integrals against the geometric closed form
        worst_int = mpf(0)
        for s in (0, 1, 2, 3, 7):
            val = qintegral_01(lambda t, s=s: t ** s, ctx, q=params.q)
            with mp.workdps(ctx.digits + 20):
                exact = (1 - q) / (1 - q ** (s + 1))
                worst_int = max(worst_int, abs(val - exact))
        details["integral_error_abs"] = worst_int
        # three eta routes
        worst_eta = mpf(0)
        eta_kmax = min(kmax, 10)
        for k in range(1, eta_kmax + 1):
            vals = [eta_k(cache, k, m) for m in ETA_METHODS]
            with mp.workdps(ctx.digits):
                rel = max(abs(v - vals[0]) / abs(vals[0]) for v in vals[1:])
            worst_eta = max(worst_eta, rel)
        details["eta_agreement_rel"] = worst_eta
        # order-recurrence at the shifted zero
        worst_rec = mpf(0)
        for k in range(1, min(kmax, 8) + 1):
            z_shift = records[k].scaled(params, ctx)
            lhs = cache.upper(k)
            rhs = cache.value(k, 0)
            with mp.workdps(ctx.digits):
                rel = abs(lhs - rhs / z_shift) / abs(lhs)
            worst_rec = max(worst_rec, rel)
        details["order_recurrence_rel"] = worst_rec
        tol_eta = _as_mp(ETA_TOL)
        ok = (worst_route < _as_mp(ROUTE_TOL)
              and worst_int < _as_mp(INTEGRAL_TOL)
              and worst_eta < tol_eta and worst_rec < tol_eta)
        margin = max(worst_route, worst_eta, worst_rec)
    return ok, {"k_max": kmax}, dict(margin=margin, details=details)


_CHECK_FUNCS = {
    "signs": _check_signs,
    "sign-constancy": _check_sign_constancy,
    "shifted-zeros": _check_shifted_zeros,
    "derivative-decay": _check_derivative_decay,
    "shifted-value-bound": _check_shifted_value_bound,
    "eta-decay": _check_eta_decay,
    "gram": _check_gram,
    "riemann-lebesgue": _check_riemann_lebesgue,
    "consistency": _check_consistency,
}

# checks that need the refined zero table
_NEEDS_ZEROS = frozenset(CHECK_IDS) - {"signs", "sign-constancy"}


def run_checks(params: QParams, ctx: PrecisionContext, kmax: int = 12,
               check_ids: Sequence[str] | None = None,
               records: dict[int, ZeroRecord] | None = None, *,
               theta_zero_rule: Callable[[int], Numeric] | None = None,
               theta_inf_rule: Callable[[int], Numeric] | None = None,
               samples_per_interval: int = SAMPLES_PER_INTERVAL,
               gram_tol: Numeric = GRAM_TOL,
               rl_functions: Sequence[tuple] = DEFAULT_RL_FUNCTIONS,
               ) -> VerificationReport:
    """Run the named checks (all of them by default) and collect a report.

    kmax must be at least 2, because the checks compare neighbouring zeros;
    ``records`` (k -> ZeroRecord for k = 1..kmax) skips the zero table.
    A setting that a selected check rejects raises ValueError before any
    work.
    The keywords are the checks' settings:

    - theta_zero_rule, theta_inf_rule: m -> theta_m for the signs check,
      with m*theta_m -> 0 and -> infinity (None: 1/m^2 and 1/sqrt(m));
    - samples_per_interval: J' samples per interval for sign-constancy;
    - gram_tol: the largest accepted |G - I| entry of the gram check, a
      positive finite number;
    - rl_functions: (name, f) integrands of the riemann-lebesgue check,
      each a callable on (0,1], a LatticeFunction over base q or a
      BasisFunction.
    """
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    ids = list(check_ids) if check_ids else list(CHECK_IDS)
    for cid in ids:
        if cid not in _CHECK_FUNCS:
            raise ValueError(
                f"unknown check {cid!r}; known: {', '.join(CHECK_IDS)}")
    settings = {
        "signs": {"theta_zero": theta_zero_rule or _default_theta_zero,
                  "theta_inf": theta_inf_rule or _default_theta_inf},
        "sign-constancy": {"samples": samples_per_interval},
        "gram": {"tol": gram_tol},
        "riemann-lebesgue": {"functions": rl_functions},
    }
    # settings a selected check would reject only after the zero table
    if "sign-constancy" in ids:
        _check_samples(samples_per_interval)
    if "signs" in ids:
        with ctx.workdps(10):
            for rule in settings["signs"].values():
                for m in range(2, kmax + 1):
                    _theta_value(rule, m)
    if "gram" in ids:
        tol = _as_mp(gram_tol)
        if not (mp.isfinite(tol) and tol > 0):
            raise ValueError("gram tolerance must be a positive finite "
                             f"number, got {gram_tol}")
    cache = None
    if records is None and any(cid in _NEEDS_ZEROS for cid in ids):
        records = {r.k: r for r in zero_table(params, kmax, ctx)}
    if records is not None:
        cache = ModeCache(params, records, ctx)
    results = [
        _result(cid, params, *_CHECK_FUNCS[cid](
            params, ctx, records, cache, kmax, **settings.get(cid, {})))
        for cid in sorted(ids)
    ]
    return VerificationReport(results=results)
