"""Acceptance gate: every top-level numerical claim at desk scale.

Desk scale: q in {0.3, 0.5, 0.8}, nu in {0, 0.5, 1, 2.5}, indices up to 12,
120 working digits.  The named-check criteria (3-10) read a single cached
verification report per (q, nu); criteria 1, 2 and 11 are computed directly
against independent oracles.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qfb import (PrecisionContext, QParams, dense_scan_brackets, jnu3,
                 jnu3_derivative, phi11, qintegral_01, qpochhammer_infinite,
                 run_checks, zero_table)

CTX = PrecisionContext(digits=120)
GRID = [(q, nu) for q in ("0.3", "0.5", "0.8")
        for nu in ("0", "0.5", "1", "2.5")]
GRID_IDS = [f"q={q},nu={nu}" for q, nu in GRID]


@pytest.fixture(scope="session")
def reports():
    cache = {}

    def get(q, nu):
        key = (q, nu)
        if key not in cache:
            rep = run_checks(QParams(q, nu), CTX, kmax=12)
            cache[key] = {r.check: r for r in rep.results}
        return cache[key]

    return get


# --- criterion 1: the two evaluation routes agree to relative 1e-60 -------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_01_definition_consistency(q, nu):
    params = QParams(q, nu)
    with mp.workdps(160):
        qv = params.q_mp()
        nuv = params.nu_mp()
        q2 = qv * qv
        om = q2 ** (nuv + 1)
        for z in (mpf("0.1"), mpf(1), qv ** -3, qv ** -6):
            direct = jnu3(params, z, CTX).value
            phi = phi11(om, q2, q2 * z * z, CTX).value
            pref = (qpochhammer_infinite(om, q2, CTX)
                    / qpochhammer_infinite(q2, q2, CTX))
            alt = pref * z ** nuv * phi
            assert abs(direct - alt) <= abs(direct) * mpf(10) ** -60


# --- criterion 2: q-integral exactness to 1e-100 ---------------------------

@pytest.mark.parametrize("q", ["0.3", "0.5", "0.8"])
@pytest.mark.parametrize("s", [0, 1, 2, 3, 7])
def test_02_q_integral_exactness(q, s):
    val = qintegral_01(lambda t: t ** s, CTX, q=q)
    with mp.workdps(160):
        qv = mpf(q)
        exact = (1 - qv) / (1 - qv ** (s + 1))
        assert abs(val - exact) < mpf(10) ** -100


# --- criterion 3: Gram matrix within 1e-40 of the identity at K = 8 --------

def test_03_orthogonality_gram(reports):
    r = reports("0.5", "0")["gram"]
    assert r.status == "pass"
    assert r.params["K"] == 8
    assert r.margin < mpf(10) ** -40


# --- criterion 4: three eta routes agree to relative 1e-40, eta > 0 --------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_04_eta_consistency(reports, q, nu):
    checks = reports(q, nu)
    assert checks["consistency"].status == "pass"
    assert checks["consistency"].details["eta_agreement_rel"] < mpf(10) ** -40
    assert all(row["eta"] > 0
               for row in checks["eta-decay"].details["rows"])


# --- criterion 5: zero structure ------------------------------------------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_05_zero_structure(reports, q, nu):
    r = reports(q, nu)["shifted-zeros"]
    assert r.status == "pass"
    k0 = r.details["k0"]
    assert k0 is not None and k0 <= 4
    # asymptotic bracket isolates j_k (0 < eps_k < alpha_k) from k0 to 12,
    # eps strictly decreasing past k0
    assert all(row["eps_decreasing"] for row in r.details["rows"]
               if row["k"] > k0)
    # dense-scan census below q^-6 matches the refined table
    assert r.details["census_below_q^-6"] == \
        r.details["table_count_below_q^-6"]


# --- criterion 6: shifted-zero interlacing with positive margins -----------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_06_shifted_zero_interlacing(reports, q, nu):
    r = reports(q, nu)["shifted-zeros"]
    assert all(row["holds"] for row in r.details["rows"])   # k = 2..12
    assert r.margin > 0
    k0 = r.details["k0"]
    assert all(row["companion_holds"] for row in r.details["rows"]
               if row["companion_holds"] is not None and row["k"] > k0)


# --- criterion 7: sign patterns and sign constancy --------------------------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_07_sign_patterns(reports, q, nu):
    checks = reports(q, nu)
    signs = checks["signs"]
    assert signs.status == "pass"
    assert all(t is not None and t <= 6
               for t in signs.details["thresholds"].values())
    const = checks["sign-constancy"]
    assert const.status == "pass"
    assert const.params["samples"] == 32


# --- criterion 8: decay bounds ---------------------------------------------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_08_decay_bounds(reports, q, nu):
    checks = reports(q, nu)
    dd = checks["derivative-decay"]
    assert dd.status == "pass"
    assert mp.isfinite(dd.margin)
    # supremum did not grow under digit doubling (compare at working
    # precision: at default precision 1 + 1e-30 rounds to exactly 1)
    with mp.workdps(CTX.digits):
        assert dd.details["sup_ratio_doubled_digits"] <= \
            dd.details["sup_ratio"] * (1 + mpf(10) ** -30)
    svb = checks["shifted-value-bound"]
    assert svb.status == "pass"
    assert all(row["holds_b"] for row in svb.details["rows"]
               if row["k"] >= 4)
    assert all(row["holds_c"] for row in svb.details["rows"]
               if row["k"] >= 2)


# --- criterion 9: eta decay rates ------------------------------------------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_09_eta_decay(reports, q, nu):
    r = reports(q, nu)["eta-decay"]
    assert r.status == "pass"
    assert mp.isfinite(r.margin)
    # sqrt(eta_m) q^(-m) bounded is the square root of the same statistic
    with mp.workdps(60):
        assert all(mp.isfinite(mp.sqrt(row["eta_q^-2m"]))
                   for row in r.details["rows"])


# --- criterion 10: Riemann-Lebesgue rates -----------------------------------

@pytest.mark.parametrize("q,nu", GRID, ids=GRID_IDS)
def test_10_riemann_lebesgue(reports, q, nu):
    r = reports(q, nu)["riemann-lebesgue"]
    assert r.status == "pass"
    for name in ("1", "t^(-1/4)"):
        per_f = r.details[name]
        assert per_f["hypothesis_ok"]
        assert all(row["cs_holds"] for row in per_f["rows"])
    assert mp.isfinite(r.margin)


# --- criterion 11: oracle equivalences --------------------------------------

def test_11a_derivative_vs_finite_differences():
    with mp.workdps(170):
        for q, nu, z in (("0.5", "0", "0.7"), ("0.3", "2.5", "1.1"),
                         ("0.8", "0.5", "0.3")):
            params = QParams(q, nu)
            zv = mpf(z)
            h = mpf(10) ** -45
            d = jnu3_derivative(params, zv, CTX).value
            fd = (jnu3(params, zv + h, CTX).value
                  - jnu3(params, zv - h, CTX).value) / (2 * h)
            assert abs(d - fd) <= abs(d) * mpf(10) ** -30


def test_11b_series_vs_exact_rational_oracle():
    # exact Fraction partial sum of the defining series at rational inputs
    q, nu, z = Fraction(1, 2), 1, Fraction(2, 5)
    p = q * q
    total = Fraction(0)
    for k in range(80):
        num = (-1) ** k * p ** (k * (k + 1) // 2) * z ** (2 * k)
        den = Fraction(1)
        for i in range(k):
            den *= (1 - p ** (nu + 1 + i)) * (1 - p ** (1 + i))
        total += num / den
    with mp.workdps(160):
        pv = mpf(p.numerator) / p.denominator
        zv = mpf(z.numerator) / z.denominator
        got = jnu3(QParams("0.5", nu), zv, CTX).value
        pref = (qpochhammer_infinite(pv ** (nu + 1), pv, CTX)
                / qpochhammer_infinite(pv, pv, CTX))
        want = pref * zv ** nu * (mpf(total.numerator) / total.denominator)
        assert abs(got - want) <= abs(want) * mpf(10) ** -100


def test_11c_zeros_vs_dense_scan_oracle():
    params = QParams("0.5", "0")
    records = zero_table(params, 3, CTX)
    with mp.workdps(160):
        brackets = dense_scan_brackets(params, mpf("0.5"), mpf(2) ** 4,
                                       PrecisionContext(digits=60),
                                       ratio=mpf("1.01"))
        assert len(brackets) >= 3
        for rec, (lo, hi) in zip(records, brackets[:3]):
            # independent bisection at fixed high precision
            ctx = PrecisionContext(digits=80)
            s_lo = 1 if jnu3(params, lo, ctx).value > 0 else -1
            lo, hi = mpf(lo), mpf(hi)
            while hi - lo > mpf(10) ** -40 * lo:
                mid = (lo + hi) / 2
                s = 1 if jnu3(params, mid, ctx).value > 0 else -1
                if s == s_lo:
                    lo = mid
                else:
                    hi = mid
            oracle = (lo + hi) / 2
            assert abs(rec.j - oracle) <= abs(oracle) * mpf(10) ** -30


@pytest.mark.parametrize("x", ["0.5", "1", "2"])
def test_11d_classical_limit(x):
    params = QParams("0.999", "0")
    ctx = PrecisionContext(digits=60)
    with mp.workdps(80):
        xv = mpf(x)
        z = (1 - params.q_mp()) * xv / 2
        got = jnu3(params, z, ctx, base=params.q).value
        assert abs(got - mp.besselj(0, xv)) < mpf(10) ** -2


# --- criterion 12: the flagship report is pinned ----------------------------

# status, threshold and (for value-type margins) the margin to 30 digits of
# `qfb verify --q 0.5 --nu 0 --kmax 12 --digits 120`
FLAGSHIP = {
    "signs": ("pass", 2, None),
    "sign-constancy": ("pass", None, None),
    "shifted-zeros": ("pass", 1, "2.12068382213304795124545418301e-87"),
    "derivative-decay": ("pass", None, "1.39163428216202527221755121965"),
    "shifted-value-bound": ("pass", None, "0.456075761427427692278077994844"),
    "eta-decay": ("pass", 12, "2.0"),
    "gram": ("pass", None, None),
    "riemann-lebesgue": ("pass", None, "1.10560671921739234242313273422"),
    "consistency": ("pass", None, None),
}


def test_12_flagship_report_pinned(reports):
    checks = reports("0.5", "0")
    assert sorted(checks) == sorted(FLAGSHIP)
    for cid, (status, threshold, margin) in FLAGSHIP.items():
        r = checks[cid]
        assert (r.status, r.threshold) == (status, threshold), cid
        if margin is not None:
            with mp.workdps(40):
                want = mpf(margin)
                assert abs(r.margin - want) <= abs(want) * mpf(10) ** -29, cid
