"""Series evaluation of 1phi1 and J_nu(z;q^2): oracles and invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

import qfb.qspecial as qspecial
from qfb import (DivergenceError, PrecisionContext, QParams, jnu3,
                 jnu3_derivative, phi11, phi11_derivative,
                 qpochhammer_infinite)
from qfb.precision import EXTRA_GUARD, adaptive_sum

CTX = PrecisionContext(digits=60)


def first_pass_bucket(digits: int) -> int:
    """Precision of the ratio table read by an evaluation's first pass,
    which sums at digits + EXTRA_GUARD under EXTRA_GUARD more guard digits."""
    prec = dps_to_prec(digits + 2 * EXTRA_GUARD)
    return -(-(prec + 16) // 64) * 64


def ratio_cache_total() -> int:
    return sum(map(len, qspecial._SERIES.values()))


def reference_jnu3(params: QParams, z, ctx: PrecisionContext,
                   derivative: bool = False, base=None) -> mpf:
    """J_nu(z; base) or its z-derivative by the per-pass term recurrence the
    package used before its term-ratio table: p^k, p^(nu+k), both (1 - .)
    factors and a division recomputed at the precision of every pass."""
    def p_mp():
        return params.q_mp() ** 2 if base is None else mp.mpf(base)

    def z_mp():
        return z() if callable(z) else mp.mpf(z)

    def terms():
        pv = p_mp()
        nuv = params.nu_mp()
        z2 = z_mp() ** 2
        term = mpf(1)
        k = 0
        pk = pv
        pnuk = pv ** (nuv + 1)
        yield term * (nuv if derivative else 1)
        while True:
            k += 1
            term *= -pk * z2 / ((1 - pnuk) * (1 - pk))
            yield term * ((nuv + 2 * k) if derivative else 1)
            pk *= pv
            pnuk *= pv

    res = adaptive_sum(terms, ctx, min_terms=2)
    with mp.workdps(res.precision_used + 10):
        pv = p_mp()
        nuv = params.nu_mp()
        pref = (qpochhammer_infinite(pv ** (nuv + 1), pv, ctx)
                / qpochhammer_infinite(pv, pv, ctx))
        return pref * z_mp() ** (nuv - 1 if derivative else nuv) * res.value


def exact_series_oracle(p: Fraction, nu: int, z: Fraction,
                        n_terms: int) -> Fraction:
    """Exact-rational partial sum of

    sum_k (-1)^k p^(k(k+1)/2) z^(2k) / ((p^(nu+1);p)_k (p;p)_k),

    computed with Fractions only, independent of the package's recurrence.
    """
    total = Fraction(0)
    for k in range(n_terms):
        num = (-1) ** k * p ** (k * (k + 1) // 2) * z ** (2 * k)
        den = Fraction(1)
        for i in range(k):
            den *= (1 - p ** (nu + 1 + i)) * (1 - p ** (1 + i))
        total += num / den
    return total


class TestSeriesOracle:
    @pytest.mark.parametrize("q,nu,z", [
        (Fraction(1, 2), 0, Fraction(3, 10)),
        (Fraction(1, 2), 2, Fraction(1, 1)),
        (Fraction(3, 10), 1, Fraction(1, 2)),
    ])
    def test_jnu3_matches_exact_rational_series(self, q, nu, z):
        p = q * q
        with mp.workdps(90):
            # series part: strip the q-Pochhammer prefactor and z^nu
            pv = mpf(p.numerator) / p.denominator
            zv = mpf(z.numerator) / z.denominator
            got = jnu3(QParams(mpf(q.numerator) / q.denominator, nu),
                       zv, CTX).value
            pref = (qpochhammer_infinite(pv ** (nu + 1), pv, CTX)
                    / qpochhammer_infinite(pv, pv, CTX))
            series_got = got / (pref * zv ** nu)
            exact = exact_series_oracle(p, nu, z, 60)
            want = mpf(exact.numerator) / exact.denominator
            assert abs(series_got - want) <= abs(want) * mpf(10) ** -55

    @pytest.mark.parametrize("digits", [32, 33])
    def test_bucket_boundary_matches_exact_rational_series(self, digits):
        # 32 and 33 digits start in different ratio-table buckets; at
        # z = 7/2, near q^(-2) = 4, each is accepted at its first pass
        assert first_pass_bucket(32) < first_pass_bucket(33)
        q, nu, z = Fraction(1, 2), 1, Fraction(7, 2)
        p = q * q
        ctx = PrecisionContext(digits=digits)
        with mp.workdps(digits + 30):
            pv = mpf(p.numerator) / p.denominator
            zv = mpf(z.numerator) / z.denominator
            got = jnu3(QParams("0.5", nu), zv, ctx).value
            pref = (qpochhammer_infinite(pv ** (nu + 1), pv, ctx)
                    / qpochhammer_infinite(pv, pv, ctx))
            series_got = got / (pref * zv ** nu)
            exact = exact_series_oracle(p, nu, z, 60)
            want = mpf(exact.numerator) / exact.denominator
            assert abs(series_got - want) <= abs(want) * mpf(10) ** -digits

    def test_phi11_matches_exact_rational_series(self):
        # 1phi1(0; q^(nu+1); q, z) with q = 1/4, nu = 1, z = 1/3
        q, nu, z = Fraction(1, 4), 1, Fraction(1, 3)
        with mp.workdps(90):
            om = q ** (nu + 1)
            got = phi11(mpf(om.numerator) / om.denominator, mpf("0.25"),
                        mpf(z.numerator) / z.denominator, CTX).value
            total = Fraction(0)
            for k in range(60):
                num = (-1) ** k * q ** (k * (k - 1) // 2) * z ** k
                den = Fraction(1)
                for i in range(k):
                    den *= (1 - q ** (nu + 1 + i)) * (1 - q ** (1 + i))
                total += num / den
            want = mpf(total.numerator) / total.denominator
            assert abs(got - want) <= abs(want) * mpf(10) ** -55


class TestRouteIdentity:
    @pytest.mark.parametrize("q", ["0.3", "0.5", "0.8"])
    @pytest.mark.parametrize("nu", ["0", "0.5", "1", "2.5"])
    def test_direct_series_equals_prefactored_phi11(self, q, nu):
        params = QParams(q, nu)
        ctx = PrecisionContext(digits=80)
        with mp.workdps(120):
            z = mpf("0.7")
            direct = jnu3(params, z, ctx).value
            q2 = params.q_mp() ** 2
            om = q2 ** (params.nu_mp() + 1)
            phi = phi11(om, q2, q2 * z * z, ctx).value
            pref = (qpochhammer_infinite(om, q2, ctx)
                    / qpochhammer_infinite(q2, q2, ctx))
            alt = pref * z ** params.nu_mp() * phi
            assert abs(direct - alt) <= abs(direct) * mpf(10) ** -60


class TestDerivativeOracle:
    @pytest.mark.parametrize("q,nu,z", [
        ("0.5", "0.5", "1.3"),
        ("0.3", "0", "0.4"),
        ("0.8", "2.5", "2.0"),
    ])
    def test_central_finite_difference(self, q, nu, z):
        params = QParams(q, nu)
        ctx = PrecisionContext(digits=120)
        with mp.workdps(160):
            zv = mpf(z)
            h = mpf(10) ** -40
            d_got = jnu3_derivative(params, zv, ctx).value
            fd = (jnu3(params, zv + h, ctx).value
                  - jnu3(params, zv - h, ctx).value) / (2 * h)
            assert abs(d_got - fd) <= abs(d_got) * mpf(10) ** -30

    def test_phi11_derivative_finite_difference(self):
        ctx = PrecisionContext(digits=120)
        with mp.workdps(160):
            om, q, z = mpf("0.25"), mpf("0.5"), mpf("0.9")
            h = mpf(10) ** -40
            d_got = phi11_derivative(om, q, z, ctx).value
            fd = (phi11(om, q, z + h, ctx).value
                  - phi11(om, q, z - h, ctx).value) / (2 * h)
            assert abs(d_got - fd) <= abs(d_got) * mpf(10) ** -30


class TestClassicalLimit:
    @pytest.mark.parametrize("x", ["0.5", "1", "2"])
    def test_base_q_function_approaches_classical_bessel(self, x):
        # J_nu((1-q)x/2; q) -> classical J_nu(x) as q -> 1
        params = QParams("0.999", "0")
        ctx = PrecisionContext(digits=60)
        with mp.workdps(80):
            xv = mpf(x)
            z = (1 - params.q_mp()) * xv / 2
            got = jnu3(params, z, ctx, base=params.q).value
            classical = mp.besselj(0, xv)
            assert abs(got - classical) < mpf(10) ** -2


class TestSpecialValuesAndValidation:
    def test_phi11_at_zero_is_one(self):
        assert phi11("0.25", "0.5", 0, CTX).value == 1

    def test_jnu3_at_zero(self):
        # z^nu factor: 0 for nu > 0, prefactor itself for nu = 0
        with mp.workdps(70):
            assert jnu3(QParams("0.5", "1"), 0, CTX).value == 0
            v = jnu3(QParams("0.5", "0"), 0, CTX).value
            q2 = mpf("0.25")
            pref = (qpochhammer_infinite(q2, q2, CTX)
                    / qpochhammer_infinite(q2, q2, CTX))
            assert abs(v - pref) <= abs(pref) * mpf(10) ** -50

    def test_base_below_float_range(self):
        # p = q^2 = 1e-400 is 0 as a float; J_nu(z) is z^nu to far more
        # than the requested digits
        got = jnu3(QParams("1e-200", "0.5"), 3, PrecisionContext(30)).value
        with mp.workdps(40):
            assert abs(got - mp.sqrt(3)) <= mpf(10) ** -30

    def test_negative_z_requires_integer_nu(self):
        with pytest.raises(ValueError):
            jnu3(QParams("0.5", "0.5"), "-1", CTX)
        # integer nu is fine, and J is odd/even according to nu
        v = jnu3(QParams("0.5", "1"), "-1", CTX).value
        w = jnu3(QParams("0.5", "1"), "1", CTX).value
        with mp.workdps(60):
            assert abs(v + w) <= abs(w) * mpf(10) ** -50

    @pytest.mark.parametrize("fn", [jnu3, jnu3_derivative])
    def test_negative_z_rejected_for_non_integer_nu(self, fn, monkeypatch):
        monkeypatch.setattr(qspecial, "_SERIES", {})
        for nu, z in (("0.5", "-1"), ("2.5", lambda: mpf(-3))):
            with pytest.raises(ValueError, match="integer nu"):
                fn(QParams("0.5", nu), z, CTX)
        assert qspecial._SERIES == {}     # no record for a rejected call

    @pytest.mark.parametrize("fn", [jnu3, jnu3_derivative])
    @pytest.mark.parametrize("z", ["inf", "-inf", "nan",
                                   lambda: mp.inf, lambda: mp.nan])
    def test_non_finite_z_rejected(self, fn, z):
        with pytest.raises(ValueError, match="finite"):
            fn(QParams("0.5", "1"), z, CTX)

    def test_derivative_rejects_singular_origin(self):
        with pytest.raises(ValueError):
            jnu3_derivative(QParams("0.5", "0.5"), 0, CTX)

    def test_omega_range_enforced(self):
        with pytest.raises(ValueError):
            phi11("1.5", "0.5", "0.1", CTX)

    def test_bad_base_rejected(self):
        with pytest.raises(DivergenceError):
            jnu3(QParams("0.5", "0"), "1", CTX, base="1.5")


class TestCancellationAccounting:
    def test_escalation_near_lattice_point(self):
        # near z = q^(-5) the partial sums tower above the value
        params = QParams("0.5", "0")
        ctx = PrecisionContext(digits=40)
        res = jnu3(params, mpf(2) ** 5, ctx)
        assert res.max_partial_magnitude > 10 * abs(res.value)
        assert res.precision_used > ctx.digits
        # doubled-precision rerun agrees to the requested digits
        res2 = jnu3(params, mpf(2) ** 5, PrecisionContext(80))
        with mp.workdps(100):
            assert abs(res.value - res2.value) <= abs(res2.value) * mpf(10) ** -38

    @given(m=st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_value_stable_under_digit_doubling(self, m):
        params = QParams("0.5", "1")
        ctx = PrecisionContext(digits=40)
        z = mpf(2) ** m   # exactly q^(-m) for q = 1/2
        a = jnu3(params, z, ctx).value
        b = jnu3(params, z, PrecisionContext(80)).value
        with mp.workdps(100):
            assert abs(a - b) <= abs(b) * mpf(10) ** -35


class TestRatioTable:
    """The cached term ratios against the per-pass recurrence they replace."""

    @pytest.mark.parametrize("digits", [42, 43])
    @pytest.mark.parametrize("q,nu", [("0.3", "1"), ("0.5", "0"),
                                      ("0.8", "2.5")])
    def test_matches_recurrence_at_lattice_points(self, q, nu, digits):
        params = QParams(q, nu)
        ctx = PrecisionContext(digits=digits)
        for m in (1, 4, 7):
            def z(m=m):
                return params.q_mp() ** (-m)
            for fn, derivative in ((jnu3, False), (jnu3_derivative, True)):
                got = fn(params, z, ctx).value
                want = reference_jnu3(params, z, ctx, derivative)
                with mp.workdps(digits + 20):
                    assert abs(got - want) <= abs(want) * mpf(10) ** -digits

    @pytest.mark.parametrize("digits", [42, 43])
    def test_matches_recurrence_for_plain_base(self, digits):
        params = QParams("0.6", "0.5")
        ctx = PrecisionContext(digits=digits)
        for z in ("0.9", "3.1", "7.3"):
            got = jnu3(params, z, ctx, base=params.q).value
            want = reference_jnu3(params, z, ctx, base=params.q)
            with mp.workdps(digits + 20):
                assert abs(got - want) <= abs(want) * mpf(10) ** -digits

    def test_cache_within_bound_after_zero_table(self, zero_tables):
        zero_tables("0.8", "0")
        assert 0 < ratio_cache_total() <= qspecial.RATIO_CACHE_TERMS

    def test_eviction_keeps_bound_and_values(self, monkeypatch):
        params = QParams("0.5", "0")
        ctx = PrecisionContext(digits=40)
        points = [mpf(2) ** m for m in range(1, 9)]
        monkeypatch.setattr(qspecial, "_SERIES", {})
        free = [jnu3(params, z, ctx).value for z in points]
        monkeypatch.setattr(qspecial, "_SERIES", {})
        monkeypatch.setattr(qspecial, "RATIO_CACHE_TERMS", 64)
        bounded = []
        for z in points:
            bounded.append(jnu3(params, z, ctx).value)
            assert ratio_cache_total() <= 64
        assert bounded == free


class TestFixedPointPass:
    """The fixed-point series pass against the mpf recurrence it replaced,
    at escalated precisions, tiny arguments and one near q^(-14)."""

    @pytest.mark.parametrize("digits", [160, 260])
    @pytest.mark.parametrize("q,nu", [("0.3", "0"), ("0.3", "1.5"),
                                      ("0.8", "0"), ("0.8", "1.5")])
    def test_matches_recurrence(self, q, nu, digits):
        # with nu = 0 every term of the J' series is of size z^2 or below;
        # at z = 1e-100 a pass scaled to 1 would keep too few of its digits
        params = QParams(q, nu)
        ctx = PrecisionContext(digits=digits)
        for z in ("1e-30", "1e-100", lambda: params.q_mp() ** -14):
            for fn, derivative in ((jnu3, False), (jnu3_derivative, True)):
                got = fn(params, z, ctx).value
                want = reference_jnu3(params, z, ctx, derivative)
                with mp.workdps(digits + 20):
                    assert abs(got - want) <= abs(want) * mpf(10) ** -digits

    def test_ratios_are_exact(self):
        series = qspecial._Series("0.7", None, "0.5")
        with mp.workprec(300):
            series.ratios(1)
            series.ratios(33)               # a second chunk
        (prec, ratios), = series.tables.items()
        assert prec == 320 and len(ratios) == 64
        with mp.workprec(prec):
            p = mpf("0.7") ** 2
            pk, pnuk = p, p ** mpf("1.5")
            for man, shift in ratios[:40]:
                assert shift >= 0
                assert mpf((man, -shift)) == -pk / ((1 - pnuk) * (1 - pk))
                pk *= p
                pnuk *= p


def direct_prefactor(p, nu, ctx):
    """(p^(nu+1);p)_inf / (p;p)_inf straight from qpochhammer_infinite."""
    with ctx.workdps(10):
        pv = mp.mpf(p)
        return (qpochhammer_infinite(pv ** (mp.mpf(nu) + 1), pv, ctx)
                / qpochhammer_infinite(pv, pv, ctx))


class TestPrefactorMemo:
    def test_buckets_target_and_serves_lower_targets(self, monkeypatch):
        # the prefactor is computed at its target, digits + 10, and the
        # stored value serves every lower target
        series = qspecial._Series("0.3", None, "1.5")

        def prefactor(digits):
            return series.prefactor(PrecisionContext(digits))

        got = prefactor(60)
        assert series.pref[0] == 70
        with mp.workdps(90):
            want = direct_prefactor(mpf("0.09"), "1.5", PrecisionContext(60))
            assert abs(got - want) <= abs(want) * mpf(10) ** -65

        def no_product(*args):
            raise AssertionError("prefactor recomputed")

        with monkeypatch.context() as patch:
            patch.setattr(qspecial, "qpochhammer_infinite", no_product)
            assert prefactor(40) is got
        got = prefactor(100)
        assert series.pref[0] == 110
        with mp.workdps(130):
            want = direct_prefactor(mpf("0.09"), "1.5", PrecisionContext(100))
            assert abs(got - want) <= abs(want) * mpf(10) ** -105

    def test_exact_target_where_bucket_passes_factor_cap(self):
        # near p = 1 the product is long: at p = 0.999 the target 10^-78
        # takes ~180,000 factors, inside MAX_TERMS
        series = qspecial._Series(None, "0.999", "0.5")
        ctx = PrecisionContext(68)
        got = series.prefactor(ctx)
        assert series.pref[0] == 78
        assert got == direct_prefactor("0.999", "0.5", ctx)

    def test_eviction_keeps_bound_and_values(self, monkeypatch):
        # at 40 digits one evaluation makes one pass, which fills one
        # bucket of 32 ratios, so a bound of 64 ratios holds two records
        monkeypatch.setattr(qspecial, "_SERIES", {})
        monkeypatch.setattr(qspecial, "RATIO_CACHE_TERMS", 64)
        ctx = PrecisionContext(40)

        def prefactor(nu):
            jnu3(QParams("0.5", nu), "1", ctx)
            assert ratio_cache_total() <= 64
            return qspecial._SERIES[("0.5", None, nu)].pref[1]

        first = [prefactor(nu) for nu in ("0.5", "1", "1.5")]
        assert list(qspecial._SERIES) == [("0.5", None, "1"),
                                          ("0.5", None, "1.5")]
        again = prefactor("0.5")
        assert again is not first[0]
        assert again._mpf_ == first[0]._mpf_
        assert list(qspecial._SERIES) == [("0.5", None, "1.5"),
                                          ("0.5", None, "0.5")]

    def test_within_bound_after_zero_table(self, zero_tables):
        # a valid evaluation fills at least one chunk of its record, so
        # RATIO_CACHE_TERMS alone bounds the number of records
        zero_tables("0.8", "0")
        records = list(qspecial._SERIES.values())
        assert records
        assert all(len(s) >= qspecial._RATIO_CHUNK for s in records)
        assert len(records) <= \
            qspecial.RATIO_CACHE_TERMS // qspecial._RATIO_CHUNK


class TestQHyperProperty:
    @given(qi=st.integers(min_value=200, max_value=900),
           nui=st.integers(min_value=0, max_value=300),
           t=st.floats(min_value=0, max_value=1, exclude_min=True))
    @settings(max_examples=40, deadline=None)
    def test_jnu3_matches_mpmath_qhyper(self, qi, nui, t):
        # z^nu (q^(2nu+2);q^2)_inf / (q^2;q^2)_inf
        #     * 1phi1(0; q^(2nu+2); q^2, q^2 z^2)
        q, nu = f"{qi / 1000:.3f}", f"{nui / 100:.2f}"
        z = 0.05 + t * (float(q) ** -6 - 0.05)     # z in (0.05, q^-6]
        got = jnu3(QParams(q, nu), z, PrecisionContext(digits=40)).value
        with mp.workdps(100):       # the oracle loses up to ~25 digits
            p = mpf(q) ** 2
            w = p ** (mpf(nu) + 1)
            want = (mpf(z) ** mpf(nu) * mp.qp(w, p) / mp.qp(p, p)
                    * mp.qhyper([0], [w], p, p * mpf(z) ** 2))
            assert abs(got - want) <= abs(want) * mpf(10) ** -38


class TestLatticeKernel:
    """jnu3_lattice against jnu3 at the point the column steps to."""

    @staticmethod
    def column_error(params, record, ctx, indices):
        """Largest relative error of the column from record.scaled(1) at
        the given indices against jnu3 at q^i z formed at the same dps."""
        dps = max(ctx.digits + 10, record.arg_dps)
        z = record.scaled(params, ctx, 1)
        column = qspecial.jnu3_lattice(params, z, ctx, dps)
        values = [next(column) for _ in range(max(indices) + 1)]
        worst = mpf(0)
        for i in indices:
            with mp.workdps(dps):
                zi = params.q_mp() ** i * z
            want = jnu3(params, zi, ctx).value
            with mp.workdps(ctx.digits + 20):
                worst = max(worst, abs(values[i] - want) / abs(want))
        return worst

    def test_long_column(self, zero_tables, ctx120):
        params = QParams("0.8", "0.5")
        record = zero_tables("0.8", "0.5")[12]
        worst = self.column_error(params, record, ctx120, range(0, 700, 37))
        assert worst <= mpf(10) ** -(ctx120.digits + 10)

    def test_near_zero_points(self, zero_tables, ctx120):
        # q^(i+1) j_20 lands superexponentially close to j_(19-i) for
        # i <= 18
        params = QParams("0.3", "2.5")
        record = zero_tables("0.3", "2.5", 20)[20]
        worst = self.column_error(params, record, ctx120, range(19))
        assert worst <= mpf(10) ** -(ctx120.digits + 10)

    @pytest.mark.parametrize("z", [mpf(0), mpf(-1), mp.inf])
    def test_rejects_non_positive_argument(self, z):
        with pytest.raises(ValueError, match="z must be positive"):
            qspecial.jnu3_lattice(QParams("0.5", "0.5"), z, CTX, 70)

    def test_long_column_keeps_bound(self, monkeypatch):
        # a value that evicts the column's record must not leave the column
        # growing it outside the bound: each value fetches the record anew
        params, ctx = QParams("0.5", "0.5"), PrecisionContext(40)
        key = ("0.5", None, "0.5")
        monkeypatch.setattr(qspecial, "_SERIES", {})
        free = qspecial.jnu3_lattice(params, mpf(3), ctx, 50)
        want = [next(free) for _ in range(200)]
        monkeypatch.setattr(qspecial, "_SERIES", {})
        monkeypatch.setattr(qspecial, "RATIO_CACHE_TERMS", 64)
        column = qspecial.jnu3_lattice(params, mpf(3), ctx, 50)
        got = []
        for i in range(200):
            if i % 50 == 25:
                for nu in ("1", "1.5"):
                    jnu3(QParams("0.5", nu), "1", ctx)
                assert key not in qspecial._SERIES
            got.append(next(column))
            assert key in qspecial._SERIES
            assert ratio_cache_total() <= 64
        assert got == want
