"""Series evaluation of 1phi1 and J_nu(z;q^2): oracles and invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qfb import (DivergenceError, PrecisionContext, QParams, jnu3,
                 jnu3_derivative, phi11, phi11_derivative,
                 qpochhammer_infinite)

CTX = PrecisionContext(digits=60)


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

    def test_negative_z_requires_integer_nu(self):
        with pytest.raises(ValueError):
            jnu3(QParams("0.5", "0.5"), "-1", CTX)
        # integer nu is fine, and J is odd/even according to nu
        v = jnu3(QParams("0.5", "1"), "-1", CTX).value
        w = jnu3(QParams("0.5", "1"), "1", CTX).value
        with mp.workdps(60):
            assert abs(v + w) <= abs(w) * mpf(10) ** -50

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
        assert res.cancellation_ratio > 10
        assert res.precision_used > ctx.digits
        # doubled-precision rerun agrees to the requested digits
        res2 = jnu3(params, mpf(2) ** 5, ctx.with_digits(80))
        with mp.workdps(100):
            assert abs(res.value - res2.value) <= abs(res2.value) * mpf(10) ** -38

    @given(m=st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_value_stable_under_digit_doubling(self, m):
        params = QParams("0.5", "1")
        ctx = PrecisionContext(digits=40)
        z = mpf(2) ** m   # exactly q^(-m) for q = 1/2
        a = jnu3(params, z, ctx).value
        b = jnu3(params, z, ctx.with_digits(80)).value
        with mp.workdps(100):
            assert abs(a - b) <= abs(b) * mpf(10) ** -35
