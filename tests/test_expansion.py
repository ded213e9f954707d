"""Norms eta_k, expansion coefficients, Gram matrices, decay diagnostics."""

import json
from collections import Counter

import pytest
from mpmath import mp, mpf

import qfb.expansion
from qfb import (BaseMismatchError, BasisFunction, LatticeFunction, ModeCache,
                 PrecisionContext, PrecisionError, QParams, coefficient,
                 eta_k, expand, gram_matrix, jnu3, partial_sum, qintegral_01,
                 riemann_lebesgue_rate, run_checks, zero_table)
from qfb.expansion import LATTICE_SAMPLES

CTX = PrecisionContext(digits=50)
P = QParams("0.5", "0")


@pytest.fixture(scope="module")
def records():
    return {r.k: r for r in zero_table(P, 4, CTX)}


@pytest.fixture(scope="module")
def cache(records):
    return ModeCache(P, records, CTX)


class TestEta:
    def test_positive(self, records, cache):
        for k in records:
            assert eta_k(cache, k) > 0

    def test_three_methods_agree(self, cache):
        with mp.workdps(70):
            for k in (1, 2, 3):
                vals = [eta_k(cache, k, m)
                        for m in ("integral", "closed_form_nu_plus_1",
                                  "closed_form_nu")]
                # agreement is limited by the gap-relative zero refinement,
                # ~10^(-digits/2); the 1e-40 claim is acceptance-tested at
                # 120 digits
                base = vals[0]
                for v in vals[1:]:
                    assert abs(v - base) <= abs(base) * mpf(10) ** -20

    @pytest.mark.parametrize("use", ["gram", "riemann-lebesgue"])
    def test_nonpositive_eta_is_a_precision_error(self, records, use):
        cache = ModeCache(P, records, CTX)
        cache.memo(("eta", 2), lambda: mpf("-0.09"))
        with pytest.raises(PrecisionError, match=r"eta_2 = -0\.09 "):
            if use == "gram":
                gram_matrix(cache, 3)
            else:
                riemann_lebesgue_rate(cache, lambda t: mpf(1), range(1, 4))

    def test_cache_memoises_closed_form(self, records, cache):
        e = cache.eta(2)
        assert cache.eta(2) is e
        assert e == eta_k(ModeCache(P, records, CTX), 2,
                          "closed_form_nu_plus_1")

    def test_unknown_method_rejected(self, cache):
        with pytest.raises(ValueError):
            eta_k(cache, 1, "nope")


class TestColumns:
    def test_column_restarts_after_a_raise(self, records, monkeypatch):
        # a kernel that raised is closed; the next read starts the column
        # anew instead of reading a spent generator
        real = qfb.expansion.jnu3_lattice
        starts = []

        def failing_once(*args):
            column = real(*args)
            starts.append(args)
            if len(starts) > 1:
                return column

            def fail_at_second():
                yield next(column)
                raise PrecisionError("no certified value")
            return fail_at_second()

        monkeypatch.setattr(qfb.expansion, "jnu3_lattice", failing_once)
        cache = ModeCache(P, records, CTX)
        with pytest.raises(PrecisionError):
            cache.value(2, 3)
        want = ModeCache(P, records, CTX).value(2, 3)
        assert cache.value(2, 3) == want
        assert len(starts) == 3


class TestCoefficient:
    def test_orthogonality_delta(self, cache):
        # expanding the n-th basis function must give the n-th unit vector
        f = BasisFunction(2)
        with mp.workdps(60):
            for k in (1, 2, 3):
                e = eta_k(cache, k)
                a = coefficient(cache, f, k, e)
                # resolution is set by the gap-relative zero refinement
                if k == 2:
                    assert abs(a - 1) < mpf(10) ** -20
                else:
                    assert abs(a) < mpf(10) ** -20

    def test_zero_function_gives_zero(self, cache):
        e = eta_k(cache, 1)
        a = coefficient(cache, lambda t: mpf(0), 1, e)
        assert a == 0

    def test_nonpositive_eta_rejected(self, cache):
        with pytest.raises(ValueError):
            coefficient(cache, lambda t: mpf(1), 1, 0)

    def test_lattice_function_input(self, cache):
        lf = LatticeFunction(values=("1",) * 40, base="0.5")
        with mp.workdps(60):
            e = eta_k(cache, 1)
            a_lat = coefficient(cache, lf, 1, e)
            a_call = coefficient(cache, lambda t: mpf(1), 1, e)
            # truncation at j=40: tail is below q^40 ~ 1e-12 of the value
            assert abs(a_lat - a_call) <= abs(a_call) * mpf(10) ** -10


    def test_lattice_function_on_another_base_rejected(self, records, cache):
        lf = LatticeFunction(values=("1",) * 40, base="0.8")
        with pytest.raises(BaseMismatchError):
            coefficient(cache, lf, 1, 1)
        with pytest.raises(BaseMismatchError):
            expand(P, lf, records, 2, CTX)

    def test_mode_beyond_zero_table_rejected(self, records, cache):
        f = BasisFunction(5)
        with pytest.raises(ValueError, match="mode 5"):
            coefficient(cache, f, 1, 1)
        with pytest.raises(ValueError, match="mode 5"):
            expand(P, f, records, 2, CTX)
        with pytest.raises(ValueError, match="mode 5"):
            run_checks(P, CTX, kmax=4, check_ids=["riemann-lebesgue"],
                       records=records, rl_functions=[("mode:5", f)])


class TestBesselInequality:
    def test_sum_of_squares_below_norm(self, records, cache):
        with mp.workdps(60):
            f = lambda t: mpf(1)
            total = mpf(0)
            for k in sorted(records):
                e = eta_k(cache, k)
                a = coefficient(cache, f, k, e)
                total += a * a * e
            norm2 = qintegral_01(lambda t: t * f(t) ** 2, CTX, q=P.q)
            assert total <= norm2 * (1 + mpf(10) ** -40)


class TestPartialSum:
    def test_single_mode_reproduced_on_lattice(self, records, cache):
        # S_K for f = mode 2 reproduces the mode at the lattice points
        with mp.workdps(60):
            coeffs = []
            for k in sorted(records):
                e = eta_k(cache, k)
                coeffs.append(coefficient(cache, BasisFunction(2), k, e))
            vals = partial_sum(cache, coeffs[:3])
            for j, v in enumerate(vals):
                want = cache.value(2, j)
                assert abs(v - want) <= max(abs(want), mpf(1)) * mpf(10) ** -18

    def test_k_zero_is_identically_zero(self, cache):
        vals = partial_sum(cache, [])
        assert len(vals) == LATTICE_SAMPLES
        assert all(v == 0 for v in vals)

    def test_accurate_to_the_requested_digits(self):
        # q^(j+1) j_k lies superexponentially close to smaller zeros, so
        # S_K(q^j) is accurate only if its arguments carry the zeros'
        # precision: compare with the same sum over a doubled-digit cache
        params, ctx = QParams("0.3", "2.5"), PrecisionContext(60)
        records = {r.k: r for r in zero_table(params, 8, ctx)}
        result = expand(params, lambda t: mpf(1), records, 8, ctx)
        ref = ModeCache(params, records, PrecisionContext(120))
        with mp.workdps(130):
            for j, got in enumerate(result.partial_sum_values):
                want = mpf(0)
                for k, a in enumerate(result.coeffs, 1):
                    want += a * ref.value(k, j)
                assert abs(got - want) <= abs(want) * mpf(10) ** -60


class TestExpansionIdempotence:
    def test_finite_combination_recovers_coefficients(self, records):
        # f = 2*mode1 - 0.5*mode3, evaluated through a callable that forms
        # the arguments q*j_n*t at the precision the zeros carry
        def f(t):
            total = mpf(0)
            for c, n in ((mpf(2), 1), (mpf("-0.5"), 3)):
                with mp.workdps(max(CTX.digits + 10, records[n].arg_dps)):
                    z = P.q_mp() * records[n].j * t
                total += c * jnu3(P, z, CTX).value
            return total

        result = expand(P, f, records, 4, CTX)
        with mp.workdps(60):
            want = [mpf(2), mpf(0), mpf("-0.5"), mpf(0)]
            for got, w in zip(result.coeffs, want):
                assert abs(got - w) < mpf(10) ** -18


class TestGram:
    def test_identity_symmetric(self, cache):
        g = gram_matrix(cache, 3)
        with mp.workdps(60):
            for i in range(3):
                for j in range(3):
                    assert g[i][j] == g[j][i]
                    target = 1 if i == j else 0
                    assert abs(g[i][j] - target) < mpf(10) ** -14

    def test_missing_record_rejected(self, cache):
        with pytest.raises(ValueError):
            gram_matrix(cache, 9)


class TestRiemannLebesgue:
    def test_constant_function_decay(self, cache):
        rep = riemann_lebesgue_rate(cache, lambda t: mpf(1), range(1, 5))
        assert rep["hypothesis_ok"]
        assert mp.isfinite(rep["sup_rate"])
        assert all(r["cs_holds"] for r in rep["rows"])
        mags = [abs(r["integral"]) for r in rep["rows"]]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_basis_function_input(self, cache):
        rep = riemann_lebesgue_rate(cache, BasisFunction(1), range(1, 4))
        assert rep["hypothesis_ok"]
        assert all(r["cs_holds"] for r in rep["rows"])

    def test_callable_read_once_per_lattice_point(self, cache):
        # the weighted norm and every I_m share one reading of f, taken at
        # the points each sum would call f at: the integrals are those of
        # separate coefficient calls, bit for bit
        calls = Counter()

        def f(t):
            calls[t] += 1
            return 1 / (1 + t)

        rep = riemann_lebesgue_rate(cache, f, range(1, 5))
        assert calls and max(calls.values()) == 1
        assert [r["integral"] for r in rep["rows"]] == [
            coefficient(cache, f, m, 1) for m in range(1, 5)]


class TestExpandResult:
    def test_json_payload(self, records):
        result = expand(P, lambda t: mpf(1), records, 2, CTX)
        payload = json.loads(result.to_json())
        assert payload["q"] == "0.5"
        assert payload["K"] == 2
        assert len(payload["coeffs"]) == 2
        assert len(payload["eta"]) == 2
        assert len(payload["lattice_points"]) == \
            len(payload["partial_sum_values"])

    def test_callable_read_once_per_lattice_point(self, records):
        calls = Counter()

        def f(t):
            calls[t] += 1
            return t

        expand(P, f, records, 4, CTX)
        assert calls and max(calls.values()) == 1

    def test_k_exceeding_records_rejected(self, records):
        with pytest.raises(ValueError):
            expand(P, lambda t: mpf(1), records, 9, CTX)

    def test_basis_function_index_validated(self):
        with pytest.raises(ValueError):
            BasisFunction(0)
