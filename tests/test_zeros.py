"""Zero localization, refinement, and the structural checks built on zeros."""

import json
from pathlib import Path

import pytest
from mpmath import mp, mpf

import qfb.precision
import qfb.zeros
from qfb import (ModeCache, PrecisionContext, QParams, ZeroRecord, alpha_k,
                 count_zeros_below, dense_scan_brackets,
                 derivative_sign_pattern, empirical_k0, find_zero, jnu3,
                 verify_shifted_zero, verify_sign_constancy, zero_table,
                 zero_table_to_csv, zero_table_to_json)

CTX = PrecisionContext(digits=60)
P = QParams("0.5", "0")
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def table3():
    return zero_table(P, 3, CTX)


def independent_bisection(params, lo, hi, rel_tol):
    """Plain bisection on sign of J_nu, written independently of find_zero."""
    with mp.workdps(120):
        lo, hi = mpf(lo), mpf(hi)
        ctx = PrecisionContext(digits=80)
        s_lo = 1 if jnu3(params, lo, ctx).value > 0 else -1
        while hi - lo > rel_tol * lo:
            mid = (lo + hi) / 2
            s = 1 if jnu3(params, mid, ctx).value > 0 else -1
            if s == s_lo:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


class TestAlpha:
    def test_formula_against_direct_recomputation(self):
        with mp.workdps(70):
            q, nu, k = mpf("0.5"), mpf("0"), 4
            a = alpha_k(P, k, CTX)
            want = mp.log(1 - q ** (2 * (k + nu)) / (1 - q ** (2 * k))) \
                / (2 * mp.log(q))
            assert abs(a - want) <= abs(want) * mpf(10) ** -50

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            alpha_k(P, 0, CTX)

    def test_undefined_when_log_argument_nonpositive(self):
        # at q near 1, small k, nu=0 the log argument goes <= 0
        assert alpha_k(QParams("0.8", "0"), 1, CTX) is None


class TestFindZero:
    def test_first_zeros_match_dense_scan_oracle(self, table3):
        # independent localization: dense multiplicative scan + own bisection
        with mp.workdps(80):
            brackets = dense_scan_brackets(P, mpf("0.5"), mpf(2) ** 4,
                                           CTX, ratio=mpf("1.01"))
            assert len(brackets) >= 3
            for rec, (lo, hi) in zip(table3, brackets[:3]):
                oracle = independent_bisection(P, lo, hi, mpf(10) ** -40)
                assert abs(rec.j - oracle) <= abs(oracle) * mpf(10) ** -30

    def test_zero_value_is_tiny_at_refined_point(self, table3):
        ctx = PrecisionContext(digits=60)
        for rec in table3:
            v = jnu3(P, (lambda r: lambda: r.j)(rec), ctx).value
            neighbour = jnu3(P, rec.j * mpf("1.01"), ctx).value
            assert abs(v) < abs(neighbour) * mpf(10) ** -20

    def test_epsilon_definition(self, table3):
        with mp.workdps(80):
            for rec in table3:
                eps = rec.k + mp.log(rec.j) / mp.log(P.q_mp())
                assert abs(eps - rec.epsilon_k) < mpf(10) ** -25

    def test_strictly_increasing(self, table3):
        assert table3[0].j < table3[1].j < table3[2].j

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            find_zero(P, 0, CTX)


class TestGoldenTables:
    # q=0.3 brackets every zero asymptotically; q=0.8 takes scan fallbacks
    @pytest.mark.parametrize("q,nu", [("0.3", "2.5"), ("0.8", "0")])
    def test_kmax12_matches_golden(self, zero_tables, q, nu):
        want = json.loads((GOLDEN / f"zeros-q{q}-nu{nu}-k12-d120.json")
                          .read_text(encoding="utf-8"))
        got = zero_tables(q, nu)
        assert sorted(got) == [w["k"] for w in want["zeros"]]
        # agreement to the refinement width of find_zero: relative
        # 10^(-digits/2), and that fraction of the gap q*j_k - j_(k-1)
        with mp.workdps(max(len(w["j"]) for w in want["zeros"]) + 10):
            qv = mpf(q)
            tol = mpf(10) ** (-mpf(want["digits"]) / 2)
            prev = None
            for w in want["zeros"]:
                rec = got[w["k"]]
                j = mpf(w["j"])
                assert rec.asymptotic_bracket_ok == \
                    w["asymptotic_bracket_ok"], w["k"]
                err = abs(rec.j - j)
                assert err <= tol * j, w["k"]
                if prev is not None:
                    assert err <= tol * (qv * j - prev) / qv, w["k"]
                prev = j


class TestSmallGaps:
    def test_gap_test_sees_eps_below_the_initial_precision(self):
        # at 60 digits eps_10 ~ 1e-125 lies below q's rounding at the
        # bisection's starting precision (100 digits), so the gap
        # q j_11 - j_10 must be formed from q at the working precision
        params = QParams("0.3", "2.5")
        ctx = PrecisionContext(60)
        records = {r.k: r for r in zero_table(params, 11, ctx)}
        cache = ModeCache(params, records, ctx)
        assert all(cache.eta(k) > 0 for k in records)
        eps = [records[k].epsilon_k for k in sorted(records)]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        assert eps[-1] < mpf(10) ** -150


class TestWorkCounts:
    def test_series_passes_and_sign_queries_of_a_small_table(self,
                                                             monkeypatch):
        # the counts the benchmark self-test pins at kmax 12, here at kmax 4
        # and 60 digits: two passes per evaluation, none repeated
        calls = {"passes": 0, "signs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(qfb.precision, "tracked_sum",
                            counted("passes", qfb.precision.tracked_sum))
        monkeypatch.setattr(qfb.zeros, "jnu3",
                            counted("signs", qfb.zeros.jnu3))
        zero_table(QParams("0.5", "0"), 4, PrecisionContext(60))
        assert calls == {"passes": 7408, "signs": 3704}


class TestCensus:
    def test_table_count_matches_dense_scan(self, table3):
        with mp.workdps(60):
            zmax = P.q_mp() ** -3 * (1 + mpf(10) ** -20)
            n = count_zeros_below(P, zmax, CTX)
            assert n == sum(1 for r in table3 if r.j < zmax)

    def test_empty_range(self):
        assert count_zeros_below(P, "0.5", CTX) == 0


class TestEmpiricalK0:
    def _rec(self, k, ok):
        return ZeroRecord(k=k, bracket_lo=mpf(1), bracket_hi=mpf(2),
                          j=mpf(1), epsilon_k=mpf(0), alpha_k=None,
                          refined_to=30, asymptotic_bracket_ok=ok)

    def test_trailing_run_semantics(self):
        recs = [self._rec(1, False), self._rec(2, True), self._rec(3, True)]
        assert empirical_k0(recs) == 2
        recs = [self._rec(1, True), self._rec(2, False), self._rec(3, True)]
        assert empirical_k0(recs) == 3
        recs = [self._rec(1, True), self._rec(2, False)]
        assert empirical_k0(recs) is None


class TestShiftedZeros:
    def test_interlacing_holds_with_positive_margins(self, table3):
        records = {r.k: r for r in table3}
        for k in (2, 3):
            row = verify_shifted_zero(P, k, records)
            assert row["holds"]
            assert row["margin_lower"] > 0
            assert row["margin_upper"] > 0

    def test_missing_neighbour_rejected(self, table3):
        records = {r.k: r for r in table3}
        with pytest.raises(ValueError):
            verify_shifted_zero(P, 5, records)


class TestSignPatterns:
    def test_bessel_thresholds_small_q(self):
        for limit in ("zero", "infinity"):
            rule = (lambda m: mpf(1) / m ** 2) if limit == "zero" \
                else (lambda m: 1 / mp.sqrt(m))
            t = derivative_sign_pattern(P, range(2, 7), rule, CTX,
                                        kind="bessel", limit=limit)
            assert t["threshold"] is not None and t["threshold"] <= 6

    def test_phi11_pattern(self):
        rule = lambda m: mpf(1) / m ** 2
        t = derivative_sign_pattern(P, range(2, 7), rule, CTX,
                                    kind="phi11", limit="zero")
        assert t["threshold"] is not None and t["threshold"] <= 6

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            derivative_sign_pattern(P, [1], lambda m: 1, CTX)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            derivative_sign_pattern(P, [2], lambda m: mpf("0.1"), CTX,
                                    kind="nope")


class TestSignConstancy:
    def test_constant_and_alternating(self):
        rep = verify_sign_constancy(P, range(2, 6), CTX,
                                    samples_per_interval=8)
        assert all(r["constant"] for r in rep["rows"])
        assert rep["adjacent_alternating"]
        assert rep["skipped"] == []

    def test_pre_asymptotic_indices_skipped(self):
        # alpha_m >= 1 at small m for q near 1: those intervals span more
        # than one zero and are excluded rather than failed
        rep = verify_sign_constancy(QParams("0.8", "0"), range(1, 4),
                                    PrecisionContext(digits=40),
                                    samples_per_interval=4)
        assert 1 in rep["skipped"] and 2 in rep["skipped"]
        assert all(r["m"] >= 3 for r in rep["rows"])


class TestSerialization:
    def test_csv_shape(self, table3):
        text = zero_table_to_csv(table3)
        lines = text.strip().split("\r\n")
        assert lines[0] == "k,j,epsilon_k,alpha_k,digits"
        assert len(lines) == 1 + len(table3)

    def test_json_fields(self, table3):
        import json
        rows = json.loads(zero_table_to_json(table3))
        assert [r["k"] for r in rows] == [1, 2, 3]
        for r in rows:
            assert set(r) >= {"j", "epsilon_k", "alpha_k",
                              "asymptotic_bracket_ok", "refined_to"}

