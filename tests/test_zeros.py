"""Zero localization, refinement, and the structural checks built on zeros."""

import json
from pathlib import Path

import pytest
from mpmath import mp, mpf

import qfb.precision
import qfb.zeros
from qfb import (ModeCache, PrecisionContext, PrecisionError, QParams,
                 ZeroRecord, alpha_k, count_zeros_below, dense_scan_brackets,
                 derivative_sign_pattern, empirical_k0, find_zero, jnu3,
                 verify_shifted_zero, verify_sign_constancy, zero_table)
from qfb.cli import main
from qfb.qspecial import jnu3_sign
from qfb.zeros import _bisection_cell, _sgn

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


# exact midpoints for the brackets and depths of plain_bisection's tables
EXACT_DPS = 1500


def plain_bisection(params, rec, prev, zero, digits):
    """Bisection of rec's bracket with exact midpoints, each side read from
    the reference ``zero``, to find_zero's width rule: relative width
    10^(-digits/2), and that fraction of the gap q*mid - prev.  Returns the
    last cell's (centre, width)."""
    with mp.workdps(EXACT_DPS):
        q, tol = params.q_mp(), mpf(10) ** (-mpf(digits) / 2)
        lo, hi = rec.bracket_lo, rec.bracket_hi
        while True:
            mid, width = (lo + hi) / 2, hi - lo
            gap = mid if prev is None else (q * mid - prev) / q
            if gap > 0 and width <= tol * min(mid, gap):
                return mid, width
            lo, hi = (mid, hi) if mid < zero else (lo, mid)


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

    def test_unrepresentable_endpoint_is_a_precision_error(self,
                                                           monkeypatch):
        # a sign that never matches the endpoint's side at any precision
        monkeypatch.setattr(qfb.zeros, "jnu3_sign",
                            lambda p, z, c, dps: (1, dps, mpf(1)))
        with pytest.raises(PrecisionError, match="bracket endpoint"):
            qfb.zeros._materialize_endpoint(P, lambda: mpf(1), -1, CTX)


class TestGoldenTables:
    # q=0.3 brackets every zero asymptotically; q=0.8 takes scan fallbacks
    @pytest.mark.parametrize("q,nu", [("0.3", "2.5"), ("0.8", "0")])
    def test_kmax12_matches_golden(self, zero_tables, q, nu):
        self.check(zero_tables, q, nu, 12)

    def test_kmax16_matches_golden(self, zero_tables):
        # past kmax 12 the bisection's working precision reaches 505
        # digits, and the sign queries' warm start jumps furthest
        self.check(zero_tables, "0.3", "2.5", 16)

    def test_kmax20_matches_golden(self, zero_tables):
        # eps_20 ~ 1e-471: the largest working precision of any golden
        self.check(zero_tables, "0.3", "2.5", 20)

    @staticmethod
    def check(zero_tables, q, nu, kmax):
        want = json.loads((GOLDEN / f"zeros-q{q}-nu{nu}-k{kmax}-d120.json")
                          .read_text(encoding="utf-8"))
        got = zero_tables(q, nu, kmax)
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
        # kmax 4 at 60 digits: one sign query per scan point, bracket end,
        # secant step and cell boundary, and, from the warm start, most of
        # them certified at their first pass
        calls = {"passes": 0, "signs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(qfb.precision, "tracked_sum",
                            counted("passes", qfb.precision.tracked_sum))
        monkeypatch.setattr(qfb.zeros, "jnu3_sign",
                            counted("signs", qfb.zeros.jnu3_sign))
        zero_table(QParams("0.5", "0"), 4, PrecisionContext(60))
        assert calls == {"passes": 3343, "signs": 3331}


class TestBisectionCell:
    # the secant steps change only the cost: every j is the centre of the
    # cell a plain bisection of the bracket stops in, which holds the zero
    @pytest.mark.parametrize("digits", [60, 61, 120])   # 61: 10^-30.5
    def test_zeros_match_a_plain_bisection(self, digits):
        records = zero_table(P, 4, PrecisionContext(digits))
        exact = zero_table(P, 4, PrecisionContext(2 * digits))
        prev = None
        for rec, ref in zip(records, exact):
            centre, width = plain_bisection(P, rec, prev, ref.j, digits)
            with mp.workdps(EXACT_DPS):
                assert abs(rec.j - centre) <= \
                    mpf(10) ** -rec.arg_dps * rec.j, rec.k
                assert abs(ref.j - rec.j) < width / 2, rec.k
            prev = rec.j

    @pytest.mark.parametrize("tol", [mpf(1), mpf(2) ** -20])
    def test_cell_depth_and_boundaries(self, tol):
        # cells of (1, 2) pass at width 2^-10, whether the depth estimate
        # from tol starts too shallow or too deep
        def done(mid, width):
            return width <= mpf(2) ** -10

        def cell(a, b):
            return _bisection_cell(mpf(1), mpf(2), 1 + mpf(a) / 1024,
                                   1 + mpf(b) / 1024, tol, done)

        # a on a boundary lies in the upper cell, b in the lower
        assert cell(3, 4) == (1 + mpf(7) / 2048, mpf(2) ** -10)
        assert cell("3.5", "3.75") == cell(3, 4)
        # apart, the boundary bisection queries first
        assert cell("3.5", "5.5") == (None, 1 + mpf(4) / 1024)
        assert cell("2.5", "3.5") == (None, 1 + mpf(3) / 1024)
        assert cell("2.5", 4) == (None, 1 + mpf(3) / 1024)


class TestSignKernel:
    @pytest.mark.parametrize("m", [5, 30, 55, 100])
    def test_kernel_sign_is_the_sign_of_the_value(self, zero_tables, m):
        # either side of j_k, at relative distances down to 10^-100: the
        # certified sign from a cold (30) or a hot (400) start against J
        # itself at 240 digits
        ctx = PrecisionContext(120)
        records = zero_tables("0.5", "0")
        for k in range(1, 5):
            for side in (-1, 1):
                with mp.workdps(260):
                    z = records[k].j * (1 + side * mpf(10) ** -m)
                want = _sgn(jnu3(P, z, PrecisionContext(240)).value)
                assert want != 0
                for start in (30, 400):
                    assert jnu3_sign(P, z, ctx, start)[0] == want, \
                        (k, side, start)


class TestCensus:
    def test_table_count_matches_dense_scan(self, table3):
        with mp.workdps(60):
            zmax = P.q_mp() ** -3 * (1 + mpf(10) ** -20)
            n = count_zeros_below(P, zmax, CTX)
            assert n == sum(1 for r in table3 if r.j < zmax)

    def test_empty_range(self):
        assert count_zeros_below(P, "0.5", CTX) == 0

    @pytest.mark.parametrize("nu", ["0", "0.5"])
    def test_scan_starts_below_the_first_zero(self, nu):
        # at q = 0.9 the first zero (0.3225 for nu = 0.5) lies below q^8;
        # an independent sign census of z^nu (q^(2nu+2);q^2)_inf /
        # (q^2;q^2)_inf * mpmath.qhyper([0], [q^(2nu+2)], q^2, q^2 z^2) at
        # 40 digits counts 6 zeros below q^-6 for both orders
        params = QParams("0.9", nu)
        with mp.workdps(60):
            zmax = params.q_mp() ** -6 * (1 + mpf(10) ** -30)
        assert count_zeros_below(params, zmax, CTX) == 6

    @pytest.mark.parametrize("q,nu", [("0.3", "2.5"), ("0.5", "0"),
                                      ("0.8", "0.5"), ("0.95", "0.5"),
                                      ("0.95", "-0.5")])
    def test_positive_at_scan_start(self, q, nu):
        # J > 0 on (0, z0]: the census need not scan there
        params = QParams(q, nu)
        with mp.workdps(40):
            p = params.q_mp() ** 2
            z0 = mp.sqrt((1 - p ** (params.nu_mp() + 1)) * (1 - p) / (2 * p))
        assert jnu3_sign(params, z0, CTX, 30)[0] == 1


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
    """The table as ``qfb zeros`` writes it, at the parameters of table3."""

    ARGV = ["zeros", "--q", "0.5", "--nu", "0", "--kmax", "3",
            "--digits", "60"]

    def test_csv_shape(self, table3, capsys):
        assert main(self.ARGV) == 0
        lines = capsys.readouterr().out.strip().split("\r\n")
        assert lines[0] == "k,j,epsilon_k,alpha_k,digits"
        assert len(lines) == 1 + len(table3)
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [str(rec.k), mp.nstr(rec.j, 60)] for rec in table3]

    def test_json_fields(self, table3, capsys):
        assert main([*self.ARGV, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["k"] for r in rows] == [1, 2, 3]
        for r, rec in zip(rows, table3):
            assert set(r) >= {"j", "epsilon_k", "alpha_k",
                              "asymptotic_bracket_ok", "refined_to"}
            assert r["j"] == mp.nstr(rec.j, 60)
            assert r["refined_to"] == rec.refined_to
            assert r["asymptotic_bracket_ok"] == rec.asymptotic_bracket_ok
