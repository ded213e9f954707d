"""q-Pochhammer symbols, q-integrals and lattice functions."""

import pytest
from mpmath import mp, mpf

from qfb import (LatticeFunction, PrecisionContext, QParams, qintegral_01,
                 qpochhammer_infinite, qpochhammer_multi)
import qfb.qcore as qcore
from qfb.qcore import lattice_sum

CTX = PrecisionContext(digits=60)


class TestPochhammerInfinite:
    def test_splitting_identity(self):
        # (a;q)_inf = (a;q)_n (a q^n; q)_inf
        with mp.workdps(70):
            a, q = mpf("0.6"), mpf("0.5")
            for n in (1, 3, 7):
                lhs = qpochhammer_infinite(a, q, CTX)
                rhs = (mp.fprod(1 - a * q ** i for i in range(n))
                       * qpochhammer_infinite(a * q ** n, q, CTX))
                assert abs(lhs - rhs) <= abs(lhs) * mpf(10) ** -55

    def test_brute_force_product_oracle(self):
        with mp.workdps(80):
            a, q = mpf("0.9"), mpf("0.7")
            got = qpochhammer_infinite(a, q, CTX)
            prod = mpf(1)
            aq = a
            for _ in range(600):   # q^600 ~ 1e-93, far below tolerance
                prod *= (1 - aq)
                aq *= q
            assert abs(got - prod) <= abs(prod) * mpf(10) ** -55

    def test_multi_argument_is_product_of_singles(self):
        with mp.workdps(70):
            q = mpf("0.5")
            lhs = qpochhammer_multi([mpf("0.3"), mpf("-0.25")], q, CTX)
            rhs = (qpochhammer_infinite("0.3", q, CTX)
                   * qpochhammer_infinite("-0.25", q, CTX))
            assert abs(lhs - rhs) <= abs(lhs) * mpf(10) ** -55

    def test_divergent_base_rejected(self):
        from qfb import DivergenceError
        with pytest.raises(DivergenceError):
            qpochhammer_infinite("0.5", "1.0", CTX)


class TestPochhammerCache:
    def test_within_bound_after_zero_table(self, zero_tables):
        zero_tables("0.8", "0")
        assert 0 < len(qcore._POCH_CACHE) <= qcore.POCH_CACHE_ENTRIES

    def test_eviction_keeps_bound_and_values(self, monkeypatch):
        monkeypatch.setattr(qcore, "_POCH_CACHE", {})
        monkeypatch.setattr(qcore, "POCH_CACHE_ENTRIES", 2)
        first = [qpochhammer_infinite(a, "0.5", CTX)
                 for a in ("0.1", "0.2", "0.3")]
        assert len(qcore._POCH_CACHE) == 2
        again = qpochhammer_infinite("0.1", "0.5", CTX)   # was evicted
        assert again is not first[0]
        assert again._mpf_ == first[0]._mpf_
        assert len(qcore._POCH_CACHE) == 2


class TestQParams:
    def test_valid_range_enforced(self):
        with pytest.raises(ValueError):
            QParams("1.2", "0")
        with pytest.raises(ValueError):
            QParams("0", "0")
        with pytest.raises(ValueError):
            QParams("0.5", "-1.5")
        for nu in ("inf", "nan", float("inf")):
            with pytest.raises(ValueError, match="finite"):
                QParams("0.5", nu)


class TestQIntegral:
    @pytest.mark.parametrize("q", ["0.3", "0.5", "0.8"])
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 7])
    def test_monomials_match_geometric_closed_form(self, q, s):
        # integral of c t^s equals c (1-q)/(1-q^(s+1)) exactly on the
        # lattice; the truncation is relative, so a tiny scale c loses nothing
        ctx = PrecisionContext(digits=120)
        for scale in (mpf(1), mpf(10) ** -50):
            val = qintegral_01(lambda t: scale * t ** s, ctx, q=q)
            with mp.workdps(140):
                qv = mpf(q)
                exact = scale * (1 - qv) / (1 - qv ** (s + 1))
                assert abs(val - exact) < abs(exact) * mpf(10) ** -100

    def test_linearity(self):
        with mp.workdps(70):
            f = qintegral_01(lambda t: t, CTX, q="0.5")
            g = qintegral_01(lambda t: t ** 2, CTX, q="0.5")
            fg = qintegral_01(lambda t: 3 * t + t ** 2, CTX, q="0.5")
            assert abs(fg - (3 * f + g)) <= abs(fg) * mpf(10) ** -50

    def test_lattice_sum_counts_min_terms_from_one(self):
        # the only nonzero term is term 8 (j = 7): min_terms = 9 keeps the
        # sum open past it, min_terms = 5 ends it on j = 4, 5, 6
        q = mpf("0.5")
        with CTX.workdps(10):
            assert lattice_sum(lambda j, t: mpf(j == 7), q, CTX, 9) == 1 - q
            assert lattice_sum(lambda j, t: mpf(j == 7), q, CTX, 5) == 0

    def test_lattice_sum_with_n_sums_j_below_n(self):
        # term j = 7 is in the sum for n = 8 and out of it for n = 7; the
        # seven zero terms before it do not end the sum
        q = mpf("0.5")
        with CTX.workdps(10):
            assert lattice_sum(lambda j, t: mpf(j == 7), q, CTX, n=8) == 1 - q
            assert lattice_sum(lambda j, t: mpf(j == 7), q, CTX, n=7) == 0


class TestLatticeFunction:
    def test_declared_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatticeFunction.from_json('{"q": "0.5", "N": 3, "values": ["1"]}')

    @pytest.mark.parametrize("payload", ['{"q": "0.5"}', '{"values": ["1"]}',
                                         "[1, 2]", '"0.5"',
                                         '{"q": "0.5", "values": 3}',
                                         '{"q": "0.5", "values": [null]}',
                                         '{"q": null, "values": ["1"]}'])
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(ValueError, match="lattice JSON"):
            LatticeFunction.from_json(payload)

    def test_zero_beyond_truncation(self):
        lf = LatticeFunction(values=("7",), base="0.5")
        assert lf.value(5) == 0
