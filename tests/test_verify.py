"""run_checks API: the settings it accepts."""

import pytest

from qfb import PrecisionContext, QParams, run_checks


def test_unknown_option_rejected_before_any_work():
    with pytest.raises(TypeError, match="gram_size"):
        run_checks(QParams("0.5", "0"), PrecisionContext(digits=40), kmax=2,
                   check_ids=["gram"], gram_size=4)


@pytest.mark.parametrize("kmax", [0, 1])
def test_kmax_below_two_rejected_before_any_work(kmax, monkeypatch):
    def no_zero_table(*args, **kwargs):
        raise AssertionError("zero_table called")

    monkeypatch.setattr("qfb.verify.zero_table", no_zero_table)
    with pytest.raises(ValueError, match="kmax must be >= 2"):
        run_checks(QParams("0.5", "0"), PrecisionContext(40), kmax=kmax)
