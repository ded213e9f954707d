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


@pytest.mark.parametrize("check,setting,message", [
    ("sign-constancy", {"samples_per_interval": 0},
     "need at least one sample per interval"),
    ("signs", {"theta_zero_rule": lambda m: 2}, r"theta_m must lie in \[0,1\)"),
    ("signs", {"theta_inf_rule": lambda m: m / 4}, "got 1.0 at m=4"),
])
def test_bad_check_setting_rejected_before_any_work(check, setting, message,
                                                    monkeypatch):
    def no_zero_table(*args, **kwargs):
        raise AssertionError("zero_table called")

    monkeypatch.setattr("qfb.verify.zero_table", no_zero_table)
    with pytest.raises(ValueError, match=message):
        run_checks(QParams("0.5", "0"), PrecisionContext(40), kmax=8,
                   check_ids=[check], **setting)


def test_check_setting_read_only_by_its_check(monkeypatch):
    # the gram check does not read the samples setting, so it is not judged
    report = run_checks(QParams("0.5", "0"), PrecisionContext(40), kmax=2,
                        check_ids=["gram"], samples_per_interval=0,
                        gram_tol="1e-5")
    assert [r.check for r in report.results] == ["gram"]
