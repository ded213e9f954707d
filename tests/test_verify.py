"""run_checks API: the settings it accepts and the work it shares."""

import importlib
from collections import Counter

import pytest

from qfb import PrecisionContext, QParams, run_checks, zero_table


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
    ("gram", {"gram_tol": "inf"}, "gram tolerance must be a positive finite"),
    ("gram", {"gram_tol": 0}, "got 0"),
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


def test_derivative_at_each_zero_is_evaluated_once(monkeypatch):
    # J'_nu(j_k) feeds both closed forms of eta_k and derivative-decay: one
    # evaluation per zero at the report's digits, and one per zero that
    # derivative-decay (m >= min(4, kmax)) repeats at doubled digits.
    # J_nu(q j_k) feeds the nu closed form, the lattice integrals, the order
    # recurrence and shifted-value-bound: one evaluation per zero
    params, ctx = QParams("0.5", "0"), PrecisionContext(40)
    records = zero_table(params, 3, ctx)
    inputs = {"J'": {r.j: r.k for r in records},
              "J": {r.scaled(params, ctx): r.k for r in records}}
    calls = Counter()

    def counted(name, original):
        def wrapper(p, z, c, *args, **kwargs):
            if p == params and not callable(z) and z in inputs[name]:
                calls[name, inputs[name][z], c.digits] += 1
            return original(p, z, c, *args, **kwargs)
        return wrapper

    for module, attr, name in (
            ("qfb.expansion", "jnu3_derivative", "J'"),
            ("qfb.zeros", "jnu3_derivative", "J'"),
            ("qfb.expansion", "jnu3", "J"),
            ("qfb.expansion", "jnu3_lattice", "J"),
            ("qfb.zeros", "jnu3", "J"),
            ("qfb.verify", "jnu3", "J")):
        original = getattr(importlib.import_module(module), attr)
        monkeypatch.setattr(f"{module}.{attr}", counted(name, original))
    run_checks(params, ctx, kmax=3)
    assert calls == {("J'", 1, 40): 1, ("J'", 2, 40): 1, ("J'", 3, 40): 1,
                     ("J'", 3, 80): 1,
                     ("J", 1, 40): 1, ("J", 2, 40): 1, ("J", 3, 40): 1}
