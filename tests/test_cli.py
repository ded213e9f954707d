"""CLI behavior: formats, exit codes, determinism, environment handling."""

import json
from pathlib import Path

import pytest
from mpmath import mp, mpf

from qfb import LatticeFunction
from qfb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# f(t) = t sampled on the lattice of base 1/2
T_ON_HALVES = LatticeFunction(tuple(mpf(2) ** -j for j in range(30)), "0.5")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_csv_row_and_header(self, capsys):
        code, out, _ = run(["eval", "--q", "0.5", "--nu", "0",
                            "--z", "1", "--digits", "40"], capsys)
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "z,J,J_prime,terms,precision_used"
        assert lines[1].startswith("1,")

    def test_z_zero_nu_zero_has_value_no_derivative(self, capsys):
        code, out, _ = run(["eval", "--q", "0.5", "--nu", "0", "--z", "0",
                            "--digits", "40", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["J"] == "1.0"
        assert rows[0]["J_prime"] == ""

    def test_escalated_precision_reported_near_lattice_point(self, capsys):
        code, out, _ = run(["eval", "--q", "0.5", "--nu", "0", "--z", "32",
                            "--digits", "40", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["precision_used"] > 40
        # value agrees with a doubled-precision rerun
        code2, out2, _ = run(["eval", "--q", "0.5", "--nu", "0", "--z", "32",
                              "--digits", "80", "--format", "json"], capsys)
        with mp.workdps(90):
            a, b = mpf(rows[0]["J"]), mpf(json.loads(out2)[0]["J"])
            assert abs(a - b) <= abs(b) * mpf(10) ** -35

    def test_malformed_q_exits_2_naming_invariant(self, capsys):
        code, _, err = run(["eval", "--q", "1.2", "--nu", "0", "--z", "1",
                            "--digits", "40"], capsys)
        assert code == 2
        assert "0 < q < 1" in err

    def test_base_q_flag(self, capsys):
        code, out, _ = run(["eval", "--q", "0.5", "--nu", "0", "--z", "1",
                            "--base-q", "--digits", "40",
                            "--format", "json"], capsys)
        code2, out2, _ = run(["eval", "--q", "0.5", "--nu", "0", "--z", "1",
                              "--digits", "40", "--format", "json"], capsys)
        assert code == code2 == 0
        assert json.loads(out)[0]["J"] != json.loads(out2)[0]["J"]

    @pytest.mark.parametrize("nu, parity", [("2", 1), ("1", -1), ("0", 1)])
    def test_negative_z_integer_nu(self, nu, parity, capsys):
        # J_nu(-z) = (-1)^nu J_nu(z) and J'_nu(-z) = (-1)^(nu-1) J'_nu(z)
        code, out, _ = run(["eval", "--q", "0.5", "--nu", nu, "--z", "-1",
                            "--z", "1", "--digits", "40",
                            "--format", "json"], capsys)
        assert code == 0
        neg, pos = json.loads(out)
        with mp.workdps(50):
            assert mpf(neg["J"]) == parity * mpf(pos["J"])
            assert mpf(neg["J_prime"]) == -parity * mpf(pos["J_prime"])


    @pytest.mark.parametrize("z", ["inf", "-inf", "nan"])
    def test_non_finite_z_exits_2(self, z, capsys):
        code, out, err = run(["eval", "--q", "0.5", "--nu", "0", f"--z={z}",
                              "--digits", "40"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("qfb eval: error: z must be finite")
        assert err.count("\n") == 1

    def test_value_uncertified_at_the_cap_exits_2(self, capsys):
        # z = 2^90 = q^(-90): the series cancels past dps_cap = 2030
        code, out, err = run(["eval", "--q", "0.5", "--nu", "0", "--z",
                              str(2 ** 90), "--digits", "30"], capsys)
        assert code == 2 and out == ""
        assert err == ("qfb eval: error: no certified value to 30 digits "
                       "within 2030 digits\n")

    def test_base_below_float_range(self, capsys):
        code, out, _ = run(["eval", "--q", "1e-200", "--nu", "0.5", "--z",
                            "3", "--digits", "30"], capsys)
        assert code == 0
        assert out.split("\r\n")[1].startswith(
            "3,1.73205080756887729352744634151,")


class TestZeros:
    def test_kmax_zero_empty_table_exit_zero(self, capsys):
        code, out, _ = run(["zeros", "--q", "0.5", "--nu", "0",
                            "--kmax", "0", "--digits", "40"], capsys)
        assert code == 0
        assert out.split("\r\n")[0] == "k,j,epsilon_k,alpha_k,digits"

    def test_negative_kmax_exits_2(self, capsys):
        code, out, err = run(["zeros", "--q", "0.5", "--nu", "0",
                              "--kmax", "-2", "--digits", "40"], capsys)
        assert code == 2 and out == ""
        assert err == "qfb zeros: error: kmax must be >= 0, got -2\n"

    def test_kmax_cap_enforced(self, capsys):
        code, _, err = run(["zeros", "--q", "0.5", "--nu", "0",
                            "--kmax", "20", "--digits", "40"], capsys)
        assert code == 2
        assert "allow-large-k" in err

    @pytest.mark.parametrize("nu", ["inf", "nan"])
    def test_non_finite_nu_exits_2(self, nu, capsys):
        code, out, err = run(["zeros", "--q", "0.5", "--nu", nu,
                              "--kmax", "3", "--digits", "40"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("qfb zeros: error: nu must be finite")
        assert err.count("\n") == 1

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(["zeros", "--q", "0.5", "--nu", "0",
                              "--kmax", "3", "--digits", "40",
                              "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(["zeros", "--q", "0.5", "--nu", "0", "--kmax",
                            "2", "--digits", "40", "--format", "json"],
                           capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["k"] for r in rows] == [1, 2]


class TestVerify:
    def test_subset_selection_and_pass(self, capsys):
        code, out, _ = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", "2", "--digits", "40",
                            "--check", "gram", "--tol", "1e-5",
                            "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert [r["check"] for r in rep["results"]] == ["gram"]

    def test_failed_check_exits_1(self, capsys):
        # at 40 digits the Gram residual cannot reach 1e-40
        code, out, _ = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", "2", "--digits", "40",
                            "--check", "gram", "--format", "json"], capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_q_near_one_reports_where_alpha_is_undefined(self, capsys):
        # alpha_3 is undefined at (0.9, 0): record 3 is not asymptotic, so
        # the companion row of k = 2 is not judged and the check fails on
        # its threshold, with a report rather than an error
        code, out, err = run(["verify", "--q", "0.9", "--nu", "0",
                              "--kmax", "4", "--digits", "40",
                              "--check", "shifted-zeros", "--format", "json"],
                             capsys)
        assert code == 1, err
        [result] = json.loads(out)["results"]
        assert result["status"] == "fail"
        assert result["details"]["k0"] is None
        assert result["details"]["rows"][0] == {
            "k": 2, "holds": True, "eps_decreasing": True,
            "companion_holds": None}

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run(["verify", "--q", "0.5", "--nu", "0",
                            "--check", "bogus", "--digits", "40"], capsys)
        assert code == 2
        assert "unknown check" in err

    def test_csv_report_format(self, capsys):
        code, out, _ = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", "4", "--digits", "40",
                            "--check", "signs",
                            "--theta-zero-rule", "1/m**2",
                            "--theta-inf-rule", "1/sqrt(m)"], capsys)
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "check,status,margin,threshold,anchor"
        assert lines[1].startswith("signs,pass")

    def test_mode_spec_runs_riemann_lebesgue(self, capsys):
        code, out, _ = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", "3", "--digits", "40",
                            "--check", "riemann-lebesgue", "--f", "mode:2",
                            "--format", "json"], capsys)
        assert code == 0
        details = json.loads(out)["results"][0]["details"]
        assert details["mode:2"]["sup_at"] == 2

    @pytest.mark.parametrize("kmax", ["0", "1"])
    def test_kmax_below_two_exits_2(self, kmax, capsys):
        code, _, err = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", kmax, "--digits", "40"], capsys)
        assert code == 2
        assert "kmax must be >= 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("option,value,message", [
        ("--samples", "0", "need at least one sample per interval"),
        ("--theta-zero-rule", "2", "theta_m must lie in [0,1)"),
        ("--tol", "nan", "gram tolerance must be a positive finite number"),
        ("--tol", "-1", "gram tolerance must be a positive finite number"),
    ])
    def test_bad_check_setting_exits_2(self, option, value, message, capsys):
        code, _, err = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", "8", "--digits", "80", option, value],
                           capsys)
        assert code == 2
        assert message in err and "Traceback" not in err

    def test_mode_beyond_kmax_exits_2(self, capsys):
        code, _, err = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", "3", "--digits", "40",
                            "--check", "riemann-lebesgue", "--f", "mode:4"],
                           capsys)
        assert code == 2
        assert "mode:4" in err and "Traceback" not in err

    def test_lattice_function_on_another_base_exits_2(self, tmp_path,
                                                      capsys):
        lf = T_ON_HALVES
        path = tmp_path / "f.json"
        path.write_text(lf.to_json(), encoding="utf-8")
        code, _, err = run(["verify", "--q", "0.8", "--nu", "0",
                            "--kmax", "3", "--digits", "40",
                            "--check", "riemann-lebesgue", "--f", str(path)],
                           capsys)
        assert code == 2
        assert "base" in err and "Traceback" not in err

    def test_malicious_rule_rejected(self, capsys):
        code, _, err = run(["verify", "--q", "0.5", "--nu", "0",
                            "--check", "signs", "--digits", "40",
                            "--theta-zero-rule",
                            "__import__('os').system('true')"], capsys)
        assert code == 2
        assert "unknown name" in err

    @pytest.mark.parametrize("rule", ["1/", "sqrt(-m)", "m/0"])
    def test_malformed_rule_exits_2(self, rule, capsys):
        code, _, err = run(["verify", "--q", "0.5", "--nu", "0",
                            "--kmax", "3", "--digits", "40", "--check",
                            "signs", "--theta-zero-rule", rule], capsys)
        assert code == 2
        assert err.startswith("qfb verify: error: rule ")
        assert err.count("\n") == 1


class TestExpand:
    def test_constant_function_json(self, capsys):
        code, out, _ = run(["expand", "--q", "0.5", "--nu", "0", "--K", "2",
                            "--f", "1", "--digits", "40"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["coeffs"]) == 2

    def test_mode_spec_gives_unit_vector(self, capsys):
        code, out, _ = run(["expand", "--q", "0.5", "--nu", "0", "--K", "3",
                            "--f", "mode:2", "--digits", "40"], capsys)
        assert code == 0
        coeffs = [mpf(c) for c in json.loads(out)["coeffs"]]
        with mp.workdps(50):
            assert abs(coeffs[0]) < mpf(10) ** -20
            assert abs(coeffs[1] - 1) < mpf(10) ** -18
            assert abs(coeffs[2]) < mpf(10) ** -20

    def test_mode_beyond_table_rejected(self, capsys):
        code, _, err = run(["expand", "--q", "0.5", "--nu", "0", "--K", "2",
                            "--f", "mode:5", "--digits", "40"], capsys)
        assert code == 2
        assert "zero table" in err

    def test_lattice_json_round_trip(self, tmp_path, capsys):
        lf = T_ON_HALVES
        path = tmp_path / "f.json"
        path.write_text(lf.to_json(), encoding="utf-8")
        code, out, _ = run(["expand", "--q", "0.5", "--nu", "0", "--K", "2",
                            "--f", str(path), "--digits", "40"], capsys)
        assert code == 0
        # the file re-parses to an identical lattice function
        back = LatticeFunction.from_json(path.read_text(encoding="utf-8"))
        with mp.workdps(50):
            for j in range(lf.truncation):
                assert abs(back.value(j) - lf.value(j)) < mpf(10) ** -35

    def test_lattice_function_on_another_base_exits_2(self, tmp_path,
                                                      capsys):
        lf = T_ON_HALVES
        path = tmp_path / "f.json"
        path.write_text(lf.to_json(), encoding="utf-8")
        code, _, err = run(["expand", "--q", "0.8", "--nu", "0", "--K", "2",
                            "--f", str(path), "--digits", "40"], capsys)
        assert code == 2
        assert "base" in err and "Traceback" not in err

    def test_infinite_integrand_exits_2(self, capsys):
        # log(1-t) is -inf at the lattice point t = 1
        code, _, err = run(["expand", "--q", "0.5", "--nu", "0", "--K", "2",
                            "--digits", "40", "--f", "log(1-t)"], capsys)
        assert code == 2
        assert err.startswith("qfb expand: error: series term 1 is -inf")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("f", ["t**", "1/(t-t)"])
    def test_malformed_expression_exits_2(self, f, capsys):
        code, _, err = run(["expand", "--q", "0.5", "--nu", "0", "--K", "2",
                            "--digits", "40", "--f", f], capsys)
        assert code == 2
        assert err.startswith("qfb expand: error: rule ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("payload", [
        '{"q": "0.5"}', "[1, 2]", '{"q": "0.5", "values": 3}',
        '{"q": "0.5", "values": [null, "1"]}', '{"q": null, "values": ["1"]}',
        '{"q": "0.5", "values": [true, ["1"]]}',
        '{"q": "0.5", "values": ["inf", "1"]}', '{"q": "0.5", "values": [NaN]}'])
    def test_malformed_lattice_json_exits_2(self, payload, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(payload, encoding="utf-8")
        code, _, err = run(["expand", "--q", "0.5", "--nu", "0", "--K", "2",
                            "--digits", "40", "--f", str(path)], capsys)
        assert code == 2
        assert err.startswith("qfb expand: error: lattice JSON ")
        assert err.count("\n") == 1

    def test_format_not_offered(self, capsys):
        # expand writes JSON only
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--q", "0.5", "--nu", "0", "--K", "1",
                  "--f", "1", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_plot_csv_written(self, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(["expand", "--q", "0.5", "--nu", "0", "--K", "1",
                          "--f", "1", "--digits", "40",
                          "--plot-csv", str(plot)], capsys)
        assert code == 0
        lines = plot.read_bytes().decode("utf-8").split("\r\n")
        assert lines[0] == "x,S_K"
        assert len(lines) > 2

    def test_matches_golden_to_50_digits(self, capsys):
        code, out, _ = run(["expand", "--q", "0.5", "--nu", "0", "--K", "4",
                            "--f", "t**(-1/4)", "--digits", "60"], capsys)
        assert code == 0
        got = json.loads(out)
        want = json.loads((GOLDEN / "expand-q0.5-nu0-K4-t-quarter-d60.json")
                          .read_text(encoding="utf-8"))
        with mp.workdps(70):
            for key in ("eta", "coeffs", "lattice_points",
                        "partial_sum_values"):
                assert len(got[key]) == len(want[key]), key
                for g, w in zip(got[key], want[key]):
                    w = mpf(w)
                    assert abs(mpf(g) - w) <= abs(w) * mpf(10) ** -50, key

    def test_deterministic_rerun(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(["expand", "--q", "0.5", "--nu", "0", "--K",
                              "2", "--f", "t**2", "--digits", "40",
                              "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestEnvironment:
    def test_qfb_digits_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("QFB_DIGITS", "35")
        code, out, _ = run(["eval", "--q", "0.5", "--nu", "0", "--z", "0.5",
                            "--format", "json"], capsys)
        assert code == 0
        # J column is printed at the context's digits: 35 here
        j = json.loads(out)[0]["J"]
        mantissa = j.replace("-", "").replace(".", "").split("e")[0]
        assert len(mantissa) <= 36

    def test_bad_qfb_digits_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("QFB_DIGITS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--q", "0.5", "--nu", "0", "--kmax", "1"])
        assert exc.value.code == 2
        assert "--digits" in capsys.readouterr().err
