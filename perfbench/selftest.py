"""Self-test of the benchmark itself.  From the repository root:

    python3 perfbench/selftest.py

1. The correctness gate catches a zero moved beyond its tolerance, a flipped
   check status, a changed exit code and a changed eval value, and accepts
   a zero moved within its tolerance.
2. The tracer's counts on zero_table(q=0.5, nu=0, kmax=12) and on the
   shifted-zeros census equal BASELINE, which was counted with a
   sys.setprofile hook on the functions' code objects: that sees every
   call whatever name it was made through, so a binding site the tracer
   missed shows up here as a count that is too low.  A change that
   legitimately alters these counts updates BASELINE.
3. run.py, on tiny inputs (kmax 3, 40 digits), emits every metric
   BENCHMARK.json names, with its unit, and finds no failure.
4. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import plan  # noqa: E402
import tracer  # noqa: E402

# sign evaluations and series passes of zero_table(q=0.5, nu=0, kmax=12),
# and the census's scan points below q^-6, on the code the benchmark was
# defined on
BASELINE = {"sign_evals": 6592, "passes": 13184, "census_points": 9710}


def _stdout_verify(checks: dict) -> str:
    return json.dumps({"results": [{"check": cid, **v}
                                   for cid, v in checks.items()]})


def test_gate() -> None:
    from mpmath import mp, mpf

    q, nu = plan.FLAGSHIP
    key = check.config_key(q, nu)
    zeros_ref = check.load_golden("zeros", plan.KMAX, plan.DIGITS)[key]
    good = json.dumps(zeros_ref["zeros"])
    assert check.check_zeros(zeros_ref, q, plan.DIGITS, 0, good) == (12, 0)

    def moved(k: int, factor: str) -> str:
        rows = [dict(z) for z in zeros_ref["zeros"]]
        with mp.workdps(2 * plan.DIGITS):
            j = mpf(rows[k - 1]["j"])
            gap = (mpf(q) * j - mpf(rows[k - 2]["j"])) / mpf(q)
            shift = mpf(factor) * mpf(10) ** (-plan.DIGITS // 2) * min(j, gap)
            rows[k - 1]["j"] = mp.nstr(j + shift, 2 * plan.DIGITS)
        return json.dumps(rows)

    assert check.check_zeros(zeros_ref, q, plan.DIGITS, 0,
                             moved(5, "0.4")) == (12, 0)
    assert check.check_zeros(zeros_ref, q, plan.DIGITS, 0,
                             moved(5, "3"))[1] == 1
    assert check.check_zeros(zeros_ref, q, plan.DIGITS, 2, good)[1] == 12

    verify_ref = check.load_golden("verify", plan.KMAX, plan.DIGITS)[key]
    good = _stdout_verify(verify_ref["checks"])
    assert check.check_verify(verify_ref, 0, good) == (9, 0)
    flipped = json.loads(json.dumps(verify_ref["checks"]))
    flipped["gram"]["status"] = "fail"
    assert check.check_verify(verify_ref, 0, _stdout_verify(flipped))[1] == 1
    assert check.check_checks(verify_ref, flipped)[1] == 1
    assert check.check_verify(verify_ref, 1, good)[1] == 9

    from qfb import PrecisionContext, QParams, jnu3_derivative

    points = plan.eval_points(1)
    index = next(i for i, p in enumerate(points)
                 if p["kind"] == "lattice" and p["m"] >= 10)
    p = points[index]
    params = QParams(p["q"], p["nu"])
    value = jnu3_derivative(params, lambda: params.q_mp() ** (-p["m"]),
                            PrecisionContext(plan.DIGITS)).value
    with mp.workdps(plan.DIGITS + 20):
        good_text = mp.nstr(value, plan.DIGITS + 15)
        bad_text = mp.nstr(value * (1 + mpf(10) ** -100), plan.DIGITS + 15)
    key = f"{index}/dJ"
    assert check.check_eval(points, {key: {good_text: 3}}, {},
                            plan.DIGITS) == (3, 0)
    assert check.check_eval(points, {key: {good_text: 2, bad_text: 1}}, {},
                            plan.DIGITS) == (3, 1)
    assert check.check_eval(points, {key: {good_text: 2}}, {key: 1},
                            plan.DIGITS) == (3, 1)
    print("gate: catches a moved zero, a flipped status, an exit code and "
          "an eval value")


def test_counts() -> None:
    from mpmath import mp, mpf
    from qfb import PrecisionContext, QParams, count_zeros_below, zeros

    params = QParams(*plan.FLAGSHIP)
    ctx = PrecisionContext(plan.DIGITS)
    trace = tracer.Tracer()
    trace.install()
    try:
        zeros.zero_table(params, plan.KMAX, ctx)
        table = tracer.per_layer(trace.layers(), {}, 0.0)
        trace.spans.clear()
        with mp.workdps(60):
            zmax = params.q_mp() ** (-6) * (1 + mpf(10) ** -30)
        count_zeros_below(params, zmax, ctx)
        census = tracer.per_layer(trace.layers(), {}, 0.0)
    finally:
        trace.uninstall()
    got = {"sign_evals": table["zeros.sign_evals"],
           "passes": table["precision.passes"],
           "census_points": census["zeros.scan_points"]}
    assert got == BASELINE, got
    assert table["precision.accept_ratio"] <= 0.5
    print(f"counts: {got} agree with the baseline {BASELINE}")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--kmax", "3", "--digits", "40"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def test_runner() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in plan.WORKLOADS:
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
    print("run.py: every workload emits every metric with its unit")


def test_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "eval-mix", 0)
        assert proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)
    print("bare directory: exits non-zero without a result")


if __name__ == "__main__":
    test_gate()
    test_counts()
    test_runner()
    test_bare_directory()
    print("selftest passed")
