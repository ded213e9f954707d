"""One benchmark process: a cold interpreter that runs one job.

run.py starts it as ``python3 worker.py <job json> <spawn time>`` with the
spawn time read from time.monotonic(), and reads one JSON line from its
standard output.  A job is one eval-mix batch loop, one in-process `qfb`
invocation, or a probe that only sets up (imports qfb and builds the
inputs); with tracing on it also records spans (see tracer.py).
"""

import sys
import time

T_SPAWN = float(sys.argv[2])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import plan  # noqa: E402
import tracer as tracing  # noqa: E402
from mpmath import mp  # noqa: E402
from qfb import PrecisionContext, QParams, cli, qspecial, verify  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _eval_inputs(job):
    points = plan.eval_points(job["seed"])
    params = {cfg: QParams(*cfg) for cfg in plan.GRID}
    calls = []
    for index, fn in plan.eval_calls(job["seed"]):
        p = points[index]
        P = params[(p["q"], p["nu"])]
        if p["kind"] == "lattice":
            # re-derived at every escalation's precision, as zeros does
            z = (lambda P=P, m=p["m"]: P.q_mp() ** (-m))
        else:
            z = p["z"]
        calls.append((f"{index}/{fn}", fn == "J", P, z))
    return calls


def _eval_loop(job, calls) -> dict:
    """Closed loop over the batch until the time or pass budget is spent."""
    ctx = PrecisionContext(digits=job["digits"])
    clock = time.perf_counter
    latencies, pass_s = [], []
    values: dict = {}
    errors: dict = {}
    start = clock()
    while True:
        t_pass = clock()
        for key, is_j, P, z in calls:
            fn = qspecial.jnu3 if is_j else qspecial.jnu3_derivative
            t0 = clock()
            try:
                v = fn(P, z, ctx).value
            except Exception:      # a failed operation; the loop goes on
                latencies.append(clock() - t0)
                if key not in errors:
                    traceback.print_exc()
                errors[key] = errors.get(key, 0) + 1
                continue
            latencies.append(clock() - t0)
            seen = values.setdefault(key, {})
            seen[v] = seen.get(v, 0) + 1
        end = clock()
        pass_s.append(end - t_pass)
        if job["passes"] and len(pass_s) >= job["passes"]:
            break
        if not job["passes"] and end - start >= job["seconds"]:
            break
    rss = _peak_rss_mb()
    with mp.workdps(job["digits"] + 20):
        values = {key: {mp.nstr(v, job["digits"] + 15): c
                        for v, c in seen.items()}
                  for key, seen in values.items()}
    return {"wall_s": sum(pass_s), "pass_s": pass_s,
            "lat_ms": [round(t * 1e3, 6) for t in latencies],
            "values": values, "errors": errors, "rss_mb": rss}


def _cli_run(job, trace) -> dict:
    argv = plan.cli_argv(job["command"], job["q"], job["nu"], job["kmax"],
                         job["digits"])
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:   # a traceback is a failed invocation
            code = f"raised {type(exc).__name__}"
            traceback.print_exc()
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "exit": code, "stdout": buf.getvalue(),
           "rss_mb": _peak_rss_mb()}
    if trace is not None and job["command"] == "verify":
        out.update(_time_checks(job, trace))
    return out


def _time_checks(job, trace) -> dict:
    """Each named check alone, on the zero table of the traced run."""
    trace.uninstall()
    records = {r.k: r for r in trace.last["zeros.zero_table"]}
    params = QParams(job["q"], job["nu"])
    check_s, statuses = {}, {}
    for cid in tracing.CHECK_IDS:
        t0 = time.perf_counter()
        report = verify.run_checks(params, PrecisionContext(job["digits"]),
                                   kmax=job["kmax"], check_ids=[cid],
                                   records=records)
        check_s[cid] = time.perf_counter() - t0
        (result,) = report.results
        statuses[cid] = {"status": result.status,
                         "threshold": result.threshold}
    return {"check_s": check_s, "check_statuses": statuses}


def main() -> None:
    job = json.loads(sys.argv[1])
    calls = _eval_inputs(job) if job["workload"] == "eval-mix" else None
    setup_s = time.monotonic() - T_SPAWN
    if job.get("probe"):
        print(json.dumps({"setup_s": setup_s}))
        return
    trace = None
    if job["trace"]:
        trace = tracing.Tracer()
        trace.install()
    if calls is not None:
        out = _eval_loop(job, calls)
    else:
        out = _cli_run(job, trace)
    if trace is not None:
        trace.uninstall()
        out["layers"] = trace.layers()
        if job.get("spans"):
            trace.write(job["spans"])
    out["setup_s"] = setup_s
    print(json.dumps(out))


if __name__ == "__main__":
    main()
