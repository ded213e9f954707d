"""qfb benchmark runner.

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
single-threaded child interpreter (worker.py) started one at a time, so
each `qfb` invocation starts with cold caches, as it does for a user.  The
runner checks every output against a reference (check.py) outside the timed
sections and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
See README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import plan  # noqa: E402
import tracer  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}
DEADLINE_S = 170          # every run ends well inside the 180 s limit
EVAL_PROCESSES = 3        # eval-mix: cold starts per run, seconds/3 each
EVAL_TRACE_PASSES = 3     # fixed work, so traced counts repeat exactly
TAIL_PERCENTILE = 95      # eval-mix: 12 of the batch's 240 calls lie beyond
SETUP_PROBES = 8          # extra set-ups per run, for a steady setup_s median


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


class Run:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []

    def spawn(self, job: dict) -> dict:
        job = {"digits": self.args.digits, "kmax": self.args.kmax,
               "trace": False, **job}
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before starting a process")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job),
                 repr(t_spawn)],
                stdout=subprocess.PIPE, text=True, timeout=remaining,
                cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {job}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}: {job}")
        out = json.loads(lines[-1])
        self.setups.append(out["setup_s"])
        return out

    def count(self, attempted_failed: tuple[int, int]) -> None:
        self.attempted += attempted_failed[0]
        self.failed += attempted_failed[1]

    # -- eval-mix ---------------------------------------------------------

    def eval_mix(self, trace: bool, passes: int | None) -> list[dict]:
        """EVAL_PROCESSES cold processes, each looping over the batch."""
        seconds = self.args.seconds / EVAL_PROCESSES
        outs = [self.spawn({"workload": "eval-mix", "seed": self.args.seed,
                            "seconds": seconds, "passes": passes,
                            "trace": trace,
                            "spans": self.spans_path(trace, i)})
                for i in range(EVAL_PROCESSES)]
        points = plan.eval_points(self.args.seed)
        for out in outs:
            self.count(check.check_eval(points, out["values"], out["errors"],
                                        self.args.digits))
        return outs

    # -- zeros-table and verify-suite -------------------------------------

    def cli_round(self, trace: bool) -> list[dict]:
        """One `qfb` process per leg of the seed's plan."""
        command = "zeros" if self.args.workload == "zeros-table" else "verify"
        golden = check.load_golden(command, self.args.kmax, self.args.digits)
        outs = []
        for i, (q, nu) in enumerate(plan.cli_legs(self.args.workload,
                                                  self.args.seed)):
            out = self.spawn({"workload": self.args.workload,
                              "command": command, "q": q, "nu": nu,
                              "trace": trace,
                              "spans": self.spans_path(trace, i)})
            ref = golden[check.config_key(q, nu)]
            if command == "zeros":
                self.count(check.check_zeros(ref, q, self.args.digits,
                                             out["exit"], out["stdout"]))
            else:
                self.count(check.check_verify(ref, out["exit"],
                                              out["stdout"]))
            if "check_statuses" in out:
                self.count(check.check_checks(ref, out["check_statuses"]))
            outs.append(out)
        return outs

    def spans_path(self, trace: bool, index: int) -> str | None:
        if not trace:
            return None
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        return str(out_dir / f"{self.args.workload}-seed{self.args.seed}"
                             f"-{index}.spans.csv")

    # -- the two kinds of run ---------------------------------------------

    def end_to_end(self) -> dict:
        for _ in range(SETUP_PROBES):
            self.spawn({"workload": self.args.workload, "seed": self.args.seed,
                        "probe": True})
        if self.args.workload == "eval-mix":
            outs = self.eval_mix(trace=False, passes=None)
            # one latency per call of the batch, the median over its
            # repetitions, so that a host hiccup does not set the tail
            n = len(plan.eval_calls(self.args.seed))
            latencies = sorted(
                statistics.median(t for o in outs for t in o["lat_ms"][i::n])
                for i in range(n))
            wall = statistics.median(t for o in outs for t in o["pass_s"])
            tail = percentile(latencies, TAIL_PERCENTILE)
            passes = sum(len(o["pass_s"]) for o in outs)
            tail_label = f"p{TAIL_PERCENTILE} over {passes} passes of the"
        else:
            rounds = []
            while True:
                rounds.append(self.cli_round(trace=False))
                if time.monotonic() - self.start >= self.args.seconds:
                    break
            outs = [o for r in rounds for o in r]
            wall = statistics.median(sum(o["wall_s"] for o in r)
                                     for r in rounds)
            latencies = sorted(o["wall_s"] * 1e3 for o in outs)
            tail, tail_label = latencies[-1], "max of the"
        print(f"# op_tail_ms is the {tail_label} {len(latencies)} "
              f"operations; {len(outs)} processes")
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": wall,
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail,
            "peak_rss_mb": statistics.median(o["rss_mb"] for o in outs),
        }

    def per_layer(self) -> dict:
        """An untraced and a traced pass over the same fixed work."""
        if self.args.workload == "eval-mix":
            plain = self.eval_mix(trace=False, passes=EVAL_TRACE_PASSES)
            traced = self.eval_mix(trace=True, passes=EVAL_TRACE_PASSES)
        else:
            plain = self.cli_round(trace=False)
            traced = self.cli_round(trace=True)
        overhead = (sum(o["wall_s"] for o in traced)
                    - sum(o["wall_s"] for o in plain))
        check_s: dict = {}
        for out in traced:
            for cid, seconds in out.get("check_s", {}).items():
                check_s[cid] = check_s.get(cid, 0.0) + seconds
        raw = tracer.merge_layers([o["layers"] for o in traced])
        return tracer.per_layer(raw, check_s, overhead)


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def parse_args(argv):
    ap = argparse.ArgumentParser(description="qfb benchmark runner")
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller problems for selftest.py
    ap.add_argument("--kmax", type=int, default=plan.KMAX,
                    help=argparse.SUPPRESS)
    ap.add_argument("--digits", type=int, default=plan.DIGITS,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qfb" / "__init__.py").is_file():
        print(f"run.py: no qfb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        if args.trace:
            values = run.per_layer()
            units = tracer.PER_LAYER_UNITS
        else:
            values = run.end_to_end()
            units = END_TO_END_UNITS
    except (BenchError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
