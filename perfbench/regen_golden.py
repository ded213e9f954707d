"""Regenerate the golden outputs the benchmark checks against.

Run from the repository root:

    python3 perfbench/regen_golden.py            # kmax 12, 120 digits
    python3 perfbench/regen_golden.py --kmax 3 --digits 40

For every (q, nu) of the 12-config grid it runs `qfb zeros` and
`qfb verify` (all nine checks) in-process and writes the compared fields to
golden/zeros-k<kmax>-d<digits>.json and golden/verify-k<kmax>-d<digits>.json.
Regenerate only from a commit whose outputs are trusted: the goldens are
the correctness gate of every later benchmark run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import plan  # noqa: E402


def _run(command: str, q: str, nu: str, kmax: int, digits: int):
    sys.path.insert(0, str(HERE.parent / "src"))
    from qfb.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(plan.cli_argv(command, q, nu, kmax, digits))
    out = buf.getvalue()
    if command == "zeros":
        return {"exit": code, "zeros": check.summarize_zeros(out)}
    return {"exit": code, "checks": check.summarize_verify(out)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmax", type=int, default=plan.KMAX)
    ap.add_argument("--digits", type=int, default=plan.DIGITS)
    args = ap.parse_args(argv)
    pool_ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=pool_ctx) as pool:
        for command in ("zeros", "verify"):
            futures = {check.config_key(q, nu): pool.submit(
                _run, command, q, nu, args.kmax, args.digits)
                for q, nu in plan.GRID}
            table = {key: fut.result() for key, fut in futures.items()}
            path = check.golden_path(command, args.kmax, args.digits)
            path.parent.mkdir(exist_ok=True)
            lines = ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}"
                               for key, value in table.items())
            path.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
