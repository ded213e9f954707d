"""Seeded inputs of the benchmark workloads.

Standard library only: run.py imports this module to know what each
child process ran, and the child imports it to build the same inputs.  The
same (workload, seed) always gives the same inputs.
"""

from __future__ import annotations

import random
from decimal import Context, Decimal

WORKLOADS = ("eval-mix", "zeros-table", "verify-suite")
Q_VALUES = ("0.3", "0.5", "0.8")
NU_VALUES = ("0", "0.5", "1", "2.5")
GRID = tuple((q, nu) for q in Q_VALUES for nu in NU_VALUES)
KMAX = 12
DIGITS = 120
FLAGSHIP = ("0.5", "0")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def cli_legs(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (q, nu) configs of one round, each run as its own `qfb` process.

    zeros-table: one q=0.3 table (every bracket asymptotic) and one q=0.8
    table (dense-scan fallbacks), with distinct nu.  verify-suite: one q=0.5
    and one q=0.8 config, with distinct nu; seed 0 gives the flagship
    q=0.5, nu=0.  Two legs per round keep the cost of a round within a few
    per cent across seeds, which one seeded config alone does not.
    """
    rng = _rng(workload, seed)
    if workload == "zeros-table":
        nu_a, nu_b = rng.sample(NU_VALUES, 2)
        return [("0.3", nu_a), ("0.8", nu_b)]
    if workload == "verify-suite":
        nu_a = FLAGSHIP[1] if seed == 0 else rng.choice(NU_VALUES)
        nu_b = rng.choice([nu for nu in NU_VALUES if nu != nu_a])
        return [("0.5", nu_a), ("0.8", nu_b)]
    raise ValueError(f"{workload} has no CLI legs")


def cli_argv(command: str, q: str, nu: str, kmax: int, digits: int) -> list:
    """Arguments of one `qfb zeros` or `qfb verify` invocation."""
    return [command, "--q", q, "--nu", nu, "--kmax", str(kmax),
            "--digits", str(digits), "--format", "json"]


def eval_points(seed: int) -> list[dict]:
    """Distinct evaluation points of the eval-mix batch.

    For every grid config: four lattice points q^(-m) (one m from each of
    1-3, 4-6, 7-9, 10-12), four generic points q^(-m+theta) stratified the
    same way with theta in [0.05, 0.95], and two small arguments in
    [0.05, 1).  Generic and small arguments are exact decimal strings;
    lattice points are re-derived at the working precision, as the zero
    finder passes them.
    """
    rng = _rng("eval-mix", seed)
    ctx = Context(prec=40)
    points = []
    for q, nu in GRID:
        for lo in (1, 4, 7, 10):
            points.append({"q": q, "nu": nu, "kind": "lattice",
                           "m": rng.randint(lo, lo + 2), "z": None})
        for lo in (1, 4, 7, 10):
            m = rng.randint(lo, lo + 2)
            theta = Decimal(str(round(rng.uniform(0.05, 0.95), 6)))
            z = ctx.power(Decimal(q), theta - m)
            points.append({"q": q, "nu": nu, "kind": "generic", "m": m,
                           "z": str(z)})
        for _ in range(2):
            points.append({"q": q, "nu": nu, "kind": "small", "m": None,
                           "z": str(round(rng.uniform(0.05, 1.0), 12))})
    return points


def eval_calls(seed: int) -> list[tuple[int, str]]:
    """The batch: (point index, "J" or "dJ"), in seeded order."""
    calls = [(i, fn) for i in range(len(eval_points(seed)))
             for fn in ("J", "dJ")]
    _rng("eval-mix/order", seed).shuffle(calls)
    return calls
