"""References for the benchmark outputs, used outside every timed section.

eval-mix values are checked against an independent oracle built on
``mpmath.qp`` and ``mpmath.qhyper``; zero tables and verify reports against
golden outputs committed under ``golden/`` (see ``regen_golden.py``).  Each
check returns ``(attempted, failed)`` operation counts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(command: str, kmax: int, digits: int) -> Path:
    return GOLDEN_DIR / f"{command}-k{kmax}-d{digits}.json"


def load_golden(command: str, kmax: int, digits: int) -> dict:
    with open(golden_path(command, kmax, digits), encoding="utf-8") as fh:
        return json.load(fh)


def config_key(q: str, nu: str) -> str:
    return f"q={q},nu={nu}"


def summarize_zeros(stdout: str) -> list[dict]:
    """The fields of `qfb zeros --format json` that the gate compares."""
    return [{"k": r["k"], "j": r["j"],
             "asymptotic_bracket_ok": r["asymptotic_bracket_ok"]}
            for r in json.loads(stdout)]


def summarize_verify(stdout: str) -> dict:
    """Status and threshold of every check in `qfb verify --format json`."""
    return {r["check"]: {"status": r["status"], "threshold": r["threshold"]}
            for r in json.loads(stdout)["results"]}


def check_zeros(golden: dict, q: str, digits: int, exit_code,
                stdout: str) -> tuple[int, int]:
    """One operation per zero.

    j_k must match the golden j_k to the width the refinement promises:
    relative 10^(-digits/2), and for k >= 2 also 10^(-digits/2) of the gap
    q*j_k - j_(k-1), widened by two units of the printed last digit.  A
    tighter refinement therefore never fails; a zero outside its promised
    bracket does.
    """
    from mpmath import mp, mpf

    want = golden["zeros"]
    if exit_code != golden["exit"]:
        return len(want), len(want)
    try:
        got = {r["k"]: r for r in summarize_zeros(stdout)}
    except (ValueError, KeyError, TypeError):
        return len(want), len(want)
    failed = 0
    with mp.workdps(2 * digits + 20):
        qv = mpf(q)
        tol_rel = mpf(10) ** (-mpf(digits) / 2)
        prev = None
        for w in want:
            j_ref = mpf(w["j"])
            scale = j_ref if prev is None else min(j_ref,
                                                   (qv * j_ref - prev) / qv)
            tol = tol_rel * scale + 2 * mpf(10) ** (1 - digits) * j_ref
            g = got.get(w["k"])
            if (g is None
                    or g["asymptotic_bracket_ok"] != w["asymptotic_bracket_ok"]
                    or not abs(mpf(g["j"]) - j_ref) <= tol):
                failed += 1
            prev = j_ref
    return len(want), min(len(want), failed + max(0, len(got) - len(want)))


def check_verify(golden: dict, exit_code, stdout: str) -> tuple[int, int]:
    """One operation per check: status and threshold must equal the golden.

    An exit code other than the golden one with every check matching (or
    output that does not parse) fails every check of the invocation.
    """
    want = golden["checks"]
    try:
        got = summarize_verify(stdout)
    except (ValueError, KeyError, TypeError):
        return len(want), len(want)
    failed = (sum(1 for cid, w in want.items() if got.get(cid) != w)
              + len(set(got) - set(want)))
    if exit_code != golden["exit"] and failed == 0:
        failed = len(want)
    return len(want), min(len(want), failed)


def check_checks(golden: dict, statuses: dict) -> tuple[int, int]:
    """Checks run one at a time: {check id: {status, threshold}}."""
    want = golden["checks"]
    return len(statuses), sum(1 for cid, got in statuses.items()
                              if want.get(cid) != got)


def _oracle_extra_digits(point: dict) -> int:
    """Guard digits for the oracle's inputs.

    Near q^(-m) the value is about q^(m^2) smaller than the local slope, so
    the argument and base must carry ~2 m^2 |log10 q| more digits than the
    requested accuracy (the summation's own cancellation is handled by
    mpmath's accurate summation).
    """
    m = point["m"] or 1
    return math.ceil(2 * m * m * abs(math.log10(float(point["q"])))) + 40


def oracle(point: dict, digits: int) -> tuple:
    """(J, J') at the point from mpmath alone.

    J_nu(x;q^2) = x^nu (q^(2nu+2);q^2)_inf / (q^2;q^2)_inf
                  * 1phi1(0; q^(2nu+2); q^2, q^2 x^2),
    and J' is mpmath.diff of that expression.
    """
    from mpmath import mp, mpf

    extra = _oracle_extra_digits(point)

    def j_of(x):
        with mp.workdps(mp.dps + extra):
            q2 = mpf(point["q"]) ** 2
            w = q2 ** (mpf(point["nu"]) + 1)
            return (x ** mpf(point["nu"]) * mp.qp(w, q2) / mp.qp(q2, q2)
                    * mp.qhyper([0], [w], q2, q2 * x * x))

    with mp.workdps(digits + 20):
        with mp.workdps(mp.dps + extra):
            if point["kind"] == "lattice":
                x = mpf(point["q"]) ** (-point["m"])
            else:
                x = mpf(point["z"])
        return +j_of(x), +mp.diff(j_of, x)


def check_eval(points: list[dict], values: dict, errors: dict,
               digits: int) -> tuple[int, int]:
    """One operation per call.

    ``values`` maps "index/fn" to {value string: number of calls that
    returned it} and ``errors`` to the number of calls that raised.  A value
    must agree with the oracle to relative 10^(10-digits).
    """
    from mpmath import mp, mpf

    attempted = failed = sum(errors.values())
    refs = {}
    with mp.workdps(digits + 20):
        tol = mpf(10) ** (10 - digits)
        for key, returned in values.items():
            index, fn = key.split("/")
            index = int(index)
            if index not in refs:
                refs[index] = oracle(points[index], digits)
            ref = refs[index][0 if fn == "J" else 1]
            for text, count in returned.items():
                attempted += count
                if not abs(mpf(text) - ref) <= tol * abs(ref):
                    failed += count
    return attempted, failed
