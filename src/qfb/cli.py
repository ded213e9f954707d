"""Command-line front end, and the one writer of every output.

Subcommands: eval | zeros | verify | expand.  All numbers cross the CLI
boundary as decimal strings (never binary floats).  The library returns
data; this module alone formats it: _decimal turns every mpf of a record
into a decimal string, and the same rows are written as RFC-4180 CSV with a
header row (_csv) or as UTF-8 JSON.  Exit code 0 means every requested
check passed and no error occurred, 1 that a check failed, and 2 a usage or
numerical error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Callable, Iterable, Sequence

from mpmath import mp, mpf

from .precision import DivergenceError, PrecisionContext, PrecisionError
from .qcore import LatticeFunction, QParams
from .qspecial import jnu3, jnu3_derivative
from .zeros import SAMPLES_PER_INTERVAL, ScanExhaustedError, zero_table
from .expansion import BasisFunction, expand
from .verify import CHECK_IDS, DEFAULT_RL_FUNCTIONS, GRAM_TOL, run_checks

HARD_KMAX = 16

_SAFE_FUNCS = {
    "sqrt": mp.sqrt, "log": mp.log, "exp": mp.exp, "abs": abs,
    "min": min, "max": max,
}


def _rule_from_expr(expr: str, var: str) -> Callable:
    """Compile a one-variable arithmetic expression (e.g. '1/m**2').

    Evaluated with an empty builtin namespace; only the loop variable and a
    small set of mpmath functions are visible.  An expression that does not
    parse, or that fails or is not real at some value, raises ValueError.
    """
    try:
        code = compile(expr, f"<{var}-rule>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"rule {expr!r} does not parse: {exc.msg}") from None
    for name in code.co_names:
        if name != var and name not in _SAFE_FUNCS:
            raise ValueError(
                f"rule {expr!r} uses unknown name {name!r}; allowed: "
                f"{var}, {', '.join(_SAFE_FUNCS)}")

    def rule(value) -> mpf:
        try:
            return mp.mpf(eval(code, {"__builtins__": {}},
                               {var: mp.mpf(value), **_SAFE_FUNCS}))
        except (ArithmeticError, TypeError) as exc:
            raise ValueError(
                f"rule {expr!r} fails at {var}={value}: "
                f"{str(exc) or type(exc).__name__}") from None
    return rule


def _resolve_f(spec: str, n_modes: int):
    """Resolve a function spec: '1', a t-expression, 'mode:N' with
    1 <= N <= n_modes (the number of zeros computed), or a JSON
    lattice-function file path (prefix '@' or suffix '.json')."""
    if spec.startswith("@") or spec.endswith(".json"):
        path = spec[1:] if spec.startswith("@") else spec
        with open(path, "r", encoding="utf-8") as fh:
            return LatticeFunction.from_json(fh.read())
    if spec in ("1", "one"):
        return lambda t: mpf(1)
    if spec.startswith("mode:"):
        n = int(spec.split(":", 1)[1])
        if not 1 <= n <= n_modes:
            raise ValueError(f"mode:{n} needs 1 <= N <= {n_modes}: the "
                             f"zero table covers k = 1..{n_modes}")
        return BasisFunction(n)
    return _rule_from_expr(spec, "t")


def _decimal(x, digits: int):
    """x with every mpf, also inside dicts, lists and tuples, as a decimal
    string of ``digits`` significant digits; anything else as it is."""
    if isinstance(x, mpf):
        return mp.nstr(x, digits)
    if isinstance(x, dict):
        return {k: _decimal(v, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_decimal(v, digits) for v in x]
    return x


def _csv(rows: Iterable[dict], keys: Sequence[str]) -> str:
    """RFC-4180 CSV: the header row ``keys``, then each row's values under
    them; None is written as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(keys)
    writer.writerows([row[k] for k in keys] for row in rows)
    return buf.getvalue()


def _json(data) -> str:
    return json.dumps(data, indent=2)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", required=True,
                   help="base q as a decimal string, 0 < q < 1")
    p.add_argument("--nu", required=True,
                   help="order nu as a decimal string, nu > -1")
    # a string default goes through type=int, so a bad QFB_DIGITS is a
    # usage error (exit 2) rather than a traceback
    p.add_argument("--digits", type=int,
                   default=os.environ.get("QFB_DIGITS", "120"),
                   help="decimal working precision (default: QFB_DIGITS "
                        "env var or 120)")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _check_kmax(kmax: int, allow_large: bool, option: str = "kmax") -> None:
    if kmax < 0:
        raise ValueError(f"{option} must be >= 0, got {kmax}")
    if kmax > HARD_KMAX and not allow_large:
        raise ValueError(f"kmax={kmax} exceeds the cap {HARD_KMAX}; pass "
                         "--allow-large-k to override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qfb",
        description="q-Bessel functions J_nu(z;q^2), their zeros, Jackson "
                    "q-integrals, q-Fourier-Bessel expansions, and named "
                    "verification checks, at configurable precision.")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate J_nu and its derivative")
    _add_common(pe)
    pe.add_argument("--z", action="append", required=True,
                    help="argument as a decimal string (repeatable)")
    pe.add_argument("--base-q", action="store_true",
                    help="use base q instead of the default q^2")

    pz = sub.add_parser("zeros", help="refine positive zeros j_k")
    _add_common(pz)
    pz.add_argument("--kmax", type=int, default=8)
    pz.add_argument("--allow-large-k", action="store_true")

    pv = sub.add_parser("verify", help="run named verification checks")
    _add_common(pv)
    pv.add_argument("--kmax", type=int, default=12)
    pv.add_argument("--allow-large-k", action="store_true")
    pv.add_argument("--check", action="append", default=None,
                    help=f"check id (repeatable); known: {', '.join(CHECK_IDS)}")
    pv.add_argument("--theta-zero-rule", default=None,
                    help="theta_m expression in m with m*theta_m -> 0 "
                         "(default 1/m**2)")
    pv.add_argument("--theta-inf-rule", default=None,
                    help="theta_m expression in m with m*theta_m -> infinity "
                         "(default 1/sqrt(m))")
    pv.add_argument("--f", default=None,
                    help="extra integrand for the riemann-lebesgue check: "
                         "'1', a t-expression, 'mode:N' with N <= kmax, or "
                         "a lattice JSON file")
    pv.add_argument("--tol", default=GRAM_TOL,
                    help="Gram residual tolerance "
                         f"(decimal string, default {GRAM_TOL})")
    pv.add_argument("--samples", type=int, default=SAMPLES_PER_INTERVAL,
                    help="samples per interval for sign constancy")

    px = sub.add_parser("expand", help="q-Fourier-Bessel expansion of f")
    _add_common(px)
    px.add_argument("--K", type=int, required=True, help="number of modes")
    px.add_argument("--f", required=True,
                    help="function spec: '1', a t-expression, 'mode:N' "
                         "with N <= K, or a lattice JSON file")
    px.add_argument("--allow-large-k", action="store_true")
    px.add_argument("--plot-csv", default=None,
                    help="also write (x, S_K(x)) lattice samples as CSV")
    # expand writes JSON only
    for p in (pe, pz, pv):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    return ap


def _cmd_eval(args) -> int:
    params = QParams(args.q, args.nu)
    ctx = PrecisionContext(digits=args.digits)
    base = params.q if args.base_q else None
    rows = []
    for zs in args.z:
        r = jnu3(params, zs, ctx, base=base)
        try:
            d = jnu3_derivative(params, zs, ctx, base=base)
        except ValueError:      # J' is undefined at zs: left blank
            d = None
        rows.append({
            "z": zs,
            "J": _decimal(r.value, ctx.digits),
            "J_prime": _decimal(d.value, ctx.digits) if d else "",
            "terms": r.terms_used,
            "precision_used": max(r.precision_used,
                                  d.precision_used if d else 0),
        })
    _emit(_json(rows) if args.format == "json" else _csv(rows, list(rows[0])),
          args.out)
    return 0


def _cmd_zeros(args) -> int:
    _check_kmax(args.kmax, args.allow_large_k)
    params = QParams(args.q, args.nu)
    ctx = PrecisionContext(digits=args.digits)
    # j and its bracket at the requested digits, the exponents at 30
    rows = [{"k": rec.k,
             **_decimal({"j": rec.j, "bracket_lo": rec.bracket_lo,
                         "bracket_hi": rec.bracket_hi}, args.digits),
             **_decimal({"epsilon_k": rec.epsilon_k,
                         "alpha_k": rec.alpha_k}, 30),
             "refined_to": rec.refined_to,
             "asymptotic_bracket_ok": rec.asymptotic_bracket_ok}
            for rec in zero_table(params, args.kmax, ctx)]
    _emit(_json(rows) if args.format == "json" else _csv(
        [{**row, "digits": row["refined_to"]} for row in rows],
        ["k", "j", "epsilon_k", "alpha_k", "digits"]), args.out)
    return 0


def _cmd_verify(args) -> int:
    _check_kmax(args.kmax, args.allow_large_k)
    params = QParams(args.q, args.nu)
    ctx = PrecisionContext(digits=args.digits)
    theta_zero, theta_inf = (_rule_from_expr(expr, "m") if expr else None
                             for expr in (args.theta_zero_rule,
                                          args.theta_inf_rule))
    with mp.workdps(60):
        gram_tol = mp.mpf(args.tol)
    rl_functions = DEFAULT_RL_FUNCTIONS
    if args.f:
        rl_functions += ((args.f, _resolve_f(args.f, args.kmax)),)
    report = run_checks(params, ctx, kmax=args.kmax, check_ids=args.check,
                        theta_zero_rule=theta_zero, theta_inf_rule=theta_inf,
                        samples_per_interval=args.samples, gram_tol=gram_tol,
                        rl_functions=rl_functions)
    results = [_decimal(vars(r), 40) for r in report.results]
    _emit(_json({"passed": report.passed, "results": results})
          if args.format == "json" else
          _csv(results, ["check", "status", "margin", "threshold", "anchor"]),
          args.out)
    return 0 if report.passed else 1


def _cmd_expand(args) -> int:
    _check_kmax(args.K, args.allow_large_k, "K")
    params = QParams(args.q, args.nu)
    ctx = PrecisionContext(digits=args.digits)
    f = _resolve_f(args.f, args.K)
    records = {r.k: r for r in zero_table(params, args.K, ctx)}
    result = expand(params, f, records, args.K, ctx)
    payload = {"q": str(result.params.q), "nu": str(result.params.nu),
               "K": result.K,
               **_decimal({"eta": result.eta, "coeffs": result.coeffs,
                           "lattice_points": result.lattice_points,
                           "partial_sum_values": result.partial_sum_values},
                          args.digits),
               "decay": _decimal(result.decay, 30)}
    # the plot first: a plot file that cannot be written leaves no output
    if args.plot_csv:
        _emit(_csv([{"x": x, "S_K": v} for x, v in zip(
            payload["lattice_points"], payload["partial_sum_values"])],
            ["x", "S_K"]), args.plot_csv)
    _emit(_json(payload), args.out)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "zeros": _cmd_zeros,
    "verify": _cmd_verify,
    "expand": _cmd_expand,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, DivergenceError, PrecisionError, ScanExhaustedError,
            OSError) as exc:
        print(f"qfb {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
