"""Per-layer tracing of qfb from outside the package.

The package modules import each other's functions by name
(``from .qspecial import jnu3``), so a call crosses a layer boundary through
the importing module's global, not the defining module's.  The tracer
therefore replaces the name at every binding site listed in BINDINGS with a
wrapper that records a span: name, call site, start, end, parent span and a
small payload.  Spans stay in memory until ``write`` is called; ``layers``
reduces one process's spans to raw sums, and ``per_layer`` turns the merged
sums of a run into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import time

# (module whose global is replaced, attribute, span name "<layer>.<function>")
BINDINGS = (
    ("qfb.precision", "tracked_sum", "precision.tracked_sum"),
    ("qfb.qspecial", "adaptive_sum", "precision.adaptive_sum"),
    ("qfb.qspecial", "qpochhammer_infinite", "qcore.qpochhammer_infinite"),
    ("qfb.qspecial", "jnu3", "qspecial.jnu3"),
    ("qfb.qspecial", "jnu3_derivative", "qspecial.jnu3_derivative"),
    ("qfb.qcore", "qpochhammer_infinite", "qcore.qpochhammer_infinite"),
    ("qfb.zeros", "qpochhammer_infinite", "qcore.qpochhammer_infinite"),
    ("qfb.zeros", "qpochhammer_multi", "qcore.qpochhammer_multi"),
    ("qfb.zeros", "jnu3", "qspecial.jnu3"),
    ("qfb.zeros", "jnu3_derivative", "qspecial.jnu3_derivative"),
    ("qfb.zeros", "phi11_derivative", "qspecial.phi11_derivative"),
    ("qfb.zeros", "dense_scan_brackets", "zeros.dense_scan_brackets"),
    ("qfb.zeros", "bracket_zero", "zeros.bracket_zero"),
    ("qfb.zeros", "find_zero", "zeros.find_zero"),
    ("qfb.expansion", "jnu3", "qspecial.jnu3"),
    ("qfb.expansion", "jnu3_derivative", "qspecial.jnu3_derivative"),
    ("qfb.expansion", "eta_k", "expansion.eta_k"),
    ("qfb.expansion", "coefficient", "expansion.coefficient"),
    ("qfb.verify", "jnu3", "qspecial.jnu3"),
    ("qfb.verify", "phi11", "qspecial.phi11"),
    ("qfb.verify", "qintegral_01", "qcore.qintegral_01"),
    ("qfb.verify", "zero_table", "zeros.zero_table"),
    ("qfb.verify", "count_zeros_below", "zeros.count_zeros_below"),
    ("qfb.verify", "derivative_sign_pattern", "zeros.derivative_sign_pattern"),
    ("qfb.verify", "verify_sign_constancy", "zeros.verify_sign_constancy"),
    ("qfb.verify", "verify_shifted_zero", "zeros.verify_shifted_zero"),
    ("qfb.verify", "verify_decay_bounds", "zeros.verify_decay_bounds"),
    ("qfb.verify", "empirical_k0", "zeros.empirical_k0"),
    ("qfb.verify", "eta_k", "expansion.eta_k"),
    ("qfb.verify", "gram_matrix", "expansion.gram_matrix"),
    ("qfb.verify", "riemann_lebesgue_rate", "expansion.riemann_lebesgue_rate"),
    ("qfb.cli", "zero_table", "zeros.zero_table"),
    ("qfb.cli", "run_checks", "verify.run_checks"),
    ("qfb.cli", "main", "cli.main"),
)

# metrics taken as the maximum over processes; all other raw values add up
MAX_KEYS = frozenset({"precision.max_dps", "qcore.poch_cache_entries",
                      "zeros.max_arg_dps"})

NAME, SITE, START, END, PARENT, INFO = range(6)


class Tracer:
    """Installs span-recording wrappers at BINDINGS; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.last: dict = {}          # span name -> last return value
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        poch_cache = importlib.import_module("qfb.qcore")._POCH_CACHE
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, module_name[4:], original,
                                             poch_cache))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, site, fn, poch_cache):
        spans, stack, last, clock = self.spans, self._stack, self.last, \
            time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, site, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            cache_size = len(poch_cache)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if name == "precision.tracked_sum":
                rec[INFO] = (args[1], out[2])           # dps, terms
            elif name == "qcore.qpochhammer_infinite":
                rec[INFO] = len(poch_cache) > cache_size   # miss
            elif name == "zeros.find_zero":
                rec[INFO] = out.arg_dps
            elif name == "zeros.zero_table":
                last[name] = out
            return out
        return wrapper

    def write(self, path) -> None:
        """Spans as CSV: index, parent, name, site, start_s, end_s, info."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,site,start_s,end_s,info\n")
            for i, s in enumerate(self.spans):
                info = "" if s[INFO] is None else str(s[INFO]).replace(",", "")
                fh.write(f"{i},{s[PARENT]},{s[NAME]},{s[SITE]},"
                         f"{s[START] - t0:.7f},{s[END] - t0:.7f},{info}\n")

    def layers(self) -> dict:
        """Raw per-layer sums of this process (see merge_layers)."""
        spans = self.spans
        n = len(spans)
        child_s = [0.0] * n
        in_find = [False] * n
        in_scan = [False] * n
        has_scan = [False] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child_s[p] += s[END] - s[START]
                parent = spans[p][NAME]
                in_find[i] = in_find[p] or parent == "zeros.find_zero"
                in_scan[i] = (in_scan[p]
                              or parent == "zeros.dense_scan_brackets")
                if s[NAME] == "zeros.dense_scan_brackets":
                    has_scan[p] = True
        raw: dict = {}

        def add(key, value):
            raw[key] = raw.get(key, 0) + value

        for k in ("precision.max_dps", "zeros.max_arg_dps"):
            raw[k] = 0
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            self_s = dur - child_s[i]
            add(f"span_n.{name}", 1)
            add(f"span_s.{name}", dur)
            if name.startswith("qspecial."):
                add("qspecial.self_s", self_s)
            if s[INFO] is None and name in ("precision.tracked_sum",
                                            "zeros.find_zero"):
                continue                                # the call raised
            if name == "precision.tracked_sum":
                raw["precision.max_dps"] = max(raw["precision.max_dps"],
                                               s[INFO][0])
                add("precision.terms", s[INFO][1])
            elif name == "precision.adaptive_sum":
                add("precision.self_s", self_s)
            elif name == "qcore.qpochhammer_infinite":
                add("qcore.poch_misses", int(bool(s[INFO])))
            elif name == "qspecial.jnu3" and s[SITE] == "zeros":
                if in_find[i] or in_scan[i]:
                    add("zeros.sign_evals", 1)
                if in_find[i]:
                    add("zeros.find_sign_evals", 1)
                if in_scan[i]:
                    add("zeros.scan_points", 1)
            elif name == "qspecial.jnu3" and s[SITE] == "expansion":
                add("expansion.mode_values", 1)
            elif name == "zeros.find_zero":
                raw["zeros.max_arg_dps"] = max(raw["zeros.max_arg_dps"],
                                               s[INFO])
            elif name == "zeros.bracket_zero" and has_scan[i]:
                add("zeros.scan_fallbacks", 1)
            elif name == "verify.run_checks":
                add("verify.self_s", self_s)
            elif name == "cli.main":
                add("cli.self_s", self_s)
        raw["qcore.poch_cache_entries"] = len(
            importlib.import_module("qfb.qcore")._POCH_CACHE)
        return raw


def merge_layers(raws: list[dict]) -> dict:
    """Sum (or take the maximum of) the raw values of several processes."""
    total: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if key in MAX_KEYS:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


CHECK_IDS = ("signs", "sign-constancy", "shifted-zeros", "derivative-decay",
             "shifted-value-bound", "eta-decay", "gram", "riemann-lebesgue",
             "consistency")

PER_LAYER_UNITS = {
    "precision.passes": "count",
    "precision.terms": "count",
    "precision.accept_ratio": "ratio",
    "precision.max_dps": "digits",
    "precision.pass_s": "s",
    "precision.self_s": "s",
    "qcore.poch_calls": "count",
    "qcore.poch_misses": "count",
    "qcore.poch_s": "s",
    "qcore.poch_cache_entries": "count",
    "qspecial.jnu3_calls": "count",
    "qspecial.jnu3_derivative_calls": "count",
    "qspecial.phi11_calls": "count",
    "qspecial.self_s": "s",
    "zeros.find_zero_calls": "count",
    "zeros.find_zero_s": "s",
    "zeros.bracket_s": "s",
    "zeros.sign_evals": "count",
    "zeros.sign_evals_per_zero": "evals/zero",
    "zeros.scan_points": "count",
    "zeros.scan_s": "s",
    "zeros.scan_fallbacks": "count",
    "zeros.census_s": "s",
    "zeros.max_arg_dps": "digits",
    "expansion.mode_values": "count",
    "expansion.eta_s": "s",
    "expansion.coefficient_s": "s",
    "expansion.gram_s": "s",
    "expansion.rl_s": "s",
    **{f"verify.check_s.{cid}": "s" for cid in CHECK_IDS},
    "verify.decay_bounds_calls": "calls/report",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(raw: dict, check_s: dict, overhead_s: float) -> dict:
    """The per-layer metrics from merged raw values.

    Span times (``*_s`` other than self times) are the summed durations of
    every span of that function; spans of different functions nest, so
    they overlap (gram and riemann-lebesgue contain eta_k, for example).
    """
    def n(name):
        return raw.get(f"span_n.{name}", 0)

    def dur(name):
        return raw.get(f"span_s.{name}", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    passes = n("precision.tracked_sum")
    finds = n("zeros.find_zero")
    metrics = {
        "precision.passes": passes,
        "precision.terms": raw.get("precision.terms", 0),
        "precision.accept_ratio": ratio(n("precision.adaptive_sum"), passes),
        "precision.max_dps": raw.get("precision.max_dps", 0),
        "precision.pass_s": dur("precision.tracked_sum"),
        "precision.self_s": raw.get("precision.self_s", 0.0),
        "qcore.poch_calls": n("qcore.qpochhammer_infinite"),
        "qcore.poch_misses": raw.get("qcore.poch_misses", 0),
        "qcore.poch_s": dur("qcore.qpochhammer_infinite"),
        "qcore.poch_cache_entries": raw.get("qcore.poch_cache_entries", 0),
        "qspecial.jnu3_calls": n("qspecial.jnu3"),
        "qspecial.jnu3_derivative_calls": n("qspecial.jnu3_derivative"),
        "qspecial.phi11_calls": n("qspecial.phi11"),
        "qspecial.self_s": raw.get("qspecial.self_s", 0.0),
        "zeros.find_zero_calls": finds,
        "zeros.find_zero_s": dur("zeros.find_zero"),
        "zeros.bracket_s": dur("zeros.bracket_zero"),
        "zeros.sign_evals": raw.get("zeros.sign_evals", 0),
        "zeros.sign_evals_per_zero": ratio(
            raw.get("zeros.find_sign_evals", 0), finds),
        "zeros.scan_points": raw.get("zeros.scan_points", 0),
        "zeros.scan_s": dur("zeros.dense_scan_brackets"),
        "zeros.scan_fallbacks": raw.get("zeros.scan_fallbacks", 0),
        "zeros.census_s": dur("zeros.count_zeros_below"),
        "zeros.max_arg_dps": raw.get("zeros.max_arg_dps", 0),
        "expansion.mode_values": raw.get("expansion.mode_values", 0),
        "expansion.eta_s": dur("expansion.eta_k"),
        "expansion.coefficient_s": dur("expansion.coefficient"),
        "expansion.gram_s": dur("expansion.gram_matrix"),
        "expansion.rl_s": dur("expansion.riemann_lebesgue_rate"),
        **{f"verify.check_s.{cid}": check_s.get(cid, 0.0)
           for cid in CHECK_IDS},
        "verify.decay_bounds_calls": ratio(n("zeros.verify_decay_bounds"),
                                           n("verify.run_checks")),
        "verify.self_s": raw.get("verify.self_s", 0.0),
        "cli.self_s": raw.get("cli.self_s", 0.0),
        "trace.overhead_s": overhead_s,
    }
    assert metrics.keys() == PER_LAYER_UNITS.keys()
    return metrics
