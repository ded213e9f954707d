"""The names the benchmark's tracer and worker read from qfb still exist.

perfbench/tracer.py replaces module globals of qfb from outside, so a
refactor that renames or moves one of them breaks the benchmark only.  The
tracer is run from its source here (runpy writes no bytecode next to it).
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
BINDINGS = runpy.run_path(str(TRACER))["BINDINGS"]


@pytest.mark.parametrize("module, attr, span", BINDINGS,
                         ids=[f"{m}.{a}" for m, a, _ in BINDINGS])
def test_binding_site_resolves(module, attr, span):
    assert module.startswith("qfb.")
    assert callable(getattr(importlib.import_module(module), attr))


def test_poch_cache_is_a_dict():
    assert isinstance(importlib.import_module("qfb.qcore")._POCH_CACHE, dict)


def test_worker_entry_points_exist():
    qspecial = importlib.import_module("qfb.qspecial")
    assert callable(qspecial.jnu3) and callable(qspecial.jnu3_derivative)
