"""Traceability: every report anchor must appear in the docs matrix, the
package version matches the project metadata, every public name has a
use, and committed benchmark evidence follows the format the README
describes."""

import json
import re
import statistics
from pathlib import Path

import pytest

import qfb
from qfb import ANCHORS, CHECK_IDS

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "checks.md"


def test_docs_page_exists():
    assert DOC.is_file()


def test_every_anchor_appears_verbatim():
    text = DOC.read_text(encoding="utf-8")
    for check_id, anchor in ANCHORS.items():
        assert anchor in text, f"anchor for {check_id!r} missing from docs"


def test_every_check_id_has_a_section():
    text = DOC.read_text(encoding="utf-8")
    for check_id in CHECK_IDS:
        assert f"## `{check_id}`" in text


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"', text, re.MULTILINE)
    assert match and qfb.__version__ == match.group(1)


def test_every_public_name_is_used_or_documented():
    # a name in qfb.__all__ is named in the README, read by the benchmark,
    # or used in the package beyond its own definition
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bench = "".join(p.read_text(encoding="utf-8")
                    for p in (ROOT / "perfbench").glob("*.py"))
    src = "".join(p.read_text(encoding="utf-8")
                  for p in (ROOT / "src" / "qfb").glob("*.py")
                  if p.name != "__init__.py")
    unused = []
    for name in qfb.__all__:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(?:def |class ){name}\b|^{name} =",
                                re.MULTILINE)
        if not (word.search(readme) or word.search(bench)
                or len(word.findall(src)) > len(definition.findall(src))):
            unused.append(name)
    assert not unused


# the keys of a BENCH file and of one of its runs (README, "Benchmark
# evidence")
BENCH_KEYS = {"parent", "change", "host", "command", "seeds", "runs", "claim",
              "unclaimed"}
RUN_KEYS = {"side", "workload", "seed", "trace", "comment", "result"}
SUMMARY_KEYS = {"workload", "metric", "seeds", "parent_q1_median_q3",
                "change_q1_median_q3", "change_better_pairs"}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_bench_files_follow_the_format(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert BENCH_KEYS <= set(bench)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {}       # (side, workload, trace, seed) -> metrics
    for run in bench["runs"]:
        assert RUN_KEYS <= set(run)
        assert run["side"] in ("parent", "change")
        result = json.loads(run["result"])
        values[run["side"], run["workload"], run["trace"], run["seed"]] = {
            name: m["value"] for name, m in result["metrics"].items()}
    for workload in spec["workloads"]:
        for side in ("parent", "change"):
            for trace in (0, 1):
                assert any(key[:3] == (side, workload["name"], trace)
                           for key in values), (side, workload, trace)
    for summary in [bench["claim"], *bench["unclaimed"]]:
        assert SUMMARY_KEYS <= set(summary)
        sides = {side: [values[side, summary["workload"], 0, seed]
                        [summary["metric"]] for seed in summary["seeds"]]
                 for side in ("parent", "change")}
        for side, xs in sides.items():
            quartiles = statistics.quantiles(xs, n=4, method="inclusive")
            assert summary[f"{side}_q1_median_q3"] == [
                round(x, 4) for x in quartiles]
            assert round(statistics.median(xs), 4) == \
                summary[f"{side}_q1_median_q3"][1]
        assert summary["change_better_pairs"] == sum(
            c < p for p, c in zip(sides["parent"], sides["change"]))
