"""Smoke and drift tests of the benchmark, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from workloads import LAYER_METRICS, TINY, WORKLOADS, run_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}

#: Work counters that must repeat exactly at one seed (the drift gate).
EXACT = {
    "join-dirty": (
        "filter.candidates", "filter.processed_pairs", "graph.ub_prunes",
        "graph.lb_skips", "graph.graphs_built", "approximation.full_runs",
        "verification.results",
    ),
    "join-dirty-process": (
        "filter.candidates", "filter.processed_pairs", "graph.ub_prunes",
        "graph.lb_skips", "graph.graphs_built", "approximation.full_runs",
        "verification.results",
    ),
    "serve-mixed": (
        "index.query_candidates", "index.query_graphs", "graph.ub_prunes",
        "graph.lb_skips", "approximation.full_runs", "verification.results",
    ),
}


def test_spec_names_every_workload_and_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    outcome = run_workload(workload, 5, 0, trace=False, sizes=TINY)
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted > 0
    assert set(outcome.metrics) == END_TO_END
    assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counters_repeat_exactly_at_one_seed(workload):
    first = run_workload(workload, 7, 0, trace=True, sizes=TINY)
    second = run_workload(workload, 7, 0, trace=True, sizes=TINY)
    for outcome in (first, second):
        # For join-dirty this includes the replayed cascade reproducing the
        # library join's pairs and VerificationStats exactly.
        assert outcome.failed == 0, outcome.notes
        assert [name for name, _ in LAYER_METRICS] == list(outcome.metrics)
    for name in EXACT[workload]:
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["verification.candidates"][0] > 0


def test_traced_join_self_times_cover_the_join():
    outcome = run_workload("join-dirty", 7, 0, trace=True, sizes=TINY)
    value = {name: v for name, (v, _) in outcome.metrics.items()}
    tiers = ("prepared.prepare_s", "signatures.sign_s", "filter.filter_s",
             "graph.side_s", "graph.lb_s", "graph.ub_s", "graph.assemble_s",
             "approximation.alg1_s")
    covered = sum(value[name] for name in tiers)
    assert covered + value["trace.uncovered_s"] == pytest.approx(value["trace.join_s"])
    assert value["trace.uncovered_s"] < value["trace.join_s"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "join-dirty", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
