"""The benchmark's own tests: ``python -m pytest perfbench -q``.

They check that the benchmark's output checks can fail (a known
atomicity violation and a refused online check both come out failed),
that every workload repeats its deterministic counters exactly on the
default and the held-out seed, that tracing changes no counter, and
that ``BENCHMARK.json`` is the one ``catalog.py`` describes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalog, run
from perfbench.workloads import (
    WORKLOADS,
    failed_ops,
    peak_rss_kb,
    soak_problems,
    storage_cell_problems,
)
from repro.experiments import fig1
from repro.scenarios import Propose, Read, ScenarioSpec, Write
from repro.scenarios import run as run_spec

ROOT = Path(__file__).resolve().parent.parent

#: Sizes small enough for a test, large enough to cross every layer.
TINY = {
    "rqs-soak": 0.05,
    "batched-soak": 0.01,
    "sharded-zipf": 0.01,
    "adversarial-grid": 0.25,
}
SEEDS = (catalog.DEFAULT_SEED, catalog.HELD_OUT_SEED)


def test_benchmark_json_is_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()
    assert list(WORKLOADS) == [w["name"] for w in on_disk["workloads"]]


def test_benchmark_json_within_its_limits():
    bench = catalog.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in bench["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(bench)) < 64 * 1024


def test_every_layer_metric_names_what_it_should_move():
    for name, (_unit, _better, moves, _d) in catalog.PER_LAYER.items():
        for metric, workload in moves:
            assert metric == "nothing" or metric in catalog.END_TO_END
            assert workload in WORKLOADS


def test_fig1_violation_fails_the_storage_check():
    """Negative control: the E1 counterexample is not atomic, and the
    benchmark's verdict check says so."""
    (spec,) = fig1.GRID.where(algorithm=fig1.NAIVE).specs()
    result = run_spec(spec)
    problems = storage_cell_problems(result)
    assert "not atomic" in problems
    assert failed_ops(result.ops_begun(), result.ops_completed(),
                      problems) == result.ops_begun()


@pytest.mark.parametrize("spec, reason", [
    (ScenarioSpec(protocol="abd", readers=1, trace_level="metrics",
                  workload=(Write(0.0, 1), Read(3.0))), "workload-shape"),
    (ScenarioSpec(protocol="rqs-consensus", rqs="example6",
                  trace_level="metrics", workload=(Propose(0.0, "V"),)),
     "not-storage"),
])
def test_refused_online_check_counts_as_unchecked(spec, reason):
    result = run_spec(spec)
    assert result.online is None and result.online_refusal is not None
    problems = soak_problems(result, "sw")
    assert problems and problems[0] == f"unchecked ({reason})"
    assert failed_ops(result.ops_begun(), result.ops_completed(),
                      problems) == result.ops_begun()


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_workload_counters_repeat_exactly(name, seed):
    first = WORKLOADS[name](seed, TINY[name])
    a, b = first.run_pass(), first.run_pass()
    c = WORKLOADS[name](seed, TINY[name]).run_pass()
    for pass_ in (a, b, c):
        assert pass_.problems == [] and pass_.failed == 0
        assert pass_.begun > 0 and pass_.completed == pass_.begun
    assert a.counters() == b.counters() == c.counters()


def test_end_to_end_reports_every_gated_metric():
    workload = WORKLOADS["rqs-soak"](catalog.DEFAULT_SEED, TINY["rqs-soak"])
    outcome, rows = run.end_to_end(workload, 0.0, peak_rss_kb(), [])
    assert outcome.correct
    values = {row[0]: row[1] for row in rows}
    assert set(catalog.gated_metrics()) <= set(values) <= set(
        catalog.END_TO_END)
    # Memory growth can be 0 here: earlier tests already raised the peak.
    assert values.pop("mem_peak_kb") >= 0
    assert all(values[name] > 0 for name in catalog.gated_metrics()
               if name in values)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_counter_and_counts_repeat(name):
    """The traced run checks every traced pass's counters against the
    untraced warm-up, and its layer call counts across traced passes."""
    workload = WORKLOADS[name](catalog.HELD_OUT_SEED, TINY[name])
    report = []
    outcome, metrics = run.per_layer(workload, 0.0, report)
    assert outcome.correct, outcome.problems
    assert [m[0] for m in metrics] == list(catalog.PER_LAYER)
    values = dict(metrics)
    assert values["sim.events_per_op"] > 0
    assert values["storage.server_calls_per_op"] > 0
    assert 0.5 < values["tracing.span_share"] < 1.5


def test_tracer_restores_the_program():
    from perfbench.tracer import Tracer
    from repro.sim.network import Network
    from repro.sim.simulator import Simulator

    originals = (Simulator.run, Network.send)
    tracer = Tracer()
    tracer.install()
    assert Simulator.run is not originals[0]
    tracer.uninstall()
    assert (Simulator.run, Network.send) == originals


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(range(5)) == (4, 100.0)
    value, percentile = run.tail(range(100))
    assert value == 89 and percentile == 90.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rqs-soak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
