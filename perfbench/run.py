#!/usr/bin/env python3
"""The simulator's benchmark: one workload, measured and checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rqs-soak --seed 1 --seconds 20 --trace 0

Workloads: ``rqs-soak``, ``batched-soak``, ``sharded-zipf``,
``adversarial-grid`` (see ``perfbench/catalog.py`` for why each is
there).  A run executes one untimed warm-up pass, then identical passes
until ``--seconds`` have passed, checking every pass's outputs.

Every cell of a timed pass (a soak's ``run()``, a grid cell) runs
between two bursts of a fixed reference computation, and its times are
scaled to the speed at which the machine ran those bursts (see
``perfbench/reference.py``): the host's other tenants change that speed
by up to twice within minutes.  The unscaled figures are printed beside
the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see ``perfbench/tracer.py``) and reports the
per-layer metrics, the CPU time no span covers, and the tracing
overhead.  Either way a human-readable report comes first and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.

The program under test is imported from ``src/`` next to this
directory; without it the command exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_clock = time.perf_counter

#: Passes a run makes at least, however short ``--seconds`` is.
MIN_PASSES = 3

#: Untimed passes after the timed ones that measure shard memory.
SHARD_MEMORY_PASSES = 9


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    ``(value, percentile)``; the maximum when there are 10 or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def sim_p99(reference, kind: str) -> float:
    from repro.analysis.streaming import LatencyAccumulator

    parts = reference.accumulators.get(kind)
    if not parts:
        return 0.0
    return LatencyAccumulator.merge(parts).quantile(0.99)


class Outcome:
    """Correctness bookkeeping over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, pass_, reference) -> None:
        self.attempted += pass_.begun
        failed = pass_.failed
        for problem in pass_.problems:
            self.problems.append(f"{label}: {problem}")
        if pass_.counters() != reference.counters():
            self.problems.append(
                f"{label}: counters (begun, completed, events, messages, "
                f"rounds) {pass_.counters()} differ from the warm-up "
                f"pass's {reference.counters()}"
            )
            failed = pass_.begun
        self.failed += failed

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def warm_up(workload, outcome: Outcome):
    """The untimed first pass, whose counters every later pass repeats."""
    reference = workload.run_pass()
    outcome.check("warm-up", reference, reference)
    return reference


class Bracketed:
    """Runs a workload's passes with a reference burst before and after
    every cell, and sets each cell's scale factors from the two bursts
    around it."""

    def __init__(self, workload):
        from perfbench import reference

        self.workload = workload
        self.reference = reference
        self.before = reference.burst()

    def run_pass(self):
        bursts = [self.before]
        pass_ = self.workload.run_pass(
            lambda: bursts.append(self.reference.burst())
        )
        bursts.append(self.reference.burst())
        self.before = bursts[-1]
        nominal = self.reference.NOMINAL_S
        pairs = list(zip(bursts, bursts[1:]))
        if len(pairs) != len(pass_.cell_s):
            raise RuntimeError(
                f"{len(pass_.cell_s)} cells between {len(bursts)} bursts"
            )
        pass_.cell_cpu_scale = [2 * nominal / (a[0] + b[0]) for a, b in pairs]
        pass_.cell_wall_scale = [2 * nominal / (a[1] + b[1])
                                 for a, b in pairs]
        return pass_


def measure(workload, seconds: float, outcome: Outcome, reference):
    """Run checked, bracketed passes for ``seconds``."""
    runner = Bracketed(workload)
    passes = []
    start = _clock()
    while len(passes) < MIN_PASSES or _clock() - start < seconds:
        pass_ = runner.run_pass()
        outcome.check(f"pass {len(passes) + 1}", pass_, reference)
        passes.append(pass_)
    return passes


def rate(passes, scaled=True) -> float:
    """Completed ops per (scaled) CPU second."""
    cpu = sum(p.cpu_s * (p.cpu_scale if scaled else 1.0) for p in passes)
    return sum(p.completed for p in passes) / cpu


def heap_warm_up(workload, outcome: Outcome):
    """The warm-up pass under ``tracemalloc``, and the Python heap's
    peak growth during it in KiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reference = warm_up(workload, outcome)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return reference, (peak - before) / 1024


def end_to_end(workload, seconds, baseline_rss, report):
    from perfbench.workloads import idle_worker_rss_kb, peak_rss_kb

    outcome = Outcome()
    if workload.memory == "heap":
        reference, mem = heap_warm_up(workload, outcome)
        mem_note = "warm-up pass, Python heap peak over its size before it"
    else:
        reference = warm_up(workload, outcome)
        mem = peak_rss_kb() - baseline_rss
        mem_note = "warm-up pass, peak RSS over the post-import peak"
    passes = measure(workload, seconds, outcome, reference)
    if workload.memory == "shard-rss":
        growth = []
        for index in range(SHARD_MEMORY_PASSES):
            idle = idle_worker_rss_kb()
            pass_ = workload.run_pass()
            outcome.check(f"memory pass {index + 1}", pass_, reference)
            growth.append(max(pass_.shard_rss_kb) - idle)
        mem = statistics.median(growth)
        mem_note = (f"median of {SHARD_MEMORY_PASSES} untimed passes, "
                    f"largest shard over an idle worker forked just before")
    completed = sum(p.completed for p in passes)
    n = len(passes)

    def walls(scaled):
        return sum(p.wall_s * (p.wall_scale if scaled else 1.0)
                   for p in passes)

    def setups(scaled):
        return statistics.median(p.setup(scaled) for p in passes)

    def cells(scaled):
        return [cell for p in passes for cell in p.cells(scaled)]

    count = len(cells(True))
    cell_tail, tail_pct = tail(cells(True))
    raw_tail, _ = tail(cells(False))
    speed = statistics.median(p.cpu_scale for p in passes)
    metrics = [
        ("ops_per_cpu_s", rate(passes), "ops/s",
         f"{n} passes, {completed} ops; unscaled {rate(passes, False):.6g}"),
        ("ops_per_s", completed / walls(True), "ops/s",
         f"{n} passes, {completed} ops; unscaled "
         f"{completed / walls(False):.6g}"),
        ("setup_s", setups(True), "s",
         f"median of {n} passes; unscaled {setups(False):.6g}"),
        ("cell_p50_ms", 1000 * statistics.median(cells(True)), "ms",
         f"p50 of {count} run() calls; unscaled "
         f"{1000 * statistics.median(cells(False)):.6g}"),
        ("cell_tail_ms", 1000 * cell_tail, "ms",
         f"p{tail_pct:.1f} of {count} run() calls; unscaled "
         f"{1000 * raw_tail:.6g}"),
        ("mem_peak_kb", mem, "KiB", mem_note),
        ("sim_read_p99", sim_p99(reference, "read"), "delta",
         "deterministic"),
        ("sim_write_p99", sim_p99(reference, "write"), "delta",
         "deterministic"),
        ("rounds_per_op", reference.rounds / max(1, reference.storage_ops),
         "rounds", f"{reference.storage_ops} reads and writes a pass"),
        ("msgs_per_op", reference.messages / max(1, reference.completed),
         "msgs", f"{reference.completed} ops a pass"),
    ]
    if reference.learn_max is not None:
        metrics.append(("sim_learn_max", reference.learn_max, "delays",
                        "deterministic, consensus cells"))
    metrics.append((
        "failed_frac", outcome.failed / max(1, outcome.attempted), "share",
        f"{outcome.failed} of {outcome.attempted} ops, warm-up included",
    ))
    report.append(f"{n} timed passes of {walls(False):.2f} s after 1 "
                  f"warm-up pass; machine at x{speed:.3f} of the reference "
                  f"speed (median over passes)")
    return outcome, metrics


def per_layer(workload, seconds, report):
    from perfbench.tracer import Ledger, Tracer

    outcome = Outcome()
    tracer = Tracer()
    reference = warm_up(workload, outcome)
    runner = Bracketed(workload)
    untraced, traced, ledgers = [], [], []
    start = _clock()
    while len(traced) < 2 or _clock() - start < seconds:
        pass_ = runner.run_pass()
        outcome.check(f"untraced pass {len(untraced) + 1}", pass_, reference)
        untraced.append(pass_)
        tracer.ledger.reset()
        tracer.install()
        try:
            pass_ = runner.run_pass()
        finally:
            tracer.uninstall()
        outcome.check(f"traced pass {len(traced) + 1}", pass_, reference)
        ledger = Ledger()
        ledger.merge(tracer.ledger.snapshot())
        for shard in pass_.shard_ledgers:
            ledger.merge(shard)
        traced.append(pass_)
        ledgers.append(ledger)
    counts = [(dict(l.calls), dict(l.counts)) for l in ledgers]
    if any(c != counts[0] for c in counts):
        outcome.problems.append(
            "layer call counts differ between traced passes"
        )

    total = Ledger()
    for pass_, ledger in zip(traced, ledgers):
        snapshot = ledger.snapshot()
        snapshot["self_s"] = {
            layer: seconds * pass_.cpu_scale
            for layer, seconds in snapshot["self_s"].items()
        }
        total.merge(snapshot)
    spans, calls, extra = total.self_s, total.calls, total.counts
    n = len(traced)
    ops = sum(p.completed for p in traced)
    cpu = sum(p.cpu_s * p.cpu_scale for p in traced)
    storage_ops = sum(p.storage_ops for p in traced)
    cells = sum(len(p.cell_s) for p in traced) if workload.name == (
        "adversarial-grid") else 0
    consensus_msgs = sum(p.consensus_delivered for p in traced)
    covered = sum(spans.values())
    overheads = [
        (p.sharded_wall_s - max(ledger.shard_walls)) * p.wall_scale
        for p, ledger in zip(traced, ledgers) if ledger.shard_walls
    ]
    overhead = rate(untraced) / rate(traced)

    def per_op(value):
        return value / ops

    metrics = [
        ("scenarios.draw_s_per_op", per_op(spans["scenarios.draw"])),
        ("scenarios.draws_per_op", per_op(
            extra["key_draws"] + extra["closed_loop_items"])),
        ("scenarios.build_s", spans["scenarios.build"] / n),
        ("scenarios.shard_cpu_s_max", statistics.fmean(
            max(p.shard_cpu_s, default=0.0) * p.cpu_scale for p in traced)),
        ("scenarios.shard_imbalance", reference.imbalance),
        ("scenarios.shard_overhead_s",
         statistics.fmean(overheads) if overheads else 0.0),
        ("core.rqs_builds", calls["core"] / n),
        ("core.rqs_build_s", spans["core"] / n),
        ("sim.events_per_op", per_op(sum(p.events for p in traced))),
        ("sim.loop_self_s_per_op", per_op(spans["sim.loop"])),
        ("sim.trace_s_per_op", per_op(spans["sim.trace"])),
        ("network.sends_per_op", per_op(calls["network"])),
        ("network.send_s_per_op", per_op(
            spans["network"] + spans["network.receive"])),
        ("network.delivered_per_sent",
         calls["network.receive"] / max(1, calls["network"])),
        ("storage.server_calls_per_op", per_op(calls["storage.server"])),
        ("storage.server_s_per_op", per_op(spans["storage.server"])),
        ("storage.client_s_per_op", per_op(spans["storage.client"])),
        ("storage.ops_per_roundtrip",
         storage_ops / max(1, extra["client_calls"])),
        ("storage.predicate_calls_per_op",
         per_op(calls["storage.predicates"])),
        ("storage.predicate_s_per_op", per_op(spans["storage.predicates"])),
        ("storage.retained_cells_max",
         max(p.retained_cells_max for p in traced)),
        ("consensus.handler_calls_per_msg",
         calls["consensus"] / consensus_msgs if consensus_msgs else 0.0),
        ("consensus.handler_s", spans["consensus"] / n),
        ("analysis.checker_s_per_op", per_op(
            spans["analysis.checker_sw"] + spans["analysis.checker_mw"])),
        ("analysis.checker_sw_s_per_op",
         per_op(spans["analysis.checker_sw"])),
        ("analysis.checker_mw_s_per_op",
         per_op(spans["analysis.checker_mw"])),
        ("analysis.checker_retained_max",
         max(p.checker_retained_max for p in traced)),
        ("analysis.accumulator_s_per_op",
         per_op(spans["analysis.accumulator"])),
        ("analysis.posthoc_s_per_cell",
         spans["analysis.posthoc"] / cells if cells else 0.0),
        ("other.s_per_op", per_op(cpu - covered)),
        ("tracing.span_share", covered / cpu),
        ("tracing.overhead_ratio", 1 / overhead),
    ]
    report.append(
        f"{n} traced and {len(untraced)} untraced passes, {ops} traced ops; "
        f"scaled layer self times {covered:.3f} s + other "
        f"{cpu - covered:.3f} s = scaled CPU {cpu:.3f} s; tracing overhead "
        f"x{overhead:.2f}"
    )
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalog
    from perfbench.workloads import WORKLOADS, peak_rss_kb

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    baseline_rss = peak_rss_kb()
    workload = WORKLOADS[args.workload](args.seed)
    report = [f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    if args.trace:
        outcome, metrics = per_layer(workload, args.seconds, report)
        units = {name: spec[0] for name, spec in catalog.PER_LAYER.items()}
        notes = {}
        reported = dict(metrics)
    else:
        outcome, rows = end_to_end(workload, args.seconds, baseline_rss,
                                   report)
        units = {name: unit for name, _, unit, _ in rows}
        notes = {name: note for name, _, _, note in rows}
        metrics = [(name, value) for name, value, _, _ in rows]
        reported = {name: value for name, value in metrics
                    if name in catalog.gated_metrics()}
    for name, value in metrics:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {units[name]}{note}")
    for line in report:
        print(line)
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }))
    return 0 if outcome.correct else 1


def stop_helpers() -> None:
    """Stop the shared-memory resource tracker that sharded runs start,
    and wait for it, so that no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)
