"""What the benchmark measures, and why -- the one source of its names.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/catalog.py --write``) and the benchmark's own tests
check that the two agree.  This module also records what that file has
no room for: the default and held-out seeds, each workload's full
rationale, each metric's definition, which end-to-end metric and
workload every per-layer metric should move, and the layers left
unmeasured.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The default workload seed, and a second seed held out from tuning so
#: that a claimed gain can be checked on a seed it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 20

#: ``name -> (why, one line; detail)``.
WORKLOADS = {
    "rqs-soak": (
        "the paper's RQS storage protocol under crashes and a slow server;"
        " read predicates, event loop and network dominate",
        "rqs-storage on example6 (n=8, t=3, k=1, q=1, r=2) with bounded "
        "server history; 4 writers (multi-writer online checker), 8 "
        "readers, 16 uniform keys, unbatched, open loop bounded by "
        "max_ops at METRICS tracing. Servers 1 and 2 crash early and "
        "server 8's messages take 2.5 delta, so reads take the 3-round "
        "Theorem 9 path (p99 6 delta) and writes reach p99 8 delta: "
        "protocol changes show in the simulated-latency metrics.",
    ),
    "batched-soak": (
        "ABD with 16-op batches; the SW checker, latency accumulator and"
        " batched handlers dominate, at about one event per op",
        "abd, 1 writer (single-writer online checker), 8 readers, 16 "
        "uniform keys, batch_size=16, open loop bounded by max_ops at "
        "METRICS. The abd-sw-batched shape of ROADMAP item 2. It uses the "
        "storage layer batched where rqs-soak uses it scalar, so a change "
        "to one path that costs the other shows.",
    ),
    "sharded-zipf": (
        "the only workload through the sharding engine (fork, transport,"
        " merge); every shard replays the full draw",
        "abd, batch_size=16, 64 keys drawn zipfian with skew 1.2, bounded "
        "by duration, shards=2 (forks 2 workers, the core count of the "
        "2-core machine the benchmark was sized on). Each shard consumes "
        "the whole seeded draw and keeps its own keys, so the draw's "
        "share of CPU is at its highest here.",
    ),
    "adversarial-grid": (
        "many short FULL-trace cells as figures and tests run them; RQS"
        " validation, post-hoc checkers and consensus dominate",
        "One serial run_grid per pass: E6-style storage cells (rqs-storage "
        "on threshold:7,2,2,0,2 with a fabricating Byzantine server and a "
        "mid-run crash, one cell per seed derived from the workload seed) "
        "and E9-style consensus cells (rqs-consensus on example6 under "
        "lossy_until_gst at several GST values).",
    ),
}

#: ``name -> (unit, better, bound or None, definition)``.  A bound of
#: None marks a metric the benchmark prints but does not gate, because
#: it is not defined on every workload or is 0 by construction.
END_TO_END = {
    "ops_per_cpu_s": (
        "ops/s", "higher", 0.24,
        "completed simulated ops / CPU seconds of the timed passes, "
        "parent and shard workers together; each pass's time scaled to "
        "the reference speed (perfbench/reference.py)",
    ),
    "ops_per_s": (
        "ops/s", "higher", 0.24,
        "completed ops / wall seconds of the timed passes, set-up and "
        "output checks included; scaled to the reference speed",
    ),
    "setup_s": (
        "s", "lower", 0.25,
        "median over passes of the pass's set-up: the sum over its run() "
        "calls of run() wall time minus execute_seconds (RQS build and "
        "validation, wiring, scheduling, forking; for a sharded run, minus "
        "the slowest shard's execute_seconds); scaled to the reference "
        "speed",
    ),
    "cell_p50_ms": (
        "ms", "lower", 0.24,
        "median wall time of one run() call with its output check: a grid "
        "cell, or one soak pass; scaled to the reference speed",
    ),
    "cell_tail_ms": (
        "ms", "lower", 0.24,
        "the same, at the highest percentile with at least 10 samples "
        "beyond it (the report prints which)",
    ),
    "mem_peak_kb": (
        "KiB", "lower", 0.24,
        "peak memory growth: on the unsharded soaks the Python heap's "
        "peak over the warm-up pass (tracemalloc); on the grid the peak "
        "RSS over the post-import baseline after the warm-up pass; on "
        "sharded-zipf the median over 9 untimed passes of the largest "
        "shard worker's peak RSS over an idle worker forked just before "
        "(see Workload.memory for why)",
    ),
    "sim_read_p99": (
        "delta", "lower", 0.1,
        "p99 simulated read latency, invocation to response, in units of "
        "delta (deterministic for a seed)",
    ),
    "sim_write_p99": (
        "delta", "lower", 0.1,
        "p99 simulated write latency in units of delta (deterministic)",
    ),
    "rounds_per_op": (
        "rounds", "lower", 0.15,
        "mean protocol rounds per completed read or write (deterministic)",
    ),
    "msgs_per_op": (
        "msgs", "lower", 0.15,
        "messages sent / completed ops (deterministic)",
    ),
    "sim_learn_max": (
        "delays", "lower", None,
        "adversarial-grid only: the worst learner delay over the "
        "consensus cells, in message delays (deterministic)",
    ),
    "failed_frac": (
        "share", "lower", None,
        "(ops begun - ops completed + ops in a pass or cell whose verdict "
        "is wrong or which raised) / ops begun; 0 on a correct run, and "
        "carried by the result line's attempted/failed counts",
    ),
}

#: ``name -> (unit, better, should move: (metric, workload) pairs,
#: definition)``.  Times are span self times in CPU seconds (see
#: perfbench/tracer.py), scaled to the reference speed like the
#: end-to-end times.
PER_LAYER = {
    "scenarios.draw_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "sharded-zipf"), ("nothing", "rqs-soak")),
        "self time pulling items from the workload iterators "
        "(open_loop_stream, RandomMix.stream views) per completed op",
    ),
    "scenarios.draws_per_op": (
        "count/op", "lower",
        (("ops_per_cpu_s", "sharded-zipf"),),
        "schedule items generated / ops completed: 1.0 unsharded, about "
        "the shard count sharded (a waste ratio)",
    ),
    "scenarios.build_s": (
        "s", "lower",
        (("setup_s", "adversarial-grid"),),
        "self time per pass in adapter build/apply_faults/schedule, "
        "excluding core",
    ),
    "scenarios.shard_cpu_s_max": (
        "s", "lower",
        (("ops_per_s", "sharded-zipf"),),
        "per pass, the CPU seconds of the busiest shard "
        "(ShardedRunResult per-shard cpu_seconds); 0 unsharded",
    ),
    "scenarios.shard_imbalance": (
        "ratio", "lower",
        (("ops_per_s", "sharded-zipf"),),
        "max / mean completed ops per shard; 1.0 unsharded",
    ),
    "scenarios.shard_overhead_s": (
        "s", "lower",
        (("ops_per_s", "sharded-zipf"),),
        "per pass, run_sharded wall time minus the slowest shard's wall "
        "time (fork, transport, merge); 0 unsharded",
    ),
    "core.rqs_builds": (
        "count", "lower",
        (("setup_s", "adversarial-grid"), ("cell_p50_ms", "adversarial-grid"),
         ("nothing", "rqs-soak")),
        "resolve_rqs calls per pass",
    ),
    "core.rqs_build_s": (
        "s", "lower",
        (("setup_s", "adversarial-grid"), ("cell_p50_ms", "adversarial-grid")),
        "resolve_rqs self time per pass (construction and Property-3 "
        "validation)",
    ),
    "sim.events_per_op": (
        "count/op", "lower",
        (("ops_per_cpu_s", "rqs-soak"),),
        "simulator events processed per completed op",
    ),
    "sim.loop_self_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "rqs-soak"),),
        "Simulator.run self time (event loop and condition wake-ups) per op",
    ),
    "sim.trace_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "batched-soak"),),
        "Trace.begin/complete self time per op",
    ),
    "network.sends_per_op": (
        "count/op", "lower",
        (("ops_per_cpu_s", "rqs-soak"),),
        "Network.send calls per completed op",
    ),
    "network.send_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "rqs-soak"), ("cell_tail_ms", "adversarial-grid")),
        "Network.send and Process.receive self time per op",
    ),
    "network.delivered_per_sent": (
        "ratio", "higher",
        (("ops_per_cpu_s", "rqs-soak"), ("cell_tail_ms", "adversarial-grid")),
        "Process.receive calls / Network.send calls",
    ),
    "storage.server_calls_per_op": (
        "count/op", "lower",
        (("ops_per_cpu_s", "batched-soak"), ("ops_per_cpu_s", "rqs-soak")),
        "storage server on_message calls per op",
    ),
    "storage.server_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "batched-soak"), ("ops_per_cpu_s", "rqs-soak")),
        "storage server on_message self time per op",
    ),
    "storage.client_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "batched-soak"), ("ops_per_cpu_s", "rqs-soak")),
        "client read/write/read_batch/write_batch self time (one span per "
        "coroutine resumption) plus client on_message, per op",
    ),
    "storage.ops_per_roundtrip": (
        "ops/call", "higher",
        (("msgs_per_op", "batched-soak"),),
        "completed storage ops / client read, write, read_batch and "
        "write_batch calls: the batching factor, 1.0 unbatched",
    ),
    "storage.predicate_calls_per_op": (
        "count/op", "lower",
        (("ops_per_cpu_s", "rqs-soak"), ("cell_p50_ms", "adversarial-grid")),
        "calls into ReadState's public methods from outside it, per op",
    ),
    "storage.predicate_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "rqs-soak"), ("cell_p50_ms", "adversarial-grid")),
        "ReadState self time per op",
    ),
    "storage.retained_cells_max": (
        "count", "lower",
        (("mem_peak_kb", "rqs-soak"),),
        "servers' retained history-cell high-water mark (server_history); "
        "0 for protocols without a history matrix",
    ),
    "consensus.handler_calls_per_msg": (
        "count/msg", "lower",
        (("cell_tail_ms", "adversarial-grid"),),
        "acceptor/learner/proposer on_message calls / messages delivered "
        "in consensus cells; 0 without consensus",
    ),
    "consensus.handler_s": (
        "s", "lower",
        (("cell_tail_ms", "adversarial-grid"),),
        "consensus on_message self time per pass",
    ),
    "analysis.checker_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "batched-soak"), ("ops_per_cpu_s", "sharded-zipf"),
         ("ops_per_cpu_s", "rqs-soak")),
        "online checker on_begin/on_complete self time per op, SW and MW "
        "together",
    ),
    "analysis.checker_sw_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "batched-soak"), ("ops_per_cpu_s", "sharded-zipf")),
        "the single-writer OnlineChecker's share of the above",
    ),
    "analysis.checker_mw_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "rqs-soak"),),
        "the MultiWriterOnlineChecker's share of the above",
    ),
    "analysis.checker_retained_max": (
        "count", "lower",
        (("mem_peak_kb", "batched-soak"),),
        "the online checker's retained-entry high-water mark",
    ),
    "analysis.accumulator_s_per_op": (
        "s/op", "lower",
        (("ops_per_cpu_s", "batched-soak"), ("ops_per_cpu_s", "sharded-zipf")),
        "LatencyAccumulator.observe self time per op",
    ),
    "analysis.posthoc_s_per_cell": (
        "s/cell", "lower",
        (("cell_p50_ms", "adversarial-grid"),),
        "check_swmr_atomicity/check_consensus self time per grid cell; "
        "0 on streamed soaks",
    ),
    "other.s_per_op": (
        "s/op", "lower", (),
        "CPU seconds not covered by any span, per op",
    ),
    "tracing.span_share": (
        "ratio", "higher", (),
        "sum of all layers' self times / CPU seconds of the traced passes; "
        "with other.s_per_op it accounts for the run's CPU time",
    ),
    "tracing.overhead_ratio": (
        "ratio", "higher", (),
        "traced / untraced ops_per_cpu_s over the same run's passes",
    ),
}

#: Layers no workload exercises, named so later changes know.
UNMEASURED = (
    "the fastabd and naive storage adapters",
    "the paxos and pbft consensus baselines",
    "the core.strategy load-optimal LP",
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, (why, _detail) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _d) in END_TO_END.items()
            if bound is not None
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _moves, _d) in PER_LAYER.items()
        ],
    }


def gated_metrics() -> tuple:
    """End-to-end metrics in ``BENCHMARK.json``, in its order."""
    return tuple(
        name for name, spec in END_TO_END.items() if spec[2] is not None
    )


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        root = Path(__file__).resolve().parent.parent
        (root / "BENCHMARK.json").write_text(text)
    else:
        sys.stdout.write(text)
