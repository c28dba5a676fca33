"""The benchmark's four workloads and the checks on their outputs.

A workload is run as a sequence of identical *passes*: a pass of a soak
is one ``run()`` of its spec, a pass of the grid is one serial
``run_grid`` over its cells.  Every pass of a run has the same inputs
(all of them made from the workload seed), so the deterministic
counters of every pass must agree, and the timings of many passes give
medians.  Each pass checks its own outputs; :class:`Pass` records what
it did and what went wrong.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.streaming import LatencyAccumulator
from repro.experiments.builders import keyed_mix_spec
from repro.experiments.stress import liveness_grid, storage_stress_grid
from repro.scenarios import (
    Delay,
    FaultPlan,
    RandomMix,
    ScenarioSpec,
    SweepSpec,
    crashes,
    labeled,
    run,
    run_grid,
)

_clock = time.perf_counter

#: Operation kinds whose latency and rounds the metrics report.
STORAGE_KINDS = ("read", "write")


def cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def idle_worker_rss_kb() -> int:
    """Peak RSS of a pool worker forked the way shard workers are, that
    does no work: the baseline a shard's memory growth is taken over."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(peak_rss_kb)


@dataclass
class Pass:
    """What one pass did: timings, counters, checks."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Wall time of each run() call (cell) with its output check.
    cell_s: List[float] = field(default_factory=list)
    #: Each cell's set-up: run() wall time minus execute time.
    cell_setup_s: List[float] = field(default_factory=list)
    #: Each cell's factors scaling its CPU and wall times to the
    #: reference speed (set by the benchmark runner; empty means 1).
    cell_cpu_scale: List[float] = field(default_factory=list)
    cell_wall_scale: List[float] = field(default_factory=list)
    begun: int = 0
    completed: int = 0
    failed: int = 0
    events: int = 0
    messages: int = 0
    #: Protocol rounds of the completed reads and writes.
    rounds: int = 0
    storage_ops: int = 0
    accumulators: Dict[str, List[LatencyAccumulator]] = field(
        default_factory=dict
    )
    learn_max: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    retained_cells_max: int = 0
    checker_retained_max: int = 0
    consensus_delivered: int = 0
    shard_cpu_s: Tuple[float, ...] = ()
    shard_rss_kb: Tuple[int, ...] = ()
    imbalance: float = 1.0
    sharded_wall_s: float = 0.0
    shard_ledgers: List[dict] = field(default_factory=list)

    @property
    def cpu_scale(self) -> float:
        """The cells' CPU scale factors, weighted by cell time."""
        return _weighted(self.cell_cpu_scale, self.cell_s)

    @property
    def wall_scale(self) -> float:
        return _weighted(self.cell_wall_scale, self.cell_s)

    def cells(self, scaled: bool = True) -> List[float]:
        """Each cell's wall time, scaled or as measured."""
        if not scaled or not self.cell_wall_scale:
            return list(self.cell_s)
        return [t * f for t, f in zip(self.cell_s, self.cell_wall_scale)]

    def setup(self, scaled: bool = True) -> float:
        """The pass's set-up time, scaled or as measured."""
        if not scaled or not self.cell_wall_scale:
            return sum(self.cell_setup_s)
        return sum(t * f for t, f in
                   zip(self.cell_setup_s, self.cell_wall_scale))

    def counters(self) -> Tuple[int, ...]:
        """The deterministic counters: equal on every pass of a run,
        traced or not."""
        return (self.begun, self.completed, self.events, self.messages,
                self.rounds)

    def add_latency(self, kind: str, accumulator) -> None:
        if accumulator is not None and accumulator.count:
            self.accumulators.setdefault(kind, []).append(accumulator)


def soak_problems(result, expected_mode: str) -> List[str]:
    """Why a streamed soak's output is not acceptable (empty if it is):
    it must carry an online verdict from the expected checker mode,
    atomic, with every begun op completed and none blocked.  A run the
    online checker refused is *unchecked*, which is a failure."""
    problems = []
    online = result.online
    if online is None:
        refusal = result.online_refusal
        reason = refusal.reason if refusal is not None else "no checker"
        problems.append(f"unchecked ({reason})")
    elif online.mode != expected_mode:
        problems.append(
            f"checker mode {online.mode}, expected {expected_mode}"
        )
    elif not online.atomic:
        problems.append(f"{online.violation_count} online violations")
    if result.blocked:
        problems.append(f"{len(result.blocked)} blocked ops")
    if result.ops_completed() != result.ops_begun():
        problems.append(
            f"{result.ops_begun() - result.ops_completed()} ops not "
            f"completed"
        )
    return problems


def storage_cell_problems(result) -> List[str]:
    """Why a FULL-trace storage cell is not ``wait-free atomic``."""
    problems = []
    if not result.atomicity.atomic:
        problems.append("not atomic")
    if result.blocked or len(result.completed) != len(result.records):
        problems.append("not wait-free")
    return problems


def consensus_cell_problems(result) -> List[str]:
    """Why a consensus cell is not ``live`` with agreement."""
    report = result.consensus
    problems = []
    if report.unterminated:
        problems.append("not live")
    if not report.agreement_ok:
        problems.append("no agreement")
    if not report.validity_ok:
        problems.append("not valid")
    return problems


def failed_ops(begun: int, completed: int, problems: List[str]) -> int:
    """Failed ops of one cell or soak: every op if its verdict is wrong,
    else the ops that never completed."""
    return begun if problems else begun - completed


def _read_result(pass_: Pass, result) -> None:
    """Fold one streamed soak result's counters into a pass."""
    pass_.begun += result.ops_begun()
    pass_.completed += result.ops_completed()
    pass_.events += result.events_processed
    online = result.online
    if online is not None:
        pass_.checker_retained_max = max(
            pass_.checker_retained_max, online.max_retained
        )
    history = result.server_history or {}
    pass_.retained_cells_max = max(
        pass_.retained_cells_max, history.get("max_retained_cells", 0)
    )
    outcomes = getattr(result, "outcomes", None)
    if outcomes is None:
        trace = result.adapter.trace
        network = result.adapter.network
        pass_.messages += network.sent_count
        for kind in STORAGE_KINDS:
            pass_.add_latency(kind, trace.accumulator(kind))
        return
    pass_.messages += result.messages
    pass_.shard_cpu_s = tuple(o.cpu_seconds for o in outcomes)
    pass_.shard_rss_kb = result.shard_rss_kb
    pass_.imbalance = result.imbalance
    pass_.sharded_wall_s = result.execute_seconds
    for outcome in outcomes:
        for kind in STORAGE_KINDS:
            pass_.add_latency(kind, outcome.accumulators.get(kind))
        ledger = getattr(outcome, "layer_ledger", None)
        if ledger is not None:
            pass_.shard_ledgers.append(ledger)


def _finish_latency(pass_: Pass) -> None:
    for kind in STORAGE_KINDS:
        for accumulator in pass_.accumulators.get(kind, ()):
            pass_.rounds += accumulator.rounds_sum
            pass_.storage_ops += accumulator.count


def _weighted(scales: List[float], weights: List[float]) -> float:
    total = sum(weights)
    if not scales or not total:
        return 1.0
    return sum(s * w for s, w in zip(scales, weights)) / total


class Workload:
    """One named workload; :meth:`run_pass` executes and checks a pass.

    ``between``, when given, is called between consecutive cells of a
    pass; its time is excluded from the pass's and the cells' times.
    """

    name = ""
    #: How ``mem_peak_kb`` is measured.  ``"heap"``: the Python heap's
    #: peak growth over the warm-up pass (``tracemalloc``), which repeats
    #: to the byte where peak RSS moves by a 128 KiB allocator step
    #: between identical runs, 20-25% of a soak's figure.  ``"rss"``:
    #: peak RSS growth over the warm-up pass, for the grid, whose growth
    #: is 15 such steps and whose warm-up ``tracemalloc`` slows sevenfold.
    #: ``"shard-rss"``: the median over a few passes after the timed
    #: ones, once the parent's own memory has settled, of the largest
    #: shard worker's peak RSS over that of an idle worker forked just
    #: before the pass (workers inherit the parent's pages).
    memory = "heap"

    def run_pass(self, between: Optional[Callable[[], None]] = None) -> Pass:
        raise NotImplementedError


class Soak(Workload):
    """A streamed soak: one ``run()`` of a spec per pass."""

    def __init__(self, name: str, spec: ScenarioSpec, checker_mode: str):
        self.name = name
        self.spec = spec
        self.checker_mode = checker_mode
        if spec.shards > 1:
            self.memory = "shard-rss"

    def run_pass(self, between=None) -> Pass:
        pass_ = Pass()
        cpu0 = cpu_seconds()
        start = _clock()
        try:
            result = run(self.spec)
        except Exception as exc:  # noqa: BLE001 -- a raising soak fails
            pass_.problems.append(f"raised {type(exc).__name__}: {exc}")
            pass_.begun = pass_.failed = self.spec.max_ops or 1
            pass_.wall_s = _clock() - start
            pass_.cpu_s = cpu_seconds() - cpu0
            pass_.cell_s.append(pass_.wall_s)
            pass_.cell_setup_s.append(0.0)
            return pass_
        run_wall = _clock() - start
        pass_.problems = soak_problems(result, self.checker_mode)
        pass_.wall_s = _clock() - start
        pass_.cpu_s = cpu_seconds() - cpu0
        pass_.cell_s.append(pass_.wall_s)
        _read_result(pass_, result)
        # A sharded run's execute_seconds spans the whole fan-out; its
        # set-up is what the slowest shard's execute phase leaves over.
        outcomes = getattr(result, "outcomes", None)
        execute = (
            max(o.execute_seconds for o in outcomes) if outcomes
            else result.execute_seconds
        )
        pass_.cell_setup_s.append(run_wall - execute)
        pass_.failed = failed_ops(
            pass_.begun, pass_.completed, pass_.problems
        )
        _finish_latency(pass_)
        return pass_


#: Soak sizes at ``size=1``: ops per pass, or simulated duration.
RQS_SOAK_OPS = 1000
BATCHED_SOAK_OPS = 20_000
SHARDED_ZIPF_DURATION = 20_000.0


def rqs_soak(seed: int, size: float = 1.0) -> Soak:
    ops = max(8, int(RQS_SOAK_OPS * size))
    spec = ScenarioSpec(
        protocol="rqs-storage",
        rqs="example6",
        readers=8,
        n_writers=4,
        n_keys=16,
        faults=FaultPlan(
            crashes=crashes({1: 20.0, 2: 40.0}),
            asynchrony=(Delay(2.5, src=(8,), label="slow server 8"),),
        ),
        workload=(RandomMix(4, 6, horizon=10.0),),
        seed=seed,
        trace_level="metrics",
        max_ops=ops,
        params={"bounded_history": True},
    )
    return Soak("rqs-soak", spec, "mw")


def batched_soak(seed: int, size: float = 1.0) -> Soak:
    spec = keyed_mix_spec(
        "abd", 16, writes=4, reads=6, readers=8, horizon=10.0, seed=seed,
        trace_level="metrics", max_ops=max(32, int(BATCHED_SOAK_OPS * size)),
        batch_size=16,
    )
    return Soak("batched-soak", spec, "sw")


def sharded_zipf(seed: int, size: float = 1.0) -> Soak:
    spec = keyed_mix_spec(
        "abd", 64, writes=4, reads=6, readers=8, horizon=10.0, skew=1.2,
        seed=seed, trace_level="metrics",
        duration=SHARDED_ZIPF_DURATION * size, batch_size=16,
    )
    return Soak("sharded-zipf", spec.with_(shards=2), "sw")


class Grid(Workload):
    """One serial ``run_grid`` over FULL-trace storage and consensus
    cells per pass.  The build and measure hooks time each cell's
    ``run()`` and check its output; the progress hook times each cell
    from build to verdict."""

    name = "adversarial-grid"
    memory = "rss"

    #: Cells per pass at ``size=1``, and the consensus GST values.  A
    #: fifth of the cells are consensus cells, several times slower than
    #: storage cells, so with at least 3 passes the median cell is
    #: always a storage cell and the tail percentile a consensus cell.
    STORAGE_CELLS = 16
    GSTS = (20.0, 30.0, 40.0, 50.0)
    CONSENSUS_HORIZON = 300.0

    def __init__(self, seed: int, size: float = 1.0):
        count = max(1, int(self.STORAGE_CELLS * size))
        seeds = tuple(seed * 1000 + index for index in range(count))
        storage = storage_stress_grid(seeds).specs()
        gsts = self.GSTS if size >= 1 else self.GSTS[:1]
        consensus = [
            spec for gst in gsts
            for spec in liveness_grid(gst, self.CONSENSUS_HORIZON).specs()
        ]
        cells = [("storage", spec) for spec in storage]
        cells += [("consensus", spec) for spec in consensus]
        self.sweep = SweepSpec(
            name="perfbench-grid",
            axes={"cell": tuple(
                labeled(f"{kind}-{index}", (kind, spec))
                for index, (kind, spec) in enumerate(cells)
            )},
            build=self._build,
            measure=self._measure,
        )
        self._pass: Optional[Pass] = None
        self._between: Optional[Callable[[], None]] = None
        self._built_at = 0.0
        self._setup = 0.0
        self._last = 0.0
        self._excluded_wall = self._excluded_cpu = 0.0

    def _build(self, point) -> ScenarioSpec:
        self._built_at = _clock()
        return point["cell"][1]

    def _measure(self, point, result) -> Dict[str, Any]:
        run_wall = _clock() - self._built_at
        pass_ = self._pass
        kind = point["cell"][0]
        self._setup = run_wall - result.execute_seconds
        if kind == "storage":
            problems = storage_cell_problems(result)
        else:
            problems = consensus_cell_problems(result)
            delay = result.worst_learner_delay
            if delay is not None:
                pass_.learn_max = max(pass_.learn_max or 0.0, delay)
        begun, completed = result.ops_begun(), result.ops_completed()
        network = result.adapter.network
        pass_.begun += begun
        pass_.completed += completed
        pass_.failed += failed_ops(begun, completed, problems)
        pass_.events += result.events_processed
        pass_.messages += network.sent_count
        if kind == "consensus":
            pass_.consensus_delivered += network.delivered_count
        history = result.server_history or {}
        pass_.retained_cells_max = max(
            pass_.retained_cells_max, history.get("max_retained_cells", 0)
        )
        for op_kind in STORAGE_KINDS:
            pass_.add_latency(op_kind, result.adapter.trace.accumulator(
                op_kind
            ))
        pass_.problems.extend(f"{kind} cell: {p}" for p in problems)
        return {"verdict": "failed" if problems else "ok"}

    def _progress(self, done, total, cell) -> None:
        now = _clock()
        pass_ = self._pass
        pass_.cell_s.append(now - self._last)
        pass_.cell_setup_s.append(self._setup if cell.ok else 0.0)
        self._setup = 0.0
        if not cell.ok:
            pass_.failed += 1
            pass_.begun += 1
            pass_.problems.append(f"cell {cell.point}: {cell.error}")
        if self._between is not None and done < total:
            cpu0 = cpu_seconds()
            self._between()
            self._excluded_cpu += cpu_seconds() - cpu0
            after = _clock()
            self._excluded_wall += after - now
            now = after
        self._last = now

    def run_pass(self, between=None) -> Pass:
        pass_ = self._pass = Pass()
        self._between = between
        self._excluded_wall = self._excluded_cpu = 0.0
        cpu0 = cpu_seconds()
        start = self._last = _clock()
        run_grid(self.sweep, progress=self._progress, keep_results=False)
        pass_.wall_s = _clock() - start - self._excluded_wall
        pass_.cpu_s = cpu_seconds() - cpu0 - self._excluded_cpu
        self._pass = self._between = None
        _finish_latency(pass_)
        return pass_


#: Workload name -> constructor ``(seed, size) -> Workload``.
WORKLOADS = {
    "rqs-soak": rqs_soak,
    "batched-soak": batched_soak,
    "sharded-zipf": sharded_zipf,
    "adversarial-grid": Grid,
}
