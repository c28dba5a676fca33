"""Online (streaming) analysis: latency accumulators and windowed checking.

Long horizon-free runs cannot afford the "materialize everything, check
at the end" pipeline — a million-operation soak would retain a million
:class:`~repro.sim.trace.OperationRecord` objects plus a million latency
samples before any checker even starts.  This module holds the streaming
counterparts consumed as operations *complete*:

* :class:`LatencyAccumulator` — count/mean/min/max plus a fixed-size
  quantile reservoir, fed one completed operation at a time.  Mean
  accounting is exact (an integer running sum over a power-of-two
  denominator — floats are dyadic rationals), so on FULL runs the
  accumulator-backed :meth:`~repro.analysis.latency.LatencySummary`
  matches the list-based ``summarize_rounds`` path bit for bit.
* :class:`QuantileReservoir` — a bounded uniform sample of the latency
  stream (deterministically seeded).  Below capacity it holds every
  sample, so small-run quantiles are exact; above capacity it degrades
  to a classic reservoir estimate with O(capacity) memory.

Both carry an **order-independent** ``merge`` classmethod: sharded
soaks (:mod:`repro.scenarios.sharding`) fold per-shard accumulators
into one aggregate whose value depends only on the multiset of inputs,
never on nondeterministic shard completion order — counts and the
rational time sum are commutative (merged means stay Fraction-exact),
and reservoir merging canonical-sorts candidates before any
deterministic subsampling.
* :class:`OnlineChecker` — a *windowed* per-key safety checker for
  single-writer keyed histories: monotone writer order, no fabrication,
  no reading the future, no stale reads (read-your-writes against every
  write that completed before the read started) and no read inversion,
  all checked as operations complete with bounded retained state.  The
  window floor is the oldest in-flight invocation; anything older is
  folded into per-key monotone bounds, so retained state is
  O(clients + keys) regardless of run length.
* :class:`MultiWriterOnlineChecker` — the multi-writer mode.  Write
  values are globally unique but *not* time-ordered across writers, so
  the SW value order is useless; instead the checker exploits the
  protocols' totally-ordered stamps ``seq·2²⁰ + writer_id`` (surfaced
  on ``record.meta["ts"]``) — a Gibbons–Korach-style polynomial check
  over the total stamp order: per-key monotone stamp bounds replace the
  value bounds, writes must stamp above everything completed before
  their invocation, and reads obey fabrication / future-read /
  stale-read / read-inversion over stamps.  A read returning a value
  whose write is still in flight is *parked* on that value and judged
  (claimed stamp vs. actual) when the write completes — the same window
  floor guarantees the deferred bounds stay exact.

The online checker is *sound within its window*: every violation it
reports is a real violation of the SWMR register semantics, and any
violation involving operations that overlap the retained window is
caught.  A read returning a value older than the pruned window is
reported through the monotone bound (as a stale read) rather than by
exact version lookup — the inherent trade of bounded-memory checking.
FULL-level runs keep the exact post-hoc checkers in
:mod:`repro.analysis.atomicity`; the windowed checker is what gives
``TraceLevel.METRICS`` soaks a real safety verdict without the history.

Values must be totally ordered per key in writer order — true for every
:class:`~repro.scenarios.workloads.RandomMix` workload (sequential
integer write values), which is the only workload shape the scenario
runner wires the checker to.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.storage.history import BOTTOM

#: Default bounded-sample size of the quantile reservoir.  Runs with at
#: most this many completions per operation kind get *exact* quantiles.
RESERVOIR_CAPACITY = 2048


def nearest_rank(sorted_samples, fraction: float) -> Optional[float]:
    """The nearest-rank percentile of an ascending sample list.

    Shared by the streaming reservoir and the list-based
    ``summarize_rounds`` so the two paths agree exactly whenever the
    reservoir holds the full stream.
    """
    if not sorted_samples:
        return None
    rank = max(1, -(-len(sorted_samples) * fraction // 1))  # ceil
    return sorted_samples[int(rank) - 1]


class QuantileReservoir:
    """A fixed-size uniform sample of a stream (Vitter's algorithm R).

    Deterministic: the replacement RNG is seeded at construction, and
    samples arrive in simulated-event order, so repeated runs of the
    same scenario produce identical estimates.
    """

    __slots__ = ("capacity", "seen", "_samples", "_sorted", "_rng")

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 9973):
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._rng = random.Random(seed)

    @property
    def exact(self) -> bool:
        """True while the reservoir still holds every observed sample."""
        return self.seen <= self.capacity

    def observe(self, sample: float) -> None:
        self.seen += 1
        self._sorted = None
        if len(self._samples) < self.capacity:
            self._samples.append(sample)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self._samples[slot] = sample

    def quantile(self, fraction: float) -> Optional[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return nearest_rank(self._sorted, fraction)

    @classmethod
    def merge(
        cls,
        reservoirs: Iterable["QuantileReservoir"],
        capacity: Optional[int] = None,
        seed: int = 9973,
    ) -> "QuantileReservoir":
        """Merge independent reservoirs into one, **order-independently**.

        The merged reservoir depends only on the *multiset* of input
        reservoirs, never on their iteration order (shard completion
        order is nondeterministic under multiprocessing).  Achieved by
        canonicalizing before any randomness: all candidate samples are
        sorted by ``(value, weight)``, and — only when they overflow
        ``capacity`` — an Efraimidis–Spirakis weighted subsample (each
        sample weighted by the share of its source stream it
        represents, ``seen / len(samples)``) is drawn with an RNG
        seeded purely from the merged totals.  Two candidates tied on
        ``(value, weight)`` are interchangeable, so the selected sample
        multiset is permutation-invariant.

        While every input is still :attr:`exact` and the union fits,
        the merge holds the exact union — merged quantiles then equal
        the single-stream reservoir's.  Merged reservoirs are terminal
        summaries: further :meth:`observe` calls would treat the
        subsample as a plain prefix and are not supported.
        """
        parts = [r for r in reservoirs if r.seen]
        if capacity is None:
            if not parts:
                raise ValueError("merge needs a capacity or a non-empty part")
            capacity = parts[0].capacity
        merged = cls(capacity, seed)
        merged.seen = sum(part.seen for part in parts)
        candidates: List[Tuple[float, float]] = []
        for part in parts:
            weight = part.seen / len(part._samples)
            candidates.extend((value, weight) for value in part._samples)
        candidates.sort()
        if len(candidates) <= capacity:
            merged._samples = [value for value, _ in candidates]
            return merged
        rng = random.Random(zlib.crc32(
            f"reservoir-merge:{seed}:{merged.seen}:{len(candidates)}"
            .encode()
        ))
        keyed = [
            (rng.random() ** (1.0 / weight), index)
            for index, (_, weight) in enumerate(candidates)
        ]
        keyed.sort(reverse=True)
        merged._samples = sorted(
            candidates[index][0] for _, index in keyed[:capacity]
        )
        return merged


class LatencyAccumulator:
    """Online latency aggregation for one operation kind.

    Tracks count, min/max/sum of self-reported round counts, min/max of
    completion times, an *exact* time sum (so means match the post-hoc
    path to the last bit) and a bounded quantile reservoir.
    O(reservoir capacity) memory however long the run.

    Every finite float is a dyadic rational ``n / 2**k``, so the time
    sum is kept as the integer numerator ``_time_num`` over the largest
    power-of-two denominator ``_time_den`` seen so far: one
    ``as_integer_ratio`` and a little integer arithmetic per
    observation, no ``Fraction`` arithmetic.
    """

    __slots__ = (
        "kind", "count", "rounds_sum", "min_rounds", "max_rounds",
        "_time_num", "_time_den", "min_time", "max_time", "reservoir",
    )

    def __init__(self, kind: str, capacity: int = RESERVOIR_CAPACITY):
        self.kind = kind
        self.count = 0
        self.rounds_sum = 0
        self.min_rounds: Optional[int] = None
        self.max_rounds: Optional[int] = None
        self._time_num = 0
        self._time_den = 1
        self.min_time: Optional[float] = None
        self.max_time: Optional[float] = None
        self.reservoir = QuantileReservoir(capacity)

    def observe(self, rounds: int, elapsed: float) -> None:
        """Fold one completed operation into the summary."""
        self.count += 1
        self.rounds_sum += rounds
        if self.min_rounds is None or rounds < self.min_rounds:
            self.min_rounds = rounds
        if self.max_rounds is None or rounds > self.max_rounds:
            self.max_rounds = rounds
        num, den = elapsed.as_integer_ratio()
        if den > self._time_den:
            self._time_num *= den // self._time_den
            self._time_den = den
        self._time_num += num * (self._time_den // den)
        if self.min_time is None or elapsed < self.min_time:
            self.min_time = elapsed
        if self.max_time is None or elapsed > self.max_time:
            self.max_time = elapsed
        self.reservoir.observe(elapsed)

    @property
    def _time_sum(self) -> Fraction:
        """The exact sum of every observed elapsed time."""
        return Fraction(self._time_num, self._time_den)

    @property
    def mean_rounds(self) -> Optional[float]:
        if not self.count:
            return None
        return round(self.rounds_sum / self.count, 3)

    @property
    def mean_time(self) -> Optional[float]:
        if not self.count:
            return None
        return round(float(self._time_sum / self.count), 6)

    def quantile(self, fraction: float) -> Optional[float]:
        return self.reservoir.quantile(fraction)

    @classmethod
    def merge(
        cls,
        accumulators: Iterable["LatencyAccumulator"],
        kind: Optional[str] = None,
    ) -> "LatencyAccumulator":
        """Merge per-shard accumulators of one kind, order-independently.

        Counts, round sums, min/max bounds and the exact integer time
        sum are commutative, so the merged mean is Fraction-exact — the
        union of shard streams yields the same ``mean_time`` to the
        last bit as a single-process run over the same completions.
        Quantiles delegate to :meth:`QuantileReservoir.merge` (exact
        while every shard stayed below reservoir capacity).
        """
        parts = list(accumulators)
        if not parts:
            raise ValueError("merge needs at least one accumulator")
        kinds = {part.kind for part in parts}
        if kind is None:
            if len(kinds) != 1:
                raise ValueError(
                    f"merge mixes operation kinds {sorted(kinds)}; "
                    f"pass kind= explicitly"
                )
            kind = parts[0].kind
        merged = cls(kind, parts[0].reservoir.capacity)
        merged.count = sum(part.count for part in parts)
        merged.rounds_sum = sum(part.rounds_sum for part in parts)
        merged._time_den = max(part._time_den for part in parts)
        merged._time_num = sum(
            part._time_num * (merged._time_den // part._time_den)
            for part in parts
        )
        for name, pick in (
            ("min_rounds", min), ("max_rounds", max),
            ("min_time", min), ("max_time", max),
        ):
            bounds = [
                value for part in parts
                if (value := getattr(part, name)) is not None
            ]
            setattr(merged, name, pick(bounds) if bounds else None)
        merged.reservoir = QuantileReservoir.merge(
            (part.reservoir for part in parts),
            capacity=merged.reservoir.capacity,
        )
        return merged


# -- the windowed online checker ----------------------------------------------

@dataclass(frozen=True)
class OnlineViolation:
    """One safety violation caught by the windowed checker."""

    rule: str
    key: Hashable
    description: str

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"[{self.rule}] key={self.key!r}: {self.description}"


@dataclass
class OnlineReport:
    """The windowed checker's verdict for one streamed execution.

    ``max_retained`` is the (periodically sampled) high-water mark of
    everything the checker holds across all keys — the bounded-memory
    exhibit CI gates on.  ``overrun_unchecked`` counts operations that
    outlived the window (a stuck client's op completing after the
    window moved past its invocation): they are skipped rather than
    misjudged against bounds newer than their invocation, so the
    verdict stays sound.
    """

    checked_writes: int
    checked_reads: int
    violation_count: int
    violations: Tuple[OnlineViolation, ...]  # first few, for reporting
    keys: Tuple[Hashable, ...]
    max_retained: int  # high-water mark of retained per-key entries
    overrun_unchecked: int = 0
    windowed: bool = True
    mode: str = "sw"  # "sw" (value-ordered) | "mw" (stamp-ordered)

    @property
    def atomic(self) -> bool:
        return self.violation_count == 0

    @property
    def verdict(self) -> str:
        """The sweep-table verdict string (``"atomic"``/``"violation"``)."""
        return "atomic" if self.atomic else "violation"

    @property
    def checked_ops(self) -> int:
        return self.checked_writes + self.checked_reads

    def as_metrics(self) -> Dict[str, Any]:
        """The portable metrics view of this verdict — the one shape
        every emitter (sweep measure hooks, the soak experiment, the
        workload bench) embeds, so artifact fields cannot drift."""
        return {
            "atomic": self.atomic,
            "violations": self.violation_count,
            "keys_checked": len(self.keys),
            "checker_max_retained": self.max_retained,
            "checker_mode": self.mode,
        }


@dataclass(frozen=True)
class OnlineRefusal:
    """A structured reason why a run carries no online verdict.

    The scenario runner attaches one wherever it declines to wire an
    online checker, so ``RunResult.online is None`` always comes with a
    machine-readable explanation instead of a bare refusal.
    """

    reason: str  # short token, e.g. "workload-shape"
    detail: str  # human-readable explanation

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"online checker not wired ({self.reason}): {self.detail}"


class _KeyState:
    """Bounded per-register state: windowed writes plus monotone bounds."""

    __slots__ = (
        "written", "write_times", "write_values",
        "read_times", "read_values", "base_write_bound", "base_read_bound",
        "pruned_at",
    )

    def __init__(self):
        # value -> (invoked_at, completed_at) for writes still in window.
        self.written: Dict[Any, Tuple[float, float]] = {}
        # Completed writes, completion-ordered; values are monotone for
        # a sequential single writer, so these are cummax series.
        self.write_times: List[float] = []
        self.write_values: List[Any] = []
        # Running max of completed read versions, completion-ordered.
        self.read_times: List[float] = []
        self.read_values: List[Any] = []
        # Folded-away window prefix: the newest value guaranteed visible
        # to (written before) every still-checkable operation.
        self.base_write_bound: Optional[Any] = None
        self.base_read_bound: Optional[Any] = None
        # The floor of the last prune (None: never pruned).
        self.pruned_at: Optional[float] = None

    def write_bound(self, before: float) -> Optional[Any]:
        """Newest value whose write completed strictly before ``before``."""
        index = bisect_left(self.write_times, before)
        if index:
            return self.write_values[index - 1]
        return self.base_write_bound

    def read_bound(self, before: float) -> Optional[Any]:
        """Newest value returned by a read completed strictly before
        ``before``."""
        index = bisect_left(self.read_times, before)
        if index:
            return self.read_values[index - 1]
        return self.base_read_bound

    def prune(self, floor: float) -> None:
        """Fold state older than the window ``floor`` into the bounds."""
        index = bisect_left(self.write_times, floor)
        if index:
            self.base_write_bound = self.write_values[index - 1]
            del self.write_times[:index]
            del self.write_values[:index]
        index = bisect_left(self.read_times, floor)
        if index:
            self.base_read_bound = self.read_values[index - 1]
            del self.read_times[:index]
            del self.read_values[:index]
        if self.base_write_bound is not None and self.written:
            bound = self.base_write_bound
            stale = [
                value
                for value, (_, completed_at) in self.written.items()
                if completed_at is not None
                and completed_at < floor
                and _ordered_less(value, bound)
            ]
            for value in stale:
                del self.written[value]
        self.pruned_at = floor

    def retained(self) -> int:
        return (
            len(self.written) + len(self.write_times) + len(self.read_times)
        )


def _ordered_less(left: Any, right: Any) -> bool:
    try:
        return left < right
    except TypeError:
        return False


class OnlineChecker:
    """Windowed online safety checking for single-writer keyed histories.

    Subscribe it to a :class:`~repro.sim.trace.Trace`
    (``trace.subscribe(on_begin=..., on_complete=...)``); it consumes
    operation records as they begin and complete and never stores the
    history.  See the module docstring for the invariants and the
    windowing trade.
    """

    #: An in-flight op older than this many ops evicts from the window
    #: (a stuck client must not pin the floor and regrow O(ops) state).
    OVERRUN_OPS = 5_000
    #: Completions between global prune/measure sweeps (amortizes the
    #: O(keys) sweep to O(1) per completion).
    SWEEP_EVERY = 256
    #: Report mode token; the MW subclass overrides both of these.
    mode = "sw"
    key_state_factory = _KeyState

    def __init__(self, max_reported: int = 20,
                 overrun_ops: int = OVERRUN_OPS):
        self.max_reported = max_reported
        self.overrun_ops = overrun_ops
        self.checked_writes = 0
        self.checked_reads = 0
        self.violation_count = 0
        self.overrun_unchecked = 0
        self.violations: List[OnlineViolation] = []
        self.max_retained = 0
        self._keys: Dict[Hashable, _KeyState] = {}
        # op_id -> invoked_at of every in-flight storage operation, in
        # begin (= op id) order; its minimum invocation is the window
        # floor nothing older than which can still be referenced by a
        # future completion.
        self._pending: Dict[int, float] = {}
        # Lazy-deletion min-heap of (invoked_at, op_id) over everything
        # begun: entries whose op left _pending are dropped when they
        # surface, so the top is the floor without scanning _pending.
        self._floor_heap: List[Tuple[float, int]] = []
        # Ops evicted from the window (stuck clients): skipped, never
        # misjudged, if they eventually complete.  Bounded by the
        # number of clients that ever stalled past the overrun bound.
        self._overrun: set = set()
        self._max_op_id = -1
        self._floor = float("-inf")
        self._since_sweep = 0

    # -- trace subscription ---------------------------------------------------

    def on_begin(self, record) -> None:
        """Open one storage op's window entry.

        Storage op ids must increase in begin order (a
        :class:`~repro.sim.trace.Trace` numbers them so): stuck-op
        eviction relies on ``_pending`` being op-id ordered.  Invocation
        *times* may arrive in any order.
        """
        if record.kind not in ("write", "read"):
            return
        op_id = record.op_id
        if op_id <= self._max_op_id:
            raise ValueError(
                f"storage op ids must increase in begin order: op "
                f"{op_id!r} began after op {self._max_op_id!r}"
            )
        self._max_op_id = op_id
        self._pending[op_id] = record.invoked_at
        heappush(self._floor_heap, (record.invoked_at, op_id))
        if record.kind == "write":
            self._begin_write(record)

    def _begin_write(self, record) -> None:
        self._state(record.key).written[record.value] = (
            record.invoked_at, None
        )

    def on_complete(self, record) -> None:
        if record.kind not in ("write", "read"):
            return
        if record.op_id in self._overrun:
            # The window moved past this op while it was stuck; its
            # bounds are gone, so judging it now could flag legal
            # behaviour.  Skip it, visibly.
            self._overrun.discard(record.op_id)
            self.overrun_unchecked += 1
            return
        if record.kind == "write":
            self._complete_write(record)
        else:
            self._complete_read(record)
        pending = self._pending
        pending.pop(record.op_id, None)
        # Evict stuck in-flight ops so they cannot pin the floor and
        # regrow O(ops) retained state (the crashed-reader case).
        # _pending is op-id ordered, so the stuck ops are its prefix.
        horizon = self._max_op_id - self.overrun_ops
        while pending:
            oldest = next(iter(pending))
            if oldest >= horizon:
                break
            del pending[oldest]
            self._evict(oldest)
        heap = self._floor_heap
        while heap and heap[0][1] not in pending:
            heappop(heap)
        if len(heap) > 2 * self.overrun_ops:
            # Only feeds whose invocation times run against op-id order
            # can strand this many finished entries below the top.
            heap[:] = [(at, op) for op, at in pending.items()]
            heapify(heap)
        floor = self._floor = heap[0][0] if heap else record.completed_at
        # Pruning is idempotent at a fixed floor as long as the new
        # entry does not predate it (always so for simulator feeds).
        state = self._keys[record.key]
        if state.pruned_at != floor or record.completed_at < floor:
            state.prune(floor)
        # Periodic global sweep: prune every key to the shared floor
        # and sample the total retained state for the high-water mark
        # (O(keys) amortized over SWEEP_EVERY completions).
        self._since_sweep += 1
        if self._since_sweep >= self.SWEEP_EVERY:
            self._sweep()

    def _evict(self, op_id: int) -> None:
        """Move one stuck op out of the window (subclass hook)."""
        self._overrun.add(op_id)

    def _sweep(self) -> None:
        self._since_sweep = 0
        retained = len(self._pending) + len(self._overrun)
        for state in self._keys.values():
            state.prune(self._floor)
            retained += state.retained()
        if retained > self.max_retained:
            self.max_retained = retained

    # -- the rules ------------------------------------------------------------

    def _state(self, key: Hashable):
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = self.key_state_factory()
        return state

    def _complete_write(self, record) -> None:
        self.checked_writes += 1
        state = self._state(record.key)
        state.written[record.value] = (
            record.invoked_at, record.completed_at
        )
        if state.write_values and not _ordered_less(
            state.write_values[-1], record.value
        ):
            self._flag(
                "writer-order",
                record.key,
                f"write {record.value!r} completed after "
                f"{state.write_values[-1]!r} but does not supersede it "
                f"(single-writer per-key values must be monotone)",
            )
            return
        state.write_times.append(record.completed_at)
        state.write_values.append(record.value)

    def _complete_read(self, record) -> None:
        self.checked_reads += 1
        state = self._state(record.key)
        value = record.result
        write_bound = state.write_bound(record.invoked_at)
        read_bound = state.read_bound(record.invoked_at)
        if value is BOTTOM:
            if write_bound is not None:
                self._flag(
                    "stale-read",
                    record.key,
                    f"read by {record.process} returned ⊥ although the "
                    f"write of {write_bound!r} completed before it started",
                )
            elif read_bound is not None:
                self._flag(
                    "read-inversion",
                    record.key,
                    f"read by {record.process} returned ⊥ although a "
                    f"preceding read returned {read_bound!r}",
                )
            return
        window = state.written.get(value)
        if window is None:
            if write_bound is not None and _ordered_less(value, write_bound):
                # Older than the retained window: superseded by a write
                # that completed before this read started.
                self._flag(
                    "stale-read",
                    record.key,
                    f"read by {record.process} returned {value!r} although "
                    f"the write of {write_bound!r} completed before it "
                    f"started",
                )
            else:
                self._flag(
                    "fabrication",
                    record.key,
                    f"read by {record.process} returned {value!r}, which "
                    f"no write wrote to this register",
                )
            return
        invoked_at, _ = window
        if invoked_at > record.completed_at:
            self._flag(
                "future-read",
                record.key,
                f"read by {record.process} returned {value!r}, whose "
                f"write was invoked only after the read completed",
            )
        if write_bound is not None and _ordered_less(value, write_bound):
            self._flag(
                "stale-read",
                record.key,
                f"read by {record.process} returned {value!r} although "
                f"the write of {write_bound!r} completed before it started",
            )
        if read_bound is not None and _ordered_less(value, read_bound):
            self._flag(
                "read-inversion",
                record.key,
                f"read by {record.process} returned {value!r} although a "
                f"preceding read returned {read_bound!r}",
            )
        if not state.read_values or _ordered_less(
            state.read_values[-1], value
        ):
            state.read_times.append(record.completed_at)
            state.read_values.append(value)

    def _flag(self, rule: str, key: Hashable, description: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_reported:
            self.violations.append(OnlineViolation(rule, key, description))

    # -- reporting ------------------------------------------------------------

    def report(self) -> OnlineReport:
        self._sweep()   # final measurement (runs shorter than a sweep)
        return OnlineReport(
            checked_writes=self.checked_writes,
            checked_reads=self.checked_reads,
            violation_count=self.violation_count,
            violations=tuple(self.violations),
            keys=tuple(sorted(self._keys, key=repr)),
            max_retained=self.max_retained,
            overrun_unchecked=self.overrun_unchecked,
            mode=self.mode,
        )


class _MwKeyState:
    """Bounded per-register state for the multi-writer checker.

    Mirrors :class:`_KeyState` with the total stamp order in place of
    the single-writer value order: the window maps *stamps* to their
    writes, the cummax series carry stamps, and reads whose write is
    still in flight park on the (globally unique) value until the write
    completes and reveals its actual stamp.
    """

    __slots__ = (
        "window", "stamp_of", "inflight", "evicted", "parked",
        "write_times", "write_stamps", "read_times", "read_stamps",
        "base_write_bound", "base_read_bound", "pruned_at",
    )

    def __init__(self):
        # stamp -> (invoked_at, completed_at, value) for windowed writes.
        self.window: Dict[int, Tuple[float, float, Any]] = {}
        # value -> stamp for windowed writes (values are unique per key).
        self.stamp_of: Dict[Any, int] = {}
        # value -> invoked_at of begun-but-incomplete writes.
        self.inflight: Dict[Any, float] = {}
        # Values of writes evicted from the window while in flight:
        # reads returning them are skipped (overrun), never misjudged.
        self.evicted: set = set()
        # value -> [(reader process, claimed stamp), ...] of reads that
        # returned an in-flight write; resolved at write completion.
        self.parked: Dict[Any, List[Tuple[Any, int]]] = {}
        # Cummax series of completed write/read stamps, completion-
        # ordered, bisected by the bound queries below.
        self.write_times: List[float] = []
        self.write_stamps: List[int] = []
        self.read_times: List[float] = []
        self.read_stamps: List[int] = []
        self.base_write_bound: Optional[int] = None
        self.base_read_bound: Optional[int] = None
        self.pruned_at: Optional[float] = None

    def write_bound(self, before: float) -> Optional[int]:
        """Highest stamp whose write completed strictly before ``before``."""
        index = bisect_left(self.write_times, before)
        if index:
            return self.write_stamps[index - 1]
        return self.base_write_bound

    def read_bound(self, before: float) -> Optional[int]:
        """Highest stamp returned by a read completed strictly before
        ``before``."""
        index = bisect_left(self.read_times, before)
        if index:
            return self.read_stamps[index - 1]
        return self.base_read_bound

    def prune(self, floor: float) -> None:
        """Fold state older than the window ``floor`` into the bounds."""
        index = bisect_left(self.write_times, floor)
        if index:
            self.base_write_bound = self.write_stamps[index - 1]
            del self.write_times[:index]
            del self.write_stamps[:index]
        index = bisect_left(self.read_times, floor)
        if index:
            self.base_read_bound = self.read_stamps[index - 1]
            del self.read_times[:index]
            del self.read_stamps[:index]
        if self.base_write_bound is not None and self.window:
            bound = self.base_write_bound
            stale = [
                stamp
                for stamp, (_, completed_at, _value) in self.window.items()
                if completed_at < floor and stamp < bound
            ]
            for stamp in stale:
                value = self.window.pop(stamp)[2]
                if self.stamp_of.get(value) == stamp:
                    del self.stamp_of[value]
        self.pruned_at = floor

    def retained(self) -> int:
        return (
            len(self.window)
            + len(self.inflight)
            + len(self.evicted)
            + sum(len(waiting) for waiting in self.parked.values())
            + len(self.write_times)
            + len(self.read_times)
        )


class MultiWriterOnlineChecker(OnlineChecker):
    """Windowed online safety checking for *multi-writer* keyed histories.

    The polynomial MW mode: all rules run over the protocols' totally
    ordered stamps ``seq·2²⁰ + writer_id`` (see
    :func:`repro.storage.history.make_stamp`), which every storage
    protocol surfaces on ``record.meta["ts"]`` before completing an
    operation.  Checked per key, as operations complete:

    * **stamp-order** — a write's stamp must exceed the stamp of every
      write that completed before it was invoked (quorum discovery
      guarantees this for intersecting-quorum protocols);
    * **stamp-reuse** — two completed writes must never share a stamp;
    * **fabrication** — a read's returned (value, stamp) must match a
      write of this register;
    * **future-read** — a read must not return a write invoked only
      after the read completed;
    * **stale-read** — a read's stamp must not be below the highest
      stamp whose write completed before the read was invoked (and ⊥
      reads must not follow any completed write);
    * **read-inversion** — a read's stamp must not be below the highest
      stamp returned by a read that completed before this one started.

    A read returning a value whose write is still in flight is legal
    (the write may linearize before the read); the claimed-stamp match
    is deferred until the write completes.  Soundness under windowing is
    as in the SW checker: the floor is the oldest in-flight invocation,
    so every bound consulted for a completing operation is exact.
    """

    mode = "mw"
    key_state_factory = _MwKeyState

    def __init__(self, max_reported: int = 20,
                 overrun_ops: int = OnlineChecker.OVERRUN_OPS):
        super().__init__(max_reported=max_reported, overrun_ops=overrun_ops)
        # op_id -> (key, value) of in-flight writes, for eviction.
        self._pending_writes: Dict[int, Tuple[Hashable, Any]] = {}

    def _begin_write(self, record) -> None:
        self._pending_writes[record.op_id] = (record.key, record.value)
        self._state(record.key).inflight[record.value] = record.invoked_at

    def _evict(self, op_id: int) -> None:
        super()._evict(op_id)
        entry = self._pending_writes.pop(op_id, None)
        if entry is not None:
            key, value = entry
            state = self._state(key)
            state.inflight.pop(value, None)
            state.evicted.add(value)
            waiting = state.parked.pop(value, None)
            if waiting:
                self.overrun_unchecked += len(waiting)

    # -- the rules ------------------------------------------------------------

    def _complete_write(self, record) -> None:
        self.checked_writes += 1
        self._pending_writes.pop(record.op_id, None)
        state = self._state(record.key)
        state.inflight.pop(record.value, None)
        stamp = record.meta.get("ts")
        if stamp is None:
            self._flag(
                "missing-stamp",
                record.key,
                f"write {record.value!r} completed without a protocol "
                f"stamp in record.meta['ts']",
            )
            waiting = state.parked.pop(record.value, None)
            if waiting:
                self.overrun_unchecked += len(waiting)
            return
        bound = state.write_bound(record.invoked_at)
        if stamp in state.window:
            self._flag(
                "stamp-reuse",
                record.key,
                f"write {record.value!r} completed with stamp {stamp}, "
                f"already used by write "
                f"{state.window[stamp][2]!r}",
            )
        elif bound is not None and stamp <= bound:
            self._flag(
                "stamp-order",
                record.key,
                f"write {record.value!r} got stamp {stamp} although a "
                f"write with stamp {bound} completed before it was "
                f"invoked (stamps must respect real-time order)",
            )
        state.window[stamp] = (
            record.invoked_at, record.completed_at, record.value
        )
        state.stamp_of[record.value] = stamp
        if not state.write_stamps or stamp > state.write_stamps[-1]:
            state.write_times.append(record.completed_at)
            state.write_stamps.append(stamp)
        waiting = state.parked.pop(record.value, None)
        if waiting:
            for process, claimed in waiting:
                if claimed != stamp:
                    self._flag(
                        "fabrication",
                        record.key,
                        f"read by {process} returned {record.value!r} "
                        f"with stamp {claimed}, but its write carried "
                        f"stamp {stamp}",
                    )

    def _complete_read(self, record) -> None:
        self.checked_reads += 1
        state = self._state(record.key)
        value = record.result
        write_bound = state.write_bound(record.invoked_at)
        read_bound = state.read_bound(record.invoked_at)
        if value is BOTTOM:
            if write_bound is not None:
                self._flag(
                    "stale-read",
                    record.key,
                    f"read by {record.process} returned ⊥ although a "
                    f"write with stamp {write_bound} completed before it "
                    f"started",
                )
            elif read_bound is not None:
                self._flag(
                    "read-inversion",
                    record.key,
                    f"read by {record.process} returned ⊥ although a "
                    f"preceding read returned stamp {read_bound}",
                )
            return
        stamp = record.meta.get("ts")
        if stamp is None:
            self._flag(
                "missing-stamp",
                record.key,
                f"read by {record.process} returned {value!r} without a "
                f"protocol stamp in record.meta['ts']",
            )
            return
        stale = write_bound is not None and stamp < write_bound
        if stale:
            self._flag(
                "stale-read",
                record.key,
                f"read by {record.process} returned {value!r} with stamp "
                f"{stamp} although a write with stamp {write_bound} "
                f"completed before it started",
            )
        if read_bound is not None and stamp < read_bound:
            self._flag(
                "read-inversion",
                record.key,
                f"read by {record.process} returned {value!r} with stamp "
                f"{stamp} although a preceding read returned stamp "
                f"{read_bound}",
            )
        entry = state.window.get(stamp)
        if entry is not None:
            write_invoked, _, written_value = entry
            if written_value != value:
                self._flag(
                    "fabrication",
                    record.key,
                    f"read by {record.process} returned {value!r} with "
                    f"stamp {stamp}, but that stamp's write wrote "
                    f"{written_value!r}",
                )
            elif write_invoked > record.completed_at:
                self._flag(
                    "future-read",
                    record.key,
                    f"read by {record.process} returned {value!r}, whose "
                    f"write was invoked only after the read completed",
                )
        elif value in state.inflight:
            # Legal: the write may linearize before this read.  Defer
            # the claimed-stamp match to the write's completion.
            state.parked.setdefault(value, []).append(
                (record.process, stamp)
            )
        elif value in state.evicted:
            # The write outlived the window; its stamp is unknowable
            # now.  Skip, visibly, instead of misjudging.
            self.overrun_unchecked += 1
            return
        elif not stale:
            # Not a windowed write, not in flight, not superseded by a
            # newer completed write (which would have been pruned-and-
            # flagged above): nothing ever wrote this (value, stamp).
            self._flag(
                "fabrication",
                record.key,
                f"read by {record.process} returned {value!r} with stamp "
                f"{stamp}, which no write of this register produced",
            )
        if not state.read_stamps or stamp > state.read_stamps[-1]:
            state.read_times.append(record.completed_at)
            state.read_stamps.append(stamp)
