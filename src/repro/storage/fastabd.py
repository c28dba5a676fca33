"""The Section 1.2 fast variant of ABD (the paper's motivating example).

Five servers, ``t = 2`` crash failures, no Byzantine behaviour.  Servers
keep **two** slots, ``pw`` (pre-write) and ``w`` (write):

* ``write(v)``: round 1 writes ``⟨ts, v⟩`` into every server's ``pw`` and
  waits ``2Δ`` for acks.  If **4** servers (a class-1 quorum) acked, the
  write completes in one round.  Otherwise round 2 writes ``⟨ts, v⟩``
  into ``w`` and completes on ``n − t = 3`` acks.
* ``read()``: round 1 collects ``(pw, w)`` from ``n − t = 3`` servers
  (waiting out ``2Δ`` to hear from more).  The pair ``cmax`` with the
  highest timestamp is selected; the read returns after round 1 iff
  ``cmax`` was seen in at least 3 ``pw`` fields or in *some* ``w`` field.
  Otherwise round 2 writes ``cmax`` back into ``pw`` at 3 servers.

The correctness hinges on ``Q'1 ∩ Q'2 ∩ Q3 ≠ ∅`` for 4-element fast
quorums (Figure 2(b)); :mod:`repro.storage.naive` shows what happens with
3-element fast quorums instead (Figure 1 / Figure 2(a)).

The implementation is parameterized by ``(n, t, fast)`` with the paper's
instance as defaults (``n=5, t=2, fast=4``).  The register space is
keyed (independent ``pw``/``w`` slots per key); multi-writer
deployments discover the highest stored timestamp with an ``n − t``
collect round and stamp ``(seq, writer_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.sim.conditions import AckSet, AllOf, ConditionMap, Counter
from repro.sim.network import Message, Network, Rule, TraceLevel
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.tasks import WaitUntil
from repro.sim.trace import OperationRecord, Trace
from repro.storage.batching import (
    BatchAck,
    BatchAcks,
    ReadBatch,
    ReadBatchAck,
    WriteBatch,
    distinct_keys,
)
from repro.storage.history import DEFAULT_KEY, INITIAL_PAIR, Pair
from repro.storage.stamping import DiscoveryInbox, StampIssuer, writer_fleet


@dataclass(frozen=True, slots=True)
class FWrite:
    """Write ``pair`` into ``slot`` (``"pw"`` or ``"w"``)."""

    ts: int
    value: Any
    slot: str
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class FWriteAck:
    ts: int
    slot: str
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class FRead:
    read_no: int
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class FReadAck:
    read_no: int
    pw: Pair
    w: Pair
    key: Hashable = DEFAULT_KEY


class FastAbdServer(Process):
    """Keeps the two timestamp/value variables ``pw`` and ``w`` per key."""

    def __init__(self, pid: Hashable):
        super().__init__(pid)
        self.slots: Dict[Hashable, Dict[str, Pair]] = {}

    def _slots_for(self, key: Hashable) -> Dict[str, Pair]:
        slots = self.slots.get(key)
        if slots is None:
            slots = self.slots[key] = {"pw": INITIAL_PAIR, "w": INITIAL_PAIR}
        return slots

    @property
    def pw(self) -> Pair:
        return self._slots_for(DEFAULT_KEY)["pw"]

    @property
    def w(self) -> Pair:
        return self._slots_for(DEFAULT_KEY)["w"]

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, FWrite):
            slots = self._slots_for(payload.key)
            pair = Pair(payload.ts, payload.value)
            if payload.ts > slots[payload.slot].ts:
                slots[payload.slot] = pair
            self.send(
                message.src,
                FWriteAck(payload.ts, payload.slot, payload.key),
            )
        elif isinstance(payload, FRead):
            slots = self._slots_for(payload.key)
            self.send(
                message.src,
                FReadAck(payload.read_no, slots["pw"], slots["w"],
                         payload.key),
            )
        elif isinstance(payload, WriteBatch):
            # Batched slot writes: every element targets the batch's
            # slot (pre-write round vs write round), one ack for all.
            for ts, value, key in payload.ops:
                slots = self._slots_for(key)
                if ts > slots[payload.slot].ts:
                    slots[payload.slot] = Pair(ts, value)
            self.send(message.src, BatchAck(payload.batch_no, payload.rnd))
        elif isinstance(payload, ReadBatch):
            replies = []
            for key in payload.keys:
                slots = self._slots_for(key)
                replies.append((slots["pw"], slots["w"]))
            self.send(
                message.src,
                ReadBatchAck(payload.read_no, payload.rnd, tuple(replies)),
            )


class FastAbdWriter(Process):
    def __init__(
        self,
        pid: Hashable,
        servers: Tuple[Hashable, ...],
        trace: Trace,
        t: int,
        fast: int,
        delta: float = 1.0,
        writer_id: Optional[int] = None,
    ):
        super().__init__(pid)
        self.servers = servers
        self.trace = trace
        self.slow = len(servers) - t
        self.fast = fast
        self.timeout = 2.0 * delta
        self.stamps = StampIssuer(writer_id)
        self._acks = ConditionMap(AckSet, "fast wr key={} ts={} {}")
        self._discovery = DiscoveryInbox("fast ts-discovery#{}")
        self._batches = BatchAcks("fast wr batch#{} rnd={}")

    @property
    def ts(self) -> int:
        return self.stamps.seq()

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, FWriteAck):
            # peek, not create: straggler acks for completed writes are
            # dropped instead of resurrecting pruned responder sets.
            acks = self._acks.peek(payload.key, payload.ts, payload.slot)
            if acks is not None:
                acks.add(message.src)
        elif isinstance(payload, FReadAck):
            self._discovery.record(payload.read_no, message.src, payload)
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, message.src)
        elif isinstance(payload, ReadBatchAck):
            self._discovery.record(payload.read_no, message.src,
                                   payload.replies)

    def write(self, value: Any, key: Hashable = DEFAULT_KEY):
        record = self.trace.begin("write", self.pid, self.sim.now, value,
                                  key=key)
        if not self.stamps.multi_writer:
            ts, extra_rounds = self.stamps.bare(key), 0
        else:
            number = self._discovery.open()
            discovery_acks = self._discovery.responders(number)
            for server in self.servers:
                self.send(server, FRead(number, key))
            yield WaitUntil(
                discovery_acks.at_least(self.slow),
                f"fast-write ts-discovery#{number}",
            )
            acks = self._discovery.close(number)
            observed = max(max(a.pw.ts, a.w.ts) for a in acks.values())
            ts, extra_rounds = self.stamps.stamped(key, observed), 1
        # Surface the timestamp for the stamp-ordered online checker.
        record.meta["ts"] = ts
        pw_acks = self._acks(key, ts, "pw")
        for server in self.servers:
            self.send(server, FWrite(ts, value, "pw", key))
        timer = self.sim.timer_at(self.sim.now + self.timeout)
        yield WaitUntil(
            AllOf(timer, pw_acks.at_least(self.slow)),
            f"fast-write ts={ts} round 1",
        )
        if len(pw_acks) >= self.fast:
            self._retire(ts, key)
            self.trace.complete(record, self.sim.now, "OK",
                                rounds=1 + extra_rounds)
            return record
        w_acks = self._acks(key, ts, "w")
        for server in self.servers:
            self.send(server, FWrite(ts, value, "w", key))
        yield WaitUntil(
            w_acks.at_least(self.slow),
            f"fast-write ts={ts} round 2",
        )
        self._retire(ts, key)
        self.trace.complete(record, self.sim.now, "OK",
                            rounds=2 + extra_rounds)
        return record

    def _retire(self, ts: int, key: Hashable) -> None:
        for slot in ("pw", "w"):
            self._acks.discard(key, ts, slot)

    def write_batch(self, elems: List[Tuple[Any, Hashable]]):
        """One batched pre-write round (+ fast-path check) for
        ``[(value, key), ...]``; the shared responder set makes the
        4-ack fast decision hold per element exactly as unbatched."""
        now = self.sim.now
        records = [
            self.trace.begin("write", self.pid, now, value, key=key)
            for value, key in elems
        ]
        if not self.stamps.multi_writer:
            stamps = [self.stamps.bare(key) for _, key in elems]
            extra_rounds = 0
        else:
            keys = distinct_keys(elems)
            number = self._discovery.open()
            discovery_acks = self._discovery.responders(number)
            collect = ReadBatch(number, 0, keys)
            for server in self.servers:
                self.send(server, collect)
            yield WaitUntil(
                discovery_acks.at_least(self.slow),
                f"fast-write batch ts-discovery#{number}",
            )
            acks = self._discovery.close(number)
            observed = {
                key: max(
                    max(replies[i][0].ts, replies[i][1].ts)
                    for replies in acks.values()
                )
                for i, key in enumerate(keys)
            }
            stamps = [
                self.stamps.stamped(key, observed[key]) for _, key in elems
            ]
            extra_rounds = 1
        for record, ts in zip(records, stamps):
            record.meta["ts"] = ts
        ops = tuple(
            (ts, value, key) for ts, (value, key) in zip(stamps, elems)
        )
        number = self._batches.open()
        pw_acks = self._batches.responders(number, 1)
        for server in self.servers:
            self.send(server, WriteBatch(number, 1, "pw", ops, frozenset()))
        timer = self.sim.timer_at(self.sim.now + self.timeout)
        yield WaitUntil(
            AllOf(timer, pw_acks.at_least(self.slow)),
            f"fast-write batch#{number} round 1",
        )
        if len(pw_acks) >= self.fast:
            self._batches.close(number, 1)
            now = self.sim.now
            for record in records:
                self.trace.complete(record, now, "OK",
                                    rounds=1 + extra_rounds)
            return records
        w_acks = self._batches.responders(number, 2)
        for server in self.servers:
            self.send(server, WriteBatch(number, 2, "w", ops, frozenset()))
        yield WaitUntil(
            w_acks.at_least(self.slow),
            f"fast-write batch#{number} round 2",
        )
        self._batches.close(number, 1, 2)
        now = self.sim.now
        for record in records:
            self.trace.complete(record, now, "OK", rounds=2 + extra_rounds)
        return records


class FastAbdReader(Process):
    def __init__(
        self,
        pid: Hashable,
        servers: Tuple[Hashable, ...],
        trace: Trace,
        t: int,
        delta: float = 1.0,
    ):
        super().__init__(pid)
        self.servers = servers
        self.trace = trace
        self.slow = len(servers) - t
        self.timeout = 2.0 * delta
        self.read_no = 0
        self._acks: Dict[int, Dict[Hashable, FReadAck]] = {}
        self._replies = ConditionMap(Counter, "fast rd#{}")
        self._wb = ConditionMap(AckSet, "fast wb key={} ts={} {}")
        # Newest retained write-back timestamp per key (see AbdReader:
        # write-back timestamps are monotone per reader, so superseded
        # responder sets are pruned, same-timestamp ones reused).
        self._wb_ts: Dict[Hashable, int] = {}
        self._batches = BatchAcks("fast rd-wb batch#{} rnd={}")
        self._batch_replies: Dict[
            int, Dict[Hashable, Tuple[Tuple[Pair, Pair], ...]]
        ] = {}

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, FReadAck):
            replies = self._acks.get(payload.read_no)
            if replies is not None and message.src not in replies:
                replies[message.src] = payload
                self._replies(payload.read_no).add()
        elif isinstance(payload, FWriteAck):
            acks = self._wb.peek(payload.key, payload.ts, payload.slot)
            if acks is not None:
                acks.add(message.src)
        elif isinstance(payload, ReadBatchAck):
            replies = self._batch_replies.get(payload.read_no)
            if replies is not None and message.src not in replies:
                replies[message.src] = payload.replies
                self._replies(payload.read_no).add()
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, message.src)

    def read(self, key: Hashable = DEFAULT_KEY):
        record = self.trace.begin("read", self.pid, self.sim.now, key=key)
        self.read_no += 1
        number = self.read_no
        self._acks[number] = {}
        reply_count = self._replies(number)
        for server in self.servers:
            self.send(server, FRead(number, key))
        timer = self.sim.timer_at(self.sim.now + self.timeout)
        yield WaitUntil(
            AllOf(timer, reply_count.at_least(self.slow)),
            f"fast-read#{number} round 1",
        )
        replies = self._acks[number]
        pairs = [a.pw for a in replies.values()] + [a.w for a in replies.values()]
        cmax = max(pairs, key=lambda p: p.ts)
        record.meta["ts"] = cmax.ts
        pw_confirms = sum(1 for a in replies.values() if a.pw == cmax)
        w_confirms = sum(1 for a in replies.values() if a.w == cmax)
        if pw_confirms >= self.slow or w_confirms >= 1:
            self._retire(number)
            self.trace.complete(record, self.sim.now, cmax.val, rounds=1)
            return record
        # Round 2: write back cmax into pw fields.
        previous = self._wb_ts.get(key)
        if previous is not None and previous != cmax.ts:
            self._wb.discard(key, previous, "pw")
        self._wb_ts[key] = cmax.ts
        wb_acks = self._wb(key, cmax.ts, "pw")
        for server in self.servers:
            self.send(server, FWrite(cmax.ts, cmax.val, "pw", key))
        yield WaitUntil(
            wb_acks.at_least(self.slow),
            f"fast-read#{number} writeback",
        )
        self._retire(number)
        self.trace.complete(record, self.sim.now, cmax.val, rounds=2)
        return record

    def _retire(self, number: int) -> None:
        self._acks.pop(number, None)
        self._replies.discard(number)

    def read_batch(self, keys: List[Hashable]):
        """One batched collect; per-element fast-return decisions from
        the shared replies, and only the failing elements join one
        batched pre-write write-back.  Completion is **per element**:
        fast-path elements complete at the collect instant (their
        quorum is full — waiting on the failing elements' write-back
        would only inflate their tail), and the failing elements
        complete when the write-back quorum-acks."""
        now = self.sim.now
        records = [
            self.trace.begin("read", self.pid, now, key=key) for key in keys
        ]
        self.read_no += 1
        number = self.read_no
        self._batch_replies[number] = {}
        reply_count = self._replies(number)
        collect = ReadBatch(number, 1, tuple(keys))
        for server in self.servers:
            self.send(server, collect)
        timer = self.sim.timer_at(self.sim.now + self.timeout)
        yield WaitUntil(
            AllOf(timer, reply_count.at_least(self.slow)),
            f"fast-read batch#{number} round 1",
        )
        data = self._batch_replies.pop(number)
        self._replies.discard(number)
        cmaxes: List[Pair] = []
        fast_done: List[bool] = []
        for i in range(len(keys)):
            pairs = [replies[i][0] for replies in data.values()]
            pairs += [replies[i][1] for replies in data.values()]
            cmax = max(pairs, key=lambda p: p.ts)
            pw_confirms = sum(
                1 for replies in data.values() if replies[i][0] == cmax
            )
            w_confirms = sum(
                1 for replies in data.values() if replies[i][1] == cmax
            )
            cmaxes.append(cmax)
            fast_done.append(pw_confirms >= self.slow or w_confirms >= 1)
        now = self.sim.now
        for record, cmax, done in zip(records, cmaxes, fast_done):
            record.meta["ts"] = cmax.ts
            if done:
                self.trace.complete(record, now, cmax.val, rounds=1)
        failing = [i for i, done in enumerate(fast_done) if not done]
        if failing:
            wb_no = self._batches.open()
            wb_acks = self._batches.responders(wb_no, 2)
            writeback = WriteBatch(
                wb_no, 2, "pw",
                tuple(
                    (cmaxes[i].ts, cmaxes[i].val, keys[i]) for i in failing
                ),
                frozenset(),
            )
            for server in self.servers:
                self.send(server, writeback)
            yield WaitUntil(
                wb_acks.at_least(self.slow),
                f"fast-read batch#{number} writeback",
            )
            self._batches.close(wb_no, 2)
            now = self.sim.now
            for i in failing:
                self.trace.complete(records[i], now, cmaxes[i].val,
                                    rounds=2)
        return records


class FastAbdSystem:
    """The paper's Section 1.2 deployment (defaults ``n=5, t=2, fast=4``)."""

    def __init__(
        self,
        n: int = 5,
        t: int = 2,
        fast: int = 4,
        n_readers: int = 2,
        delta: float = 1.0,
        crash_times: Optional[Dict[Hashable, float]] = None,
        rules: Optional[List[Rule]] = None,
        trace_level: TraceLevel = TraceLevel.FULL,
        n_writers: int = 1,
    ):
        self.sim = Simulator()
        self.network = Network(
            self.sim, delta=delta, rules=list(rules or []),
            trace_level=trace_level,
        )
        self.trace = Trace(
            retain=self.network.trace_level >= TraceLevel.FULL
        )
        server_ids = tuple(range(1, n + 1))
        self.servers = {
            sid: FastAbdServer(sid).bind(self.network) for sid in server_ids
        }
        for sid, time in (crash_times or {}).items():
            self.servers[sid].schedule_crash(time)
        self.writers: List[FastAbdWriter] = writer_fleet(
            n_writers,
            lambda pid, writer_id: FastAbdWriter(
                pid, server_ids, self.trace, t=t, fast=fast, delta=delta,
                writer_id=writer_id,
            ).bind(self.network),
        )
        self.writer = self.writers[0]
        self.readers = [
            FastAbdReader(
                f"reader{i + 1}", server_ids, self.trace, t=t, delta=delta
            ).bind(self.network)
            for i in range(n_readers)
        ]

    def write(self, value: Any, key: Hashable = DEFAULT_KEY) -> OperationRecord:
        task = self.sim.spawn(
            self.writer.write(value, key), f"write({value!r})"
        )
        self.sim.run_to_completion(strict=False)
        if not task.done():
            raise TimeoutError("fast-abd write blocked")
        return task.result

    def read(
        self, reader_index: int = 0, key: Hashable = DEFAULT_KEY
    ) -> OperationRecord:
        reader = self.readers[reader_index]
        task = self.sim.spawn(reader.read(key), f"{reader.pid}.read()")
        self.sim.run_to_completion(strict=False)
        if not task.done():
            raise TimeoutError("fast-abd read blocked")
        return task.result
