"""The classic ABD atomic storage baseline (Attiya–Bar-Noy–Dolev).

Crash-failure model, majority quorums.  Writes take one round; reads take
two rounds **always** (collect + write-back) — the paper's motivating
observation is that no optimally-resilient atomic storage can make both
reads and writes single-round in all cases [11], and ABD is the canonical
two-round-read baseline the RQS algorithm is compared against
(experiment E12).

The register space is keyed: servers keep one highest-timestamped pair
per key, and all messages carry the key they address.  Multi-writer
deployments (``n_writers > 1``) use the standard MW-ABD lift — a
majority collect round discovers the highest stored timestamp, and
writes stamp ``(seq, writer_id)`` (see
:func:`~repro.storage.history.make_stamp`) so timestamps are totally
ordered across writers.  Single-writer systems keep the historical bare
counters and one-round writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.sim.conditions import AckSet, ConditionMap, Counter
from repro.sim.network import Message, Rule
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.network import Network, TraceLevel
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
class AbdWrite:
    ts: int
    value: Any
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class AbdWriteAck:
    ts: int
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class AbdRead:
    read_no: int
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class AbdReadAck:
    read_no: int
    pair: Pair
    key: Hashable = DEFAULT_KEY


class AbdServer(Process):
    """Stores the highest-timestamped pair it has seen, per key."""

    def __init__(self, pid: Hashable):
        super().__init__(pid)
        self.pairs: Dict[Hashable, Pair] = {}

    @property
    def pair(self) -> Pair:
        """The default register's pair (single-register compatibility)."""
        return self.pair_for(DEFAULT_KEY)

    def pair_for(self, key: Hashable) -> Pair:
        return self.pairs.get(key, INITIAL_PAIR)

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, AbdWrite):
            if payload.ts > self.pair_for(payload.key).ts:
                self.pairs[payload.key] = Pair(payload.ts, payload.value)
            self.send(message.src, AbdWriteAck(payload.ts, payload.key))
        elif isinstance(payload, AbdRead):
            self.send(
                message.src,
                AbdReadAck(payload.read_no, self.pair_for(payload.key),
                           payload.key),
            )
        elif isinstance(payload, WriteBatch):
            # Apply elements in batch (draw) order, one ack for all.
            pairs = self.pairs
            for ts, value, key in payload.ops:
                if ts > pairs.get(key, INITIAL_PAIR).ts:
                    pairs[key] = Pair(ts, value)
            self.send(message.src, BatchAck(payload.batch_no, payload.rnd))
        elif isinstance(payload, ReadBatch):
            self.send(
                message.src,
                ReadBatchAck(
                    payload.read_no,
                    payload.rnd,
                    tuple(self.pairs.get(key, INITIAL_PAIR)
                          for key in payload.keys),
                ),
            )


class AbdWriter(Process):
    def __init__(
        self,
        pid: Hashable,
        servers: Tuple[Hashable, ...],
        trace: Trace,
        writer_id: Optional[int] = None,
    ):
        super().__init__(pid)
        self.servers = servers
        self.trace = trace
        self.majority = len(servers) // 2 + 1
        self.stamps = StampIssuer(writer_id)
        self._acks = ConditionMap(AckSet, "abd wr key={} ts={}")
        # MW timestamp discovery (a majority collect round).
        self._discovery = DiscoveryInbox("abd ts-discovery#{}")
        self._batches = BatchAcks("abd wr batch#{} rnd={}")

    @property
    def ts(self) -> int:
        return self.stamps.seq()

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, AbdWriteAck):
            # peek, not create: acks straggling in after the write
            # retired its responder set must not resurrect it (the
            # bounded-memory contract of streaming soaks).
            acks = self._acks.peek(payload.key, payload.ts)
            if acks is not None:
                acks.add(message.src)
        elif isinstance(payload, AbdReadAck):
            self._discovery.record(payload.read_no, message.src,
                                   payload.pair)
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, message.src)
        elif isinstance(payload, ReadBatchAck):
            # Batched MW discovery replies: the per-key pair tuple.
            self._discovery.record(payload.read_no, message.src,
                                   payload.replies)

    def write(self, value: Any, key: Hashable = DEFAULT_KEY):
        record = self.trace.begin("write", self.pid, self.sim.now, value,
                                  key=key)
        if not self.stamps.multi_writer:
            ts, rounds = self.stamps.bare(key), 1
        else:
            number = self._discovery.open()
            acks = self._discovery.responders(number)
            for server in self.servers:
                self.send(server, AbdRead(number, key))
            yield WaitUntil(
                acks.at_least(self.majority),
                f"abd write ts-discovery#{number}",
            )
            pairs = self._discovery.close(number)
            observed = max(p.ts for p in pairs.values())
            ts, rounds = self.stamps.stamped(key, observed), 2
        # Surface the timestamp for the stamp-ordered online checker.
        record.meta["ts"] = ts
        acks = self._acks(key, ts)
        for server in self.servers:
            self.send(server, AbdWrite(ts, value, key))
        yield WaitUntil(
            acks.at_least(self.majority),
            f"abd write ts={ts}",
        )
        self._acks.discard(key, ts)
        self.trace.complete(record, self.sim.now, "OK", rounds=rounds)
        return record

    def write_batch(self, elems: List[Tuple[Any, Hashable]]):
        """One batched round-trip for ``[(value, key), ...]``.

        Stamps are issued per element in draw order; multi-writer
        batches amortize one discovery collect over the batch's
        distinct keys.  All elements complete together at batch end,
        in element order (the online checkers' ordering contract).
        """
        now = self.sim.now
        records = [
            self.trace.begin("write", self.pid, now, value, key=key)
            for value, key in elems
        ]
        if not self.stamps.multi_writer:
            stamps = [self.stamps.bare(key) for _, key in elems]
            rounds = 1
        else:
            keys = distinct_keys(elems)
            number = self._discovery.open()
            acks = self._discovery.responders(number)
            collect = ReadBatch(number, 0, keys)
            for server in self.servers:
                self.send(server, collect)
            yield WaitUntil(
                acks.at_least(self.majority),
                f"abd batch ts-discovery#{number}",
            )
            replies = self._discovery.close(number)
            observed = {
                key: max(pairs[i].ts for pairs in replies.values())
                for i, key in enumerate(keys)
            }
            stamps = [
                self.stamps.stamped(key, observed[key]) for _, key in elems
            ]
            rounds = 2
        for record, ts in zip(records, stamps):
            record.meta["ts"] = ts
        number = self._batches.open()
        batch_acks = self._batches.responders(number, 1)
        message = WriteBatch(
            number, 1, "",
            tuple(
                (ts, value, key)
                for ts, (value, key) in zip(stamps, elems)
            ),
            frozenset(),
        )
        for server in self.servers:
            self.send(server, message)
        yield WaitUntil(
            batch_acks.at_least(self.majority),
            f"abd write batch#{number}",
        )
        self._batches.close(number, 1)
        now = self.sim.now
        for record in records:
            self.trace.complete(record, now, "OK", rounds=rounds)
        return records


class AbdReader(Process):
    def __init__(self, pid: Hashable, servers: Tuple[Hashable, ...], trace: Trace):
        super().__init__(pid)
        self.servers = servers
        self.trace = trace
        self.majority = len(servers) // 2 + 1
        self.read_no = 0
        self._pairs: Dict[int, Dict[Hashable, Pair]] = {}
        self._replies = ConditionMap(Counter, "abd rd#{}")
        self._wb = ConditionMap(AckSet, "abd wb key={} ts={}")
        # Per key, the timestamp of the newest write-back responder set
        # still retained.  Write-back timestamps are monotone per reader
        # (majorities intersect), so superseded sets can never be
        # queried again and are pruned — bounding state to O(keys)
        # while keeping the historical repeat-write-back fast path
        # (same-timestamp write-backs reuse accumulated acks).
        self._wb_ts: Dict[Hashable, int] = {}
        self._batches = BatchAcks("abd rd-wb batch#{} rnd={}")
        self._batch_replies: Dict[int, Dict[Hashable, Tuple[Pair, ...]]] = {}

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, AbdReadAck):
            # Replies for retired reads are dropped (peek, not create) —
            # per-read state lives only while the read is in flight.
            replies = self._pairs.get(payload.read_no)
            if replies is not None and message.src not in replies:
                replies[message.src] = payload.pair
                self._replies(payload.read_no).add()
        elif isinstance(payload, AbdWriteAck):
            acks = self._wb.peek(payload.key, payload.ts)
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
        self._pairs[number] = {}
        replies = self._replies(number)
        for server in self.servers:
            self.send(server, AbdRead(number, key))
        yield WaitUntil(
            replies.at_least(self.majority),
            f"abd read#{number} collect",
        )
        best = max(self._pairs[number].values(), key=lambda p: p.ts)
        record.meta["ts"] = best.ts
        # Write-back round (unconditional — the cost RQS avoids).
        previous = self._wb_ts.get(key)
        if previous is not None and previous != best.ts:
            self._wb.discard(key, previous)
        self._wb_ts[key] = best.ts
        wb_acks = self._wb(key, best.ts)
        for server in self.servers:
            self.send(server, AbdWrite(best.ts, best.val, key))
        yield WaitUntil(
            wb_acks.at_least(self.majority),
            f"abd read#{number} writeback",
        )
        self._pairs.pop(number, None)
        self._replies.discard(number)
        self.trace.complete(record, self.sim.now, best.val, rounds=2)
        return record

    def read_batch(self, keys: List[Hashable]):
        """One batched collect + one batched write-back for ``keys``.

        Every element's best pair is selected from the same majority's
        replies and written back in a single :class:`WriteBatch`.  The
        per-element completion contract (each element completes as soon
        as its quorum fills) is degenerate here: acks are
        batch-granular and ABD's atomicity needs the write-back before
        *any* element returns, so every element's quorum fills at the
        write-back ack instant — all elements complete there, in
        element order.
        """
        now = self.sim.now
        records = [
            self.trace.begin("read", self.pid, now, key=key) for key in keys
        ]
        self.read_no += 1
        number = self.read_no
        self._batch_replies[number] = {}
        replies = self._replies(number)
        collect = ReadBatch(number, 1, tuple(keys))
        for server in self.servers:
            self.send(server, collect)
        yield WaitUntil(
            replies.at_least(self.majority),
            f"abd read batch#{number} collect",
        )
        data = self._batch_replies.pop(number)
        self._replies.discard(number)
        bests = [
            max((pairs[i] for pairs in data.values()), key=lambda p: p.ts)
            for i in range(len(keys))
        ]
        for record, best in zip(records, bests):
            record.meta["ts"] = best.ts
        wb_no = self._batches.open()
        wb_acks = self._batches.responders(wb_no, 2)
        writeback = WriteBatch(
            wb_no, 2, "",
            tuple(
                (best.ts, best.val, key) for best, key in zip(bests, keys)
            ),
            frozenset(),
        )
        for server in self.servers:
            self.send(server, writeback)
        yield WaitUntil(
            wb_acks.at_least(self.majority),
            f"abd read batch#{number} writeback",
        )
        self._batches.close(wb_no, 2)
        now = self.sim.now
        for record, best in zip(records, bests):
            self.trace.complete(record, now, best.val, rounds=2)
        return records


class AbdSystem:
    """Wired ABD deployment mirroring :class:`StorageSystem`'s surface."""

    def __init__(
        self,
        n: int = 5,
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
            sid: AbdServer(sid).bind(self.network) for sid in server_ids
        }
        for sid, time in (crash_times or {}).items():
            self.servers[sid].schedule_crash(time)
        self.writers: List[AbdWriter] = writer_fleet(
            n_writers,
            lambda pid, writer_id: AbdWriter(
                pid, server_ids, self.trace, writer_id=writer_id
            ).bind(self.network),
        )
        self.writer = self.writers[0]
        self.readers = [
            AbdReader(f"reader{i + 1}", server_ids, self.trace).bind(
                self.network
            )
            for i in range(n_readers)
        ]

    def write(self, value: Any, key: Hashable = DEFAULT_KEY) -> OperationRecord:
        task = self.sim.spawn(
            self.writer.write(value, key), f"write({value!r})"
        )
        self.sim.run_to_completion(strict=False)
        if not task.done():
            raise TimeoutError("abd write blocked")
        return task.result

    def read(
        self, reader_index: int = 0, key: Hashable = DEFAULT_KEY
    ) -> OperationRecord:
        reader = self.readers[reader_index]
        task = self.sim.spawn(reader.read(key), f"{reader.pid}.read()")
        self.sim.run_to_completion(strict=False)
        if not task.done():
            raise TimeoutError("abd read blocked")
        return task.result
