"""The *broken* greedy algorithm of Figure 1 (for the E1 counterexample).

This algorithm expedites every operation in a single round as soon as
``n − t`` servers respond — exactly the behaviour the paper proves
incorrect when the fast quorums are only 3-of-5 (``Q1 ∩ Q2 ∩ Q3 = ∅``,
Figure 2(a)):

* ``write(v)``: send ``⟨ts, v⟩`` to all; complete on ``n − t`` acks.
* ``read()``: collect pairs from ``n − t`` servers; return the
  highest-timestamped pair immediately — **no write-back**.

Kept deliberately faithful to the counterexample: with scripted message
schedules the four executions of Figure 1 drive it into returning a
value that a later read can no longer see (stale read in ex4), which the
atomicity checker flags.

The register space is keyed like the other baselines (per-key server
pairs, keys on every message); multi-writer deployments stamp
``(seq, writer_id)`` after an ``n − t`` discovery round — the greedy
one-round completion rule, the algorithm's actual flaw, is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.sim.conditions import AckSet, ConditionMap, Counter
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
class NWrite:
    ts: int
    value: Any
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class NWriteAck:
    ts: int
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class NRead:
    read_no: int
    key: Hashable = DEFAULT_KEY


@dataclass(frozen=True, slots=True)
class NReadAck:
    read_no: int
    pair: Pair
    key: Hashable = DEFAULT_KEY


class NaiveServer(Process):
    def __init__(self, pid: Hashable):
        super().__init__(pid)
        self.pairs: Dict[Hashable, Pair] = {}

    @property
    def pair(self) -> Pair:
        return self.pair_for(DEFAULT_KEY)

    def pair_for(self, key: Hashable) -> Pair:
        return self.pairs.get(key, INITIAL_PAIR)

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, NWrite):
            if payload.ts > self.pair_for(payload.key).ts:
                self.pairs[payload.key] = Pair(payload.ts, payload.value)
            self.send(message.src, NWriteAck(payload.ts, payload.key))
        elif isinstance(payload, NRead):
            self.send(
                message.src,
                NReadAck(payload.read_no, self.pair_for(payload.key),
                         payload.key),
            )
        elif isinstance(payload, WriteBatch):
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


class NaiveWriter(Process):
    def __init__(
        self,
        pid: Hashable,
        servers: Tuple[Hashable, ...],
        trace: Trace,
        t: int,
        writer_id: Optional[int] = None,
    ):
        super().__init__(pid)
        self.servers = servers
        self.trace = trace
        self.quorum = len(servers) - t
        self.stamps = StampIssuer(writer_id)
        self._acks = ConditionMap(AckSet, "naive wr key={} ts={}")
        self._discovery = DiscoveryInbox("naive ts-discovery#{}")
        self._batches = BatchAcks("naive wr batch#{} rnd={}")

    @property
    def ts(self) -> int:
        return self.stamps.seq()

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, NWriteAck):
            # peek, not create: straggler acks must not resurrect a
            # completed write's pruned responder set.
            acks = self._acks.peek(payload.key, payload.ts)
            if acks is not None:
                acks.add(message.src)
        elif isinstance(payload, NReadAck):
            self._discovery.record(payload.read_no, message.src,
                                   payload.pair)
        elif isinstance(payload, BatchAck):
            self._batches.record(payload.batch_no, payload.rnd, message.src)
        elif isinstance(payload, ReadBatchAck):
            self._discovery.record(payload.read_no, message.src,
                                   payload.replies)

    def write(self, value: Any, key: Hashable = DEFAULT_KEY):
        record = self.trace.begin("write", self.pid, self.sim.now, value,
                                  key=key)
        if not self.stamps.multi_writer:
            ts, rounds = self.stamps.bare(key), 1
        else:
            number = self._discovery.open()
            discovery_acks = self._discovery.responders(number)
            for server in self.servers:
                self.send(server, NRead(number, key))
            yield WaitUntil(
                discovery_acks.at_least(self.quorum),
                f"naive write ts-discovery#{number}",
            )
            pairs = self._discovery.close(number)
            observed = max(p.ts for p in pairs.values())
            ts, rounds = self.stamps.stamped(key, observed), 2
        # Surface the timestamp for the stamp-ordered online checker.
        record.meta["ts"] = ts
        acks = self._acks(key, ts)
        for server in self.servers:
            self.send(server, NWrite(ts, value, key))
        yield WaitUntil(
            acks.at_least(self.quorum),
            f"naive write ts={ts}",
        )
        self._acks.discard(key, ts)
        self.trace.complete(record, self.sim.now, "OK", rounds=rounds)
        return record

    def write_batch(self, elems: List[Tuple[Any, Hashable]]):
        """One greedy batched round-trip for ``[(value, key), ...]``
        (stamps per element in draw order; MW batches amortize one
        discovery collect over the batch's distinct keys)."""
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
            discovery_acks = self._discovery.responders(number)
            collect = ReadBatch(number, 0, keys)
            for server in self.servers:
                self.send(server, collect)
            yield WaitUntil(
                discovery_acks.at_least(self.quorum),
                f"naive batch ts-discovery#{number}",
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
            batch_acks.at_least(self.quorum),
            f"naive write batch#{number}",
        )
        self._batches.close(number, 1)
        now = self.sim.now
        for record in records:
            self.trace.complete(record, now, "OK", rounds=rounds)
        return records


class NaiveReader(Process):
    def __init__(
        self, pid: Hashable, servers: Tuple[Hashable, ...], trace: Trace, t: int
    ):
        super().__init__(pid)
        self.servers = servers
        self.trace = trace
        self.quorum = len(servers) - t
        self.read_no = 0
        self._acks: Dict[int, Dict[Hashable, Pair]] = {}
        self._replies = ConditionMap(Counter, "naive rd#{}")
        self._batch_replies: Dict[int, Dict[Hashable, Tuple[Pair, ...]]] = {}

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, NReadAck):
            replies = self._acks.get(payload.read_no)
            if replies is not None and message.src not in replies:
                replies[message.src] = payload.pair
                self._replies(payload.read_no).add()
        elif isinstance(payload, ReadBatchAck):
            replies = self._batch_replies.get(payload.read_no)
            if replies is not None and message.src not in replies:
                replies[message.src] = payload.replies
                self._replies(payload.read_no).add()

    def read(self, key: Hashable = DEFAULT_KEY):
        record = self.trace.begin("read", self.pid, self.sim.now, key=key)
        self.read_no += 1
        number = self.read_no
        self._acks[number] = {}
        replies = self._replies(number)
        for server in self.servers:
            self.send(server, NRead(number, key))
        yield WaitUntil(
            replies.at_least(self.quorum),
            f"naive read#{number}",
        )
        best = max(self._acks[number].values(), key=lambda p: p.ts)
        record.meta["ts"] = best.ts
        self._acks.pop(number, None)
        self._replies.discard(number)
        self.trace.complete(record, self.sim.now, best.val, rounds=1)
        return record

    def read_batch(self, keys: List[Hashable]):
        """One greedy batched collect for ``keys`` — like the unbatched
        read, no write-back (the algorithm's deliberate flaw).  The
        per-element completion contract is trivially satisfied: acks
        are batch-granular, so every element's quorum fills at the one
        collect instant and all elements complete there."""
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
            replies.at_least(self.quorum),
            f"naive read batch#{number}",
        )
        data = self._batch_replies.pop(number)
        self._replies.discard(number)
        now = self.sim.now
        for i, (record, key) in enumerate(zip(records, keys)):
            best = max((pairs[i] for pairs in data.values()),
                       key=lambda p: p.ts)
            record.meta["ts"] = best.ts
            self.trace.complete(record, now, best.val, rounds=1)
        return records


class NaiveSystem:
    """The Figure 1 deployment: 5 servers, t=2, greedy 3-server fast ops."""

    def __init__(
        self,
        n: int = 5,
        t: int = 2,
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
            sid: NaiveServer(sid).bind(self.network) for sid in server_ids
        }
        for sid, time in (crash_times or {}).items():
            self.servers[sid].schedule_crash(time)
        self.writers: List[NaiveWriter] = writer_fleet(
            n_writers,
            lambda pid, writer_id: NaiveWriter(
                pid, server_ids, self.trace, t=t, writer_id=writer_id
            ).bind(self.network),
        )
        self.writer = self.writers[0]
        self.readers = [
            NaiveReader(f"reader{i + 1}", server_ids, self.trace, t=t).bind(
                self.network
            )
            for i in range(n_readers)
        ]
