"""Per-layer span ledger for the traced benchmark run.

The traced run measures each layer of the simulator from *outside* the
program: :func:`install` replaces the public functions and methods at
each layer boundary with wrappers that record a span around every call,
and :func:`uninstall` puts the originals back.  Nothing under ``src/``
changes, and an untraced run executes the original code.

A span's *self time* is its duration minus the time of the spans it
encloses, so the self times of all layers add up to the time covered
by any span; the rest of the CPU time is reported as ``other``.  A call
from a layer into the same layer (a subclass handler calling its base,
a predicate calling another predicate) is not a new span: its time is
already the enclosing span's self time.  Generator methods -- the
storage clients' ``read``/``write`` coroutines -- get one span per
resumption, because the time between resumptions belongs to the
simulator and to other processes.

Spans are timed in process CPU seconds (``time.process_time``, about
0.3 us a call on the 2-core Xeon the benchmark was sized on), so that the layers' self times add up against the
run's CPU time even while the host holds the virtual CPU back.  In the
parent of a sharded run, ``run_sharded``'s self time is then the
parent's own share: forking, transport and merging, not the wait.

Sharded workers are forked after :func:`install`, so they inherit the
wrappers.  Each worker resets its ledger when its shard starts and
ships the ledger home as an attribute of the shard's outcome object;
:meth:`Ledger.merge` folds it into the parent's ledger.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.process_time


class Ledger:
    """Self time and outermost-call counts per layer, plus counters
    that are not spans (key draws, shard walls)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.shard_walls: List[float] = []
        # Open spans: [layer, child seconds].
        self.stack: List[list] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.shard_walls.clear()
        del self.stack[:]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "shard_walls": list(self.shard_walls),
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        for layer, seconds in snapshot["self_s"].items():
            self.self_s[layer] += seconds
        self.calls.update(snapshot["calls"])
        self.counts.update(snapshot["counts"])
        self.shard_walls.extend(snapshot["shard_walls"])

    # -- spans ----------------------------------------------------------------

    def _close(self, frame: list, elapsed: float) -> None:
        stack = self.stack
        stack.pop()
        self.self_s[frame[0]] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed

    def span(self, fn: Callable, layer: Any) -> Callable:
        """Wrap a plain function; ``layer`` is a name, or a function of
        the call's first argument returning one."""
        pick = layer if callable(layer) else None
        ledger = self

        def traced(*args, **kwargs):
            name = pick(args[0]) if pick is not None else layer
            stack = ledger.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            ledger.calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._close(frame, _clock() - start)

        traced.__wrapped__ = fn
        return traced

    def coroutine(self, fn: Callable, layer: str, count: str) -> Callable:
        """Wrap a generator function: one span per resumption, counting
        the calls under ``counts[count]``."""
        ledger = self

        def resume(gen):
            value = None
            while True:
                frame = [layer, 0.0]
                ledger.stack.append(frame)
                start = _clock()
                try:
                    effect = gen.send(value)
                except StopIteration as stop:
                    ledger._close(frame, _clock() - start)
                    return stop.value
                except BaseException:
                    ledger._close(frame, _clock() - start)
                    raise
                ledger._close(frame, _clock() - start)
                value = yield effect

        def traced(*args, **kwargs):
            ledger.counts[count] += 1
            return resume(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def iterator(self, fn: Callable, layer: str,
                 count: Optional[str] = None) -> Callable:
        """Wrap a function returning an iterator: one span per item,
        counting the items under ``counts[count]`` if ``count`` is set."""
        ledger = self

        def pull(iterator):
            while True:
                frame = [layer, 0.0]
                ledger.stack.append(frame)
                start = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    ledger._close(frame, _clock() - start)
                    return
                except BaseException:
                    ledger._close(frame, _clock() - start)
                    raise
                ledger._close(frame, _clock() - start)
                if count is not None:
                    ledger.counts[count] += 1
                yield item

        def traced(*args, **kwargs):
            return pull(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn: Callable, name: str) -> Callable:
        """Wrap a function to count its calls, with no span."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

def _own_methods(classes, names) -> List[Tuple[type, str]]:
    """``(class, name)`` for each named method a class defines itself,
    each class once however many modules import it."""
    unique = dict.fromkeys(classes)
    return [
        (cls, name) for cls in unique for name in names
        if name in vars(cls)
    ]


def _checker_layer(checker) -> str:
    return "analysis.checker_" + checker.mode


class Tracer:
    """Installs the span wrappers over the simulator's public surface."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        self.pid = os.getpid()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, make: Callable) -> None:
        raw = vars(owner)[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        self._saved.append((owner, name, raw))
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from repro.analysis.streaming import (
            LatencyAccumulator,
            MultiWriterOnlineChecker,
            OnlineChecker,
        )
        from repro.consensus.acceptor import Acceptor
        from repro.consensus.learner import Learner
        from repro.consensus.proposer import Proposer
        from repro.scenarios import adapters, result, sharding, spec
        from repro.scenarios import workloads
        from repro.sim.network import Network
        from repro.sim.process import ByzantineProcess, Process
        from repro.sim.simulator import Simulator
        from repro.sim.trace import Trace
        from repro.storage import abd, fastabd, naive, reader, regular
        from repro.storage import server, writer
        from repro.storage.predicates import ReadState

        led = self.ledger

        def span(layer):
            return lambda fn: led.span(fn, layer)

        adapter_classes = [
            value for value in vars(adapters).values()
            if isinstance(value, type)
            and issubclass(value, adapters.ProtocolAdapter)
        ]
        for cls, name in _own_methods(
            adapter_classes, ("build", "apply_faults", "schedule")
        ):
            self._patch(cls, name, span("scenarios.build"))
        # Open-loop clients draw a key for every generated item, in-shard
        # or not, so key draws count what they generate; closed-loop
        # schedules are drawn whole, so there the items handed out are
        # the items generated.
        self._patch(adapters, "open_loop_stream",
                    lambda fn: led.iterator(fn, "scenarios.draw"))
        for name in ("writer_ops", "reader_ops"):
            self._patch(workloads.OpStream, name, lambda fn: led.iterator(
                fn, "scenarios.draw", "closed_loop_items"))
        self._patch(workloads._KeyDrawer, "draw",
                    lambda fn: led.counter(fn, "key_draws"))
        self._patch(sharding, "run_sharded", span("scenarios.shard"))
        self._patch(sharding, "_run_shard", self._shard_side)
        self._patch(spec, "resolve_rqs", span("core"))

        self._patch(Simulator, "run", span("sim.loop"))
        for name in ("begin", "complete"):
            self._patch(Trace, name, span("sim.trace"))
        self._patch(Network, "send", span("network"))
        for cls in (Process, ByzantineProcess):
            self._patch(cls, "receive", span("network.receive"))

        servers = [
            value for module in (server, abd, fastabd, naive)
            for value in vars(module).values()
            if isinstance(value, type) and value.__name__.endswith("Server")
        ]
        for cls, name in _own_methods(servers, ("on_message",)):
            self._patch(cls, name, span("storage.server"))
        clients = [
            value for module in (reader, writer, regular, abd, fastabd,
                                 naive)
            for value in vars(module).values()
            if isinstance(value, type)
            and value.__name__.endswith(("Reader", "Writer"))
        ]
        for cls, name in _own_methods(clients, ("on_message",)):
            self._patch(cls, name, span("storage.client"))
        for cls, name in _own_methods(
            clients, ("write", "read", "write_batch", "read_batch")
        ):
            self._patch(cls, name, lambda fn: led.coroutine(
                fn, "storage.client", "client_calls"))
        for name, member in list(vars(ReadState).items()):
            if not name.startswith("_") and callable(member):
                self._patch(ReadState, name, span("storage.predicates"))

        for cls, name in _own_methods(
            (Acceptor, Learner, Proposer), ("on_message",)
        ):
            self._patch(cls, name, span("consensus"))

        for cls, name in _own_methods(
            (OnlineChecker, MultiWriterOnlineChecker),
            ("on_begin", "on_complete"),
        ):
            self._patch(cls, name, span(_checker_layer))
        self._patch(LatencyAccumulator, "observe",
                    span("analysis.accumulator"))
        for name in ("check_swmr_atomicity", "check_consensus"):
            self._patch(result, name, span("analysis.posthoc"))

    def _shard_side(self, fn: Callable) -> Callable:
        """Worker side of a sharded run: a fresh ledger per shard, sent
        home on the outcome together with the shard's wall time."""
        ledger = self.ledger

        def traced(*args, **kwargs):
            if os.getpid() == self.pid:  # serial fallback: no worker
                return fn(*args, **kwargs)
            ledger.reset()
            start = time.perf_counter()
            outcome = fn(*args, **kwargs)
            ledger.shard_walls.append(time.perf_counter() - start)
            outcome.layer_ledger = ledger.snapshot()
            return outcome

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
