"""Differential test of the online checkers' window floor and prune skip.

The checkers take the window floor from a lazy-deletion heap and skip a
key's per-completion prune while the floor has not moved.  Both are
pure speed-ups, so this file pins them against their definitions on
seeded random streams that the simulator would never produce:
invocation times run against op-id order, some ops stay stuck past a
small ``overrun_ops`` (and a few complete late), and reads return
current, older or fabricated values.

* After every judged completion the floor must equal the minimum
  invocation over the still-pending ops (the completion time when none
  is pending) — the old full-scan definition — and the heap must stay
  within twice ``overrun_ops``.
* A reference checker that prunes the completed key on every
  completion runs in lockstep: the key states must agree after every
  completion, and the final reports must be equal.
"""

import random

import pytest

from repro.analysis.streaming import MultiWriterOnlineChecker, OnlineChecker
from repro.sim.trace import OperationRecord
from repro.storage.history import BOTTOM, make_stamp


class _PruneEveryCompletion:
    """Prunes the completed key on every judged completion, as the
    checkers did before the skip (prune is idempotent, so pruning again
    after the checker's own prune or sweep changes nothing)."""

    def on_complete(self, record):
        judged = (
            record.kind in ("write", "read")
            and record.op_id not in self._overrun
        )
        super().on_complete(record)
        if judged:
            self._keys[record.key].prune(self._floor)


class _ReferenceSw(_PruneEveryCompletion, OnlineChecker):
    pass


class _ReferenceMw(_PruneEveryCompletion, MultiWriterOnlineChecker):
    pass


def _events(rng: random.Random, mode: str, n_ops: int, n_keys: int):
    """One random event stream of ``("begin", record fields)`` and
    ``("complete", op_id, completed_at, result, stamp)`` tuples; each
    replay builds its own records from it (see :func:`_replay`)."""
    events = []
    now = 0.0
    next_id = 0
    pending = {}              # op_id -> (kind, key, value, stamp)
    stuck = set()
    written = {key: [] for key in range(n_keys)}   # (value, stamp) done
    seq = 0
    while next_id < n_ops or pending.keys() - stuck:
        now += rng.choice((0.0, 0.25, 0.5, 1.0, 2.0))
        live = sorted(pending.keys() - stuck)
        if next_id < n_ops and (not live or rng.random() < 0.55):
            kind = "write" if rng.random() < 0.45 else "read"
            key = rng.randrange(n_keys)
            # Invocation times run against op-id order now and then,
            # into the past and into the future.
            invoked = now + rng.choice((0.0, 0.0, 0.0, -0.75, -3.0, 2.5))
            value = stamp = None
            if kind == "write":
                seq += 1
                value = seq if mode == "sw" else f"v{seq}"
                stamp = make_stamp(seq, rng.randrange(3))
            events.append(("begin", dict(
                op_id=next_id, kind=kind, process=f"c{next_id % 5}",
                invoked_at=invoked, value=value, key=key,
            )))
            pending[next_id] = (kind, key, value, stamp)
            if rng.random() < 0.04:
                stuck.add(next_id)
            next_id += 1
            continue
        op_id = rng.choice(live[:4]) if rng.random() < 0.8 else (
            rng.choice(live)
        )
        kind, key, value, stamp = pending.pop(op_id)
        result = "OK"
        if kind == "write":
            written[key].append((value, stamp))
        else:
            roll = rng.random()
            history = written[key]
            if not history or roll < 0.05:
                result, stamp = BOTTOM, None
            elif roll < 0.85:
                result, stamp = history[-1]
            elif roll < 0.97:
                result, stamp = rng.choice(history)
            else:
                result, stamp = "fabricated", make_stamp(10**6, 0)
        events.append(("complete", op_id, now, result, stamp))
    # Half of the stuck ops finally complete, long after their window.
    for op_id in sorted(stuck):
        if rng.random() < 0.5:
            kind, key, value, stamp = pending.pop(op_id)
            now += 1.0
            result = "OK" if kind == "write" else BOTTOM
            events.append(("complete", op_id, now, result, stamp))
    return events


def _key_states(checker):
    """Every key's retained state, minus the prune bookkeeping."""
    return {
        key: {
            name: getattr(state, name)
            for cls in type(state).__mro__
            for name in getattr(cls, "__slots__", ())
            if name != "pruned_at"
        }
        for key, state in checker._keys.items()
    }


def _replay(events, checker, reference):
    """Feed ``events`` to both checkers in lockstep; after every
    completion the key states must agree and the checker's floor must
    match its definition."""
    records = ({}, {})
    for event in events:
        if event[0] == "begin":
            for fed, by_id in zip((checker, reference), records):
                record = OperationRecord(**event[1])
                by_id[record.op_id] = record
                fed.on_begin(record)
            continue
        _, op_id, completed_at, result, stamp = event
        skipped = op_id in checker._overrun
        for fed, by_id in zip((checker, reference), records):
            record = by_id.pop(op_id)
            record.completed_at = completed_at
            record.result = result
            if stamp is not None:
                record.meta["ts"] = stamp
            fed.on_complete(record)
        if not skipped:
            assert checker._floor == min(
                checker._pending.values(), default=completed_at
            )
            assert len(checker._floor_heap) <= 2 * checker.overrun_ops
        assert _key_states(checker) == _key_states(reference)
    return checker.report(), reference.report()


@pytest.mark.parametrize("mode, checker_cls, reference_cls", [
    ("sw", OnlineChecker, _ReferenceSw),
    ("mw", MultiWriterOnlineChecker, _ReferenceMw),
])
@pytest.mark.parametrize("seed", range(12))
def test_floor_and_prune_skip_match_their_definitions(
    mode, checker_cls, reference_cls, seed
):
    rng = random.Random(f"checker-floor:{mode}:{seed}")
    overrun_ops = rng.choice((3, 8, 40))
    events = _events(rng, mode, n_ops=400, n_keys=rng.randint(1, 4))
    report, reference = _replay(
        events,
        checker_cls(overrun_ops=overrun_ops),
        reference_cls(overrun_ops=overrun_ops),
    )
    assert report.atomic == reference.atomic
    assert report.violations == reference.violations
    assert report.max_retained == reference.max_retained
    assert report.overrun_unchecked == reference.overrun_unchecked
    assert report == reference


def test_streams_exercise_the_hard_cases():
    """The generator really produces what the test above relies on:
    evictions, late completions of evicted ops, completions that
    predate the floor, and violations to compare."""
    overruns = predating = violations = 0
    for seed in range(12):
        rng = random.Random(f"checker-floor:sw:{seed}")
        overrun_ops = rng.choice((3, 8, 40))
        events = _events(rng, "sw", n_ops=400, n_keys=rng.randint(1, 4))
        checker = OnlineChecker(overrun_ops=overrun_ops)
        records = {}
        for event in events:
            if event[0] == "begin":
                record = OperationRecord(**event[1])
                records[record.op_id] = record
                checker.on_begin(record)
                continue
            _, op_id, completed_at, result, _ = event
            record = records.pop(op_id)
            record.completed_at, record.result = completed_at, result
            checker.on_complete(record)
            predating += completed_at < checker._floor
        report = checker.report()
        overruns += report.overrun_unchecked
        violations += report.violation_count
    assert overruns > 0
    assert predating > 0
    assert violations > 0
