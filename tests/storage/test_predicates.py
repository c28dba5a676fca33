"""Tests for the reader-side predicates (Figure 7 lines 1-9)."""

import random
from typing import List, Tuple

import pytest

from repro.core.constructions import example7_rqs, threshold_rqs
from repro.scenarios import resolve_rqs
from repro.storage.history import (
    INITIAL_PAIR,
    Entry,
    History,
    HistoryView,
    Pair,
)
from repro.storage.predicates import QuorumId, ReadState


def snapshot_with(ts, rnd, value, quorums=frozenset()):
    history = History()
    history.store(ts, rnd, value, quorums)
    return history.snapshot()


def empty_snapshot():
    return History().snapshot()


class TestValid1:
    def test_holds_with_basic_holder_set(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        c = Pair(1, "v")
        for server in (1, 2):
            state.record_ack(server, 1, snapshot_with(1, 1, "v"))
        quorum = frozenset({1, 2, 3, 4})
        assert state.valid1(c, quorum)

    def test_fails_with_corruptible_holder_set(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        c = Pair(1, "v")
        state.record_ack(1, 1, snapshot_with(1, 1, "v"))  # one holder ∈ B1
        assert not state.valid1(c, frozenset({1, 2, 3, 4}))


class TestValid2:
    def test_single_slot2_holder_suffices(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        state.record_ack(3, 1, snapshot_with(1, 2, "v"))
        assert state.valid2(Pair(1, "v"), frozenset({3, 4, 5}))
        assert not state.valid2(Pair(1, "v"), frozenset({4, 5}))


class TestValid3:
    def test_example7_p3b_scenario(self):
        """The Figure 4 ex5 situation: {s3,s4} hold c with Q2's id,
        {s1,s2} lie; P3b makes it valid."""
        rqs = example7_rqs()
        q2 = frozenset({"s1", "s2", "s3", "s4", "s5"})
        q2p = frozenset({"s1", "s2", "s3", "s4", "s6"})
        state = ReadState(rqs)
        c = Pair(1, 1)
        for server in ("s3", "s4"):
            state.record_ack(
                server, 1, snapshot_with(1, 1, 1, frozenset({q2}))
            )
        for server in ("s1", "s2", "s6"):
            state.record_ack(server, 1, empty_snapshot())
        assert state.valid3(c, q2p)

    def test_fails_without_quorum_ids(self):
        rqs = example7_rqs()
        q2p = frozenset({"s1", "s2", "s3", "s4", "s6"})
        state = ReadState(rqs)
        for server in ("s3", "s4"):
            state.record_ack(server, 1, snapshot_with(1, 1, 1))  # no ids
        for server in ("s1", "s2", "s6"):
            state.record_ack(server, 1, empty_snapshot())
        assert not state.valid3(Pair(1, 1), q2p)


class TestSafetyPredicates:
    def test_safe_requires_basic_confirmations(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        state.record_ack(1, 1, snapshot_with(9, 1, "fake"))
        assert not state.safe(Pair(9, "fake"))
        state.record_ack(2, 1, snapshot_with(9, 1, "fake"))
        assert state.safe(Pair(9, "fake"))

    def test_bottom_is_always_readable(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        for server in (1, 2):
            state.record_ack(server, 1, empty_snapshot())
        assert state.safe(Pair(0, state.entry(1, 0, 1).pair.val))

    def test_invalid_by_highest_ts(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        for server in (1, 2, 3, 4):
            state.record_ack(server, 1, empty_snapshot())
        state.freeze_round1()
        assert state.highest_ts == 0
        assert state.invalid(Pair(5, "future"))

    def test_candidate_selection_prefers_high_timestamp(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        state = ReadState(rqs)
        for server in (1, 2, 3, 4, 5):
            history = History()
            history.store(1, 2, "old", frozenset())
            history.store(2, 2, "new", frozenset())
            state.record_ack(server, 1, history.snapshot())
        state.freeze_round1()
        assert state.select() == Pair(2, "new")


class TestBcd:
    def test_bcd1_requires_class1_intersections(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        state = ReadState(rqs)
        c = Pair(1, "v")
        # 6 holders: Q1∩Q1' can be covered (8 - 2q = 6) -> holds.
        for server in range(3, 9):
            state.record_ack(server, 1, snapshot_with(1, 1, "v"))
        assert state.bcd1(c, 1)
        # with only 5 holders it must fail
        fresh = ReadState(rqs)
        for server in range(4, 9):
            fresh.record_ack(server, 1, snapshot_with(1, 1, "v"))
        assert not fresh.bcd1(c, 1)

    def test_bcd1_r2_needs_quorum_id(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        c = Pair(1, "v")
        qr = frozenset(range(3, 9))  # a class-2 quorum (6 elements)
        with_ids = ReadState(rqs)
        without_ids = ReadState(rqs)
        for server in range(3, 9):
            with_ids.record_ack(
                server, 1, snapshot_with(1, 2, "v", frozenset({qr}))
            )
            without_ids.record_ack(server, 1, snapshot_with(1, 2, "v"))
        assert with_ids.bcd1(c, 2)
        assert not without_ids.bcd1(c, 2)

    def test_bcd2_returns_confirmed_class2_quorums(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        state = ReadState(rqs)
        c = Pair(1, "v")
        for server in range(2, 9):
            state.record_ack(server, 1, snapshot_with(1, 1, "v"))
        state.freeze_round1()
        confirmed = state.bcd2(c, 1)
        assert confirmed
        assert all(q in set(rqs.qc2) for q in confirmed)

    def test_bcd2_empty_without_round1_class2_quorum(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        state = ReadState(rqs)
        c = Pair(1, "v")
        for server in range(4, 9):  # only 5 responders: no class-2 quorum
            state.record_ack(server, 1, snapshot_with(1, 1, "v"))
        state.freeze_round1()
        assert state.bcd2(c, 1) == ()


class SetBasedReadState(ReadState):
    """The set-based predicates the bitmask kernel replaced, kept
    verbatim as the oracle of the differential test below."""

    def high_cand(self, c: Pair) -> bool:
        """Line 9: every readable pair with a higher timestamp is invalid."""
        for candidate in self.observed_pairs():
            if candidate.ts > c.ts and not self.invalid(candidate):
                return False
        return True

    def candidates(self) -> List[Pair]:
        """Line 33: ``C = {c | safe(c) ∧ highCand(c)}``."""
        return [
            c
            for c in self.observed_pairs()
            if self.safe(c) and self.high_cand(c)
        ]

    def bcd1(self, c: Pair, big_r: int) -> bool:
        """``BCD(c, 1, R)`` (line 1).

        Holds iff there are a class-1 quorum ``Q1`` and a class-``R``
        quorum ``QR`` such that every server of ``Q1 ∩ QR`` reports
        ``⟨c, ·⟩`` in slot ``R`` — and, when ``R = 2``, reports ``QR``
        among its slot-2 quorum ids.  (We allow per-server id sets; the
        paper's single shared ``Set`` is the uncontended special case.)
        """
        for q1 in self.rqs.qc1:
            for qr in self.rqs.class_quorums(big_r):
                intersection = q1 & qr
                if not intersection:
                    continue
                ok = True
                for s in intersection:
                    entry = self.entry(s, c.ts, big_r)
                    if entry.pair != c:
                        ok = False
                        break
                    if big_r == 2 and qr not in entry.sets:
                        ok = False
                        break
                if ok:
                    return True
        return False

    def bcd2(self, c: Pair, big_r: int) -> Tuple[QuorumId, ...]:
        """``BCD(c, 2, R)`` (line 2): the class-2 quorums of ``QC'2`` that
        are "confirmed" through some class-``R`` quorum."""
        result = []
        for q2 in self.qc2_responded:
            for qr in self.rqs.class_quorums(big_r):
                intersection = qr & q2
                if not intersection:
                    continue
                if all(
                    self.entry(s, c.ts, big_r).pair == c
                    for s in intersection
                ):
                    result.append(q2)
                    break
        return tuple(result)


DIFFERENTIAL_SYSTEMS = (
    "example6", "example7", "figure3", "section12",
    "threshold:7,2,2,0,2", "grid-hetero",
)


def random_views(rqs, rng):
    """One random reader state, fed identically to the kernel and to the
    oracle, plus the pairs worth asking about.

    A random subset of servers answers (the rest never do and read as
    ``⟨0, ⊥⟩``).  Each answering server's cells at the asked-about
    timestamps hold the favoured pair, a rival pair, or nothing, and
    slot-2 cells carry no ids, a favoured class-2 quorum's id, random
    class-2 ids, or an id that is not a class-2 quorum.
    """
    servers = sorted(rqs.ground_set, key=repr)
    favourite = rng.choice(rqs.qc2) if rqs.qc2 else None
    stray = frozenset(servers[:1])  # never a class-2 quorum here
    pairs = (INITIAL_PAIR, Pair(1, "a"), Pair(1, "b"), Pair(2, "a"))
    target = rng.choice(pairs)
    density = rng.random()
    states = (ReadState(rqs), SetBasedReadState(rqs))
    round1 = []
    for server in servers:
        if rng.random() < 0.2:
            continue  # never answered
        cells = {}
        for ts in (0, 1, 2):
            for rnd in (1, 2, 3):
                roll = rng.random()
                if roll < density:
                    pair = target if target.ts == ts else Pair(ts, "a")
                elif roll < density + (1 - density) / 2:
                    pair = rng.choice(pairs)
                else:
                    continue  # untouched cell: the initial entry
                ids = set()
                if rnd == 2:
                    if favourite is not None and rng.random() < 0.8:
                        ids.add(favourite)
                    if rqs.qc2 and rng.random() < 0.3:
                        ids.add(rng.choice(rqs.qc2))
                    if rng.random() < 0.1:
                        ids.add(stray)
                cells[(ts, rnd)] = Entry(pair, frozenset(ids))
        view = HistoryView(cells)
        rnd = 1 if rng.random() < 0.8 else 2
        if rnd == 1:
            round1.append(server)
        for state in states:
            state.record_ack(server, rnd, view)
    for state in states:
        state.freeze_round1()
    if rng.random() < 0.5:
        # Any QC'2 order: bcd2 must keep it.
        responded = [q for q in rqs.qc2 if rng.random() < 0.5]
        rng.shuffle(responded)
        for state in states:
            state.qc2_responded = tuple(responded)
    return states, pairs


class TestBcdKernelDifferential:
    """The bitmask best-case detector (and the once-per-call candidate
    scan) against the set-based oracle, over seeded random views."""

    VIEWS_PER_SYSTEM = 300

    @pytest.mark.parametrize("name", DIFFERENTIAL_SYSTEMS)
    def test_kernel_matches_set_oracle(self, name):
        rqs = resolve_rqs(name)
        rng = random.Random(f"bcd-kernel:{name}")
        agreed_true = 0
        for _ in range(self.VIEWS_PER_SYSTEM):
            (kernel, oracle), pairs = random_views(rqs, rng)
            for c in pairs:
                for big_r in (1, 2, 3):
                    expected = oracle.bcd1(c, big_r)
                    assert kernel.bcd1(c, big_r) == expected, (c, big_r)
                    agreed_true += expected
                    assert kernel.bcd2(c, big_r) == oracle.bcd2(c, big_r)
            assert kernel.candidates() == oracle.candidates()
            assert kernel.select() == oracle.select()
            for c in pairs:
                assert kernel.high_cand(c) == oracle.high_cand(c)
        # The draw reaches both answers, not just the easy one.
        assert agreed_true > 0

    def test_initial_pair_held_by_silent_servers(self):
        """A server that never answered reads ``⟨0, ⊥⟩`` in every slot:
        with nobody answering, ``BCD(⟨0, ⊥⟩, 1, R)`` holds for R ∈ {1, 3}
        but not for R = 2 (no server carries a quorum id)."""
        rqs = resolve_rqs("example6")
        kernel, oracle = ReadState(rqs), SetBasedReadState(rqs)
        for big_r in (1, 2, 3):
            assert kernel.bcd1(INITIAL_PAIR, big_r) == (big_r != 2)
            assert oracle.bcd1(INITIAL_PAIR, big_r) == (big_r != 2)
