"""Reader-side predicates of the storage algorithm (Figure 7, lines 1-9).

The reader accumulates per-server history snapshots (``view``) and the
set of servers that answered at least one ``rd`` message (from which the
``Responded`` quorum set derives).  All predicates are pure functions of
that state, bundled in :class:`ReadState` so the reader coroutine stays
close to the paper's pseudocode.

Predicate catalogue (paper line numbers in brackets):

* ``valid1(c, Q)`` [3] — a basic subset of ``Q`` reports ``c`` in slot 1.
* ``valid2(c, Q)`` [4] — some server of ``Q`` reports ``c`` in slot 2.
* ``valid3(c, Q)`` [5] — some class-2 quorum ``Q2`` and ``B ∈ B`` with
  ``P3b(Q2, Q, B)`` such that every server in ``Q2 ∩ Q \\ B`` reports
  ``c`` in slot 1 *with quorum id* ``Q2``.
* ``invalid(c)`` [6] — some responded quorum satisfies none of the
  above, or ``c.ts`` exceeds ``highest_ts``.
* ``read(c, i)`` [7], ``safe(c)`` [8], ``highCand(c)`` [9].
* ``BCD(c, 1, R)`` / ``BCD(c, 2, R)`` [1-2] — the best-case detector.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import Check, Condition
from repro.storage.history import EMPTY_VIEW, HistoryView, Pair

ServerId = Hashable
QuorumId = FrozenSet[ServerId]


class ReadState:
    """The predicate-relevant state of one read operation.

    Every predicate here is a pure function of the acks recorded by
    :meth:`record_ack`, so the state doubles as a signal hub for the
    indexed event loop: reader waits built via :meth:`when` are
    signalled exactly when an ack lands (and never re-polled
    otherwise).
    """

    def __init__(self, rqs: RefinedQuorumSystem):
        self.rqs = rqs
        self.view: Dict[ServerId, HistoryView] = {}
        self.acked_by_round: Dict[int, Set[ServerId]] = {}
        self.qc2_responded: Tuple[QuorumId, ...] = ()   # QC'2 (line 30-31)
        self.highest_ts: int = 0                        # (line 29)
        self._watchers: List[Condition] = []

    # -- state updates ---------------------------------------------------------

    def record_ack(self, server: ServerId, rnd: int, history: HistoryView) -> None:
        """Apply a ``rd_ack`` (Figure 7, lines 50-53)."""
        self.view[server] = history
        self.acked_by_round.setdefault(rnd, set()).add(server)
        for condition in self._watchers:
            condition.signal()

    def when(self, predicate, label: str = "") -> Condition:
        """An ack-indexed wait on any predicate over this state.

        Pair with :meth:`unwatch` once the wait resumes, so completed
        rounds stop fanning signals out to dead conditions.
        """
        condition = Check(predicate, label)
        self._watchers.append(condition)
        return condition

    def unwatch(self, condition: Condition) -> None:
        self._watchers.remove(condition)

    def responded_servers(self) -> Set[ServerId]:
        """Servers that answered at least one ``rd`` of this read."""
        return set(self.view)

    def responded_quorums(self) -> Tuple[QuorumId, ...]:
        """The ``Responded`` set (lines 52-53): fully-answering quorums."""
        got = self.responded_servers()
        return tuple(q for q in self.rqs.quorums if q <= got)

    def round_responders(self, rnd: int) -> Set[ServerId]:
        return set(self.acked_by_round.get(rnd, ()))

    def freeze_round1(self) -> None:
        """End-of-round-1 bookkeeping (lines 27-32): fix ``highest_ts``
        and record the class-2 quorums that responded in round 1."""
        self.highest_ts = max(
            (view.max_timestamp() for view in self.view.values()), default=0
        )
        round1 = self.round_responders(1)
        self.qc2_responded = tuple(
            q2 for q2 in self.rqs.qc2 if q2 <= round1
        )

    # -- low-level lookups --------------------------------------------------------

    def entry(self, server: ServerId, ts: int, rnd: int):
        return self.view.get(server, EMPTY_VIEW).get(ts, rnd)

    def read_pred(self, c: Pair, server: ServerId) -> bool:
        """``read(c, i)`` (line 7): ``c`` in slot 1 or 2 of the snapshot."""
        return (
            self.entry(server, c.ts, 1).pair == c
            or self.entry(server, c.ts, 2).pair == c
        )

    def observed_pairs(self) -> List[Pair]:
        """All candidate pairs: anything readable from any snapshot."""
        seen: Set[Pair] = set()
        for view in self.view.values():
            seen.update(view.pairs())
        return sorted(seen, key=lambda p: p.ts)

    # -- validity predicates ---------------------------------------------------------

    def valid1(self, c: Pair, quorum: QuorumId) -> bool:
        """Line 3: a basic ``T ⊆ Q`` stores ``c`` in slot 1.

        The maximal candidate ``T`` suffices: supersets of basic sets are
        basic (the adversary is subset-closed).
        """
        holders = {
            s for s in quorum if self.entry(s, c.ts, 1).pair == c
        }
        return self.rqs.is_basic(holders) if holders else False

    def valid2(self, c: Pair, quorum: QuorumId) -> bool:
        """Line 4: some server of ``Q`` stores ``c`` in slot 2."""
        return any(
            self.entry(s, c.ts, 2).pair == c for s in quorum
        )

    def valid3(self, c: Pair, quorum: QuorumId) -> bool:
        """Line 5: ∃ Q2 ∈ QC2, ∃ B ∈ B with P3b(Q2, Q, B) such that every
        server of ``Q2 ∩ Q \\ B`` stores ``c`` in slot 1 with id ``Q2``.

        For a fixed ``Q2`` the minimal witness ``B`` is the set of
        non-conforming servers of ``Q2 ∩ Q`` (any valid ``B`` must cover
        it, and P3b is anti-monotone in ``B``), so only that ``B`` needs
        checking.
        """
        for q2 in self.rqs.qc2:
            base = q2 & quorum
            conforming = {
                s
                for s in base
                if self.entry(s, c.ts, 1).pair == c
                and q2 in self.entry(s, c.ts, 1).sets
            }
            b = frozenset(base - conforming)
            if not self.rqs.adversary.contains(b):
                continue
            if self.rqs.p3b(q2, quorum, b):
                return True
        return False

    def invalid(self, c: Pair) -> bool:
        """Line 6."""
        return self._invalid(c, self.responded_quorums())

    def _invalid(self, c: Pair, responded: Tuple[QuorumId, ...]) -> bool:
        if c.ts > self.highest_ts:
            return True
        for quorum in responded:
            if not (
                self.valid1(c, quorum)
                or self.valid2(c, quorum)
                or self.valid3(c, quorum)
            ):
                return True
        return False

    def safe(self, c: Pair) -> bool:
        """Line 8: a basic subset of servers confirms ``c``.

        ``⟨0, ⊥⟩`` is readable from every snapshot by construction (empty
        cells report the initial entry), so the initial value is safe as
        soon as a basic subset has answered.
        """
        readers = {s for s in self.view if self.read_pred(c, s)}
        return bool(readers) and self.rqs.is_basic(readers)

    def high_cand(self, c: Pair) -> bool:
        """Line 9: every readable pair with a higher timestamp is invalid."""
        return self._high_cand(
            c, self.observed_pairs(), self.responded_quorums(), {}
        )

    def _high_cand(
        self,
        c: Pair,
        observed: List[Pair],
        responded: Tuple[QuorumId, ...],
        invalid: Dict[Pair, bool],
    ) -> bool:
        """:meth:`high_cand` over precomputed ``observed`` pairs and
        ``responded`` quorums, caching each pair's ``invalid`` verdict."""
        for candidate in observed:
            if candidate.ts > c.ts:
                verdict = invalid.get(candidate)
                if verdict is None:
                    verdict = invalid[candidate] = self._invalid(
                        candidate, responded
                    )
                if not verdict:
                    return False
        return True

    def candidates(self) -> List[Pair]:
        """Line 33: ``C = {c | safe(c) ∧ highCand(c)}``."""
        observed = self.observed_pairs()
        responded = self.responded_quorums()
        invalid: Dict[Pair, bool] = {}
        return [
            c
            for c in observed
            if self.safe(c)
            and self._high_cand(c, observed, responded, invalid)
        ]

    def select(self) -> Optional[Pair]:
        """Line 35: the candidate with the highest timestamp, or ``None``."""
        candidates = self.candidates()
        if not candidates:
            return None
        return max(candidates, key=lambda p: p.ts)

    # -- best-case detector ------------------------------------------------------------
    #
    # Both detectors ask whether some intersection of two quorum families
    # is held entirely by the servers reporting ``⟨c, ·⟩`` in slot ``R``;
    # the intersections are compiled once per system in ``rqs.masks``.

    def _holders(self, c: Pair, big_r: int) -> int:
        """Mask of servers whose slot-``R`` entry for ``c.ts`` holds ``c``.

        A server that never answered reads as the initial entry, so
        ``⟨0, ⊥⟩`` is held by every such server.
        """
        view = self.view
        held = 0
        for server, bit in self.rqs.masks.bits:
            if view.get(server, EMPTY_VIEW).get(c.ts, big_r).pair == c:
                held |= bit
        return held

    def bcd1(self, c: Pair, big_r: int) -> bool:
        """``BCD(c, 1, R)`` (line 1).

        Holds iff there are a class-1 quorum ``Q1`` and a class-``R``
        quorum ``QR`` such that every server of ``Q1 ∩ QR`` reports
        ``⟨c, ·⟩`` in slot ``R`` — and, when ``R = 2``, reports ``QR``
        among its slot-2 quorum ids.  (We allow per-server id sets; the
        paper's single shared ``Set`` is the uncontended special case.)
        """
        masks = self.rqs.masks
        if big_r != 2:
            return masks.bcd1(big_r, self._holders(c, big_r))
        # Slot 2 counts a server for QR only when it carries QR's id, so
        # the test runs per quorum id the conforming servers report.
        view = self.view
        held_by_id: Dict[QuorumId, int] = {}
        for server, bit in masks.bits:
            entry = view.get(server, EMPTY_VIEW).get(c.ts, 2)
            if entry.pair == c:
                for q2 in entry.sets:
                    held_by_id[q2] = held_by_id.get(q2, 0) | bit
        return any(
            masks.bcd1_slot2(q2, held) for q2, held in held_by_id.items()
        )

    def bcd2(self, c: Pair, big_r: int) -> Tuple[QuorumId, ...]:
        """``BCD(c, 2, R)`` (line 2): the class-2 quorums of ``QC'2`` that
        are "confirmed" through some class-``R`` quorum, in ``QC'2``
        order."""
        confirmed = self.rqs.masks.bcd2(big_r, self._holders(c, big_r))
        return tuple(q2 for q2 in self.qc2_responded if q2 in confirmed)
