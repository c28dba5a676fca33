"""The refined quorum system abstraction (Definition 2 of the paper).

A :class:`RefinedQuorumSystem` bundles

* a ground set ``S`` of servers,
* an adversary structure ``B`` over ``S``,
* a family ``RQS`` of quorums (subsets of ``S``), and
* two nested quorum classes ``QC1 ⊆ QC2 ⊆ RQS``

and validates Properties 1–3 on construction (unless deferred).  Quorums
that are in ``QC1`` are *class-1*, those in ``QC2 \\ QC1`` are *class-2*
and the rest are *class-3*; per the paper, class-1 quorums are also
class-2 quorums which are also class-3 quorums, so :meth:`quorum_class`
returns the *best* (smallest-numbered) class of a quorum.

A system is immutable, so the set algebra the reader's best-case
detector runs on every read is compiled once per instance into
:class:`RqsMasks` (see :attr:`RefinedQuorumSystem.masks`).
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Tuple,
)

from repro.core.adversary import Adversary, as_subset
from repro.core import properties as props
from repro.errors import PropertyViolation, QuorumSystemError

Subset = FrozenSet[Hashable]


class RefinedQuorumSystem:
    """A validated refined quorum system.

    Parameters
    ----------
    adversary:
        The adversary structure ``B`` (its ground set is taken as ``S``).
    quorums:
        The family ``RQS`` of all quorums (class-3 view of the system).
    qc1, qc2:
        The class-1 and class-2 quorum families.  Membership is by set
        equality; each must be a sub-family of ``quorums`` and
        ``qc1 ⊆ qc2`` must hold.
    validate:
        When ``True`` (default) Properties 1–3 are checked eagerly and a
        :class:`~repro.errors.PropertyViolation` is raised on failure.
        Pass ``False`` to build deliberately-broken systems for the
        lower-bound experiments, then call :meth:`violations` yourself.
    """

    def __init__(
        self,
        adversary: Adversary,
        quorums: Iterable[Iterable[Hashable]],
        qc1: Iterable[Iterable[Hashable]] = (),
        qc2: Optional[Iterable[Iterable[Hashable]]] = None,
        validate: bool = True,
    ):
        self._adversary = adversary
        self._quorums = props.normalize_family(quorums)
        self._qc1 = props.normalize_family(qc1)
        if qc2 is None:
            # Per the paper QC1 ⊆ QC2; with no explicit QC2 the smallest
            # legal choice is QC2 = QC1.
            self._qc2 = self._qc1
        else:
            self._qc2 = props.normalize_family(qc2)
        self._quorum_set = frozenset(self._quorums)
        self._qc1_set = frozenset(self._qc1)
        self._qc2_set = frozenset(self._qc2)
        self._check_shape()
        if validate:
            violation = self.first_violation()
            if violation is not None:
                name, witness = violation
                raise PropertyViolation(name, (witness,), witness.describe())

    # -- construction invariants --------------------------------------------

    def _check_shape(self) -> None:
        ground = self._adversary.ground_set
        if not self._quorums:
            raise QuorumSystemError("RQS must contain at least one quorum")
        for quorum in self._quorums:
            if not quorum <= ground:
                raise QuorumSystemError(
                    f"quorum {set(quorum)} is not a subset of S"
                )
            if not quorum:
                raise QuorumSystemError("quorums must be non-empty")
        if not self._qc2_set <= self._quorum_set:
            raise QuorumSystemError("QC2 must be a sub-family of RQS")
        if not self._qc1_set <= self._qc2_set:
            raise QuorumSystemError("QC1 must be a sub-family of QC2")

    # The compiled view is a per-process cache: rebuild it after unpickling
    # rather than shipping its memo tables.
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("masks", None)
        return state

    # -- basic accessors -----------------------------------------------------

    @property
    def adversary(self) -> Adversary:
        return self._adversary

    @property
    def ground_set(self) -> Subset:
        return self._adversary.ground_set

    @property
    def quorums(self) -> Tuple[Subset, ...]:
        """All quorums (the class-3 view, ``QC3 = RQS``)."""
        return self._quorums

    @property
    def qc1(self) -> Tuple[Subset, ...]:
        return self._qc1

    @property
    def qc2(self) -> Tuple[Subset, ...]:
        return self._qc2

    def class_quorums(self, cls: int) -> Tuple[Subset, ...]:
        """The family ``QC_cls`` for ``cls ∈ {1, 2, 3}`` (``QC3 = RQS``)."""
        if cls == 1:
            return self._qc1
        if cls == 2:
            return self._qc2
        if cls == 3:
            return self._quorums
        raise ValueError(f"quorum class must be 1, 2 or 3, got {cls}")

    def is_quorum(self, candidate: Iterable[Hashable]) -> bool:
        return as_subset(candidate) in self._quorum_set

    def quorum_class(self, quorum: Iterable[Hashable]) -> int:
        """Best (lowest) class of ``quorum``; raises if it is not a quorum."""
        target = as_subset(quorum)
        if target in self._qc1_set:
            return 1
        if target in self._qc2_set:
            return 2
        if target in self._quorum_set:
            return 3
        raise QuorumSystemError(f"{set(target)} is not a quorum of this RQS")

    def quorums_of_exact_class(self, cls: int) -> Tuple[Subset, ...]:
        """Quorums whose *best* class is exactly ``cls``."""
        return tuple(
            q for q in self._quorums if self.quorum_class(q) == cls
        )

    @cached_property
    def masks(self) -> "RqsMasks":
        """The bitmask compilation of this system, built on first use."""
        return RqsMasks(self)

    # -- predicates re-exported for algorithm code ---------------------------

    def is_basic(self, subset: Iterable[Hashable]) -> bool:
        """Definition 5: ``subset ∉ B``."""
        return self._adversary.is_basic(subset)

    def is_large(self, subset: Iterable[Hashable]) -> bool:
        """Definition 5: ``subset`` not covered by a union of two B-sets."""
        return self._adversary.is_large(subset)

    def p3a(self, q2: Subset, q: Subset, b: Subset) -> bool:
        return props.p3a(self._adversary, q2, q, b)

    def p3b(self, q2: Subset, q: Subset, b: Subset) -> bool:
        return props.p3b(self._qc1, q2, q, b)

    # -- validation ----------------------------------------------------------

    def first_violation(self):
        """Return ``(name, witness)`` for the first violated property.

        Checks Properties 1, 2, 3 in order; returns ``None`` when all hold.
        """
        w1 = props.check_property1(self._adversary, self._quorums)
        if w1 is not None:
            return ("P1", w1)
        w2 = props.check_property2(self._adversary, self._qc1, self._quorums)
        if w2 is not None:
            return ("P2", w2)
        w3 = props.check_property3(
            self._adversary, self._qc1, self._qc2, self._quorums
        )
        if w3 is not None:
            return ("P3", w3)
        return None

    def violations(self) -> Tuple[Tuple[str, object], ...]:
        """All violated properties with witnesses (possibly empty)."""
        found = []
        w1 = props.check_property1(self._adversary, self._quorums)
        if w1 is not None:
            found.append(("P1", w1))
        w2 = props.check_property2(self._adversary, self._qc1, self._quorums)
        if w2 is not None:
            found.append(("P2", w2))
        w3 = props.check_property3(
            self._adversary, self._qc1, self._qc2, self._quorums
        )
        if w3 is not None:
            found.append(("P3", w3))
        return tuple(found)

    def is_valid(self) -> bool:
        return self.first_violation() is None

    # -- quorum selection helpers (used by protocol clients) -----------------

    def responding_quorums(
        self, responders: Iterable[Hashable], cls: int = 3
    ) -> Tuple[Subset, ...]:
        """All class-``cls`` quorums fully contained in ``responders``.

        This is the "did some quorum of class *cls* respond?" test used
        throughout the storage and consensus algorithms.
        """
        got = as_subset(responders)
        return tuple(
            q for q in self.class_quorums(cls) if q <= got
        )

    def some_responding_quorum(
        self, responders: Iterable[Hashable], cls: int = 3
    ) -> Optional[Subset]:
        """An arbitrary (deterministic) responding class-``cls`` quorum."""
        candidates = self.responding_quorums(responders, cls)
        return candidates[0] if candidates else None

    def correct_quorum(
        self, faulty: Iterable[Hashable], cls: int = 3
    ) -> Optional[Subset]:
        """A class-``cls`` quorum avoiding every process in ``faulty``."""
        bad = as_subset(faulty)
        for quorum in self.class_quorums(cls):
            if not (quorum & bad):
                return quorum
        return None

    def __iter__(self) -> Iterator[Subset]:
        return iter(self._quorums)

    def __len__(self) -> int:
        return len(self._quorums)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RefinedQuorumSystem(|S|={len(self.ground_set)}, "
            f"|RQS|={len(self._quorums)}, |QC2|={len(self._qc2)}, "
            f"|QC1|={len(self._qc1)})"
        )


def _minimal(masks: Iterable[int]) -> Tuple[int, ...]:
    """The inclusion-minimal non-zero masks among ``masks``.

    "Some mask is contained in ``M``" holds iff some minimal one is, so
    the detector tables keep only those, smallest first.
    """
    kept = []
    by_size = sorted(set(masks) - {0}, key=lambda m: (bin(m).count("1"), m))
    for mask in by_size:
        if all(small & ~mask for small in kept):
            kept.append(mask)
    return tuple(kept)


class RqsMasks:
    """A refined quorum system compiled to bitmasks over its ground set.

    Server ``order[i]`` is bit ``1 << i`` (the ground set sorted by
    ``repr``), so a set of servers is an ``int`` and containment is
    ``a & ~b == 0``.  The tables serve the best-case detector
    ``BCD`` (Figure 7, lines 1-2), whose inputs are the intersections of
    two quorum families, and whose question is always "is some
    intersection held entirely by the servers in mask ``M``?":

    * ``BCD(c, 1, R)`` for ``R ∈ {1, 3}``: the intersections ``Q1 ∩ QR``
      as one table per ``R``;
    * ``BCD(c, 1, 2)``: ``Q1 ∩ Q2`` per class-2 quorum ``Q2``, because a
      server only counts for ``Q2`` when it also carries ``Q2``'s id;
    * ``BCD(c, 2, R)``: ``QR ∩ Q2`` per class-2 quorum ``Q2``.

    Each table keeps only its inclusion-minimal non-empty intersections.
    Answers are pure functions of ``(R, M)``, memoised here: at most
    ``2ⁿ`` masks per ``R`` for ``n`` servers.
    """

    def __init__(self, rqs: RefinedQuorumSystem):
        self.order: Tuple[Hashable, ...] = tuple(
            sorted(rqs.ground_set, key=repr)
        )
        self.bits: Tuple[Tuple[Hashable, int], ...] = tuple(
            (server, 1 << i) for i, server in enumerate(self.order)
        )
        self._bit = dict(self.bits)
        family = {
            cls: tuple(self.mask(q) for q in rqs.class_quorums(cls))
            for cls in (1, 2, 3)
        }
        self._bcd1 = {
            big_r: _minimal(
                q1 & qr for q1 in family[1] for qr in family[big_r]
            )
            for big_r in (1, 3)
        }
        self._bcd1_by_q2 = {
            q2: _minimal(q1 & mask2 for q1 in family[1])
            for q2, mask2 in zip(rqs.qc2, family[2])
        }
        self._bcd2 = {
            big_r: tuple(
                (q2, _minimal(qr & mask2 for qr in family[big_r]))
                for q2, mask2 in zip(rqs.qc2, family[2])
            )
            for big_r in (1, 2, 3)
        }
        self._bcd1_memo: Dict[Tuple[int, int], bool] = {}
        self._bcd2_memo: Dict[Tuple[int, int], FrozenSet[Subset]] = {}

    def mask(self, servers: Iterable[Hashable]) -> int:
        """The bitmask of ``servers`` (each must be in the ground set)."""
        result = 0
        for server in servers:
            result |= self._bit[server]
        return result

    def bcd1(self, big_r: int, held: int) -> bool:
        """``BCD(c, 1, R)`` for ``R ∈ {1, 3}``, given the mask ``held`` of
        servers reporting ``⟨c, ·⟩`` in slot ``R``."""
        key = (big_r, held)
        answer = self._bcd1_memo.get(key)
        if answer is None:
            answer = self._bcd1_memo[key] = any(
                not inter & ~held for inter in self._bcd1[big_r]
            )
        return answer

    def bcd1_slot2(self, q2: Subset, held: int) -> bool:
        """``BCD(c, 1, 2)`` through class-2 quorum ``q2``, given the mask
        ``held`` of servers reporting ``⟨c, ·⟩`` in slot 2 with ``q2``'s
        id; ``False`` when ``q2`` is not a class-2 quorum."""
        return any(
            not inter & ~held for inter in self._bcd1_by_q2.get(q2, ())
        )

    def bcd2(self, big_r: int, held: int) -> FrozenSet[Subset]:
        """The class-2 quorums ``Q2`` some class-``R`` quorum confirms in
        ``BCD(c, 2, R)``, given the mask ``held`` of servers reporting
        ``⟨c, ·⟩`` in slot ``R``."""
        key = (big_r, held)
        answer = self._bcd2_memo.get(key)
        if answer is None:
            answer = self._bcd2_memo[key] = frozenset(
                q2 for q2, table in self._bcd2[big_r]
                if any(not inter & ~held for inter in table)
            )
        return answer


def describe(rqs: RefinedQuorumSystem) -> str:
    """A human-readable multi-line description of an RQS (for examples)."""
    lines = [
        f"Ground set S ({len(rqs.ground_set)}): {sorted(map(repr, rqs.ground_set))}",
        f"Quorums ({len(rqs.quorums)}):",
    ]
    for quorum in rqs.quorums:
        cls = rqs.quorum_class(quorum)
        lines.append(f"  class {cls}: {sorted(map(repr, quorum))}")
    status = "valid" if rqs.is_valid() else "INVALID"
    lines.append(f"Properties 1-3: {status}")
    return "\n".join(lines)
