"""Tests for the RefinedQuorumSystem container."""

import pytest

from repro.core.adversary import ExplicitAdversary, ThresholdAdversary
from repro.core.constructions import (
    example7_rqs,
    figure3_rqs,
    threshold_rqs,
)
from repro.core.rqs import RefinedQuorumSystem, describe
from repro.errors import PropertyViolation, QuorumSystemError

SERVERS = tuple(range(1, 6))


def crash_adversary():
    return ExplicitAdversary(SERVERS)


class TestShapeValidation:
    def test_requires_a_quorum(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(crash_adversary(), [])

    def test_rejects_empty_quorum(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(crash_adversary(), [set()])

    def test_rejects_quorum_outside_ground(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(crash_adversary(), [{1, 99}])

    def test_qc2_must_be_subfamily(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(
                crash_adversary(), [{1, 2, 3}], qc1=(), qc2=[{3, 4, 5}]
            )

    def test_qc1_must_be_within_qc2(self):
        with pytest.raises(QuorumSystemError):
            RefinedQuorumSystem(
                crash_adversary(),
                [{1, 2, 3}, {3, 4, 5}],
                qc1=[{1, 2, 3}],
                qc2=[{3, 4, 5}],
            )

    def test_default_qc2_equals_qc1(self):
        rqs = threshold_rqs(5, 1, 0, 1, 1)
        flat = RefinedQuorumSystem(
            rqs.adversary, rqs.quorums, qc1=rqs.qc1
        )
        assert flat.qc2 == flat.qc1


class TestValidation:
    def test_eager_validation_raises_with_witness(self):
        adv = ThresholdAdversary(SERVERS, 1)
        with pytest.raises(PropertyViolation) as exc:
            RefinedQuorumSystem(adv, [{1, 2, 3}, {3, 4, 5}])
        assert exc.value.property_name == "P1"

    def test_deferred_validation_collects_violations(self):
        adv = ThresholdAdversary(SERVERS, 1)
        rqs = RefinedQuorumSystem(
            adv, [{1, 2, 3}, {3, 4, 5}], validate=False
        )
        assert not rqs.is_valid()
        names = [name for name, _ in rqs.violations()]
        assert "P1" in names

    def test_valid_system_reports_no_violations(self):
        assert figure3_rqs().violations() == ()


class TestQuorumClasses:
    def test_classes_are_nested(self):
        rqs = figure3_rqs()
        assert set(rqs.qc1) <= set(rqs.qc2) <= set(rqs.quorums)

    def test_quorum_class_returns_best(self):
        rqs = figure3_rqs()
        for quorum in rqs.qc1:
            assert rqs.quorum_class(quorum) == 1

    def test_quorum_class_rejects_non_quorum(self):
        rqs = figure3_rqs()
        with pytest.raises(QuorumSystemError):
            rqs.quorum_class({1})

    def test_quorums_of_exact_class(self):
        rqs = figure3_rqs()
        exact = rqs.quorums_of_exact_class(2)
        assert all(rqs.quorum_class(q) == 2 for q in exact)
        assert not set(exact) & set(rqs.qc1)

    def test_class_quorums_3_is_all(self):
        rqs = example7_rqs()
        assert rqs.class_quorums(3) == rqs.quorums
        with pytest.raises(ValueError):
            rqs.class_quorums(4)


class TestMasks:
    def test_bit_order_and_masks(self):
        rqs = threshold_rqs(8, 3, 1, 1, 2)
        masks = rqs.masks
        assert masks is rqs.masks  # built once per instance
        assert masks.order == tuple(sorted(rqs.ground_set, key=repr))
        for i, server in enumerate(masks.order):
            assert masks.mask([server]) == 1 << i
        assert masks.mask(rqs.ground_set) == (1 << 8) - 1

    def test_detector_tables_keep_minimal_intersections(self):
        """Q1 misses at most q=1 server and QR at most R's budget, so the
        minimal intersections miss exactly both budgets: C(8, 2) for
        R = 1, C(8, 4) for R = 3."""
        masks = threshold_rqs(8, 3, 1, 1, 2).masks
        full = (1 << 8) - 1
        assert masks.bcd1(1, full) and masks.bcd1(3, full)
        assert not masks.bcd1(1, 0) and not masks.bcd1(3, 0)
        six = masks.mask(range(3, 9))
        four = masks.mask(range(5, 9))
        assert masks.bcd1(1, six) and not masks.bcd1(1, four)
        assert masks.bcd1(3, four)
        assert len(masks._bcd1[1]) == 28 and len(masks._bcd1[3]) == 70

    def test_pickling_drops_the_compiled_view(self):
        import pickle

        rqs = threshold_rqs(8, 3, 1, 1, 2)
        rqs.masks.bcd1(1, 0)
        clone = pickle.loads(pickle.dumps(rqs))
        assert "masks" not in vars(clone)
        assert clone.masks.order == rqs.masks.order
        assert clone.quorum_class(rqs.qc1[0]) == 1


class TestSelectionHelpers:
    def test_responding_quorums(self):
        rqs = example7_rqs()
        responders = {"s1", "s2", "s3", "s4", "s5"}
        assert rqs.responding_quorums(responders, cls=2)
        assert not rqs.responding_quorums({"s1", "s2"}, cls=3)

    def test_some_responding_quorum_deterministic(self):
        rqs = example7_rqs()
        responders = rqs.ground_set
        first = rqs.some_responding_quorum(responders)
        second = rqs.some_responding_quorum(responders)
        assert first == second

    def test_correct_quorum_avoids_faulty(self):
        rqs = threshold_rqs(5, 1, 1, 0, 1)
        quorum = rqs.correct_quorum({1})
        assert quorum is not None and 1 not in quorum
        assert rqs.correct_quorum({1, 2, 3}) is None

    def test_iteration_and_len(self):
        rqs = example7_rqs()
        assert len(rqs) == 3
        assert set(iter(rqs)) == set(rqs.quorums)


def test_describe_mentions_classes():
    text = describe(figure3_rqs())
    assert "class 1" in text and "valid" in text
