"""The acceptor's update cascade (Figure 15, lines 34-38) fires once.

``Acceptor._handle_update`` triggers only quorums that can still fire: a
step-1 quorum already in ``update_q[(1, view)]`` is skipped, and once
``update2`` went out in a view no further step-2 trigger is made.  The
reference below is the full-scan handler, which calls ``_trigger_update``
for every complete quorum on every update message.  Every call it makes
beyond the acceptor's must be a no-op, so each scenario is run with
both handlers and must match message for message and state for state.
"""

import random

import pytest

from repro.consensus.acceptor import Acceptor
from repro.consensus.messages import Update
from repro.consensus.proposer import EquivocatingProposer
from repro.consensus.system import ConsensusSystem
from repro.experiments.stress import liveness_grid
from repro.scenarios import run
from tests.consensus.test_protocol import RQS, SilentAcceptor
from tests.scenarios.test_golden_fingerprints import SPECS


def _reference_handle_update(self, src, update):
    """The full-scan cascade: every complete quorum, every message."""
    if src not in self.rqs.ground_set:
        return
    decided = self._decisions.record(src, update)
    if decided is not None:
        self._decide(decided)
    if update.step not in (1, 2):
        return
    senders = self._update_senders(update.step, update.value, update.view)
    senders.add(src)
    if (
        update.value != self.prep
        or update.view != self.view
        or self.view not in self.prep_view
    ):
        return
    step, value = update.step, update.value
    for quorum in self.rqs.quorums:
        if not quorum <= senders:
            continue
        self._trigger_update(step, value, quorum)


def _liveness_system(gst):
    (spec,) = liveness_grid(gst, 300.0).specs()
    return run(spec).system


def _golden_contended():
    return run(SPECS["rqs-consensus-contended"]).system


def _two_proposers():
    system = ConsensusSystem(RQS, n_proposers=2, n_learners=3)
    system.propose_at(0.0, "A", proposer_index=0)
    system.propose_at(0.0, "B", proposer_index=1)
    system.run(until=600.0)
    return system


def _equivocating_proposer():
    system = ConsensusSystem(
        RQS, n_proposers=2, proposer_factories={0: EquivocatingProposer}
    )
    system.propose_at(0.0, "EVIL", proposer_index=0)
    system.propose_at(1.0, "GOOD", proposer_index=1)
    system.run(until=600.0)
    return system


def _silent_acceptor():
    system = ConsensusSystem(RQS, acceptor_factories={8: SilentAcceptor})
    system.run_best_case("V")
    return system


def _value_change():
    """One acceptor's cascade across view changes: view 1 keeps the
    prepared value of view 0 and view 2 changes it, so each step fires
    again in every view and takes ``_trigger_update``'s reset path in
    view 2.

    Acceptor 1's view and prepared value are set as a valid new_view and
    prepare would set them.  Each view's update1 and update2 messages
    from every acceptor arrive in a seeded shuffled order; all but the
    last four arrive before the acceptor enters the view, so one message
    can complete many quorums at once, and stale messages of the
    previous view are mixed in.
    """
    system = ConsensusSystem(RQS, n_proposers=2, n_learners=1)
    target = system.acceptors[1]
    ground = sorted(RQS.ground_set)
    quorum = RQS.quorums[0]
    rng = random.Random(5)
    stale = []
    for view, value in ((0, "B"), (1, "B"), (2, "A")):
        batch = [
            (sender, Update(step, value, view, quorum if step == 2 else None))
            for step in (1, 2)
            for sender in ground
        ]
        rng.shuffle(batch)
        early, late = batch[:-4], batch[-4:]
        for sender, update in early:
            target._handle_update(sender, update)
        target.view = view
        if target.prep == value:
            target.prep_view.add(view)
        else:
            target.prep, target.prep_view = value, {view}
        for sender, update in late + stale:
            target._handle_update(sender, update)
        system.run(until=system.sim.now + 10.0)
        stale = batch[::3]
    return system


SCENARIOS = {
    **{
        f"e9-gst{int(gst)}": (lambda gst=gst: _liveness_system(gst))
        for gst in (20.0, 30.0, 40.0, 50.0)
    },
    "golden-rqs-consensus-contended": _golden_contended,
    "threshold-two-proposers": _two_proposers,
    "byzantine-equivocating-proposer": _equivocating_proposer,
    "byzantine-silent-acceptor": _silent_acceptor,
    "value-change-across-views": _value_change,
}


def _observe(system):
    """Everything the cascade can influence, in comparable form."""
    log = [
        (m.src, m.dst, repr(m.payload), m.send_time, m.deliver_time,
         m.held, m.dropped)
        for m in system.network.log
    ]
    learners = [
        (learner.pid, learner.learned, learner.learned_at)
        for learner in system.learners
    ]
    acceptors = {
        aid: (
            dict(acceptor.update),
            {step: set(views) for step, views in acceptor.update_view.items()},
            {key: set(quorums) for key, quorums in acceptor.update_q.items()},
            dict(acceptor.update_proof),
            acceptor.view,
            acceptor.decided,
        )
        for aid, acceptor in system.acceptors.items()
    }
    return log, learners, acceptors


@pytest.fixture(scope="module")
def observations():
    """Each scenario observed under the reference and the new handler."""
    patch = pytest.MonkeyPatch()
    try:
        patch.setattr(Acceptor, "_handle_update", _reference_handle_update)
        reference = {name: _observe(build()) for name, build in SCENARIOS.items()}
    finally:
        patch.undo()
    current = {name: _observe(build()) for name, build in SCENARIOS.items()}
    return reference, current


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cascade_matches_full_scan(observations, name):
    reference, current = observations
    ref_log, ref_learners, ref_acceptors = reference[name]
    log, learners, acceptors = current[name]
    assert len(log) == len(ref_log)
    assert log == ref_log
    assert learners == ref_learners
    assert acceptors == ref_acceptors


def test_scenarios_cover_view_and_value_changes(observations):
    _, current = observations
    views = [
        state[4]
        for _, _, acceptors in current.values()
        for state in acceptors.values()
    ]
    assert max(views) > 0
    for name, (_, learners, _) in current.items():
        if name != "value-change-across-views":
            assert any(learned is not None for _, learned, _ in learners), name
    # Both steps fired in each view of the value change, so each step's
    # second firing went through the reset path.
    log, _, acceptors = current["value-change-across-views"]
    sent = {payload for src, _, payload, *_ in log if src == 1}
    for step in (2, 3):
        for value, view in (("B", 0), ("B", 1), ("A", 2)):
            prefix = f"Update(step={step}, value={value!r}, view={view},"
            assert any(p.startswith(prefix) for p in sent), prefix
    assert acceptors[1][0] == {1: "A", 2: "A"}


@pytest.mark.parametrize("name", ["e9-gst40", "value-change-across-views"])
def test_every_trigger_broadcasts(monkeypatch, name):
    """Work bound: each ``_trigger_update`` call sends an update (the
    full-scan reference makes ~550k calls per E9 cell for 752 sends)."""
    counts = {"triggers": 0, "broadcasts": 0, "idle": 0}
    trigger = Acceptor._trigger_update
    broadcast = Acceptor._broadcast_update

    def counting_broadcast(self, update):
        counts["broadcasts"] += 1
        broadcast(self, update)

    def counting_trigger(self, step, value, quorum):
        counts["triggers"] += 1
        before = counts["broadcasts"]
        trigger(self, step, value, quorum)
        if counts["broadcasts"] == before:
            counts["idle"] += 1

    monkeypatch.setattr(Acceptor, "_broadcast_update", counting_broadcast)
    monkeypatch.setattr(Acceptor, "_trigger_update", counting_trigger)
    SCENARIOS[name]()
    assert counts["triggers"] > 0
    assert counts["idle"] == 0
