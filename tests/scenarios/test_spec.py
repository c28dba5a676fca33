"""Spec construction, named RQS resolution and registry error cases."""

import dataclasses
import hashlib

import pytest

from repro.core.rqs import RefinedQuorumSystem
from repro.errors import PropertyViolation, ScenarioError, UnknownProtocolError
from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import (
    FaultPlan,
    RandomMix,
    Read,
    ScenarioSpec,
    SweepSpec,
    Write,
    available_protocols,
    crashes,
    get_protocol,
    named_rqs,
    resolve_rqs,
    run,
    run_grid,
)


class TestScenarioSpec:
    def test_spec_is_frozen(self):
        spec = ScenarioSpec(protocol="rqs-storage", rqs="example6")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.protocol = "abd"

    def test_workload_normalized_to_tuple(self):
        spec = ScenarioSpec(protocol="abd", workload=[Write(0.0, "v")])
        assert isinstance(spec.workload, tuple)

    def test_params_are_read_only(self):
        spec = ScenarioSpec(protocol="abd", params={"n": 7})
        assert spec.param("n") == 7
        assert spec.param("missing", 3) == 3
        with pytest.raises(TypeError):
            spec.params["n"] = 9

    def test_with_replaces_fields(self):
        spec = ScenarioSpec(protocol="rqs-storage", rqs="example6")
        other = spec.with_(protocol="abd", rqs=None)
        assert other.protocol == "abd" and spec.protocol == "rqs-storage"

    @pytest.mark.parametrize("n_keys", (0, -3))
    def test_n_keys_validated_at_construction(self, n_keys):
        with pytest.raises(ScenarioError, match="n_keys must be >= 1"):
            ScenarioSpec(protocol="abd", n_keys=n_keys)

    def test_n_writers_validated_at_construction(self):
        with pytest.raises(ScenarioError, match="n_writers must be >= 1"):
            ScenarioSpec(protocol="abd", n_writers=0)

    @pytest.mark.parametrize("skew", (-0.1, -2.0))
    def test_random_mix_skew_validated_at_construction(self, skew):
        with pytest.raises(ScenarioError, match="skew must be >= 0"):
            RandomMix(2, 3, horizon=10.0, distribution="zipfian",
                      skew=skew)

    def test_random_mix_zero_skew_is_valid(self):
        mix = RandomMix(2, 3, horizon=10.0, distribution="zipfian",
                        skew=0.0)
        assert mix.skew == 0.0


class TestNamedRqs:
    def test_known_names_resolve(self):
        for name in named_rqs():
            assert isinstance(resolve_rqs(name), RefinedQuorumSystem)

    def test_instance_and_none_pass_through(self):
        rqs = resolve_rqs("example6")
        assert resolve_rqs(rqs) is rqs
        assert resolve_rqs(None) is None

    def test_threshold_construction_string(self):
        rqs = resolve_rqs("threshold:8,3,1,1,2")
        assert len(rqs.ground_set) == 8 and rqs.is_valid()

    def test_novalidate_suffix(self):
        rqs = resolve_rqs("threshold:8,3,1,1,3,novalidate")
        assert not rqs.is_valid()

    def test_majority_and_byzantine_and_pbft(self):
        assert len(resolve_rqs("majority:5").ground_set) == 5
        assert len(resolve_rqs("byzantine:7").ground_set) == 7
        assert len(resolve_rqs("pbft:1").ground_set) == 4

    def test_unknown_name_raises(self):
        with pytest.raises(ScenarioError, match="unknown RQS name"):
            resolve_rqs("no-such-system")

    def test_bad_construction_string_raises(self):
        with pytest.raises(ScenarioError):
            resolve_rqs("threshold:8,oops")


def _fingerprint_digest(point, result):
    """Grid measure hook (module-level so forked workers can run it)."""
    digest = hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()
    return {"fingerprint": digest}


class TestResolveMemo:
    """Strings resolve once per process; everything else passes through."""

    @pytest.mark.parametrize("spec", (
        "example6", "grid-hetero", "threshold:8,3,1,1,2", "majority:5",
        "byzantine:7", "pbft:1",
    ))
    def test_equal_strings_share_one_system(self, spec):
        equal = "".join(list(spec))  # an equal string, not the same object
        assert resolve_rqs(spec) is resolve_rqs(equal)

    def test_novalidate_is_its_own_entry(self):
        broken = resolve_rqs("threshold:8,3,1,1,3,novalidate")
        assert broken is resolve_rqs("threshold:8,3,1,1,3,novalidate")
        assert not broken.is_valid()
        for name in named_rqs():
            assert resolve_rqs(name) is not broken
        assert resolve_rqs("threshold:8,3,1,1,2") is not broken

    def test_failures_are_never_cached(self):
        for _ in range(3):
            with pytest.raises(PropertyViolation):
                resolve_rqs("threshold:8,3,1,1,3")
        for _ in range(2):
            with pytest.raises(ScenarioError):
                resolve_rqs("threshold:8,oops")

    def test_planning_systems_lift_fresh(self):
        from repro.core.algebra import demo_grid_system

        system = demo_grid_system()
        assert resolve_rqs(system) is not resolve_rqs(system)

    def test_shards_see_the_parent_resolution(self):
        """Resolved in the parent first, then inherited by forked shard
        workers: the sharded run agrees with the unsharded one."""
        spec = keyed_mix_spec(
            protocol="rqs-storage", n_keys=8, writes=30, reads=40,
            readers=3, trace_level="metrics", seed=5,
        )
        assert resolve_rqs(spec.rqs) is spec.resolved_rqs()
        base = run(spec)
        sharded = run(spec.with_(shards=2))
        for kind in (None, "write", "read"):
            assert sharded.ops_begun(kind) == base.ops_begun(kind)
            assert sharded.ops_completed(kind) == base.ops_completed(kind)
        assert sharded.online.keys == base.online.keys
        assert sharded.online.verdict == base.online.verdict == "atomic"

    def test_grid_workers_match_an_unsharded_run(self):
        """Resolved in the parent, then run again in forked grid workers:
        every cell's fingerprint equals the direct in-process run's."""
        base = ScenarioSpec(
            protocol="rqs-storage", rqs="example6", readers=2,
            workload=(Write(0.0, "a"), Read(0.5), Write(3.0, "b"),
                      Read(3.5), Read(20.0)),
            faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0, 3: 0.0})),
        )
        resolve_rqs("example6")
        sweep = SweepSpec(
            name="resolve-memo", axes={"seed": (0, 1), "readers": (1, 2)},
            base=base,
            measure=_fingerprint_digest,
        )
        pooled = run_grid(sweep, executor="multiprocessing", processes=2)
        for seed in (0, 1):
            for readers in (1, 2):
                direct = _fingerprint_digest(
                    None, run(base.with_(seed=seed, readers=readers))
                )
                cell = pooled.cell(seed=seed, readers=readers).require()
                assert cell.metrics["fingerprint"] == direct["fingerprint"]


class TestRegistry:
    def test_all_paper_protocols_registered(self):
        registered = available_protocols()
        for protocol in ("rqs-storage", "abd", "fastabd",
                         "rqs-consensus", "paxos", "pbft"):
            assert protocol in registered

    def test_unknown_protocol_raises_with_known_list(self):
        with pytest.raises(UnknownProtocolError, match="rqs-storage"):
            get_protocol("raft")

    def test_run_rejects_unknown_protocol(self):
        with pytest.raises(UnknownProtocolError):
            run(ScenarioSpec(protocol="raft"))

    def test_storage_protocol_requires_rqs(self):
        with pytest.raises(ScenarioError, match="requires a quorum"):
            run(ScenarioSpec(protocol="rqs-storage"))

    def test_crash_target_must_exist(self):
        from repro.scenarios import Crash

        spec = ScenarioSpec(
            protocol="abd",
            faults=FaultPlan(crashes=(Crash("ghost", 0.0),)),
        )
        with pytest.raises(ScenarioError, match="ghost"):
            run(spec)
