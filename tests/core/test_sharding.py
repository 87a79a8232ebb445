"""EPC-aware sharding: routing table, policy, live migration, chaos.

The contract under test is the ISSUE-10 tentpole: a cluster with an
explicit mutable routing table whose live migrations are byte-exact —
match sets identical to an unsharded engine before, during and after a
migration, no registration lost or duplicated, on both execution
backends, and with crashes landing mid-window wherever a seeded
schedule puts them.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cluster import MatcherCluster
from repro.core.sharding import (RoutingTable, ScaleAction,
                                 ShardingPolicy, SliceSample)
from repro.errors import RoutingError
from repro.matching.events import Event
from repro.matching.poset import ContainmentForest
from repro.matching.subscriptions import Subscription
from repro.obs.metrics import MetricsRegistry
from repro.recovery.supervisor import CrashSchedule
from repro.sgx.cpu import scaled_spec
from repro.workloads.datasets import build_dataset

SPEC = scaled_spec(llc_bytes=256 * 1024)


def _sample(slice_id, subscriptions=100, index_bytes=0, live_bytes=0,
            allocated_bytes=0, resident_bytes=0, epc_faults=0):
    return SliceSample(slice_id=slice_id, subscriptions=subscriptions,
                       index_bytes=index_bytes, live_bytes=live_bytes,
                       allocated_bytes=allocated_bytes,
                       resident_bytes=resident_bytes,
                       epc_faults=epc_faults)


class TestRoutingTable:

    def test_assign_lookup_remove(self):
        table = RoutingTable(2)
        table.assign(("k1", "a"), 0)
        table.assign(("k2", "b"), 1)
        assert table.slice_of(("k1", "a")) == 0
        assert ("k1", "a") in table
        assert len(table) == 2
        assert table.counts() == [1, 1]
        assert table.remove(("k1", "a")) == 0
        assert table.slice_of(("k1", "a")) is None
        assert len(table) == 1

    def test_members_keep_insertion_order(self):
        table = RoutingTable(1)
        keys = [(f"k{i}", i) for i in range(10)]
        for key in keys:
            table.assign(key, 0)
        assert table.members(0) == keys

    def test_double_assign_and_missing_remove_raise(self):
        table = RoutingTable(1)
        table.assign(("k", "a"), 0)
        with pytest.raises(RoutingError):
            table.assign(("k", "a"), 0)
        with pytest.raises(RoutingError):
            table.remove(("ghost", "g"))
        with pytest.raises(RoutingError):
            table.assign(("k2", "b"), 5)
        with pytest.raises(RoutingError):
            RoutingTable(0)

    def test_flip_moves_all_under_one_version(self):
        table = RoutingTable(2)
        keys = [(f"k{i}", i) for i in range(4)]
        for key in keys:
            table.assign(key, 0)
        version = table.version
        table.flip({key: 1 for key in keys[:3]})
        assert table.version == version + 1
        assert table.counts() == [1, 3]
        assert table.members(1) == keys[:3]

    def test_flip_validates_before_moving_anything(self):
        table = RoutingTable(2)
        table.assign(("k", "a"), 0)
        with pytest.raises(RoutingError):
            table.flip({("k", "a"): 1, ("ghost", "g"): 1})
        # the valid half of the batch must not have moved
        assert table.slice_of(("k", "a")) == 0
        with pytest.raises(RoutingError):
            table.flip({("k", "a"): 7})

    def test_add_slice(self):
        table = RoutingTable(1)
        assert table.add_slice() == 1
        table.assign(("k", "a"), 1)
        assert table.counts() == [0, 1]


class TestShardingPolicy:

    def test_validation(self):
        for kwargs in ({"split_threshold_bytes": 0},
                       {"grow_fill": 0.0}, {"grow_fill": 1.5},
                       {"split_fraction": 1.0}, {"max_slices": 0},
                       {"rebalance_ratio": 1.0}, {"merge_fill": 2.0}):
            with pytest.raises(RoutingError):
                ShardingPolicy(**kwargs)

    def test_splits_every_slice_over_threshold(self):
        policy = ShardingPolicy(split_threshold_bytes=1000,
                                min_split_subscriptions=10)
        actions = policy.decide([
            _sample(0, subscriptions=100, index_bytes=1500),
            _sample(1, subscriptions=100, index_bytes=400),
            _sample(2, subscriptions=100, index_bytes=1000)])
        assert [(a.kind, a.source) for a in actions] == \
            [("split", 0), ("split", 2)]
        assert all(a.move == 50 for a in actions)

    def test_split_respects_min_subscriptions_and_headroom(self):
        policy = ShardingPolicy(split_threshold_bytes=1000,
                                min_split_subscriptions=200)
        # too few subscriptions to split: falls through to a grow
        actions = policy.decide([_sample(0, subscriptions=100,
                                         index_bytes=5000)])
        assert [a.kind for a in actions] == ["grow"]
        capped = ShardingPolicy(split_threshold_bytes=1000,
                                min_split_subscriptions=10,
                                max_slices=2)
        actions = capped.decide([
            _sample(0, subscriptions=50, index_bytes=2000),
            _sample(1, subscriptions=50, index_bytes=2000)])
        assert actions == []  # no headroom left

    def test_grow_when_all_slices_near_threshold(self):
        policy = ShardingPolicy(split_threshold_bytes=1000,
                                grow_fill=0.75)
        actions = policy.decide([_sample(0, index_bytes=800),
                                 _sample(1, index_bytes=900)])
        assert [a.kind for a in actions] == ["grow"]
        # one cold slice suppresses the grow
        assert policy.decide([_sample(0, index_bytes=800),
                              _sample(1, index_bytes=100)]) == []

    def test_rebalance_largest_into_smallest(self):
        policy = ShardingPolicy(split_threshold_bytes=10_000,
                                rebalance_ratio=4.0)
        actions = policy.decide([
            _sample(0, subscriptions=400, index_bytes=8000),
            _sample(1, subscriptions=40, index_bytes=800)])
        assert [(a.kind, a.source, a.target, a.move)
                for a in actions] == [("rebalance", 0, 1, 180)]
        # below rebalance_min_bytes nothing moves
        quiet = policy.decide([
            _sample(0, subscriptions=40, index_bytes=800),
            _sample(1, subscriptions=4, index_bytes=80)])
        assert quiet == []

    def test_merge_only_when_enabled(self):
        samples = [_sample(0, subscriptions=10, index_bytes=100),
                   _sample(1, subscriptions=10, index_bytes=100),
                   _sample(2, subscriptions=10, index_bytes=100)]
        assert ShardingPolicy(
            split_threshold_bytes=10_000).decide(samples) == []
        actions = ShardingPolicy(split_threshold_bytes=10_000,
                                 merge_fill=0.5).decide(samples)
        assert [(a.kind, a.source, a.target)
                for a in actions] == [("merge", 0, 1)]

    def test_working_set_is_max_of_index_and_live(self):
        assert _sample(0, index_bytes=10,
                       live_bytes=20).working_set_bytes == 20
        assert _sample(0, index_bytes=30,
                       live_bytes=20).working_set_bytes == 30

    def test_empty_samples(self):
        assert ShardingPolicy().decide([]) == []


def _registered_cluster(n_slices=2, n_subs=240, backend="serial",
                        assignment="round-robin", seed=2016):
    dataset = build_dataset("e80a1", n_subs, 40, seed=seed)
    cluster = MatcherCluster(n_slices, spec=SPEC, backend=backend,
                             assignment=assignment)
    reference = ContainmentForest()
    for index, subscription in enumerate(dataset.subscriptions):
        cluster.register(subscription, f"c{index}")
        reference.insert(subscription, f"c{index}")
    return cluster, reference, dataset


def _assert_matches_reference(cluster, reference, events):
    for event in events:
        assert cluster.match(event).subscribers == \
            reference.match(event)


class TestEpcAwarePlacement:

    def test_least_loaded_placement_balances_bytes(self):
        cluster = MatcherCluster(3, spec=SPEC, assignment="epc-aware")
        for i in range(60):
            cluster.register(
                Subscription.parse({"x": (i, i + 1)}), i)
        sizes = cluster.slice_sizes()
        assert sum(sizes) == 60
        assert max(sizes) - min(sizes) <= 1

    def test_reregistration_is_idempotent_and_stays_put(self):
        cluster = MatcherCluster(2, spec=SPEC, assignment="epc-aware")
        sub = Subscription.parse({"x": (0, 10)})
        first = cluster.register(sub, "a")
        assert cluster.register(sub, "a") == first
        assert cluster.n_subscriptions == 1

    def test_unregister_shrinks_working_set(self):
        cluster = MatcherCluster(1, spec=SPEC)
        subs = [Subscription.parse({"x": (i, i + 1)})
                for i in range(20)]
        for i, sub in enumerate(subs):
            cluster.register(sub, i)
        before = cluster.working_set_bytes()[0]
        for i, sub in enumerate(subs[:10]):
            assert cluster.unregister(sub, i)
        assert cluster.working_set_bytes()[0] < before
        assert not cluster.unregister(subs[0], 0)  # already gone
        assert cluster.match(
            Event({"x": 15.5})).subscribers == {15}


class TestLiveMigration:

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_match_sets_exact_before_during_after(self, backend):
        cluster, reference, dataset = _registered_cluster(
            backend=backend)
        try:
            events = dataset.publications
            _assert_matches_reference(cluster, reference, events)
            ticket = cluster.stage_migration(0)
            # staged window: source still serves the staged keys
            _assert_matches_reference(cluster, reference, events)
            moved = cluster.complete_migration(ticket)
            assert moved == len(ticket.keys)
            _assert_matches_reference(cluster, reference, events)
            assert cluster.n_subscriptions == \
                reference.n_subscriptions
        finally:
            cluster.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_window_writes_replay_onto_target(self, backend):
        cluster, reference, dataset = _registered_cluster(
            backend=backend)
        try:
            staged_keys = cluster.table.members(0)
            ticket = cluster.stage_migration(0, keys=staged_keys)
            # withdraw one staged registration mid-window...
            key = staged_keys[3]
            subscription, subscriber = cluster._objects[key]
            assert cluster.unregister(subscription, subscriber)
            reference.remove_subscriber(subscription, subscriber)
            # ...and re-register it (lands wherever placement says)
            cluster.register(subscription, subscriber)
            reference.insert(subscription, subscriber)
            moved = cluster.complete_migration(ticket)
            # the re-registered copy may live elsewhere now; everyone
            # still routed to the source moved exactly once
            assert moved == len([k for k in staged_keys
                                 if cluster.table.slice_of(k) ==
                                 ticket.target])
            _assert_matches_reference(cluster, reference,
                                      dataset.publications)
        finally:
            cluster.close()

    def test_in_flight_match_batch_sees_no_tear(self):
        cluster, reference, dataset = _registered_cluster()
        events = dataset.publications
        expected = [reference.match(event) for event in events]
        ticket = cluster.stage_migration(0)
        during = cluster.match_batch(events)
        cluster.complete_migration(ticket)
        after = cluster.match_batch(events)
        assert [r.subscribers for r in during] == expected
        assert [r.subscribers for r in after] == expected

    def test_backends_agree_on_latency_through_migration(self):
        serial, _, dataset = _registered_cluster(backend="serial")
        process, _, _ = _registered_cluster(backend="process")
        try:
            for cluster in (serial, process):
                cluster.migrate(0)
                cluster.warm()
            for a, b in zip(serial.match_batch(dataset.publications),
                            process.match_batch(dataset.publications)):
                assert a.subscribers == b.subscribers
                assert a.slice_latencies_us == b.slice_latencies_us
        finally:
            process.close()

    def test_tampered_checkpoint_refuses_to_complete(self):
        cluster, _, _ = _registered_cluster()
        ticket = cluster.stage_migration(0)
        sealed = bytearray(ticket.checkpoint.sealed_bytes)
        sealed[len(sealed) // 2] ^= 0xFF
        object.__setattr__(ticket.checkpoint, "sealed_bytes",
                           bytes(sealed))
        with pytest.raises(RoutingError, match="verification"):
            cluster.complete_migration(ticket)

    def test_ticket_lifecycle_guards(self):
        cluster, _, _ = _registered_cluster()
        ticket = cluster.migrate(0)
        assert ticket.state == "completed"
        with pytest.raises(RoutingError):
            cluster.complete_migration(ticket)
        with pytest.raises(RoutingError):
            cluster.abort_migration(ticket)
        second = cluster.stage_migration(0)
        with pytest.raises(RoutingError):  # one staged per source
            cluster.stage_migration(0)
        cluster.abort_migration(second)
        assert cluster.migrations_aborted == 1
        # after the abort the source can stage again
        cluster.stage_migration(0)

    def test_stage_validates_inputs(self):
        cluster, _, _ = _registered_cluster()
        with pytest.raises(RoutingError):
            cluster.stage_migration(9)
        with pytest.raises(RoutingError):
            cluster.stage_migration(0, target=0)
        foreign = cluster.table.members(1)[0]
        with pytest.raises(RoutingError):
            cluster.stage_migration(0, keys=[foreign])
        empty = cluster.add_slice()
        with pytest.raises(RoutingError):
            cluster.stage_migration(empty)

    def test_migrate_to_fresh_slice_grows_cluster(self):
        cluster, reference, dataset = _registered_cluster()
        before = cluster.n_slices
        ticket = cluster.migrate(0, fraction=0.25)
        assert cluster.n_slices == before + 1
        assert ticket.target == before
        assert cluster.slice_sizes()[ticket.target] == ticket.moved
        _assert_matches_reference(cluster, reference,
                                  dataset.publications)


class TestCrashDuringMigration:

    def test_source_crash_while_staged_recovers_and_completes(self):
        """Kill the source worker mid-window (victim drawn from a
        seeded CrashSchedule): recovery replays the routing table's
        truth, the staged ticket survives, completion stays exact."""
        cluster, reference, dataset = _registered_cluster(
            n_slices=3, backend="process")
        try:
            schedule = CrashSchedule(seed=42)
            source = schedule.pick(cluster.n_slices)
            ticket = cluster.stage_migration(source)
            table_before = {
                key: cluster.table.slice_of(key)
                for key in cluster.table.members(source)}
            cluster.slices[source].kill()
            replayed = cluster.recover_slice(source)
            assert replayed == len(table_before)
            # recovery must not touch the routing table
            assert all(cluster.table.slice_of(key) == owner
                       for key, owner in table_before.items())
            assert cluster.complete_migration(ticket) == \
                len(ticket.keys)
            _assert_matches_reference(cluster, reference,
                                      dataset.publications)
        finally:
            cluster.close()

    def test_target_crash_while_staged_recovers_and_completes(self):
        cluster, reference, dataset = _registered_cluster(
            n_slices=2, backend="process")
        try:
            ticket = cluster.stage_migration(0, target=1)
            cluster.slices[ticket.target].kill()
            cluster.recover_slice(ticket.target)
            cluster.complete_migration(ticket)
            _assert_matches_reference(cluster, reference,
                                      dataset.publications)
        finally:
            cluster.close()

    def test_dead_target_fails_before_the_flip(self):
        """The target replay is acknowledged, not buffered: completing
        onto a dead target raises with the ticket still staged, the
        table unflipped and the source serving every staged key; after
        recovering the target the same ticket completes exactly."""
        cluster, reference, dataset = _registered_cluster(
            n_slices=2, backend="process")
        try:
            ticket = cluster.stage_migration(0, target=1)
            version = cluster.table.version
            cluster.slices[ticket.target].kill()
            with pytest.raises(RoutingError):
                cluster.complete_migration(ticket)
            assert ticket.state == "staged"
            assert cluster.table.version == version
            assert all(cluster.table.slice_of(key) == ticket.source
                       for key in ticket.keys)
            cluster.recover_slice(ticket.target)
            _assert_matches_reference(cluster, reference,
                                      dataset.publications)
            assert cluster.complete_migration(ticket) == \
                len(ticket.keys)
            assert cluster.table.version == version + 1
            _assert_matches_reference(cluster, reference,
                                      dataset.publications)
        finally:
            cluster.close()

    def test_seeded_crash_schedule_through_migration_sequence(self):
        """A whole seeded chaos run: stage, crash a scheduled victim,
        recover, complete — repeatedly — with zero lost or duplicated
        registrations at every step."""
        cluster, reference, dataset = _registered_cluster(
            n_slices=2, n_subs=160, backend="process")
        try:
            schedule = CrashSchedule(seed=7)
            for _ in range(3):
                sources = [s for s in range(cluster.n_slices)
                           if cluster.table.members(s)]
                source = sources[schedule.pick(len(sources))]
                ticket = cluster.stage_migration(source)
                victim = schedule.pick(cluster.n_slices)
                cluster.slices[victim].kill()
                cluster.recover_slice(victim)
                cluster.complete_migration(ticket)
                assert cluster.n_subscriptions == \
                    reference.n_subscriptions
                assert sum(cluster.slice_sizes()) == \
                    reference.n_subscriptions
                _assert_matches_reference(cluster, reference,
                                          dataset.publications)
        finally:
            cluster.close()


class TestAutoscale:

    def test_split_on_threshold(self):
        cluster, reference, dataset = _registered_cluster(n_slices=1)
        threshold = cluster.working_set_bytes()[0] // 2
        policy = ShardingPolicy(split_threshold_bytes=threshold,
                                min_split_subscriptions=10,
                                max_slices=8)
        actions = cluster.autoscale(policy)
        assert [a.kind for a in actions] == ["split"]
        assert cluster.n_slices == 2
        assert cluster.splits == 1
        assert cluster.migrations_completed == 1
        _assert_matches_reference(cluster, reference,
                                  dataset.publications)

    def test_dry_run_plans_without_applying(self):
        cluster, _, _ = _registered_cluster(n_slices=1)
        threshold = cluster.working_set_bytes()[0] // 2
        policy = ShardingPolicy(split_threshold_bytes=threshold,
                                min_split_subscriptions=10,
                                dry_run=True)
        actions = cluster.autoscale(policy)
        assert [a.kind for a in actions] == ["split"]
        assert cluster.n_slices == 1
        assert cluster.migrations_staged == 0

    def test_grow_adds_empty_slice(self):
        cluster, _, _ = _registered_cluster(n_slices=2)
        fill = max(cluster.working_set_bytes())
        policy = ShardingPolicy(split_threshold_bytes=fill * 4,
                                grow_fill=0.1)
        actions = cluster.autoscale(policy)
        assert [a.kind for a in actions] == ["grow"]
        assert cluster.n_slices == 3
        assert cluster.slice_sizes()[2] == 0

    def test_merge_retires_source_from_placement(self):
        cluster, reference, dataset = _registered_cluster(
            n_slices=3, n_subs=60)
        policy = ShardingPolicy(split_threshold_bytes=10 ** 9,
                                merge_fill=1.0)
        actions = cluster.autoscale(policy)
        assert [a.kind for a in actions] == ["merge"]
        retired = actions[0].source
        assert cluster.slice_sizes()[retired] == 0
        for i in range(40):
            placed = cluster.register(
                Subscription.parse({"z": (i, i + 1)}), f"m{i}")
            assert placed != retired
        _assert_matches_reference(cluster, reference,
                                  dataset.publications)

    def test_repeated_autoscale_converges_and_stays_exact(self):
        cluster, reference, dataset = _registered_cluster(
            n_slices=1, n_subs=300)
        threshold = max(cluster.working_set_bytes()[0] // 4, 1)
        policy = ShardingPolicy(split_threshold_bytes=threshold,
                                min_split_subscriptions=10,
                                max_slices=16)
        for _ in range(6):
            if not cluster.autoscale(policy):
                break
        assert cluster.n_slices > 1
        assert max(cluster.working_set_bytes()) < \
            cluster.working_set_bytes()[0] * 4
        _assert_matches_reference(cluster, reference,
                                  dataset.publications)


class TestClusterMetrics:

    def test_gauges_track_occupancy_and_migrations(self):
        registry = MetricsRegistry()
        cluster = MatcherCluster(2, spec=SPEC, metrics=registry)
        for i in range(30):
            cluster.register(
                Subscription.parse({"x": (i, i + 2)}), i)
        snapshot = registry.snapshot()
        assert snapshot["cluster.slices"] == 2
        assert snapshot["cluster.subscriptions"] == 30
        assert snapshot["cluster.slice_subscriptions.0"] + \
            snapshot["cluster.slice_subscriptions.1"] == 30
        assert snapshot["cluster.slice_bytes.0"] > 0
        assert snapshot["cluster.migrations_completed"] == 0

        cluster.migrate(0)
        snapshot = registry.snapshot()
        assert snapshot["cluster.slices"] == 3
        assert snapshot["cluster.migrations_completed"] == 1
        assert snapshot["cluster.migrated_subscriptions"] > 0
        assert snapshot["cluster.routing_version"] == 1
        # the migration target got gauges the moment it was added
        assert "cluster.slice_subscriptions.2" in snapshot
        assert snapshot["cluster.slice_subscriptions.2"] > 0

    def test_resident_pages_gauge_counts_epc_pages(self):
        registry = MetricsRegistry()
        cluster = MatcherCluster(1, spec=SPEC, metrics=registry)
        for i in range(20):
            cluster.register(
                Subscription.parse({"x": (i, i + 2)}), i)
        cluster.warm()
        cluster.match(Event({"x": 5}))
        snapshot = registry.snapshot()
        assert snapshot["cluster.epc_resident_pages"] > 0
        assert snapshot["cluster.slice_resident_pages.0"] == \
            snapshot["cluster.epc_resident_pages"]


class TestInterleavingProperty:

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.sampled_from(["reg", "unreg", "mig"]),
                              st.integers(0, 39)),
                    min_size=1, max_size=40),
           st.integers(0, 2 ** 16))
    def test_random_interleaving_matches_flat_engine(self, ops, seed):
        """Any interleaving of register / unregister / migrate leaves
        the cluster's match sets identical to a flat forest's."""
        subs = [Subscription.parse(
            {"x": (i % 10, i % 10 + 3), "y": (i % 7, i % 7 + 2)})
            for i in range(40)]
        events = [Event({"x": v, "y": v % 7}) for v in range(12)]
        cluster = MatcherCluster(2, spec=SPEC, assignment="epc-aware")
        reference = ContainmentForest()
        live = set()
        for op, index in ops:
            sub, client = subs[index], f"c{index}"
            if op == "reg" and index not in live:
                cluster.register(sub, client)
                reference.insert(sub, client)
                live.add(index)
            elif op == "unreg" and index in live:
                assert cluster.unregister(sub, client)
                reference.remove_subscriber(sub, client)
                live.discard(index)
            elif op == "mig" and live:
                source = index % cluster.n_slices
                if cluster.table.members(source) \
                        and source not in cluster._staged_by_source:
                    cluster.migrate(source, fraction=0.5)
        assert cluster.n_subscriptions == len(live)
        for event in events:
            assert cluster.match(event).subscribers == \
                reference.match(event)
