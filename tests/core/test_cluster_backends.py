"""Serial vs process cluster backends must be indistinguishable.

The process backend changes *where* slices execute, never *what* they
compute: for the same registration sequence and event stream, both
backends must produce identical matched-client sets and identical
simulated latencies (the workers run the same deterministic platform
model in the same per-slice operation order). These tests drive both
backends with workload-drawn data across seeds and check exact
equality, plus the process-specific lifecycle paths (recovery,
shutdown, context manager).
"""

import pytest

from repro.core.cluster import MatcherCluster, _LocalSlice, _SliceWorker
from repro.errors import RoutingError
from repro.matching.events import Event
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.workloads.datasets import build_dataset

SPEC = scaled_spec(llc_bytes=256 * 1024)


def _paired_clusters(n_slices, assignment="round-robin"):
    serial = MatcherCluster(n_slices, spec=SPEC, assignment=assignment)
    process = MatcherCluster(n_slices, spec=SPEC, assignment=assignment,
                             backend="process")
    return serial, process


def _assert_equivalent(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.subscribers == b.subscribers
        assert a.slice_latencies_us == b.slice_latencies_us
        assert a.latency_us == b.latency_us


class TestBackendEquivalence:

    @pytest.mark.parametrize("workload,seed", [
        ("e80a1", 2016), ("e80a1", 99), ("e100a1zz100", 2016),
        ("e80a2", 7)])
    def test_workload_equivalence(self, workload, seed):
        """Property: same seed -> identical sets and latencies."""
        dataset = build_dataset(workload, 300, 60, seed=seed)
        serial, process = _paired_clusters(3)
        try:
            for index, subscription in enumerate(dataset.subscriptions):
                assert serial.register(subscription, f"c{index}") == \
                    process.register(subscription, f"c{index}")
            serial.warm()
            process.warm()
            _assert_equivalent(
                serial.match_batch(dataset.publications),
                process.match_batch(dataset.publications))
        finally:
            process.close()

    def test_interleaved_register_and_match(self):
        """Buffered registrations must not reorder around matches."""
        serial, process = _paired_clusters(2)
        try:
            event = Event({"symbol": "HAL", "price": 42.0})
            for wave in range(3):
                for i in range(5):
                    sub = Subscription.parse(
                        {"symbol": "HAL",
                         "price": ("<", 40.0 + 5 * wave + i)})
                    client = f"w{wave}-c{i}"
                    serial.register(sub, client)
                    process.register(sub, client)
                _assert_equivalent([serial.match(event)],
                                   [process.match(event)])
        finally:
            process.close()

    def test_symbol_hash_assignment_matches_serial(self):
        dataset = build_dataset("e100a1", 200, 30)
        serial, process = _paired_clusters(4, assignment="symbol-hash")
        try:
            for index, subscription in enumerate(dataset.subscriptions):
                serial.register(subscription, index)
                process.register(subscription, index)
            assert serial.slice_sizes() == process.slice_sizes()
            assert serial.slice_index_bytes() == \
                process.slice_index_bytes()
            _assert_equivalent(
                serial.match_batch(dataset.publications),
                process.match_batch(dataset.publications))
        finally:
            process.close()


class TestHandleParity:
    """A local handle and a worker handle are two places for the same
    slice: one op script gets equal replies from both, simulated
    latencies included."""

    def test_op_script_replies_are_equal(self):
        dataset = build_dataset("e80a1", 80, 16, seed=5)
        pairs = [(subscription, f"c{index}") for index, subscription
                 in enumerate(dataset.subscriptions)]
        events = dataset.publications
        script = [
            ("apply", [("reg",) + pair for pair in pairs]),
            ("sample", None),
            ("warm", None),
            ("match_batch", events),
            ("apply", [("unreg",) + pair for pair in pairs[::4]]
             + [("unreg", pairs[1][0], "never-registered")]),
            ("sample", None),
            ("match_batch", events),
        ]
        local = _LocalSlice(0, SPEC)
        worker = _SliceWorker(0, SPEC)
        try:
            for op, payload in script:
                assert local.call(op, payload) == \
                    worker.call(op, payload)
            # buffered writes land before the next request on both
            rejoin = [("reg",) + pair for pair in pairs[::4]]
            local.apply(rejoin)
            worker.apply(rejoin)
            assert local.call("match_batch", events) == \
                worker.call("match_batch", events)
            for handle in (local, worker):
                with pytest.raises(RoutingError):
                    handle.call("no-such-op")
            # the worker replied with the error and kept serving
            assert local.call("sample") == worker.call("sample")
        finally:
            worker.stop()

    def test_slices_is_the_handle_list_on_both_backends(self):
        for backend, handle_type in (("serial", _LocalSlice),
                                     ("process", _SliceWorker)):
            with MatcherCluster(2, spec=SPEC, backend=backend) as cluster:
                assert [type(handle) for handle in cluster.slices] == \
                    [handle_type] * 2
                cluster.add_slice()
                cluster.recover_slice(0)
                assert [type(handle) for handle in cluster.slices] == \
                    [handle_type] * 3


class TestColumnarSlices:
    """The columnar matcher backend composes with both execution
    backends: serial-columnar, process-columnar and serial-forest must
    all produce identical match sets (and the two columnar variants
    identical latencies) for the same registrations and events."""

    @pytest.mark.parametrize("workload,seed", [("e80a1", 2016),
                                               ("e80a2", 7)])
    def test_columnar_equivalence_across_backends(self, workload, seed):
        dataset = build_dataset(workload, 200, 40, seed=seed)
        forest = MatcherCluster(3, spec=SPEC)
        serial = MatcherCluster(3, spec=SPEC,
                                matcher_backend="columnar")
        process = MatcherCluster(3, spec=SPEC, backend="process",
                                 matcher_backend="columnar")
        try:
            for index, subscription in enumerate(dataset.subscriptions):
                forest.register(subscription, f"c{index}")
                serial.register(subscription, f"c{index}")
                process.register(subscription, f"c{index}")
            serial_results = serial.match_batch(dataset.publications)
            _assert_equivalent(serial_results,
                               process.match_batch(dataset.publications))
            for a, b in zip(forest.match_batch(dataset.publications),
                            serial_results):
                assert a.subscribers == b.subscribers
        finally:
            process.close()

    def test_columnar_recover_slice_replays_journal(self):
        dataset = build_dataset("e80a1", 120, 20)
        cluster = MatcherCluster(3, spec=SPEC,
                                 matcher_backend="columnar")
        for index, subscription in enumerate(dataset.subscriptions):
            cluster.register(subscription, index)
        baseline = [r.subscribers
                    for r in cluster.match_batch(dataset.publications)]
        assert cluster.recover_slice(1) == cluster.slice_sizes()[1]
        after = [r.subscribers
                 for r in cluster.match_batch(dataset.publications)]
        assert after == baseline

    def test_unknown_matcher_backend_rejected(self):
        from repro.errors import MatchingError
        with pytest.raises(MatchingError):
            MatcherCluster(2, spec=SPEC, matcher_backend="simd")


class TestProcessLifecycle:

    def test_unknown_backend_rejected(self):
        with pytest.raises(RoutingError):
            MatcherCluster(2, spec=SPEC, backend="threads")

    def test_recover_slice_replays_journal(self):
        dataset = build_dataset("e80a1", 120, 20)
        serial, process = _paired_clusters(3)
        try:
            for index, subscription in enumerate(dataset.subscriptions):
                serial.register(subscription, index)
                process.register(subscription, index)
            sizes_before = process.slice_sizes()
            replayed = process.recover_slice(1)
            assert replayed == sizes_before[1]
            assert process.slices_recovered == 1
            assert process.slice_sizes() == sizes_before
            # Match sets still agree with serial; the recovered slice's
            # platform is fresh, so only sets (not latencies) compare.
            for event in dataset.publications:
                assert process.match(event).subscribers == \
                    serial.match(event).subscribers
        finally:
            process.close()

    def test_recover_slice_covers_buffered_registrations(self):
        """Registrations still buffered for a dead slice come back via
        the journal replay."""
        process = MatcherCluster(2, spec=SPEC, backend="process")
        try:
            for i in range(6):
                process.register(
                    Subscription.parse({"k": ("<", float(i + 1))}),
                    f"c{i}")
            # Nothing flushed yet: kill slice 0 while its batch is
            # still parent-side.
            replayed = process.recover_slice(0)
            assert replayed == 3  # round-robin gave it half
            matched = process.match(Event({"k": 0.5})).subscribers
            assert matched == {f"c{i}" for i in range(6)}
        finally:
            process.close()

    def test_close_is_idempotent_and_context_manager_closes(self):
        with MatcherCluster(2, spec=SPEC, backend="process") as cluster:
            cluster.register(Subscription.parse({"x": 1}), "alice")
            assert cluster.match(
                Event({"x": 1})).subscribers == {"alice"}
        cluster.close()  # second close after __exit__: no-op

    def test_match_after_close_raises(self):
        cluster = MatcherCluster(2, spec=SPEC, backend="process")
        cluster.register(Subscription.parse({"x": 1}), "alice")
        cluster.match(Event({"x": 1}))  # flush + one round-trip
        cluster.close()
        with pytest.raises(RoutingError):
            cluster.match(Event({"x": 1}))

    def test_empty_batch(self):
        with MatcherCluster(2, spec=SPEC, backend="process") as cluster:
            assert cluster.match_batch([]) == []


class TestWorkerTeardownIdempotency:
    """Regression: a second Connection.close() raises OSError, so any
    stop/kill/close ordering that reached the pipe twice blew up a
    teardown path that promises to be a no-op."""

    def test_stop_after_kill_then_close(self):
        process = MatcherCluster(2, spec=SPEC, backend="process")
        process.register(Subscription.parse({"x": 1}), "alice")
        process.match(Event({"x": 1}))  # flush so workers are live
        worker = process.slices[0]
        worker.kill()
        worker.stop()   # dead process, closed pipe: must not raise
        worker.kill()   # and the other order too
        process.close()

    def test_double_stop_and_double_kill(self):
        process = MatcherCluster(2, spec=SPEC, backend="process")
        try:
            worker = process.slices[1]
            worker.stop()
            worker.stop()
            worker.kill()
        finally:
            process.close()

    def test_close_after_worker_process_died(self):
        """A worker whose process is already gone (crash, OOM kill)
        must not wedge cluster teardown."""
        process = MatcherCluster(2, spec=SPEC, backend="process")
        process.register(Subscription.parse({"x": 1}), "alice")
        process.match(Event({"x": 1}))
        victim = process.slices[0]._process
        victim.terminate()
        victim.join(5.0)
        process.close()
        process.close()  # and closing a closed cluster stays a no-op
