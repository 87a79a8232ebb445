"""Multicast: ``send_many(rs, f)`` is ``for r in rs: send(r, f)``.

``MessageBus.deliver_many`` is the only delivery routine, so what it
must not do is depend on how traffic was grouped: twin buses with the
same seeded fault plan, one fed multicasts and one fed the same
recipients one send at a time, have to end up indistinguishable —
inboxes, fault stream, every counter, every error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.network.bus import MessageBus
from repro.network.faults import FaultPlan, LinkFaults

SENDER = "s"
LIVE = ("a", "b", "c", SENDER)
GHOSTS = ("ghost", "phantom")

rates = st.sampled_from([0.0, 0.3, 0.7, 1.0])
link_faults = st.builds(LinkFaults, drop=rates, duplicate=rates,
                        reorder=rates, corrupt=rates)
rules = st.lists(st.tuples(st.sampled_from([SENDER, "*"]),
                           st.sampled_from(["a", "b", "*"]),
                           link_faults), max_size=3)
# Repeats and unknown names are drawn on purpose.
recipient_lists = st.lists(st.sampled_from(LIVE + GHOSTS), max_size=8)
good_frames = st.lists(
    st.one_of(st.binary(max_size=6), st.binary(max_size=6).map(bytearray)),
    max_size=3)
bad_frames = st.sampled_from(
    ["not a list", ["not bytes"], [b"ok", 5], (b"tuple",), None])
steps = st.lists(st.one_of(
    st.tuples(st.just("send"), recipient_lists, good_frames),
    st.tuples(st.just("send"), recipient_lists, bad_frames),
    st.tuples(st.just("down"), st.booleans()),
    st.tuples(st.just("recv"), st.sampled_from(LIVE))), max_size=12)


def live_bus(plan=None, name=""):
    bus = MessageBus(fault_plan=plan, name=name)
    for endpoint in LIVE:
        bus.endpoint(endpoint)
    return bus


def twin(seed, rule_set, name):
    plan = FaultPlan(seed=seed) if rule_set is not None else None
    for sender, to, faults in rule_set or ():
        plan.on_link(sender, to, faults)
    return live_bus(plan, name), plan


def one_by_one(endpoint, recipients, frames):
    """The loop a multicast replaces, errors collected as it returns
    them."""
    failed = []
    for to in recipients:
        try:
            endpoint.send(to, frames)
        except NetworkError as exc:
            failed.append((to, str(exc)))
    return failed


def observable(bus, plan):
    return {
        "injected": dict(plan.injected) if plan is not None else None,
        "metrics": bus.metrics.snapshot(),
        "stats": {name: bus.stats(name) for name in LIVE},
        "pending": {name: bus.pending(name) for name in LIVE},
        "sent": (bus.endpoint(SENDER).sent_messages,
                 bus.endpoint(SENDER).sent_bytes),
        "totals": (bus.total_messages, bus.total_bytes),
        "dropped": bus.dropped_messages,
        "refused": bus.refused_messages,
    }


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), rule_set=st.one_of(st.none(), rules),
       name=st.sampled_from(["", "b1~b2"]), script=steps)
def test_multicast_is_the_loop_of_sends(seed, rule_set, name, script):
    many_bus, many_plan = twin(seed, rule_set, name)
    loop_bus, loop_plan = twin(seed, rule_set, name)
    for step in script:
        if step[0] == "send":
            _kind, recipients, frames = step
            returned = many_bus.endpoint(SENDER).send_many(recipients,
                                                           frames)
            assert all(isinstance(error, NetworkError)
                       for _to, error in returned)
            assert [(to, str(error)) for to, error in returned] \
                == one_by_one(loop_bus.endpoint(SENDER), recipients,
                              frames)
        elif step[0] == "down":
            many_bus.set_down(step[1])
            loop_bus.set_down(step[1])
        else:
            assert many_bus.endpoint(step[1]).recv() \
                == loop_bus.endpoint(step[1]).recv()
        assert observable(many_bus, many_plan) \
            == observable(loop_bus, loop_plan)
    for endpoint in LIVE:
        assert many_bus.endpoint(endpoint).recv_all() \
            == loop_bus.endpoint(endpoint).recv_all()


class TestSharedAndOwn:

    def test_each_recipient_owns_its_frame_list(self):
        bus = live_bus()
        frame = bytearray(b"mutable")
        assert bus.endpoint(SENDER).send_many(["a", "b", "a"],
                                              [frame]) == []
        frame[0] = 0
        (_s, first), (_s, again) = bus.endpoint("a").recv_all()
        first.append(b"scribble")
        assert again == [b"mutable"]
        assert bus.endpoint("b").recv() == (SENDER, [b"mutable"])
        assert type(again[0]) is bytes

    def test_corruption_damages_one_copy(self):
        plan = FaultPlan(seed=3).on_link(SENDER, "b",
                                         LinkFaults(corrupt=1.0))
        bus = live_bus(plan)
        bus.endpoint(SENDER).send_many(["a", "b", "c"], [b"payload"])
        assert bus.endpoint("a").recv() == (SENDER, [b"payload"])
        assert bus.endpoint("c").recv() == (SENDER, [b"payload"])
        _sender, (damaged,) = bus.endpoint("b").recv()
        assert damaged != b"payload" and len(damaged) == 7
        assert plan.injected["corrupt"] == 1

    def test_a_failure_does_not_stop_the_others(self):
        bus = live_bus()
        failed = bus.endpoint(SENDER).send_many(
            ["a", "ghost", "b"], [b"x"])
        assert [(to, str(error)) for to, error in failed] \
            == [("ghost", "no endpoint named 'ghost'")]
        assert bus.pending("a") == bus.pending("b") == 1
        assert bus.endpoint(SENDER).sent_messages == 2

    def test_send_raises_the_single_failure(self):
        bus = MessageBus(name="edge")
        sender = bus.endpoint(SENDER)
        with pytest.raises(NetworkError, match="no endpoint named"):
            sender.send("ghost", ["bad frames too"])
        bus.set_down(True)
        with pytest.raises(NetworkError, match="link edge is down"):
            sender.send("ghost", [b"x"])


class TestCounterFlush:

    @pytest.mark.parametrize("down", [False, True])
    @pytest.mark.parametrize("recipients, frames", [
        ([], [b"x"]),
        (["ghost", "phantom"], [b"x"]),
        (["a", "ghost"], "bad frames"),
        ([], "bad frames"),
    ])
    def test_zero_deliveries_leave_the_snapshot_alone(
            self, down, recipients, frames):
        """``BoundCounter.inc(0)`` would materialise a zero-valued
        ``{bus=...}`` child: a named bus that moved nothing must show
        the very keys it showed before."""
        bus = live_bus(name="b1~b2")
        before = bus.metrics.snapshot()
        bus.set_down(down)
        failed = bus.endpoint(SENDER).send_many(recipients, frames)
        assert len(failed) == len(recipients)
        after = bus.metrics.snapshot()
        if down and recipients:
            refused = "bus.sends_refused_total{bus=b1~b2}"
            assert after.pop(refused) == len(recipients)
            after["bus.sends_refused_total"] -= len(recipients)
        assert list(after.items()) == list(before.items())

    def test_totals_survive_a_loop_left_by_an_exception(self):
        """Two recipients are served before the plan blows up on the
        third: their traffic is counted, exactly as two sends that
        returned before a third one raised."""
        class Exploding(FaultPlan):
            def decide(self, sender, to, frame_sizes):
                if to == "c":
                    raise RuntimeError("plan bug")
                return super().decide(sender, to, frame_sizes)

        many_bus = live_bus(Exploding(seed=1), name="n")
        loop_bus = live_bus(Exploding(seed=1), name="n")
        with pytest.raises(RuntimeError):
            many_bus.endpoint(SENDER).send_many(["a", "b", "c", "a"],
                                                [b"12345"])
        with pytest.raises(RuntimeError):
            one_by_one(loop_bus.endpoint(SENDER), ["a", "b", "c", "a"],
                       [b"12345"])
        assert many_bus.total_messages == 2
        assert many_bus.endpoint(SENDER).sent_bytes == 10
        assert observable(many_bus, many_bus.fault_plan) \
            == observable(loop_bus, loop_bus.fault_plan)


class TestPopAll:

    def test_recv_all_takes_everything_in_order(self):
        bus = MessageBus()
        a = bus.endpoint("a")
        b = bus.endpoint("b")
        for i in range(4):
            a.send("b", [bytes([i])])
        assert b.recv_all() == [("a", [bytes([i])]) for i in range(4)]
        assert b.pending == 0 and b.recv_all() == []
        # Traffic counters are receipts, not queue depth.
        assert bus.stats("b") == (4, 4)
        with pytest.raises(NetworkError):
            bus.pop_all("ghost")
