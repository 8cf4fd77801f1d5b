"""Tests for the discrete-event engine core."""

import pytest

from repro.sim.engine import Environment, SimulationError, URGENT, NORMAL, agenda_stream


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_schedule_runs_callback_at_time():
    env = Environment()
    seen = []
    env.schedule(5.0, lambda e: seen.append(e.now))
    env.run()
    assert seen == [5.0]
    assert env.now == 5.0


def test_schedule_order_is_chronological():
    env = Environment()
    seen = []
    env.schedule(3.0, lambda e: seen.append("c"))
    env.schedule(1.0, lambda e: seen.append("a"))
    env.schedule(2.0, lambda e: seen.append("b"))
    env.run()
    assert seen == ["a", "b", "c"]


def test_same_time_priority_order():
    env = Environment()
    seen = []
    env.schedule(1.0, lambda e: seen.append("normal"), priority=NORMAL)
    env.schedule(1.0, lambda e: seen.append("urgent"), priority=URGENT)
    env.run()
    assert seen == ["urgent", "normal"]


def test_same_time_same_priority_is_fifo():
    env = Environment()
    seen = []
    for label in "abcde":
        env.schedule(1.0, lambda e, l=label: seen.append(l))
    env.run()
    assert seen == list("abcde")


def test_cannot_schedule_into_the_past():
    env = Environment()
    env.schedule(1.0, lambda e: None)
    env.run()
    with pytest.raises(SimulationError):
        env.schedule(0.5, lambda e: None)


def test_run_until_stops_before_later_events():
    env = Environment()
    seen = []
    env.schedule(1.0, lambda e: seen.append(1))
    env.schedule(10.0, lambda e: seen.append(10))
    env.run(until=5.0)
    assert seen == [1]
    assert env.now == 5.0
    env.run()
    assert seen == [1, 10]


def test_run_until_in_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_peek_empty_agenda_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_peek_returns_next_event_time():
    env = Environment()
    env.schedule(7.0, lambda e: None)
    assert env.peek() == 7.0


def test_step_empty_agenda_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_nested_scheduling_from_callback():
    env = Environment()
    seen = []

    def outer(e):
        seen.append(("outer", e.now))
        env.schedule(e.now + 1.0, lambda e2: seen.append(("inner", e2.now)))

    env.schedule(1.0, outer)
    env.run()
    assert seen == [("outer", 1.0), ("inner", 2.0)]


# -- agenda_stream: a pre-sorted static stream against the agenda ---------

#: A record kind per priority: a request sorts at NORMAL, a publish at URGENT.
KIND = {URGENT: 0, NORMAL: 1}


def drain(env, stream):
    """Replay ``(time, priority, fn)`` records the way the driver does:
    through the agenda stream, each yielded record handled in order."""
    records = ((at, KIND[priority], fn, 0, 0, 0) for at, priority, fn in stream)
    for at, _kind, fn, *_rest in agenda_stream(env, records):
        fn(at)


def test_agenda_stream_orders_static_vs_dynamic_events():
    """A static record wins a full (time, priority) tie against a
    dynamic event — it would have held the lower sequence number had it
    been scheduled up front — but priority still beats being static."""
    env = Environment()
    order = []

    def publish(t):
        order.append(("pub@1", t))
        env.schedule(2.0, lambda e: order.append(("dyn@2", e.now)), priority=NORMAL)
        env.schedule(
            2.0, lambda e: order.append(("dyn-urgent@2", e.now)), priority=URGENT
        )

    drain(
        env,
        [
            (1.0, URGENT, publish),
            (2.0, NORMAL, lambda t: order.append(("req@2", t))),
            (3.0, NORMAL, lambda t: order.append(("req@3", t))),
        ],
    )
    assert order == [
        ("pub@1", 1.0),
        ("dyn-urgent@2", 2.0),
        ("req@2", 2.0),
        ("dyn@2", 2.0),
        ("req@3", 3.0),
    ]


def test_agenda_stream_sets_the_clock_and_leaves_later_events():
    env = Environment()
    seen = []
    env.schedule(10.0, lambda e: seen.append(e.now))
    drain(env, [(1.0, NORMAL, lambda t: seen.append((t, env.now)))])
    # The record saw the clock at its own time; the agenda was drained
    # only after the stream ended.
    assert seen == [(1.0, 1.0), 10.0]
    assert env.now == 10.0


def test_agenda_stream_rejects_a_record_in_the_past():
    env = Environment()
    with pytest.raises(SimulationError, match="back in time"):
        drain(env, [(5.0, NORMAL, lambda t: None), (1.0, NORMAL, lambda t: None)])


def test_agenda_stream_hands_lifecycle_rows_over_and_yields_the_rest():
    """A kind-2 row sorts at URGENT, goes to ``on_row`` with its time
    and is not yielded; the dynamic event it ties with at NORMAL runs
    after it."""
    env = Environment()
    seen = []
    env.schedule(1.0, lambda e: seen.append(("dyn", e.now)), priority=NORMAL)
    records = [
        (1.0, 2, "server", "page", "kind", "lease"),
        (1.0, 1, "request", 0, 0, ()),
    ]
    yielded = list(agenda_stream(env, records, lambda *row: seen.append(row)))
    assert seen == [("server", "page", "kind", "lease", 1.0), ("dyn", 1.0)]
    assert yielded == [records[1]]
