"""Tests for the discrete-event engine core."""

import pytest

from repro.sim.engine import Environment, SimulationError, URGENT, NORMAL


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


# -- run_before: a pre-sorted static stream against the agenda ------------


def drain(env, stream):
    """Replay ``(time, priority, fn)`` records the way the driver does."""
    for at, priority, fn in stream:
        env.run_before(at, priority)
        fn(at)
    env.run()


def test_run_before_orders_static_vs_dynamic_events():
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


def test_run_before_sets_the_clock_and_leaves_later_events():
    env = Environment()
    seen = []
    env.schedule(10.0, lambda e: seen.append(e.now))
    drain(env, [(1.0, NORMAL, lambda t: seen.append((t, env.now)))])
    # The record saw the clock at its own time; the agenda was drained
    # only after the stream ended.
    assert seen == [(1.0, 1.0), 10.0]
    assert env.now == 10.0


def test_run_before_rejects_a_record_in_the_past():
    env = Environment()
    env.run_before(5.0, NORMAL)
    with pytest.raises(SimulationError, match="back in time"):
        env.run_before(1.0, NORMAL)


def test_run_before_ticks_profiler_and_monitor_per_dynamic_event():
    class Probe:
        def __init__(self):
            self.samples, self.ticks = [], []

        def record(self, name, seconds):
            self.samples.append(name)

        def tick(self, now):
            self.ticks.append(now)

    env = Environment()
    env.profiler = env.monitor = probe = Probe()
    env.schedule(1.0, lambda e: None)
    env.schedule(2.0, lambda e: None)
    env.schedule(7.0, lambda e: None)
    env.run_before(5.0, NORMAL)
    assert probe.samples == ["engine.step", "engine.step"]
    assert probe.ticks == [1.0, 2.0]
    assert env.now == 5.0
