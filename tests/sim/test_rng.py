"""Tests for named random streams."""

from itertools import islice

import numpy as np
import pytest

from repro.sim.rng import RandomStreams, uniform_draws


def test_same_seed_same_stream_reproduces():
    a = RandomStreams(seed=5).stream("x").uniform(size=10)
    b = RandomStreams(seed=5).stream("x").uniform(size=10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStreams(seed=5).stream("x").uniform(size=10)
    b = RandomStreams(seed=6).stream("x").uniform(size=10)
    assert not np.array_equal(a, b)


def test_different_names_are_independent():
    streams = RandomStreams(seed=5)
    a = streams.stream("a").uniform(size=10)
    b = streams.stream("b").uniform(size=10)
    assert not np.array_equal(a, b)


def test_stream_is_cached_not_recreated():
    streams = RandomStreams(seed=5)
    first = streams.stream("x")
    assert streams.stream("x") is first
    # Sequential draws continue the sequence rather than restarting.
    first_draw = streams.stream("x").uniform()
    second_draw = streams.stream("x").uniform()
    assert first_draw != second_draw


def test_adding_stream_does_not_perturb_existing():
    solo = RandomStreams(seed=9)
    expected = solo.stream("main").uniform(size=5)

    mixed = RandomStreams(seed=9)
    mixed.stream("other").uniform(size=100)  # extra consumer
    got = mixed.stream("main").uniform(size=5)
    assert np.array_equal(expected, got)


def test_fork_derives_independent_family():
    base = RandomStreams(seed=5)
    fork_a = base.fork(1)
    fork_b = base.fork(2)
    a = fork_a.stream("x").uniform(size=5)
    b = fork_b.stream("x").uniform(size=5)
    base_draw = base.stream("x").uniform(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, base_draw)


def test_fork_is_deterministic():
    a = RandomStreams(seed=5).fork(3).stream("x").uniform(size=5)
    b = RandomStreams(seed=5).fork(3).stream("x").uniform(size=5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 5000])
def test_uniform_draws_are_the_scalar_draws(count):
    """Block drawing hands out, bit for bit, what ``count`` scalar
    ``random()`` calls would — below, at and across block boundaries."""
    scalar = RandomStreams(seed=5).stream("x")
    expected = [float(scalar.random()) for _ in range(count)]
    drawn = list(islice(uniform_draws(RandomStreams(seed=5).stream("x")), count))
    assert drawn == expected
    assert all(type(value) is float for value in drawn)


def test_uniform_draws_touch_the_stream_only_when_read():
    generator = RandomStreams(seed=5).stream("x")
    before = generator.bit_generator.state
    draws = uniform_draws(generator)
    assert generator.bit_generator.state == before
    next(draws)
    assert generator.bit_generator.state != before
