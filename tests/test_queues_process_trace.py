"""Tests for random streams."""

import pytest

from repro.sim.random import RandomStreams


# --------------------------------------------------------------------------- #
# RandomStreams
# --------------------------------------------------------------------------- #
def test_random_streams_are_reproducible():
    a = RandomStreams(42)
    b = RandomStreams(42)
    assert a.uniform("x", 0, 1) == b.uniform("x", 0, 1)
    assert a.exponential("y", 2.0) == b.exponential("y", 2.0)


def test_random_streams_independent_by_name():
    streams = RandomStreams(1)
    streams.uniform("a", 0, 1)
    first = RandomStreams(1)
    # Drawing from stream "a" must not perturb stream "b".
    assert streams.uniform("b", 0, 1) == first.uniform("b", 0, 1)


def test_random_streams_different_seeds_differ():
    assert RandomStreams(1).uniform("x", 0, 1) != RandomStreams(2).uniform("x", 0, 1)


def test_derangement_has_no_fixed_points():
    streams = RandomStreams(7)
    result = streams.derangement("d", 10)
    assert sorted(result) == list(range(10))
    assert all(result[i] != i for i in range(10))


def test_derangement_requires_two_items():
    with pytest.raises(ValueError):
        RandomStreams(0).derangement("d", 1)


def test_choice_and_shuffled():
    streams = RandomStreams(3)
    options = ["a", "b", "c"]
    assert streams.choice("c", options) in options
    shuffled = streams.shuffled("s", options)
    assert sorted(shuffled) == options
    with pytest.raises(ValueError):
        streams.choice("c", [])


def test_spawn_creates_independent_family():
    parent = RandomStreams(5)
    child_a = parent.spawn("alpha")
    child_b = parent.spawn("beta")
    assert child_a.seed != child_b.seed
    assert RandomStreams(5).spawn("alpha").seed == child_a.seed


def test_pareto_positive_and_validates():
    streams = RandomStreams(11)
    assert streams.pareto("p", 1.5, 100.0) > 100.0
    with pytest.raises(ValueError):
        streams.pareto("p", 0, 1)



def test_uniform_and_exponential_validate():
    streams = RandomStreams(11)
    with pytest.raises(ValueError):
        streams.uniform("u", 1.0, 0.0)
    with pytest.raises(OverflowError):
        streams.uniform("u", 0.0, float("inf"))
    with pytest.raises(ValueError):
        streams.exponential("e", 0.0)
