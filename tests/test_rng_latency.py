"""Tests for seeded RNG substreams and delay distributions."""

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.internet.network import Network
from repro.sim.latency import (
    Constant,
    Exponential,
    LogNormal,
    Shifted,
    Uniform,
    make_delay,
)
from repro.sim.rng import SeededRNG, derive_seed
from repro.topology.generator import GeneratorConfig, generate_internet


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_order_sensitivity(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a, b = SeededRNG(7), SeededRNG(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_substream_independent_of_parent_consumption(self):
        parent1 = SeededRNG(3)
        parent2 = SeededRNG(3)
        parent2.random()  # consume from the parent stream
        assert parent1.substream("x").random() == parent2.substream("x").random()

    def test_substreams_differ(self):
        rng = SeededRNG(3)
        assert rng.substream("a").random() != rng.substream("b").random()


class TestDistributions:
    def test_constant(self):
        delay = Constant(2.5)
        assert delay.sample(SeededRNG(0)) == 2.5
        assert delay.mean == 2.5

    def test_constant_negative_rejected(self):
        with pytest.raises(SimulationError):
            Constant(-1.0)

    def test_uniform_bounds_and_mean(self):
        delay = Uniform(1.0, 3.0)
        rng = SeededRNG(0)
        samples = [delay.sample(rng) for _ in range(500)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert abs(sum(samples) / len(samples) - delay.mean) < 0.2

    def test_uniform_invalid(self):
        with pytest.raises(SimulationError):
            Uniform(3.0, 1.0)
        with pytest.raises(SimulationError):
            Uniform(-1.0, 1.0)

    def test_exponential_mean(self):
        delay = Exponential(4.0)
        rng = SeededRNG(1)
        samples = [delay.sample(rng) for _ in range(4000)]
        assert abs(sum(samples) / len(samples) - 4.0) < 0.4
        assert all(s >= 0 for s in samples)

    def test_exponential_invalid(self):
        with pytest.raises(SimulationError):
            Exponential(0.0)

    def test_lognormal_mean_is_actual_mean(self):
        delay = LogNormal(mean=10.0, sigma=0.5)
        rng = SeededRNG(2)
        samples = [delay.sample(rng) for _ in range(8000)]
        assert abs(sum(samples) / len(samples) - 10.0) < 1.0
        assert delay.mean == 10.0

    def test_lognormal_invalid(self):
        with pytest.raises(SimulationError):
            LogNormal(mean=0.0)
        with pytest.raises(SimulationError):
            LogNormal(mean=1.0, sigma=0.0)

    def test_shifted_floor(self):
        delay = Shifted(5.0, Exponential(1.0))
        rng = SeededRNG(3)
        assert all(delay.sample(rng) >= 5.0 for _ in range(200))
        assert delay.mean == 6.0

    def test_shifted_negative_floor(self):
        with pytest.raises(SimulationError):
            Shifted(-1.0, Constant(0.0))


class TestMakeDelay:
    def test_passthrough(self):
        delay = Constant(1.0)
        assert make_delay(delay) is delay

    def test_number(self):
        assert isinstance(make_delay(3), Constant)
        assert make_delay(3.5).mean == 3.5

    def test_tuple(self):
        # A Delay or a number is the whole spec; (low, high) is Uniform's.
        with pytest.raises(SimulationError):
            make_delay((1.0, 2.0))

    def test_dict_specs(self):
        with pytest.raises(SimulationError):
            make_delay({"kind": "constant", "value": 1})

    def test_unbuildable(self):
        with pytest.raises(SimulationError):
            make_delay(object())


@given(st.integers(min_value=0, max_value=2**32))
def test_substream_determinism_property(seed):
    assert (
        SeededRNG(seed).substream("x", 1).random()
        == SeededRNG(seed).substream("x", 1).random()
    )


# -- a stream draws what random.Random draws ---------------------------------

#: One step of a script: a draw, or a deepcopy / pickle / re-key of the
#: stream.  ``burst`` draws enough words to cross one or more refills.
STEPS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("burst"), st.integers(1, 300)),
    st.tuples(st.just("getrandbits"), st.integers(0, 100)),
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.tuples(st.just("expovariate"), st.floats(1e-3, 1e3)),
    st.tuples(st.just("lognormvariate"), st.floats(-5, 5), st.floats(1e-3, 3)),
    st.tuples(st.just("gauss"), st.floats(-5, 5), st.floats(1e-3, 3)),
    st.tuples(st.just("choice"), st.integers(1, 5000)),
    st.tuples(st.just("sample"), st.integers(1, 300), st.integers(0, 300)),
    st.tuples(st.just("randint"), st.integers(-10**6, 10**6), st.integers(0, 2**70)),
    st.tuples(st.just("shuffle"), st.integers(0, 60)),
    st.tuples(st.just("deepcopy")),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("reseed_run"), st.integers(0, 2**32)),
)


def apply_step(rng, step):
    """Run one script step on ``rng``; return (what it drew, the stream to
    continue with)."""
    name, *args = step
    if name == "burst":
        return [rng.random() for _ in range(args[0])], rng
    if name in ("random", "getrandbits", "uniform", "expovariate",
                "lognormvariate", "gauss"):
        return getattr(rng, name)(*args), rng
    if name == "choice":
        return rng.choice(range(args[0])), rng
    if name == "sample":
        size, want = args
        return rng.sample(range(size), min(want, size)), rng
    if name == "randint":
        low, width = args
        return rng.randint(low, low + width), rng
    if name == "shuffle":
        items = list(range(args[0]))
        rng.shuffle(items)
        return items, rng
    if name == "deepcopy":
        return None, copy.deepcopy(rng)
    if name == "pickle":
        return None, pickle.loads(pickle.dumps(rng, pickle.HIGHEST_PROTOCOL))
    raise AssertionError(name)


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.integers(-2**64, 2**64), min_size=1, max_size=3),
    script=st.lists(st.tuples(st.integers(0, 2), STEPS), max_size=60),
)
def test_streams_draw_what_random_random_draws(seeds, script):
    """Interleaved streams, forked, pickled and re-keyed at any point, mid
    block or across refills, draw what ``random.Random`` seeded with their
    key draws, value for value.  This pins every CPython method the
    stream borrows, on whichever Python runs it."""
    pairs = [(SeededRNG(seed), random.Random(seed)) for seed in seeds]
    for which, step in script:
        which %= len(pairs)
        ours, ref = pairs[which]
        if step[0] == "reseed_run":
            ours.reseed_run(step[1])
            ref = random.Random(derive_seed(ours.base_seed, "run", step[1]))
            pairs[which] = (ours, ref)
            continue
        drawn, ours_next = apply_step(ours, step)
        expected, ref_next = apply_step(ref, step)
        assert drawn == expected, step
        assert ours_next.base_seed == ours.base_seed
        if ours_next is not ours:
            # The original stream goes on too, sharing the fork's block.
            pairs.append((ours, ref))
            pairs[which] = (ours_next, ref_next)
    for ours, ref in pairs:
        assert [ours.random() for _ in range(130)] == [ref.random() for _ in range(130)]


def test_getrandbits_refuses_negative_widths_like_random_random():
    with pytest.raises(ValueError):
        random.Random(1).getrandbits(-1)
    with pytest.raises(ValueError):
        SeededRNG(1).getrandbits(-1)


def test_a_pickled_stream_is_its_key_and_position():
    rng = SeededRNG(5).substream("x")
    for _ in range(1000):
        rng.random()
    assert len(pickle.dumps(rng, pickle.HIGHEST_PROTOCOL)) < 160


class TestStreamMemory:
    """A stream costs at most 640 bytes (the object plus its word block).

    On this world after convergence (default delays, so every speaker and
    session draws; CPython 3.11, 64-bit) a stream reads ≈430 B; one
    ``random.Random`` of Mersenne Twister state per stream read 2,560 B.
    """

    BOUND = 640

    def test_bytes_per_stream(self):
        graph = generate_internet(
            GeneratorConfig(num_tier1=3, num_tier2=10, num_stubs=25), seed=5
        )
        network = Network(graph, seed=5)
        network.announce(network.asns()[0], "10.0.0.0/23")
        network.announce(network.asns()[-1], "10.0.0.0/23")
        network.announce(network.asns()[-1], "10.0.0.0/24")
        network.run_until_converged()
        streams = [speaker.rng for speaker in network.speakers.values()]
        streams += [session.rng for session in network.sessions]
        assert sum(1 for rng in streams if rng._block) > len(streams) // 2
        total = sum(sys.getsizeof(rng) + sys.getsizeof(rng._block) for rng in streams)
        assert total / len(streams) <= self.BOUND
