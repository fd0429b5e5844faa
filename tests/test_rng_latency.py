"""Tests for seeded RNG substreams and delay distributions."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.latency import (
    Constant,
    Exponential,
    LogNormal,
    Shifted,
    Uniform,
    make_delay,
)
from repro.sim.rng import SeededRNG, derive_seed


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
        delay = make_delay((1.0, 2.0))
        assert isinstance(delay, Uniform)

    def test_tuple_wrong_arity(self):
        with pytest.raises(SimulationError):
            make_delay((1.0, 2.0, 3.0))

    def test_dict_specs(self):
        assert isinstance(make_delay({"kind": "constant", "value": 1}), Constant)
        assert isinstance(
            make_delay({"kind": "uniform", "low": 1, "high": 2}), Uniform
        )
        assert isinstance(make_delay({"kind": "exponential", "mean": 2}), Exponential)
        assert isinstance(make_delay({"kind": "lognormal", "mean": 2}), LogNormal)
        shifted = make_delay({"kind": "shifted", "floor": 1, "mean": 2})
        assert isinstance(shifted, Shifted)
        assert shifted.mean == 3.0

    def test_unknown_kind(self):
        with pytest.raises(SimulationError):
            make_delay({"kind": "pareto", "mean": 1})

    def test_unbuildable(self):
        with pytest.raises(SimulationError):
            make_delay(object())


@given(st.integers(min_value=0, max_value=2**32))
def test_substream_determinism_property(seed):
    assert (
        SeededRNG(seed).substream("x", 1).random()
        == SeededRNG(seed).substream("x", 1).random()
    )
