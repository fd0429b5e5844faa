"""Warm-start checkpoints: capture once, fork per run, bit-identical attacks.

The contract under test is the strongest one the substrate makes: an
experiment forked from a checkpoint of the converged phase-1 world must be
**bit-identical** to a cold run of the same configuration — including under
fault plans — while sharing routes and RIB tables with the checkpoint
copy-on-write.  Plus the supporting machinery: fork isolation (no write in
a fork ever reaches the master or a sibling), keying/registry behaviour,
disk roundtrips, the frozen-master engine guard, and the `world_seed` mode
that lets one checkpoint serve a whole sweep of run seeds.
"""

import pickle
import random

import pytest

from conftest import fast_network_config, fast_scenario
from repro.errors import ExperimentError, SimulationError
from repro.eval.experiments import run_artemis_suite
from repro.perf import COUNTERS
from repro.testbed.checkpoint import (
    FORMAT_VERSION,
    Checkpoint,
    acquire_checkpoint,
    checkpoint_key,
    clear_registry,
    load_checkpoint,
    register_checkpoint,
    save_checkpoint,
    world_config,
)
from repro.testbed.scenario import HijackExperiment
from test_determinism import (
    GOLDEN_DIGEST,
    GOLDEN_DIGEST_400,
    _golden_config,
    _golden_config_400,
    _outcome_digest,
)
from test_faults import GOLDEN_FAULT_DIGEST, RICH_PLAN, chaos_config, outcome_digest


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_registry()
    yield
    clear_registry()


def warm(config):
    config.warm_start = True
    return config


# ----------------------------------------------------------- golden equality


class TestWarmEqualsCold:
    def test_warm_start_reproduces_golden_digest(self):
        experiment = HijackExperiment(warm(_golden_config()))
        result = experiment.run()
        assert _outcome_digest(experiment, result) == GOLDEN_DIGEST

    @pytest.mark.slow
    def test_warm_start_reproduces_golden_digest_400as(self):
        experiment = HijackExperiment(warm(_golden_config_400()))
        result = experiment.run()
        assert _outcome_digest(experiment, result) == GOLDEN_DIGEST_400

    def test_warm_start_under_faults_pins_fault_digest(self):
        config = chaos_config(faults=RICH_PLAN, warm_start=True)
        result = HijackExperiment(config).run()
        assert outcome_digest(result) == GOLDEN_FAULT_DIGEST

    def test_second_fork_of_same_checkpoint_is_identical(self):
        first = HijackExperiment(warm(_golden_config()))
        first_digest = _outcome_digest(first, first.run())
        # Same registry entry, second fork — a run leaking state back into
        # the checkpoint would show up here.
        second = HijackExperiment(warm(_golden_config()))
        second_digest = _outcome_digest(second, second.run())
        assert first_digest == second_digest == GOLDEN_DIGEST


# -------------------------------------------------------------- world_seed


class TestWorldSeedMode:
    def _config(self, seed, **kw):
        return fast_scenario(
            seed=seed, network=fast_network_config(), world_seed=9, **kw
        )

    def test_cold_equals_warm_per_run_seed(self):
        for seed in (101, 102):
            cold_exp = HijackExperiment(self._config(seed))
            cold = _outcome_digest(cold_exp, cold_exp.run())
            warm_exp = HijackExperiment(self._config(seed, warm_start=True))
            warm_digest = _outcome_digest(warm_exp, warm_exp.run())
            assert warm_digest == cold, f"run seed {seed} diverged"

    def test_run_seeds_still_vary_under_shared_world(self):
        a = HijackExperiment(self._config(201, warm_start=True))
        b = HijackExperiment(self._config(202, warm_start=True))
        assert _outcome_digest(a, a.run()) != _outcome_digest(b, b.run())

    def test_sweep_shares_one_checkpoint(self):
        key = checkpoint_key(self._config(201))
        assert key == checkpoint_key(self._config(999))
        HijackExperiment(self._config(201, warm_start=True)).run()
        master = acquire_checkpoint(self._config(999))
        HijackExperiment(self._config(202, warm_start=True)).run()
        assert acquire_checkpoint(self._config(202)) is master

    @pytest.mark.slow
    def test_parallel_warm_suite_matches_serial_cold(self):
        seeds = [101, 102, 103, 104]
        cold = run_artemis_suite(self._config(0), seeds, jobs=1)
        warm_results = run_artemis_suite(
            self._config(0, warm_start=True), seeds, jobs=2
        )
        assert [r.seed for r in warm_results] == seeds
        assert [r.to_dict() for r in warm_results] == [r.to_dict() for r in cold]

    def test_parallel_suite_workers_inherit_an_explicit_checkpoint(self, monkeypatch):
        """A ``jobs=2`` suite hands its workers the checkpoint by fork: with
        pickling refused, an explicit checkpoint still reproduces the
        serial cold run seed for seed."""
        seeds = [101, 102, 103]
        cold = run_artemis_suite(self._config(0), seeds, jobs=1)
        template = self._config(0)
        template.checkpoint = Checkpoint.capture(template)

        def refuse(checkpoint):
            raise AssertionError("suite workers must inherit the checkpoint")

        monkeypatch.setattr(Checkpoint, "to_bytes", refuse)
        warm_results = run_artemis_suite(template, seeds, jobs=2)
        assert [r.to_dict() for r in warm_results] == [r.to_dict() for r in cold]


# ---------------------------------------------------------------- isolation


class TestForkIsolation:
    def _capture(self):
        return Checkpoint.capture(
            fast_scenario(seed=3, network=fast_network_config())
        )

    def test_master_engine_is_frozen(self):
        master = self._capture().experiment
        engine = master.network.engine
        assert engine.frozen
        with pytest.raises(SimulationError):
            engine.run_for(1.0)
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)

    def test_fork_is_thawed_and_runnable(self):
        checkpoint = self._capture()
        fork = checkpoint.fork()
        assert not fork.network.engine.frozen
        fork.network.engine.run_for(1.0)
        assert checkpoint.experiment.network.engine.frozen

    def test_fork_churn_never_reaches_master_or_siblings(self):
        checkpoint = self._capture()
        master = checkpoint.experiment
        asn = master.victim.sites[0]
        master_tables = {
            a: dict(s.loc_rib._exact)
            for a, s in master.network.speakers.items()
        }
        mutated = checkpoint.fork()
        # Tear down a real transit link in the fork and let the withdrawal
        # churn propagate — heavy writes into CoW-shared tables.
        graph = mutated.network.graph
        provider = graph.providers_of(asn)[0] if graph.providers_of(asn) else (
            graph.peers_of(asn)[0]
        )
        mutated.network.fail_link(asn, provider)
        mutated.network.engine.run_for(120.0)
        for a, speaker in master.network.speakers.items():
            assert dict(speaker.loc_rib._exact) == master_tables[a], (
                f"fork mutation leaked into master speaker AS{a}"
            )
        # A sibling forked *after* the mutation still sees the clean world.
        sibling = checkpoint.fork()
        for a, speaker in sibling.network.speakers.items():
            assert dict(speaker.loc_rib._exact) == master_tables[a]

    def test_forks_share_route_objects_structurally(self):
        checkpoint = self._capture()
        master = checkpoint.experiment
        fork = checkpoint.fork()
        shared = total = 0
        for asn, speaker in master.network.speakers.items():
            counterpart = fork.network.speakers[asn]
            for ikey, route in speaker.loc_rib._exact.items():
                total += 1
                if counterpart.loc_rib._exact.get(ikey) is route:
                    shared += 1
        assert total > 0
        assert shared == total, "fork copied routes instead of sharing them"

    def test_fork_counts_restores(self):
        checkpoint = self._capture()
        before = COUNTERS.checkpoint_restores
        checkpoint.fork()
        checkpoint.fork()
        assert COUNTERS.checkpoint_restores == before + 2

    def test_warm_run_takes_cow_forks(self):
        config = fast_scenario(
            seed=3, network=fast_network_config(), warm_start=True
        )
        before = COUNTERS.cow_row_forks
        HijackExperiment(config).run()
        assert COUNTERS.cow_row_forks > before


# ---------------------------------------------------------- keys & registry


class TestKeysAndRegistry:
    def test_key_ignores_run_scoped_fields(self):
        base = fast_scenario(seed=4, world_seed=9)
        faulted = fast_scenario(seed=77, world_seed=9, faults=RICH_PLAN)
        faulted.warm_start = True
        assert checkpoint_key(base) == checkpoint_key(faulted)

    def test_key_tracks_world_fields(self):
        assert checkpoint_key(fast_scenario(seed=4)) != checkpoint_key(
            fast_scenario(seed=5)
        )
        assert checkpoint_key(fast_scenario(seed=4)) != checkpoint_key(
            fast_scenario(seed=4, hijack_prefix="10.0.0.0/24")
        )

    def test_setup_leaves_a_shared_network_config_alone(self):
        """Two scenarios sharing one NetworkConfig do not leak ROV adoption
        into each other, and setup does not move the world key."""
        shared = fast_network_config()
        adopting = fast_scenario(seed=4, network=shared, rov_adoption=0.5)
        key = checkpoint_key(adopting)
        HijackExperiment(adopting).setup()
        assert checkpoint_key(adopting) == key
        plain = HijackExperiment(fast_scenario(seed=4, network=shared))
        plain.setup()
        assert plain.network.config.rov_adoption == 0.0

    def test_world_config_strips_run_fields(self):
        config = fast_scenario(
            seed=77, world_seed=9, faults=RICH_PLAN, warm_start=True
        )
        base = world_config(config)
        assert base.seed == 9
        assert base.world_seed is None
        assert base.faults is None
        assert not base.warm_start
        assert base.checkpoint is None

    def test_acquire_registers_on_miss_and_reuses(self):
        config = fast_scenario(seed=4, network=fast_network_config())
        first = acquire_checkpoint(config)
        assert acquire_checkpoint(config) is first
        assert acquire_checkpoint(fast_scenario(seed=4, network=fast_network_config())) is first

    def test_acquire_rejects_incompatible_explicit_checkpoint(self):
        checkpoint = Checkpoint.capture(
            fast_scenario(seed=4, network=fast_network_config())
        )
        other = fast_scenario(seed=5, network=fast_network_config())
        other.checkpoint = checkpoint
        with pytest.raises(ExperimentError, match="incompatible"):
            acquire_checkpoint(other)

    def test_register_and_clear(self):
        checkpoint = Checkpoint.capture(
            fast_scenario(seed=4, network=fast_network_config())
        )
        register_checkpoint(checkpoint)
        config = fast_scenario(seed=4, network=fast_network_config())
        assert acquire_checkpoint(config) is checkpoint
        clear_registry()
        assert acquire_checkpoint(config) is not checkpoint


# ------------------------------------------------------------- serialization


class TestSaveLoad:
    def test_roundtrip_preserves_outcomes(self, tmp_path):
        config = fast_scenario(seed=6, network=fast_network_config())
        cold_exp = HijackExperiment(config)
        cold = _outcome_digest(cold_exp, cold_exp.run())
        path = str(tmp_path / "world.ckpt")
        save_checkpoint(Checkpoint.capture(config), path)
        warm_config = fast_scenario(
            seed=6, network=fast_network_config(), checkpoint=path
        )
        warm_exp = HijackExperiment(warm_config)
        assert _outcome_digest(warm_exp, warm_exp.run()) == cold

    def test_load_sets_checkpoint_bytes_gauge(self, tmp_path):
        path = str(tmp_path / "world.ckpt")
        save_checkpoint(
            Checkpoint.capture(fast_scenario(seed=6, network=fast_network_config())),
            path,
        )
        COUNTERS.checkpoint_bytes = 0
        load_checkpoint(path)
        assert COUNTERS.checkpoint_bytes > 0

    def test_version_mismatch_is_refused(self, tmp_path):
        checkpoint = Checkpoint.capture(
            fast_scenario(seed=6, network=fast_network_config())
        )
        # The previous version too: its captured object graph differs.
        for version in (FORMAT_VERSION - 1, FORMAT_VERSION + 1):
            checkpoint.format_version = version
            with pytest.raises(ExperimentError, match="format"):
                Checkpoint.from_bytes(checkpoint.to_bytes())

    def test_wrong_world_or_version_is_refused_unread(self, tmp_path, monkeypatch):
        """The header alone refuses a file: nothing is unpickled."""
        checkpoint = Checkpoint.capture(
            fast_scenario(seed=4, network=fast_network_config())
        )
        path = str(tmp_path / "world.ckpt")
        save_checkpoint(checkpoint, path)
        checkpoint.format_version = FORMAT_VERSION - 1
        stale = str(tmp_path / "stale.ckpt")
        save_checkpoint(checkpoint, stale)

        def refuse(*args, **kwargs):
            raise AssertionError("the body was unpickled")

        monkeypatch.setattr(pickle, "loads", refuse)
        other = fast_scenario(seed=5, network=fast_network_config(), checkpoint=path)
        with pytest.raises(ExperimentError, match="incompatible"):
            acquire_checkpoint(other)
        same = fast_scenario(seed=4, network=fast_network_config(), checkpoint=stale)
        with pytest.raises(ExperimentError, match="format"):
            acquire_checkpoint(same)

    def test_garbage_is_refused(self):
        with pytest.raises(ExperimentError, match="Checkpoint"):
            Checkpoint.from_bytes(pickle.dumps({"not": "a checkpoint"}))

    @pytest.mark.parametrize("damage", ["truncated", "random", "missing-module"])
    def test_damaged_bytes_are_refused(self, damage):
        if damage == "truncated":
            data = Checkpoint.capture(
                fast_scenario(seed=6, network=fast_network_config())
            ).to_bytes()
            data = data[: len(data) // 2]
        elif damage == "random":
            data = random.Random(0).randbytes(4096)
        else:
            # What a checkpoint saved before the stream subclasses went names.
            data = b"crepro.feeds.ris\nRISLiveStream\n."
        with pytest.raises(ExperimentError, match="unreadable checkpoint"):
            Checkpoint.from_bytes(data)

    def test_damaged_checkpoint_file_is_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "world.ckpt"
        path.write_bytes(random.Random(1).randbytes(4096))
        argv = ["experiment", "--checkpoint", str(path), "--tier1", "3",
                "--tier2", "10", "--stubs", "25", "--no-churn"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro experiment: unreadable checkpoint")
        assert captured.err.count("\n") == 1
