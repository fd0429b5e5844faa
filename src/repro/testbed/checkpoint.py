"""Warm-start checkpoints: snapshot the converged Internet once, fork it per run.

Every hijack experiment spends the bulk of its wall clock in phases 0–1 —
building the topology, converging the victim's announcement everywhere, and
polling the looking-glass baselines — before the part under study (the
attack) even begins.  A :class:`Checkpoint` captures that converged world
exactly once and hands out **forks**: restored speakers share the
checkpoint's immutable :class:`~repro.bgp.route.Route` objects, interned
AS-path tuples and prefixes, and — crucially — its Adj-RIB-In *rows*, which
are immutable tuples that a write replaces rather than edits (see
``AdjRibIn.__deepcopy__`` / ``LocRib.__deepcopy__``).

What is shared vs copied on fork
--------------------------------

* **Shared forever (immutable):** routes, announcements, withdrawals,
  prefixes, AS-path tuples, Adj-RIB-In rows, delay specs, fault plans, the
  AS graph, the network/scenario configs, per-speaker policies, the RPKI
  registry.  These either define ``__deepcopy__`` returning ``self`` or are
  seeded into the deepcopy memo here; a RIB's ``__deepcopy__`` copies only
  its outer dict, so the fork shares every row (Adj-RIB-In) and route
  (Loc-RIB) in it.
* **Copied eagerly (mutable run state):** the engine (clock + pending
  timers, MRAI and poll events included), session state, Adj-RIB-Out and
  dirty maps, RNG streams (exact generator positions), trackers, feeds,
  ARTEMIS, the supervisor.

The capture's engine is frozen (:meth:`~repro.sim.engine.Engine.freeze`)
the moment the checkpoint is taken: forks read its queue structurally, so
the master must never advance again.  Forks are thawed copies.

Keying and the registry
-----------------------

Checkpoints are keyed by a digest of the *world-defining* configuration —
everything except the run-scoped fields (``seed`` when ``world_seed`` is
pinned, the fault plan, and the warm-start flags themselves).  A
process-wide registry maps key → checkpoint so a suite builds the world
once; its forked workers inherit the registry and fork the master per seed.
A saved file opens with a fixed header (magic, format version, world key),
so a file for another build or another world is refused before its body
is read.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import io
import pickle
import struct
import sys
from typing import Dict, Optional

from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.perf import COUNTERS as _C
from repro.testbed.scenario import HijackExperiment, ScenarioConfig

#: Bump when the captured object graph or the file layout changes
#: incompatibly; saved checkpoints from other versions are refused at load
#: time, from their header.
FORMAT_VERSION = 9

#: The fixed header ahead of every saved checkpoint's pickle: magic, format
#: version and world key (a sha256 hex digest), so a file for another
#: build or another world is refused before its body is read.
_MAGIC = b"REPROCKP"
_HEADER = struct.Struct("!8sI64s")

#: Deep object graphs (speaker → session → speaker …) exceed the default
#: interpreter recursion limit under pickle at Internet scale; raised
#: temporarily around dumps/loads.  Deepcopy forks stay shallow because
#: every speaker shell is pre-registered in the memo before filling.
_PICKLE_RECURSION_LIMIT = 200_000


def world_config(config: ScenarioConfig) -> ScenarioConfig:
    """The capture-time config: ``config`` minus its run-scoped fields.

    The world is built from ``world_seed`` (or ``seed`` when unpinned);
    faults are run-scoped (seeded by the run seed, armed at the hijack
    instant), and the warm-start fields must not recurse.
    """
    base = copy.copy(config)
    base.seed = config.seed if config.world_seed is None else config.world_seed
    base.world_seed = None
    base.faults = None
    base.warm_start = False
    base.checkpoint = None
    return base


def _signature(value) -> str:
    """A stable, recursive textual form of a config value (for keying)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, Prefix):
        return f"Prefix({value})"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_signature(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_signature(item) for item in value)) + "}"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{k!r}:{_signature(v)}" for k, v in items) + "}"
    # Config-style objects (GeneratorConfig, NetworkConfig, ChurnConfig,
    # delay specs): class name over their normalized attribute dict.
    state = getattr(value, "__dict__", None)
    if state is None and hasattr(type(value), "__slots__"):
        state = {
            slot: getattr(value, slot)
            for slot in type(value).__slots__
            if hasattr(value, slot)
        }
    if state is not None:
        return type(value).__name__ + _signature(dict(state))
    return repr(value)


def checkpoint_key(config: ScenarioConfig) -> str:
    """Digest of the world-defining part of ``config``.

    Two configs that differ only in run-scoped fields (run seed under a
    pinned ``world_seed``, fault plan, warm-start flags) share a key — and
    therefore a checkpoint.
    """
    base = world_config(config)
    return hashlib.sha256(_signature(dict(base.__dict__)).encode()).hexdigest()


def _incompatible(found: str, wanted: str) -> ExperimentError:
    return ExperimentError(
        "checkpoint is incompatible with this scenario "
        f"(checkpoint world {found[:12]}…, scenario world {wanted[:12]}…)"
    )


def _check_header(header: bytes, key: Optional[str]) -> None:
    """Refuse ``header`` unless it opens a checkpoint of this build's format
    for world ``key`` (any world when ``key`` is None)."""
    if len(header) < _HEADER.size or not header.startswith(_MAGIC):
        raise ExperimentError(
            "unreadable checkpoint: no Checkpoint header "
            "(damaged, or saved by another build)"
        )
    _magic, version, saved = _HEADER.unpack_from(header)
    if version != FORMAT_VERSION:
        raise ExperimentError(
            f"checkpoint format v{version} is not readable by this build "
            f"(expects v{FORMAT_VERSION})"
        )
    found = saved.decode("ascii", "replace")
    if key is not None and found != key:
        raise _incompatible(found, key)


class _raised_recursion_limit:
    """Temporarily raise the interpreter recursion limit (pickle only)."""

    def __enter__(self):
        self._saved = sys.getrecursionlimit()
        if self._saved < _PICKLE_RECURSION_LIMIT:
            sys.setrecursionlimit(_PICKLE_RECURSION_LIMIT)

    def __exit__(self, *exc):
        sys.setrecursionlimit(self._saved)
        return False


class Checkpoint:
    """A frozen, converged phase-1 world plus the machinery to fork it."""

    def __init__(self, key: str, experiment: HijackExperiment):
        self.format_version = FORMAT_VERSION
        self.key = key
        self.experiment = experiment
        #: Simulated clock at capture (end of phase-1 settle).
        self.clock = experiment.network.engine.now

    # ---------------------------------------------------------------- capture

    @classmethod
    def capture(cls, config: ScenarioConfig) -> "Checkpoint":
        """Build the world, run phase 1, freeze it, and wrap it up."""
        base = world_config(config)
        experiment = HijackExperiment(base)
        experiment.run_phase1()
        experiment.network.engine.freeze()
        return cls(checkpoint_key(base), experiment)

    # ------------------------------------------------------------------- fork

    def fork(self) -> HijackExperiment:
        """A private, runnable copy of the captured experiment.

        The network's fork memo (shared world objects, every speaker shell
        pre-registered and filled — see :meth:`Network.fork_memo`) plus the
        scenario config and its topology, which are frozen after setup.
        """
        master = self.experiment
        memo = master.network.fork_memo((master.config, master.config.topology))
        fork = copy.deepcopy(master, memo)
        fork.network.engine.thaw()
        _C.checkpoint_restores += 1
        return fork

    # ---------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """Header plus pickle, for :func:`save_checkpoint` (suite workers
        inherit the master by fork and never read these bytes)."""
        # One buffer, header first: no second copy of a many-MB pickle.
        buffer = io.BytesIO()
        buffer.write(_HEADER.pack(_MAGIC, self.format_version, self.key.encode("ascii")))
        with _raised_recursion_limit():
            pickle.dump(self, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        data = buffer.getvalue()
        if len(data) > _C.checkpoint_bytes:
            _C.checkpoint_bytes = len(data)
        return data

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """Check the header, then unpickle the body.  Another format
        version (refused unread), damaged bytes, or a graph naming code
        this build no longer has are an :class:`ExperimentError`."""
        _check_header(data[:_HEADER.size], None)
        try:
            with _raised_recursion_limit():
                checkpoint = pickle.loads(memoryview(data)[_HEADER.size:])
        except Exception as exc:  # pickle raises whatever the bytes provoke
            raise ExperimentError(
                "unreadable checkpoint, damaged or saved by another build "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if not isinstance(checkpoint, cls):
            raise ExperimentError("data does not contain a Checkpoint")
        if len(data) > _C.checkpoint_bytes:
            _C.checkpoint_bytes = len(data)
        return checkpoint

    def __repr__(self) -> str:
        return (
            f"<Checkpoint v{self.format_version} key={self.key[:12]} "
            f"clock={self.clock:.1f}s ases={len(self.experiment.network.speakers)}>"
        )


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write ``checkpoint`` to ``path`` (see ``repro.cli --checkpoint``)."""
    with open(path, "wb") as handle:
        handle.write(checkpoint.to_bytes())


def load_checkpoint(path: str, key: Optional[str] = None) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`; with ``key``,
    a file for another world is refused from its header alone."""
    with open(path, "rb") as handle:
        _check_header(handle.read(_HEADER.size), key)
        handle.seek(0)
        return Checkpoint.from_bytes(handle.read())


# ------------------------------------------------------------------ registry

#: Process-wide registry: checkpoint key → checkpoint.  A suite registers its
#: shared checkpoint here before forking its workers, so every warm
#: experiment in the process and its workers forks the same master.
_REGISTRY: Dict[str, Checkpoint] = {}

#: Checkpoints loaded from disk, cached per path so a sweep pointing many
#: seeds at one ``--checkpoint`` file deserializes it once.
_LOADED: Dict[str, Checkpoint] = {}


def register_checkpoint(checkpoint: Checkpoint) -> None:
    """Install ``checkpoint`` in the process-wide registry, keyed by world."""
    _REGISTRY[checkpoint.key] = checkpoint


def clear_registry() -> None:
    """Drop all registered/loaded checkpoints (tests; frees the worlds)."""
    _REGISTRY.clear()
    _LOADED.clear()


def pin_checkpoints() -> None:
    """Exempt the live heap — notably registered checkpoints — from GC.

    A checkpoint keeps an entire converged Internet alive for the rest of
    the process, which roughly doubles the heap every generational collector
    pass has to walk; on a 1000-AS world that costs more wall clock than the
    forks themselves.  Collect once, then ``gc.freeze()`` so the permanent
    objects stop being scanned.  Call after :func:`acquire_checkpoint`
    (a suite does so before it forks its workers, which inherit the frozen
    heap).
    """
    gc.collect()
    gc.freeze()


def acquire_checkpoint(config: ScenarioConfig) -> Checkpoint:
    """The checkpoint a warm-started ``config`` should fork.

    Resolution order: an explicit :class:`Checkpoint` on the config, a path
    on the config (loaded once, cached), then the registry by key —
    capturing and registering on first miss.  Explicit checkpoints must
    match the config's world key: forking an incompatible world would run
    the attack against a different Internet than the one being measured.
    """
    key = checkpoint_key(config)
    supplied = config.checkpoint
    if isinstance(supplied, Checkpoint):
        checkpoint = supplied
    elif isinstance(supplied, (str, bytes)):
        path = str(supplied)
        checkpoint = _LOADED.get(path)
        if checkpoint is None:
            checkpoint = load_checkpoint(path, key)
            _LOADED[path] = checkpoint
    elif supplied is None:
        checkpoint = _REGISTRY.get(key)
        if checkpoint is None:
            checkpoint = Checkpoint.capture(config)
            _REGISTRY[key] = checkpoint
        return checkpoint
    else:
        raise ExperimentError(
            f"config.checkpoint must be a Checkpoint or a path, "
            f"got {type(supplied).__name__}"
        )
    if checkpoint.key != key:
        raise _incompatible(checkpoint.key, key)
    return checkpoint
