"""Seeded randomness utilities.

Every stochastic component (session delays, stream latency, operator
reaction times, topology generation) draws from its own named substream
derived from one experiment seed, so adding a new component never perturbs
the draws of existing ones — a property the calibration benches rely on.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(base_seed: int, *names: object) -> int:
    """Derive a stable 64-bit sub-seed from a base seed and a name path.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike ``hash()``).
    """
    material = repr((int(base_seed),) + tuple(str(n) for n in names))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRNG(random.Random):
    """A ``random.Random`` that remembers its seed and can spawn substreams."""

    def __init__(self, seed: int = 0):
        self.base_seed = int(seed)
        super().__init__(self.base_seed)

    def __reduce__(self):
        # random.Random's default reduce reconstructs with *no* arguments,
        # which would silently reset ``base_seed`` to 0 on pickle/deepcopy
        # (checkpoint forks ship RNGs both ways).  Rebuild with the real
        # seed, then restore the exact generator position.
        return (self.__class__, (self.base_seed,), self.getstate())

    def __setstate__(self, state):
        self.setstate(state)

    def __deepcopy__(self, memo):
        # Without this, deepcopy walks the Mersenne Twister state tuple —
        # 625 ints — element by element; at a few thousand streams per
        # checkpoint fork that is millions of dispatches for values that
        # are immutable anyway.  Hand the state tuple over wholesale.
        clone = self.__class__.__new__(self.__class__)
        clone.base_seed = self.base_seed
        clone.setstate(self.getstate())
        memo[id(self)] = clone
        return clone

    def substream(self, *names: object) -> "SeededRNG":
        """A new independent RNG derived from this one's seed and ``names``."""
        return SeededRNG(derive_seed(self.base_seed, *names))

    def reseed_run(self, run_seed: int) -> None:
        """Re-key the stream for one run of a shared warm-start world.

        Called at the hijack instant on *every* world stream, in both the
        cold and the warm path, when the scenario pins a ``world_seed``: the
        generator jumps to a position derived only from ``(base_seed,
        run_seed)``, so a run forked from a checkpoint draws exactly what a
        cold run with the same ``run_seed`` draws — regardless of how many
        values phase 1 consumed.  ``base_seed`` (the stream's identity, and
        what substreams derive from) is deliberately left unchanged.
        """
        self.seed(derive_seed(self.base_seed, "run", run_seed))
