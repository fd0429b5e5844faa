"""Seeded randomness utilities.

Every stochastic component (session delays, stream latency, operator
reaction times, topology generation) draws from its own named substream
derived from one experiment seed, so adding a new component never perturbs
the draws of existing ones — a property the calibration benches rely on.

A stream is not a Mersenne Twister of its own.  It is a position in one:
the MT19937 sequence seeded with the stream's key, and how many 32-bit
words of it have been drawn.  The words come in blocks, filled from one
process-wide generator that is re-seeded with the key and skips the
words already drawn; each refill doubles the block, so a stream that
draws ``n`` words pays O(log n) re-seedings.  The generator remembers
which key and position it stands at, so a stream that refills twice in a
row (the topology generator's one stream) neither re-seeds nor skips.
What a stream draws is bit for bit what ``random.Random(key)`` draws:
``random`` and ``getrandbits`` repeat CPython's C code on the words, and
every other method is CPython's own Python function.
"""

from __future__ import annotations

import _random
import hashlib
import sys
from array import array
from math import log as _log
from random import NV_MAGICCONST, Random

#: Words in a stream's first block; each refill doubles it.  A stream
#: draws 28 words in the median on the pinned 1000-AS run.
_FIRST_BLOCK = 64

_EMPTY = array("I")
#: Blocks are filled from little-endian bytes.
_SWAP = sys.byteorder == "big"

#: 2 ** -53: ``random()`` is ``(a * 2**26 + b) / 2**53`` of two words.
_RECIP_BPF = 1.0 / 9007199254740992.0

#: The one Mersenne Twister that fills every stream's blocks, and the
#: (key, words drawn) it stands at.
_MT = _random.Random(0)
_mt_seed = _MT.seed
_mt_bits = _MT.getrandbits
_parked_key = 0
_parked_at = 0


def derive_seed(base_seed: int, *names: object) -> int:
    """Derive a stable 64-bit sub-seed from a base seed and a name path.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike ``hash()``).
    """
    material = repr((int(base_seed),) + tuple(str(n) for n in names))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRNG:
    """A seeded random stream that can spawn substreams.

    It draws exactly what ``random.Random(seed)`` draws (after
    :meth:`reseed_run`, what one seeded with the derived key draws), but
    holds only that key, the words drawn so far and its current block of
    words: ≈430 bytes a stream on a converged 38-AS world, not 2,560 of
    Mersenne Twister state.  A block is never mutated, so a deep copy
    shares it; a pickle is ``(base_seed, key, words drawn, gauss_next)``.
    """

    __slots__ = ("base_seed", "_key", "_start", "_block", "_i", "gauss_next")

    def __init__(self, seed: int = 0):
        self.base_seed = int(seed)
        self._key = self.base_seed
        self._start = 0  # words of the stream before ``_block``
        self._block = _EMPTY
        self._i = 0  # next unread word of ``_block``
        self.gauss_next = None

    def __reduce__(self):
        return (
            self.__class__,
            (self.base_seed,),
            (self._key, self._start + self._i, self.gauss_next),
        )

    def __setstate__(self, state):
        self._key, self._start, self.gauss_next = state

    def __deepcopy__(self, memo):
        clone = self.__class__.__new__(self.__class__)
        clone.base_seed = self.base_seed
        clone._key = self._key
        clone._start = self._start
        clone._block = self._block
        clone._i = self._i
        clone.gauss_next = self.gauss_next
        memo[id(self)] = clone
        return clone

    def substream(self, *names: object) -> "SeededRNG":
        """A new independent RNG derived from this one's seed and ``names``."""
        return SeededRNG(derive_seed(self.base_seed, *names))

    def reseed_run(self, run_seed: int) -> None:
        """Re-key the stream for one run of a shared warm-start world.

        Called at the hijack instant on *every* world stream, in both the
        cold and the warm path, when the scenario pins a ``world_seed``: the
        stream jumps to a position derived only from ``(base_seed,
        run_seed)``, so a run forked from a checkpoint draws exactly what a
        cold run with the same ``run_seed`` draws — regardless of how many
        values phase 1 consumed.  ``base_seed`` (the stream's identity, and
        what substreams derive from) is deliberately left unchanged.
        """
        self._key = derive_seed(self.base_seed, "run", run_seed)
        self._start = 0
        self._block = _EMPTY
        self._i = 0
        self.gauss_next = None

    # -- the words ------------------------------------------------------

    def _refill(self) -> array:
        """Replace the spent block by the next one, twice its size."""
        global _parked_key, _parked_at
        block = self._block
        start = self._start + len(block)
        count = 2 * len(block) or _FIRST_BLOCK
        key = self._key
        if key != _parked_key or start != _parked_at:
            _mt_seed(key)
            if start:
                _mt_bits(32 * start)
        block = array("I", _mt_bits(32 * count).to_bytes(4 * count, "little"))
        if _SWAP:
            block.byteswap()
        _parked_key = key
        _parked_at = start + count
        self._start = start
        self._block = block
        self._i = 0
        return block

    def _take(self, n: int) -> array:
        """The next ``n`` words, across as many refills as it takes."""
        i = self._i
        words = self._block[i:i + n]
        self._i = i + len(words)
        while len(words) < n:
            got = self._refill()[:n - len(words)]
            words += got
            self._i = len(got)
        return words

    def random(self) -> float:
        """A float in [0, 1): CPython's ``genrand_res53`` of two words."""
        i = self._i
        block = self._block
        try:
            b = block[i + 1]
        except IndexError:
            a, b = self._take(2)
        else:
            a = block[i]
            self._i = i + 2
        return ((a >> 5) * 67108864.0 + (b >> 6)) * _RECIP_BPF

    def getrandbits(self, k: int) -> int:
        """An int of ``k`` random bits, words little end first and the last
        word shifted right to fit, as CPython's C code builds it."""
        if k <= 32:
            if k <= 0:
                if k < 0:
                    raise ValueError("number of bits must be non-negative")
                return 0
            i = self._i
            try:
                word = self._block[i]
            except IndexError:
                word = self._take(1)[0]
            else:
                self._i = i + 1
            return word >> (32 - k)
        words = self._take((k - 1) // 32 + 1)
        spare = -k % 32
        value = words.pop() >> spare
        for word in reversed(words):
            value = (value << 32) | word
        return value

    # -- distributions: the hot ones read the block inline ---------------

    def uniform(self, a, b):
        i = self._i
        block = self._block
        try:
            w = block[i + 1]
        except IndexError:
            return a + (b - a) * self.random()
        self._i = i + 2
        return a + (b - a) * (((block[i] >> 5) * 67108864.0 + (w >> 6)) * _RECIP_BPF)

    def expovariate(self, lambd=1.0):
        i = self._i
        block = self._block
        try:
            w = block[i + 1]
        except IndexError:
            return -_log(1.0 - self.random()) / lambd
        self._i = i + 2
        u = ((block[i] >> 5) * 67108864.0 + (w >> 6)) * _RECIP_BPF
        return -_log(1.0 - u) / lambd

    def normalvariate(self, mu=0.0, sigma=1.0):
        # Kinderman and Monahan, as CPython draws it: two floats a round.
        while True:
            i = self._i
            block = self._block
            try:
                w = block[i + 3]
            except IndexError:
                u1 = self.random()
                u2 = 1.0 - self.random()
            else:
                self._i = i + 4
                u1 = ((block[i] >> 5) * 67108864.0 + (block[i + 1] >> 6)) * _RECIP_BPF
                u2 = 1.0 - ((block[i + 2] >> 5) * 67108864.0 + (w >> 6)) * _RECIP_BPF
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                return mu + z * sigma

    _randbelow = Random._randbelow_with_getrandbits
    randrange = Random.randrange
    randint = Random.randint
    choice = Random.choice
    shuffle = Random.shuffle
    sample = Random.sample
    lognormvariate = Random.lognormvariate
    gauss = Random.gauss
