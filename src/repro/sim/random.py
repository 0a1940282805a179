"""Reproducible named random streams.

Every stochastic component (traffic generators, BER noise, jitter models)
draws from its own named stream derived from a single experiment seed.  Two
consequences matter for the reproduction:

* re-running an experiment with the same seed produces bit-identical
  results regardless of the order in which components were constructed,
* changing one component's draws (say, a workload) does not perturb the
  draws seen by another (say, the BER model), so ablations compare
  like-for-like noise.

Each stream is a pure-Python :class:`Stream` that draws exactly what
``numpy.random.default_rng(seed)`` draws (numpy 2.x: ``SeedSequence`` ->
PCG64), so the runtime needs only the standard library, and a stream's
values do not depend on which numpy version, if any, is installed.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import Dict, Iterable, List, Sequence, TypeVar

from repro.sim._ziggurat import EXP_R, FE, KE, WE

T = TypeVar("T")

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: 2**-53: a 53-bit draw to a double in [0, 1).
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

# numpy's SeedSequence hash constants (pool size 4, 32-bit words).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(root_seed, name)`` via SHA-256.

    Hashing keeps the derivation independent of Python's per-process hash
    randomisation and of the order streams are requested in.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``: PCG64's four seed words."""
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[2 * i] | (halves[2 * i + 1] << 32) for i in range(4)]


class Stream:
    """One PCG64 (XSL-RR) stream that draws as ``numpy.random.default_rng(seed)`` does.

    Only the draw kinds the simulator uses are here, each reproducing its
    numpy ``Generator`` counterpart draw for draw -- including numpy's
    buffered upper half of a 64-bit output, which 32-bit draws
    (:meth:`integers` over a small range, :meth:`shuffle`) consume first.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed!r}")
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((((i0 << 64) | i1) << 1) | 1) & _MASK128
        self._state = (self._inc + ((s0 << 64) | s1)) & _MASK128
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        #: The unused upper 32 bits of the last 64-bit output a 32-bit draw split.
        self._half = None

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A double in ``[0, 1)`` from the top 53 bits of one output."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float, high: float) -> float:
        """A double in ``[low, high)``: ``low + (high - low) * random()``."""
        span = float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError(f"high ({high!r}) must be >= low ({low!r})")
        return float(low) + span * self.random()

    def integers(self, low: int, high: int) -> int:
        """An integer in ``[low, high)`` by Lemire's multiply-and-reject.

        Ranges of at most 2**32 values draw 32-bit words, wider ones 64-bit words.
        """
        top = high - 1 - low
        if top < 0:
            raise ValueError(f"low ({low!r}) must be < high ({high!r})")
        if top > _MASK64:
            raise ValueError("high - low exceeds 2**64")
        if top == 0:
            return low
        bits, draw = (32, self._next32) if top <= _MASK32 else (64, self._next64)
        full = (1 << bits) - 1
        if top == full:
            return low + draw()
        span = top + 1
        product = draw() * span
        if product & full < span:
            threshold = (full - top) % span
            while product & full < threshold:
                product = draw() * span
        return low + (product >> bits)

    def _interval(self, top: int) -> int:
        """numpy's ``random_interval``: a value in ``[0, top]`` by masked rejection."""
        mask = (1 << top.bit_length()) - 1
        draw = self._next32 if top <= _MASK32 else self._next64
        value = draw() & mask
        while value > top:
            value = draw() & mask
        return value

    def shuffle(self, items: List[T]) -> None:
        """Shuffle *items* in place (Fisher-Yates from the back)."""
        for i in range(len(items) - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> List[int]:
        """A shuffled ``list(range(n))``."""
        items = list(range(n))
        self.shuffle(items)
        return items

    def _standard_exponential(self) -> float:
        """numpy's 256-strip ziggurat for the unit exponential."""
        while True:
            bits = self._next64() >> 3
            strip = bits & 0xFF
            bits >>= 8
            x = bits * WE[strip]
            if bits < KE[strip]:
                return x
            if strip == 0:
                return EXP_R - math.log1p(-self.random())
            if (FE[strip - 1] - FE[strip]) * self.random() + FE[strip] < math.exp(-x):
                return x

    def exponential(self, scale: float) -> float:
        """An exponential draw with mean *scale*."""
        return scale * self._standard_exponential()

    def pareto(self, a: float) -> float:
        """A Lomax (Pareto II) draw of shape *a*: ``expm1(exponential / a)``."""
        return math.expm1(self._standard_exponential() / a)


class RandomStreams:
    """A factory of named :class:`Stream` instances derived from one seed."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, numbers.Integral):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return (creating on first use) the stream for *name*."""
        if name not in self._streams:
            self._streams[name] = Stream(_derive_seed(self.seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child ``RandomStreams`` whose root seed is derived from *name*.

        Useful when a sub-experiment (e.g. one point of a parameter sweep)
        needs its own family of independent streams.
        """
        return RandomStreams(_derive_seed(self.seed, f"spawn:{name}") % (2**63))

    # ------------------------------------------------------------------ #
    # Convenience draws used across workloads
    # ------------------------------------------------------------------ #
    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given *mean* from stream *name*."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return self.stream(name).exponential(mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw in ``[low, high)`` from stream *name*."""
        return self.stream(name).uniform(low, high)

    def pareto(self, name: str, shape: float, scale: float) -> float:
        """One (Lomax-style) Pareto draw: ``scale * (1 + Pareto(shape))``.

        Heavy-tailed flow sizes in the workload generators use this; shape
        values near 1.1-1.5 reproduce the mice/elephants mix reported for
        datacenter traffic.
        """
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        return scale * (1.0 + self.stream(name).pareto(shape))

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Uniformly choose one element of *options* from stream *name*."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return options[self.stream(name).integers(0, len(options))]

    def shuffled(self, name: str, items: Iterable[T]) -> List[T]:
        """Return a new list with *items* in a random order from stream *name*."""
        result = list(items)
        self.stream(name).shuffle(result)
        return result

    def permutation(self, name: str, n: int) -> List[int]:
        """A random permutation of ``range(n)`` from stream *name*."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n!r}")
        return self.stream(name).permutation(n)

    def derangement(self, name: str, n: int, max_attempts: int = 1000) -> List[int]:
        """A permutation of ``range(n)`` with no fixed points.

        Permutation-traffic workloads need every node to send to a *different*
        node; rejection sampling converges quickly (probability of success per
        attempt tends to 1/e).
        """
        if n < 2:
            raise ValueError(f"a derangement needs n >= 2, got {n!r}")
        for _ in range(max_attempts):
            candidate = self.permutation(name, n)
            if all(candidate[i] != i for i in range(n)):
                return candidate
        # Deterministic fallback: rotate by one, always a valid derangement.
        return [(i + 1) % n for i in range(n)]
