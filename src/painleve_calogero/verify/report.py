"""Machine-readable pass/fail reports for the verification harness, and
the seeded draws behind them.

The draws are numpy's ``default_rng([seed, crc32(check_id)])`` stream, bit
for bit, taken from a pure-Python copy: numpy's ``SeedSequence`` (a pool of
four 32-bit words) seeds a PCG64 XSL-RR generator (O'Neill, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation", HMC-CS-2014-0905).  So a seed names the same points as
when numpy drew them, and a ``verify`` run loads no numpy.  A seed that is
not a non-negative integer is refused with ValueError.
"""

from __future__ import annotations

import json
import math
import operator
import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """One numerical check: an error magnitude against a pinned tolerance.

    A NaN error (a ratio inf / inf, the spread of infinite values) is
    reported as inf, which fails like any other non-finite error."""

    check_id: str
    max_error: float
    tolerance: float
    samples: int
    passed: bool = field(init=False)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.max_error = float(self.max_error)
        if math.isnan(self.max_error):
            self.max_error = math.inf
        self.tolerance = float(self.tolerance)
        self.passed = self.max_error <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "passed": self.passed,
            "metadata": dict(sorted(self.metadata.items())),
        }


def sort_reports(reports: list[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda r: r.check_id)


def reports_to_json(reports: list[CheckReport]) -> str:
    """Deterministic JSON array (sorted by check_id, sorted keys)."""
    return json.dumps([r.to_dict() for r in sort_reports(reports)], indent=2, sort_keys=True)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence constants (hashmix, mix, generate_state)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(entropy: list[int]) -> tuple[int, int]:
    """(initstate, initseq) of ``PCG64(SeedSequence(entropy))``: the ints
    split into little-endian 32-bit words, hashed into a 4-word pool, and
    four 64-bit words drawn from it, the low 32 bits first."""
    words = []
    for n in entropy:
        words.append(n & _MASK32)
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    u = [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]
    return u[0] << 64 | u[1], u[2] << 64 | u[3]


class _PCG64:
    """numpy's PCG64 ``Generator``, reduced to the two calls verify makes:
    ``uniform(low, high)`` and ``integers(2)``, each drawing what numpy's
    draws at the same place in the stream."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: list[int]):
        initstate, initseq = _seed_state(entropy)
        # numpy's seeding: from state 0, step, add initstate, step
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128
        self._half = None  # high 32 bits of a 64-bit draw, the next 32-bit draw

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (-rot & 63)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            x, self._half = self._half, None
            return x
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def uniform(self, low: float, high: float) -> float:
        """low + (high - low) * d, d = 53 random bits times 2**-53."""
        low = float(low)
        return low + (float(high) - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, high: int) -> int:
        """numpy's ``integers(2)``, the one bound verify draws: Lemire's
        bounded draw over a 32-bit half, which at this bound is its top bit
        and never rejects."""
        if high != 2:
            raise ValueError(f"integers: only high = 2 is drawn, got {high!r}")
        return self._next32() >> 31


def rng_for(seed: int, check_id: str) -> _PCG64:
    """Deterministic per-check generator derived from (seed, check_id): the
    stream of numpy's ``default_rng([seed, zlib.crc32(check_id)])``, bit for
    bit.  The seed is taken through ``operator.index`` (numpy integers and
    bools pass); one that is not a non-negative integer raises ValueError
    naming it."""
    try:
        n = operator.index(seed)
    except TypeError:
        n = -1
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return _PCG64([n, zlib.crc32(check_id.encode())])


def worst(errors: Iterable[float]) -> float:
    """The largest error: 0.0 when there are none, inf as soon as one is NaN
    (``max`` drops a NaN that is not its first argument, so the check would pass)."""
    out = 0.0
    for e in errors:
        if e != e:
            return math.inf
        if e > out:
            out = e
    return out


def worst_over(seed: int, check_id: str, n: int,
               point_error: Callable[[_PCG64], float]) -> float:
    """``worst`` of n draws of ``point_error(rng)`` from one ``rng_for(seed, check_id)``."""
    rng = rng_for(seed, check_id)
    return worst(point_error(rng) for _ in range(n))


def cbox(rng, re_lo, re_hi, im_lo, im_hi) -> complex:
    """One complex sample uniform over a rectangle; ``rng`` is an ``rng_for``
    generator, or any other with numpy's ``uniform(low, high)``."""
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
