"""numpy's seeded PCG64 bounded-integer stream, computed without ``numpy.random``.

``SpawnedIntegers(master_seed, n, size)(b)`` equals
``numpy.random.default_rng(numpy.random.SeedSequence(master_seed, spawn_key=(b,)))
.integers(0, n, size=size)`` bit for bit, for 1 <= n <= 2**32 (the test suite
checks it against numpy and against a scalar loop, ``tests/oracles.py``). Importing
``numpy.random`` loads ``secrets`` and with it ``hashlib`` and OpenSSL; this
module needs none of them. Each step is numpy's own:

- ``SeedSequence``: the entropy words (the master seed's, padded to the pool's four
  words, then b's) are hashed into a pool of four 32-bit words, which
  ``generate_state(4, uint64)`` hashes into the PCG64 seed and increment. The
  master seed's part is hashed once, in the constructor.
- PCG64 (XSL-RR 128/64), seeded as numpy's ``pcg64_set_seed``. The k-th state
  after the seeded state s is ``A_k s + G_k inc`` mod 2**128, with the constant
  tables ``A_k = a**k`` and ``G_k = a**(k-1) + ... + a + 1``, so a block of
  outputs is a few uint64 array operations, the high words from 32-bit halves.
- ``integers``: each output gives its low, then its high 32 bits, and Lemire's
  method (numpy's ``buffered_bounded_lemire_uint32``) keeps a candidate c when
  ``c * n mod 2**32 >= 2**32 mod n`` and returns ``c * n >> 32``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SpawnedIntegers"]

_M32 = 0xFFFF_FFFF
_M64 = 0xFFFF_FFFF_FFFF_FFFF
_M128 = (1 << 128) - 1
# numpy.random.bit_generator's SeedSequence constants, and the 128-bit LCG multiplier of pcg64.h
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _words(value: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: 32-bit words, least significant first."""
    if value < 0:
        raise ValueError(f"seed words must be non-negative, got {value}")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hashmix(value: int, h: int) -> tuple[int, int]:
    value ^= h
    h = h * _MULT_A & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _mix_in(pool: list[int], h: int, words: list[int]) -> int:
    """Mix each word into every pool word in place; the hash constant after."""
    for w in words:
        for i in range(_POOL):
            v, h = _hashmix(w, h)
            pool[i] = _mix(pool[i], v)
    return h


def _tables(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, lo0, lo1)``: rows [A_k, G_k] for k = 1..count, as their low and high
    64-bit words and the low word's 32-bit halves, each (2, count) uint64."""
    a, g = 1, 0
    words = []
    for _ in range(count):
        a, g = a * _PCG_MULT & _M128, (g * _PCG_MULT + 1) & _M128
        words.append((a & _M64, a >> 64, g & _M64, g >> 64))
    w = np.array(words, dtype=np.uint64).reshape(count, 2, 2).transpose(2, 1, 0)
    lo, hi = np.ascontiguousarray(w[0]), np.ascontiguousarray(w[1])
    return lo, hi, lo & np.uint64(_M32), lo >> np.uint64(32)


class SpawnedIntegers:
    """``integers(0, n, size=size)`` of each replication b's generator
    ``default_rng(SeedSequence(master_seed, spawn_key=(b,)))``: call with b.

    The constructor hashes the master seed and builds the state tables, one block of
    outputs long, with room for the rejections ``n`` makes likely; a draw that needs
    more candidates continues the stream a block at a time.
    """

    def __init__(self, master_seed: int, n: int, size: int):
        self.n, self.size = n, size
        self.threshold = (1 << 32) % n  # numpy's (UINT32_MAX - (n - 1)) % n
        words = _words(master_seed)
        pool, h = [], _INIT_A
        for w in words[:_POOL] + [0] * (_POOL - len(words)):  # zero padded, as with a spawn key
            v, h = _hashmix(w, h)
            pool.append(v)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    v, h = _hashmix(pool[src], h)
                    pool[dst] = _mix(pool[dst], v)
        self.hash_const = _mix_in(pool, h, words[_POOL:])
        self.pool = tuple(pool)
        # expected rejections are size * p / (1 - p), p = threshold / 2**32; take twice that and 16 more
        spare = 2 * (size * self.threshold // ((1 << 32) - self.threshold)) + 16
        self.tables = _tables((size + spare + 1) // 2)

    def _seeded(self, b: int) -> tuple[int, int]:
        """Replication b's PCG64 state and increment after seeding, as 128-bit integers."""
        pool = list(self.pool)
        h = _mix_in(pool, self.hash_const, _words(b))
        state, h = [], _INIT_B  # generate_state(4, uint64): eight 32-bit words, two per uint64
        for i in range(8):
            v = pool[i % _POOL] ^ h
            h = h * _MULT_B & _M32
            v = v * h & _M32
            state.append(v ^ v >> 16)
        w = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
        seed, inc = w[0] << 64 | w[1], (w[2] << 65 | w[3] << 1 | 1) & _M128  # pcg64_set_seed: inc = 2 w + 1
        return ((inc + seed) * _PCG_MULT + inc) & _M128, inc

    def __call__(self, b: int) -> np.ndarray:
        state, inc = self._seeded(b)
        lo_t, hi_t, lo0, lo1 = self.tables
        m32, s32 = np.uint64(_M32), np.uint64(32)
        picks, need = [], self.size
        while True:
            # A_k s + G_k inc mod 2**128 for the block: row 0 times the state, row 1 times inc
            x = np.array([[v & _M32, v >> 32 & _M32, v & _M64, v >> 64] for v in (state, inc)], dtype=np.uint64)
            x0, x1, xl, xh = x[:, 0:1], x[:, 1:2], x[:, 2:3], x[:, 3:4]
            p01, p10 = lo0 * x1, lo1 * x0
            mid = (lo0 * x0 >> s32) + (p01 & m32) + (p10 & m32)
            hi = lo1 * x1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32) + lo_t * xh + hi_t * xl
            lo = lo_t * xl
            slo = lo[0] + lo[1]
            shi = hi[0] + hi[1] + (slo < lo[0])
            # XSL-RR output, then its low and high 32-bit halves in that order
            rot = shi >> np.uint64(58)
            out = slo ^ shi
            out = (out >> rot) | (out << ((np.uint64(64) - rot) & np.uint64(63)))
            m = out.astype("<u8", copy=False).view("<u4").astype(np.uint64) * np.uint64(self.n)
            kept = (m[(m & m32) >= self.threshold] >> s32)[:need]
            picks.append(kept.view(np.int64))
            need -= len(kept)
            if need == 0:
                return picks[0] if len(picks) == 1 else np.concatenate(picks)
            state = int(shi[-1]) << 64 | int(slo[-1])
