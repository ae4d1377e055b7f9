"""Deterministic randomness plumbing.

All randomness in a run flows from one 64-bit master seed through named
sub-streams (agent walks, placement, laziness coins, protocol samples, the
choice oracle), so enabling or exercising one consumer can never perturb
another.  Streams are numpy PCG64 generators; sub-seeds are SHA-256 digests
of the master seed plus stable labels, which keeps derivation reproducible
across platforms and processes.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import InvalidParameterError
from .graphs import Graph

__all__ = [
    "derive_seed",
    "SimRng",
    "ChoiceOracle",
    "place_stationary",
]


_SEED_LIMIT = 2 ** 127  # an int seed part is packed as 16 signed bytes


def check_seed(seed: int) -> int:
    """``seed``, if derived streams can use it: an int in [-2**127, 2**127)."""
    if not -_SEED_LIMIT <= seed < _SEED_LIMIT:
        raise InvalidParameterError(
            f"seed {seed} is outside [-2**127, 2**127)")
    return seed


def _hasher(*parts):
    """SHA-256 of a sequence of ints and string labels."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, (bool, np.bool_)):
            raise TypeError("booleans are ambiguous seed parts; use strings")
        if isinstance(p, (int, np.integer)):
            h.update(b"i")
            h.update(check_seed(int(p)).to_bytes(16, "little", signed=True))
        elif isinstance(p, str):
            h.update(b"s")
            h.update(p.encode("utf-8"))
            h.update(b"\x00")
        else:
            raise TypeError(f"unsupported seed part type: {type(p)!r}")
    return h


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a sequence of ints and string labels."""
    return int.from_bytes(_hasher(*parts).digest()[:8], "little")


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class SimRng:
    """Bundle of named, independently seeded generators for one run."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict = {}

    def stream(self, *labels) -> np.random.Generator:
        """Generator for the given label path (cached per instance)."""
        if labels not in self._streams:
            self._streams[labels] = _stream(derive_seed(self.seed, *labels))
        return self._streams[labels]

    def child_seed(self, *labels) -> int:
        return derive_seed(self.seed, *labels)

    def __repr__(self):
        return f"SimRng(seed={self.seed})"


# -- PCG64 streams in bulk ----------------------------------------------------
#
# numpy seeds ``PCG64(s)`` through ``SeedSequence(s)``: a 32-bit hash mix of
# the seed's words into a pool of four words, then eight words hashed out of
# the pool.  PCG64 is a 128-bit LCG, state' = state * M + inc, whose 64-bit
# output is the XSL-RR of the new state.  The functions below redo both over
# arrays of seeds; a 128-bit number is a (high, low) pair of uint64 arrays.

_M64 = 2 ** 64 - 1
_M32, _S32 = np.array(2 ** 32 - 1, np.uint64), np.array(32, np.uint64)
_MIX_L, _MIX_R, _S16 = (np.array(v, np.uint32)  # SeedSequence's mix
                        for v in (0xca01f9dd, 0x4973f715, 16))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 2048  # streams per bulk step, to keep the temporaries small


def _hash_run(init: int, mult: int, calls: int):
    """SeedSequence's running hash constant before and after each call."""
    c = np.array([init * pow(mult, t, 2 ** 32) % 2 ** 32
                  for t in range(calls + 1)], dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


_HASH_A = _hash_run(0x43b0d7e5, 0x931e8875, 16)  # pool mixing: 16 calls
_HASH_B = _hash_run(0x8b51f9dd, 0x58f38ded, 8)   # generate_state: 8 calls


def _hashmix(value, run, calls: slice):
    """SeedSequence's hashmix, one row of ``value`` per call of ``run``."""
    value = (value ^ run[0][calls]) * run[1][calls]
    return value ^ value >> _S16


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64
    seed s, shape (4, len(seeds)).  A seed below 2**32 has one word, but
    hashmix(0) fills the missing one: its pool is that of two words."""
    pool = np.zeros((4, seeds.shape[0]), dtype=np.uint32)
    pool[0], pool[1] = seeds & _M32, seeds >> _S32
    pool = _hashmix(pool, _HASH_A, slice(0, 4))
    for src in range(4):  # mixing into the other words leaves pool[src]
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - _MIX_R * _hashmix(
            pool[src], _HASH_A, slice(4 + 3 * src, 7 + 3 * src))
        pool[dst] = mixed ^ mixed >> _S16
    w = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B,
                 slice(0, 8)).astype(np.uint64)
    return w[0::2] | w[1::2] << _S32


def _add(x, y):
    """x + y mod 2**128 on (high, low) pairs of uint64 arrays."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _mul(x, a):
    """x * a mod 2**128 on (high, low) pairs of uint64 arrays."""
    u, v = x[1], a[1]
    u0, u1, v0, v1 = u & _M32, u >> _S32, v & _M32, v >> _S32
    c0, c1 = u0 * v1, u1 * v0  # the low words' cross products
    carry = ((u0 * v0 >> _S32) + (c0 & _M32) + (c1 & _M32)) >> _S32
    hi = x[0] * v + u * a[0] + u1 * v1 + (c0 >> _S32) + (c1 >> _S32) + carry
    return hi, u * v


def _pcg64_seed(seeds: np.ndarray):
    """``(state, inc)`` of ``np.random.PCG64(s)`` for each uint64 seed s:
    srandom(initstate, initseq) sets inc = 2 * initseq + 1 and state =
    (initstate + inc) * M + inc."""
    w = _seed_words(seeds)
    one = np.array(1, np.uint64)
    inc = w[2] << one | w[3] >> np.array(63, np.uint64), w[3] << one | one
    mult = _jumps(1)[0]  # M itself
    return _add(_mul(_add(w[:2], inc), mult), inc), inc


@functools.cache
def _jumps(words: int):
    """A_j = M^j and C_j = 1 + M + ... + M^(j-1), j = 1 .. words, as pairs
    of shape (words,): j steps take state s to A_j * s + C_j * inc."""
    a, c, jumps = 1, 0, []
    for _ in range(words):
        a, c = a * _PCG_MULT % 2 ** 128, (c * _PCG_MULT + 1) % 2 ** 128
        jumps.append((a, c))
    return tuple((np.array([v >> 64 for v in col], dtype=np.uint64),
                  np.array([v & _M64 for v in col], dtype=np.uint64))
                 for col in zip(*jumps))


def _first_blocks(seeds: np.ndarray, bounds, count: int) -> np.ndarray:
    """For each uint64 seed s and bound d in [2, 2**32], the values of
    ``Generator(PCG64(s)).integers(0, d, size=count)``.  The first ``count //
    2 + 1`` words of every stream are made at once.  numpy reads a word's low
    half, then its high half, and keeps half h when ``h * d mod 2**32 >=
    (2**32 - d) % d`` (Lemire's method), as ``h * d >> 32``; a stream that
    rejects too many halves for those words is drawn by numpy itself."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    if bounds.size and not (bounds.min() >= 2 and bounds.max() <= 2 ** 32):
        raise InvalidParameterError("bulk draws need bounds in [2, 2**32]")
    a, c = _jumps(count // 2 + 1)
    draws = np.empty((seeds.shape[0], count), dtype=np.int64)
    for at in range(0, seeds.shape[0], _CHUNK):
        state, inc = _pcg64_seed(seeds[at:at + _CHUNK])
        hi, lo = _add(_mul([w[:, None] for w in state], a),
                      _mul([w[:, None] for w in inc], c))
        rot = hi >> 58  # XSL-RR: the halves xored, rotated by the top 6 bits
        out = (hi ^ lo) >> rot | (hi ^ lo) << (64 - rot & 63)
        d = bounds[at:at + _CHUNK, None]
        scaled = np.stack([out & _M32, out >> 32], 2).reshape(
            d.shape[0], -1) * d
        keep = (scaled & _M32) >= (2 ** 32 - d) % d
        kept = np.cumsum(keep, axis=1)
        full = kept[:, -1] >= count
        block = draws[at:at + _CHUNK]
        block[full] = (scaled[keep & (kept <= count) & full[:, None]]
                       >> 32).reshape(-1, count)
        for j in np.flatnonzero(~full).tolist():
            block[j] = _stream(int(seeds[at + j])).integers(
                0, int(d[j, 0]), size=count)
    return draws


class ChoiceOracle:
    """Lazily materialized table of uniform neighbor choices.

    ``choice(u, i)`` is the i-th (1-indexed) uniform draw from the neighbors
    of u, and ``take(us, idx)`` looks up many (vertex, index) pairs at once.
    Each entry is generated at most once and afterwards returned verbatim,
    and the value depends only on (oracle seed, u, i) — never on the order
    in which different vertices are queried — because every vertex owns its
    own derived PCG64 sub-stream.  Coupled runs share one oracle between the
    walk process and the push replay.

    Entries live in one flat ``int64`` buffer, each vertex's row contiguous.
    The oracle starts with the first 32 entries of every vertex of degree
    above 1, made for all of them at once by :func:`_first_blocks`; they
    equal ``integers(0, deg, size=32)`` on the vertex's own
    ``PCG64(derive_seed(seed, "vertex", u))``.  The oracle keeps each such
    vertex's seed and no generator state: a row that needs more entries
    regrows, at least doubling, by drawing the whole longer row again from
    the start of the vertex's stream.  It keeps the entries it already gave
    out, takes only the new ones from the redraw, and moves to the end of
    the buffer.  A degree-1 vertex draws nothing (a bounded draw of range 0
    consumes no randomness): its row is its lone neighbor, read for every
    index.  Drawing ahead is invisible: :meth:`materialized_lists` reports
    exactly the prefix up to the highest index requested so far.
    """

    _BLOCK = 32  # entries drawn for every vertex at the start

    def __init__(self, graph: Graph, seed: int):
        self.graph = graph
        self.seed = int(seed)
        deg = graph.degrees
        draws = np.flatnonzero(deg > 1)
        width = np.where(deg > 1, self._BLOCK, deg)  # entries per row
        self._buf = np.empty(int(width.sum()), dtype=np.int64)
        self._used = self._buf.shape[0]               # buffer entries in use
        self._row = np.cumsum(width) - width          # row start in _buf
        self._stride = (deg > 1).astype(np.int64)     # 0: one entry serves all
        self._drawn = np.where(deg == 1, np.iinfo(np.int64).max, width)
        self._requested = np.zeros(graph.n, dtype=np.int64)  # highest index
        self._seeds = np.zeros(graph.n, dtype=np.uint64)  # of drawing vertices
        lone = deg == 1
        self._buf[self._row[lone]] = graph.indices[graph.indptr[:-1][lone]]
        if draws.size:
            prefix = _hasher(self.seed, "vertex")
            digests = []
            for u in draws.tolist():  # derive_seed(seed, "vertex", u)
                h = prefix.copy()
                h.update(b"i" + u.to_bytes(16, "little", signed=True))
                digests.append(h.digest()[:8])
            self._seeds[draws] = np.frombuffer(b"".join(digests), dtype="<u8")
            vals = _first_blocks(self._seeds[draws], deg[draws], self._BLOCK)
            self._buf[self._row[draws, None] + np.arange(self._BLOCK)] = \
                graph.indices[graph.indptr[draws, None] + vals]

    def choice(self, u: int, i: int) -> int:
        return int(self.take([u], [i])[0])

    def take(self, us: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Entries ``choice(us[j], idx[j])`` for every j, as an array."""
        us = np.asarray(us, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        if us.size == 0:
            return np.empty(0, dtype=np.int64)
        if us.min() < 0 or us.max() >= self.graph.n:
            raise InvalidParameterError(
                f"vertex ids must be in [0, {self.graph.n})")
        low = idx < 1
        if low.any():
            raise InvalidParameterError(
                f"choice index is 1-based, got {idx[low][0]}")
        short = idx > self._drawn[us]
        if short.any():
            need = np.zeros(self.graph.n, dtype=np.int64)
            np.maximum.at(need, us[short], idx[short])
            for u in np.flatnonzero(need).tolist():
                self._refill(u, int(need[u]))
        np.maximum.at(self._requested, us, idx)
        return self._buf[self._row[us] + (idx - 1) * self._stride[us]]

    def _refill(self, u: int, need: int) -> None:
        """Grow row u to at least ``need`` entries, moving it to the end."""
        old = int(self._drawn[u])
        if old == 0:
            raise InvalidParameterError(f"vertex {u} has no neighbors")
        size = max(need, 2 * old)
        a, b = int(self.graph.indptr[u]), int(self.graph.indptr[u + 1])
        redraw = _stream(int(self._seeds[u])).integers(0, b - a, size=size)
        start = self._used
        if start + size > self._buf.size:
            grown = np.empty(max(2 * self._buf.size, start + size),
                             dtype=np.int64)
            grown[:start] = self._buf[:start]
            self._buf = grown
        src = int(self._row[u])
        self._buf[start:start + old] = self._buf[src:src + old]
        self._buf[start + old:start + size] = \
            self.graph.indices[a + redraw[old:]]
        self._row[u] = start
        self._drawn[u] = size
        self._used = start + size

    def materialized_lists(self) -> dict:
        """The choices requested so far, ``{u: [entries 1 .. highest index
        requested]}`` for every vertex with one, read off the buffer in one
        pass."""
        us = np.flatnonzero(self._requested)
        count = self._requested[us]
        first = np.cumsum(count) - count
        at = np.repeat(self._row[us] - first * self._stride[us], count) \
            + np.arange(int(count.sum())) * np.repeat(self._stride[us], count)
        vals, bounds = self._buf[at].tolist(), first.tolist() + [len(at)]
        return {u: vals[a:b] for u, a, b in zip(us.tolist(), bounds,
                                                bounds[1:])}


def bounded_ahead(gen: np.random.Generator, bound: int, count: int):
    """``(draws, leave)``: the next ``count`` values of ``gen.integers(0,
    bound)``, read ahead as one ``gen.integers(0, bound, size=count)`` call,
    which draws exactly what ``count`` scalar calls would, and
    ``leave(used)``, which puts ``gen`` where ``used`` scalar draws would: it
    rewinds to the state before the block and redraws ``used`` values.
    """
    bitgen = gen.bit_generator
    start = bitgen.state
    draws = gen.integers(0, bound, size=count)

    def leave(used: int) -> None:
        if used < count:
            bitgen.state = start
            gen.integers(0, bound, size=used)

    return draws, leave


def place_stationary(graph: Graph, gen: np.random.Generator,
                     count: int) -> np.ndarray:
    """i.i.d. stationary positions for ``count`` agents."""
    if count < 0:
        raise InvalidParameterError(f"agent count must be >= 0, got {count}")
    if graph.n == 1:
        return np.zeros(count, dtype=np.int64)
    draws = gen.integers(0, 2 * graph.m, size=count)
    if graph.is_regular:  # the cumulative degrees are d, 2d, ...
        return draws // graph.degrees[0]
    return np.searchsorted(graph.cumulative_degrees, draws, side="right")
