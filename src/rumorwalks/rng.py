"""Deterministic randomness plumbing.

All randomness in a run flows from one 64-bit master seed through named
sub-streams (agent walks, placement, laziness coins, protocol samples, the
choice oracle), so enabling or exercising one consumer can never perturb
another.  Streams are numpy PCG64 generators; sub-seeds are SHA-256 digests
of the master seed plus stable labels, which keeps derivation reproducible
across platforms and processes.
"""
from __future__ import annotations

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


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a sequence of ints and string labels."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, (bool, np.bool_)):
            raise TypeError("booleans are ambiguous seed parts; use strings")
        if isinstance(p, (int, np.integer)):
            h.update(b"i")
            h.update(int(p).to_bytes(16, "little", signed=True))
        elif isinstance(p, str):
            h.update(b"s")
            h.update(p.encode("utf-8"))
            h.update(b"\x00")
        else:
            raise TypeError(f"unsupported seed part type: {type(p)!r}")
    return int.from_bytes(h.digest()[:8], "little")


class SimRng:
    """Bundle of named, independently seeded generators for one run."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict = {}

    def stream(self, *labels) -> np.random.Generator:
        """Generator for the given label path (cached per instance)."""
        if labels not in self._streams:
            sub = derive_seed(self.seed, *labels)
            self._streams[labels] = np.random.Generator(np.random.PCG64(sub))
        return self._streams[labels]

    def child_seed(self, *labels) -> int:
        return derive_seed(self.seed, *labels)

    def __repr__(self):
        return f"SimRng(seed={self.seed})"


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
    A row is refilled in blocks, at least doubling it, by one
    ``integers(0, deg, size=k)`` call on the vertex's stream, which gives
    the same values, and leaves the stream in the same state, as k scalar
    draws; a refilled row moves to the end of the buffer.  A degree-1 vertex
    draws nothing (a bounded draw of range 0 consumes no randomness) and its
    row repeats its lone neighbor.  Drawing ahead is invisible:
    :meth:`materialized` and :meth:`materialized_counts` report exactly the
    prefix up to the highest index requested so far.
    """

    _BLOCK = 32  # smallest refill, in entries

    def __init__(self, graph: Graph, seed: int):
        self.graph = graph
        self.seed = int(seed)
        n = graph.n
        self._buf = np.empty(0, dtype=np.int64)
        self._used = 0                                # buffer entries in use
        self._row = np.zeros(n, dtype=np.int64)       # row start in _buf
        self._drawn = np.zeros(n, dtype=np.int64)     # entries drawn per row
        self._requested = np.zeros(n, dtype=np.int64)  # highest index asked
        self._gens: dict[int, np.random.Generator] = {}

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
        isolated = self.graph.degrees[us] < 1
        if isolated.any():
            raise InvalidParameterError(
                f"vertex {us[isolated][0]} has no neighbors")
        short = idx > self._drawn[us]
        if short.any():
            need = np.zeros(self.graph.n, dtype=np.int64)
            np.maximum.at(need, us[short], idx[short])
            for u in np.flatnonzero(need).tolist():
                self._refill(u, int(need[u]))
        np.maximum.at(self._requested, us, idx)
        return self._buf[self._row[us] + idx - 1]

    def _refill(self, u: int, need: int) -> None:
        """Grow row u to at least ``need`` entries, moving it to the end."""
        old = int(self._drawn[u])
        size = max(need, 2 * old, self._BLOCK)
        a, b = int(self.graph.indptr[u]), int(self.graph.indptr[u + 1])
        nbrs = self.graph.indices
        if b - a == 1:
            fresh = np.full(size - old, nbrs[a], dtype=np.int64)
        else:
            gen = self._gens.get(u)
            if gen is None:
                gen = np.random.Generator(
                    np.random.PCG64(derive_seed(self.seed, "vertex", u)))
                self._gens[u] = gen
            fresh = nbrs[a + gen.integers(0, b - a, size=size - old)]
        start = self._used
        if start + size > self._buf.size:
            grown = np.empty(max(2 * self._buf.size, start + size),
                             dtype=np.int64)
            grown[:start] = self._buf[:start]
            self._buf = grown
        src = int(self._row[u])
        self._buf[start:start + old] = self._buf[src:src + old]
        self._buf[start + old:start + size] = fresh
        self._row[u] = start
        self._drawn[u] = size
        self._used = start + size

    def materialized(self, u: int) -> tuple:
        """The choices requested so far for vertex u: entries 1..max index."""
        start = int(self._row[u])
        return tuple(self._buf[start:start + self._requested[u]].tolist())

    def materialized_counts(self) -> dict:
        """Highest index requested, for every vertex with one."""
        return {u: int(self._requested[u])
                for u in np.flatnonzero(self._requested).tolist()}


def bounded_ahead(gen: np.random.Generator, bound: int, count: int):
    """``(draws, leave)``: the next ``count`` values of ``gen.integers(0,
    bound)``, 2 <= bound <= 2**32, read ahead from a PCG64 generator, and
    ``leave(used)``, which puts it where ``used`` scalar draws would.
    numpy uses Lemire's method on ``next_uint32`` (a half word left over,
    then the low and the high half of each word): a half h is kept when
    ``h*bound mod 2**32 >= (2**32 - bound) % bound``, giving h*bound >> 32.
    """
    bitgen = gen.bit_generator
    start = bitgen.state
    b, floor = np.uint64(bound), np.uint64((2 ** 32 - bound) % bound)
    low, w32 = np.uint64(2 ** 32 - 1), np.uint64(32)
    pending = int(start["has_uint32"])
    words = at = np.empty(0, dtype=np.uint64)
    while at.shape[0] < count:  # read more after too many rejections
        words = np.concatenate([words, bitgen.random_raw(
            count * 2 ** 31 // (2 ** 32 - int(floor)) + 8)])
        scaled = np.concatenate([
            np.full(pending, start["uinteger"], dtype=np.uint64),
            np.stack([words & low, words >> w32], 1).ravel()]) * b
        at = np.flatnonzero((scaled & low) >= floor)

    def leave(used: int) -> None:
        end = (int(at[used - 1]) + 1 if used else 0) + pending  # halves
        taken = (end + 1) // 2 - pending                        # new words
        bitgen.state = start
        bitgen.advance(taken)
        bitgen.state = {**bitgen.state, "has_uint32": end % 2, "uinteger": int(
            words[taken - 1] >> w32) if taken else start["uinteger"]}

    return (scaled[at[:count]] >> w32).astype(np.int64), leave


def place_stationary(graph: Graph, gen: np.random.Generator,
                     count: int) -> np.ndarray:
    """i.i.d. stationary positions for ``count`` agents."""
    if count < 0:
        raise InvalidParameterError(f"agent count must be >= 0, got {count}")
    if graph.n == 1:
        return np.zeros(count, dtype=np.int64)
    draws = gen.integers(0, 2 * graph.m, size=count)
    return np.searchsorted(graph.cumulative_degrees, draws, side="right")
