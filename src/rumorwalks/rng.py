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
    of u.  Each entry is generated at most once and afterwards returned
    verbatim, and the value depends only on (oracle seed, u, i) — never on
    the order in which different vertices are queried — because every vertex
    owns its own derived sub-stream.  Coupled runs share one oracle between
    the walk process and the push replay.
    """

    def __init__(self, graph: Graph, seed: int):
        self.graph = graph
        self.seed = int(seed)
        self._choices: dict[int, list] = {}
        self._gens: dict[int, np.random.Generator] = {}

    def choice(self, u: int, i: int) -> int:
        if i < 1:
            raise InvalidParameterError(f"choice index is 1-based, got {i}")
        deg = self.graph.degree(u)
        if deg < 1:
            raise InvalidParameterError(f"vertex {u} has no neighbors")
        got = self._choices.setdefault(u, [])
        if len(got) < i:
            gen = self._gens.get(u)
            if gen is None:
                gen = np.random.Generator(
                    np.random.PCG64(derive_seed(self.seed, "vertex", u)))
                self._gens[u] = gen
            nbrs = self.graph.neighbors(u)
            while len(got) < i:
                got.append(int(nbrs[gen.integers(0, deg)]))
        return got[i - 1]

    def materialized(self, u: int) -> tuple:
        """All choices generated so far for vertex u."""
        return tuple(self._choices.get(u, ()))

    def materialized_counts(self) -> dict:
        return {u: len(lst) for u, lst in self._choices.items() if lst}


def place_stationary(graph: Graph, gen: np.random.Generator,
                     count: int) -> np.ndarray:
    """i.i.d. stationary positions for ``count`` agents."""
    if count < 0:
        raise InvalidParameterError(f"agent count must be >= 0, got {count}")
    if graph.n == 1:
        return np.zeros(count, dtype=np.int64)
    draws = gen.integers(0, 2 * graph.m, size=count)
    return np.searchsorted(graph.cumulative_degrees, draws, side="right")
