"""Immutable undirected graphs: validated construction, generator families,
and edge-list file I/O.

Vertex numbering is canonical per family so traces are comparable across
runs: distinguished vertices come first (star center, the two double-star
centers, tree roots in heap order, ring vertices), then the remaining
vertices in construction order.
"""
from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np

from .errors import (GenerationFailureError, InvalidParameterError, LoadError,
                     _integer)

__all__ = [
    "Graph",
    "generate_star",
    "generate_double_star",
    "generate_heavy_binary_tree",
    "generate_siamese_trees",
    "generate_cycle_stars_cliques",
    "generate_random_regular",
    "generate_clique_path",
    "generate_complete",
    "generate_cycle",
    "load_edge_list",
    "save_edge_list",
]


_SEARCH_LEVELS = 32  # breadth-first levels before _reached turns to hooking


def _row_entries(indptr, degrees, rows):
    """Where the non-empty ``rows``' entries lie in ``indices``, and start."""
    deg = degrees[rows]
    ends = np.cumsum(deg)
    starts = ends - deg
    return np.repeat(indptr[rows] - starts, deg) + np.arange(ends[-1]), starts


def _distinct(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` from one sort and a neighbour mask, with no hash
    pass, so its cost follows ``x.size``."""
    x = np.sort(x)
    if x.shape[0] < 2:
        return x
    keep = np.empty(x.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _min_labels(label: np.ndarray, src: np.ndarray,
                dst: np.ndarray) -> np.ndarray:
    """Component labels by min-label hooking with full pointer jumping
    (Shiloach and Vishkin, J. Algorithms 1982): every edge (src, dst) ends
    up joining equal labels, each the least initial label of its
    component.  Each initial label must be a root (``label[x] == x`` for
    every value x of ``label``)."""
    while True:
        a, b = label[src], label[dst]
        apart = a != b
        if not apart.any():
            return label
        src, dst, a, b = src[apart], dst[apart], a[apart], b[apart]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := label[label], label):
            label = up


class Graph:
    """Undirected simple connected graph in compressed sparse row form.

    Instances are immutable after construction; the underlying arrays are
    marked read-only so a graph can be shared freely between trials.
    Use :meth:`from_edges` for validated construction.

    :attr:`slot_owners`, the vertex of each of the 2m directed-edge slots
    in row order, is cached (read-only) by the first placement on a
    non-regular graph; :meth:`edges` and :meth:`has_edges` read that table
    if it is there, and otherwise build one for the call only.
    """

    __slots__ = ("n", "m", "family_tag", "indptr", "indices", "degrees",
                 "distinct_degrees", "_slot_owners")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 family_tag: str | None = None):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.degrees = np.diff(self.indptr)
        self.distinct_degrees = _distinct(self.degrees)  # ascending
        self.m = int(self.indices.shape[0] // 2)
        self.family_tag = family_tag
        self._slot_owners = None
        for arr in (self.indptr, self.indices, self.degrees,
                    self.distinct_degrees):
            arr.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges, family_tag: str | None = None) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs, enforcing all
        invariants: valid ids, no self-loops, no duplicate edges, connected.
        """
        n = _integer(n, "vertex count")
        if n < 1:
            raise InvalidParameterError(f"vertex count must be >= 1, got {n}")
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise InvalidParameterError("edges must be pairs of vertex ids")
        m = e.shape[0]
        if m > 0:
            if e.min() < 0 or e.max() >= n:
                raise InvalidParameterError(
                    f"edge endpoint out of range for n={n}")
            if (e[:, 0] == e[:, 1]).any():
                raise InvalidParameterError("self-loops are not allowed")
        if n > m + 1:  # checked before any array of size n exists
            raise InvalidParameterError(
                f"graph is not connected: {m} edges cannot connect {n} vertices")
        g = cls._of_pairs(n, e[:, 0], e[:, 1], family_tag)
        if not g.is_connected():
            raise InvalidParameterError("graph is not connected")
        return g

    @classmethod
    def _of_pairs(cls, n: int, src: np.ndarray, dst: np.ndarray,
                  family_tag: str | None) -> "Graph":
        """The graph of the edges (src[i], dst[i]), checked for duplicates
        only: one buffer of the directed keys u * n + v (in src's dtype),
        sorted in place, orders every row, and key % n is a neighbor."""
        m = src.shape[0]
        keys = np.empty(2 * m, dtype=src.dtype)
        np.multiply(src, n, out=keys[:m])
        keys[:m] += dst
        np.multiply(dst, n, out=keys[m:])
        keys[m:] += src
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise InvalidParameterError("duplicate edges are not allowed")
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
        return cls(n, indptr, np.remainder(keys, n, out=keys), family_tag)

    # -- accessors ---------------------------------------------------------

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of u (read-only view)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edges(self) -> np.ndarray:
        """Canonical (m, 2) edge array with u < v, sorted lexicographically."""
        owners = self._owners()
        mask = owners < self.indices
        return np.column_stack([owners[mask], self.indices[mask]])

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Whether each (us[i], vs[i]) is an edge, ids in [0, n): a search of
        ``u * n + v`` among the sorted directed-edge keys and a sentinel."""
        n = self.n
        keys = self._owners() * n + self.indices
        return _known(np.append(keys, n * n), us * n + vs)

    def _owners(self) -> np.ndarray:
        """``np.repeat(arange(n), degrees)``: the cached table, if any."""
        if self._slot_owners is not None:
            return self._slot_owners
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    @property
    def slot_owners(self) -> np.ndarray:
        """:meth:`_owners`, cached read-only on first use (by placement)."""
        if self._slot_owners is None:
            self._slot_owners = self._owners()
            self._slot_owners.setflags(write=False)
        return self._slot_owners

    @property
    def is_regular(self) -> bool:
        return self.distinct_degrees.shape[0] == 1

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0."""
        return bool((self.n == 1 or self.degrees.all())  # no vertex isolated
                    and self._reached().all())

    def is_bipartite(self) -> bool:
        """Whether the component of vertex 0 has no odd cycle: whether 0 and
        n lie apart in the bipartite double cover, where each edge {u, v}
        joins u to v + n and u + n to v."""
        n, indptr, indices = self.n, self.indptr, self.indices
        cover = Graph(2 * n, np.concatenate([indptr, indptr[1:] + indptr[-1]]),
                      np.concatenate([indices + n, indices]))
        return not cover._reached()[n]

    def _reached(self) -> np.ndarray:
        """Which vertices vertex 0 reaches, as a boolean mask.

        Up to ``_SEARCH_LEVELS`` levels of a direction-optimizing search from
        vertex 0 (Beamer, Asanovic and Patterson, SC 2012), then, on long
        paths, :func:`_min_labels` hooking: reached iff the label ends at 0.
        """
        n, indptr, indices, degrees = self.n, self.indptr, self.indices, self.degrees
        seen = np.zeros(n, dtype=bool)
        frontier = np.zeros(1, dtype=np.int64)
        left, unreached = n, indices.shape[0]  # unseen vertices; their degree sum
        for _ in range(_SEARCH_LEVELS):
            seen[frontier] = True
            left -= frontier.shape[0]
            spent = int(degrees[frontier].sum())
            unreached -= spent
            if frontier.shape[0] == 0 or unreached == 0:
                return seen  # nothing more to reach
            if spent <= unreached:  # top-down: mark the frontier's neighbors
                reached = np.zeros(n, dtype=bool)
                if frontier.shape[0] == 1:  # one row: its slice, uncopied
                    u = frontier[0]
                    reached[indices[indptr[u]:indptr[u + 1]]] = True
                else:
                    reached[indices[_row_entries(indptr, degrees,
                                                 frontier)[0]]] = True
                reached &= ~seen
                if np.count_nonzero(reached) == left:
                    return reached | seen  # the last level, not listed
                frontier = np.flatnonzero(reached)
            else:  # bottom-up: an unreached vertex with a seen neighbor joins
                rest = np.flatnonzero(~seen & (degrees > 0))
                at, starts = _row_entries(indptr, degrees, rest)
                frontier = rest[np.logical_or.reduceat(seen[indices[at]], starts)]
        # the unseen vertices and the seen ones (label 0) hooked together
        src, dst = self.edges().T
        return _min_labels(np.where(seen, 0, np.arange(n)), src, dst) == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n, self.m, self.indices.tobytes()))

    def __repr__(self):
        tag = f", family={self.family_tag!r}" if self.family_tag else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


# -- deterministic families -------------------------------------------------
#
# Each family is one (m, 2) int64 edge array, built from aranges and
# triu_indices with no Python object per edge; from_edges sorts it, so the
# order of the edges and of their endpoints is free.

def _cliques(blocks: np.ndarray) -> np.ndarray:
    """Edges of a clique on each row of the (B, s) vertex-id array ``blocks``."""
    a, b = np.triu_indices(blocks.shape[1], k=1)
    e = np.empty((blocks.shape[0], a.shape[0], 2), dtype=np.int64)
    # a and b are in range; mode "clip" writes into out unbuffered, "raise" copies
    np.take(blocks, a, axis=1, out=e[:, :, 0], mode="clip")
    np.take(blocks, b, axis=1, out=e[:, :, 1], mode="clip")
    return e.reshape(-1, 2)


def _ring(n: int) -> np.ndarray:
    """Edges (i, i + 1 mod n) of a cycle on 0..n-1."""
    return np.column_stack([np.arange(n), np.roll(np.arange(n), -1)])


def generate_star(leaves: int) -> Graph:
    """Star: center is vertex 0, leaves are 1..leaves."""
    if _integer(leaves, "leaves") < 1:
        raise InvalidParameterError(f"star needs >= 1 leaf, got {leaves}")
    edges = np.column_stack([np.zeros(leaves, np.int64), np.arange(1, leaves + 1)])
    return Graph.from_edges(leaves + 1, edges, f"star(leaves={leaves})")


def generate_double_star(n: int) -> Graph:
    """Two adjacent centers (vertices 0 and 1), each with n/2 - 1 leaves.

    n must be even and >= 4; the graph has exactly n vertices.
    """
    if _integer(n, "n") < 4 or n % 2 != 0:
        raise InvalidParameterError(
            f"double star needs even vertex count >= 4, got {n}")
    v = np.arange(1, n, dtype=np.int64)
    edges = np.column_stack([v > n // 2, v])  # 1..n/2 hang from 0, the rest from 1
    return Graph.from_edges(n, edges, f"double-star(n={n})")


def _heavy_tree(n: int, what: str) -> np.ndarray:
    """Complete binary tree in heap order (root 0) plus a clique on its
    leaves; ``what`` names the family if n is not 2^h - 1 with h >= 2."""
    if _integer(n, "n") < 3 or (n + 1) & n != 0:
        raise InvalidParameterError(
            f"{what} needs n = 2^h - 1 with h >= 2, got {n}")
    child = np.arange(1, n, dtype=np.int64)
    tree = np.column_stack([(child - 1) // 2, child])
    return np.concatenate([tree, _cliques(np.arange((n - 1) // 2, n)[None, :])])


def generate_heavy_binary_tree(n: int) -> Graph:
    """Complete binary tree on n = 2^h - 1 vertices whose (n+1)/2 leaves are
    additionally joined into a clique.  Root is vertex 0, heap numbering.
    """
    edges = _heavy_tree(n, "heavy binary tree")
    return Graph.from_edges(n, edges, f"heavy-tree(n={n})")


def generate_siamese_trees(n: int) -> Graph:
    """Two heavy binary trees on n vertices each sharing their root.

    The shared root is vertex 0 (degree 4); the first tree occupies
    vertices 1..n-1 and the second n..2n-2, both in heap order.  Total
    vertex count is 2n - 1.
    """
    first = _heavy_tree(n, "siamese trees")
    second = np.where(first == 0, 0, first + (n - 1))  # heap index i > 0: n - 1 + i
    return Graph.from_edges(2 * n - 1, np.concatenate([first, second]),
                            f"siamese(n={n})")


def generate_cycle_stars_cliques(m: int) -> Graph:
    """Ring of m stars whose leaves each anchor an (m+1)-clique.

    Vertices, in canonical order: ring vertices c_0..c_{m-1}; then m leaves
    per ring vertex; then m clique vertices per leaf.  Each leaf l is joined
    to its ring vertex and to its own m clique vertices, and {l} plus those
    m vertices form a complete graph.  Total vertex count: m + m^2 + m^3.
    """
    if _integer(m, "m") < 3:
        raise InvalidParameterError(f"ring length must be >= 3, got {m}")
    nverts = m + m * m + m ** 3
    leaves = np.arange(m, m + m * m, dtype=np.int64)  # m + i*m + j hangs from c_i
    own = np.arange(m + m * m, nverts, dtype=np.int64).reshape(m * m, m)
    edges = np.concatenate([_ring(m), np.column_stack([leaves // m - 1, leaves]),
                            _cliques(np.column_stack([leaves, own]))])
    return Graph.from_edges(nverts, edges, f"cycle-stars-cliques(m={m})")


def generate_complete(n: int) -> Graph:
    if _integer(n, "n") < 2:
        raise InvalidParameterError(f"complete graph needs n >= 2, got {n}")
    return Graph.from_edges(n, _cliques(np.arange(n)[None, :]), f"complete(n={n})")


def generate_cycle(n: int) -> Graph:
    if _integer(n, "n") < 3:
        raise InvalidParameterError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, _ring(n), f"cycle(n={n})")


def generate_clique_path(k: int, d: int) -> Graph:
    """Path of k cliques of d vertices each; consecutive cliques are joined
    by a single bridge edge from the last vertex of one to the first vertex
    of the next.
    """
    if _integer(k, "k") < 1 or _integer(d, "d") < 2:
        raise InvalidParameterError(
            f"clique path needs k >= 1 cliques of d >= 2 vertices, got k={k} d={d}")
    blocks = np.arange(k * d, dtype=np.int64).reshape(k, d)
    bridges = np.column_stack([blocks[:-1, -1], blocks[1:, 0]])
    return Graph.from_edges(k * d, np.concatenate([_cliques(blocks), bridges]),
                            f"clique-path(k={k},d={d})")


# -- random regular graphs ---------------------------------------------------

def _known(edge_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in the sorted ``edge_keys``, whose last entry
    is a sentinel above every edge key, so no search runs off the end."""
    return edge_keys[np.searchsorted(edge_keys, keys)] == keys


def _key_dtype(n: int):
    """The dtype of the edge keys ``lo * n + hi`` on n vertices: int32 while
    every key and the sentinel ``n * n`` fit, else int64."""
    return np.int32 if n * n < 2 ** 31 else np.int64


def _suitable(stubs: np.ndarray, taken, n: int) -> bool:
    """True if the leftover stub multiset can still be paired into new,
    non-loop edges; ``taken(keys)`` flags the edge keys already used."""
    vals = _distinct(stubs)
    a, b = np.triu_indices(vals.shape[0], k=1)
    return not taken(vals[a] * n + vals[b]).all()


def _pairing_round(s: np.ndarray, n: int, taken):
    """The sorted edge keys that one round of the shuffled stubs ``s``, in
    :func:`_key_dtype` and paired as (s[0::2], s[1::2]), keeps, and the int64
    stubs it re-queues: a key is kept once, unless a loop's or ``taken``
    (None while no edge is), and only its first pair in stub order."""
    a, b = s[0::2], s[1::2]
    lo = np.minimum(a, b)
    keys = lo * n
    keys += np.maximum(a, b)
    sk = np.sort(keys)
    keep = np.empty(sk.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(sk[1:], sk[:-1], out=keep[1:])
    again = sk[~keep]  # the keys of the runs longer than one
    back = a == b  # the pairs to re-queue: loops, taken, repeats
    if taken is not None:
        back |= taken(keys)
    keep[np.searchsorted(sk, keys[back])] = False  # nor are their keys
    new = sk[keep]
    if new.shape[0] and again.shape[0]:  # the later pairs of repeated keys
        near = np.zeros(n, dtype=bool)
        near[again // n] = True
        at = np.flatnonzero(near[lo])  # pairs with such a lower end
        later = np.ones(at.shape[0], dtype=bool)
        later[np.unique(keys[at], return_index=True)[1]] = False
        back[at[later]] = True
    return new, np.concatenate([a[back], b[back]], dtype=np.int64)


def _pairing_attempt(n: int, d: int, gen: np.random.Generator):
    """One stub-matching pass: repeatedly shuffle unmatched stubs, keep the
    pairings that form new simple edges, and re-queue the rest.  Returns the
    edge keys ``lo * n + hi`` (lo < hi), in no particular order, or None
    when no valid completion exists for this pass.

    The stubs are int64, numpy's fast shuffle.  The first round that keeps
    any pairs keeps nearly all of them; those edge keys form a sorted block,
    and the few of later rounds go to a small sorted tail, so no round
    copies the block.  Both end in the sentinel of :func:`_known`.
    """
    kd = _key_dtype(n)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    sentinel = np.array([n * n], dtype=kd)
    block = tail = sentinel

    def taken(keys):
        return _known(block, keys) | _known(tail, keys)

    while stubs.size:
        gen.shuffle(stubs)
        s = stubs.astype(kd)
        new, rest = _pairing_round(s, n, taken if block.shape[0] > 1 else None)
        if new.shape[0]:
            if block.shape[0] == 1:
                block = np.concatenate([new, sentinel])
            else:
                tail = np.sort(np.concatenate([new, tail]))
            stubs = rest
        elif not _suitable(s, taken, n):
            return None
    return np.concatenate([block[:-1], tail[:-1]])


def generate_random_regular(n: int, d: int, seed: int,
                            max_restarts: int = 1000) -> Graph:
    """Random d-regular simple graph via stub matching.

    Self-loops and duplicate pairings are rejected at the stub level and the
    affected stubs re-shuffled; a pass that cannot complete, or that yields a
    disconnected graph, triggers a full restart.  Raises
    GenerationFailureError after ``max_restarts`` restarts, saying how many
    passes hit a pairing dead end and how many gave a disconnected graph.
    """
    n, d, seed = _integer(n, "n"), _integer(d, "d"), _integer(seed, "seed")
    if n < 2:
        raise InvalidParameterError(f"regular graph needs n >= 2, got {n}")
    if d < 1 or d >= n:
        raise InvalidParameterError(f"degree must satisfy 1 <= d < n, got d={d}")
    if (n * d) % 2 != 0:
        raise InvalidParameterError(f"n*d must be even, got n={n} d={d}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    gen = np.random.Generator(np.random.PCG64(seed))
    tag = f"regular(n={n},d={d})"
    dead_ends = 0
    for _ in range(max_restarts):
        keys = _pairing_attempt(n, d, gen)
        if keys is None:
            dead_ends += 1
            continue
        # simple by construction, so only connectivity is left to check
        g = Graph._of_pairs(n, *np.divmod(keys, n), tag)
        if g.is_connected():
            return g
    raise GenerationFailureError(
        f"no connected {d}-regular graph on {n} vertices after "
        f"{max_restarts} restarts: {dead_ends} pairing dead ends, "
        f"{max_restarts - dead_ends} disconnected graphs")


# -- edge-list file I/O -------------------------------------------------------

_PLAIN = re.compile(r"[0-9 \n]*")  # the bytes save_edge_list writes
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)  # the least of widths 2..19


def _int_text(values: np.ndarray, marks: list, tail: str) -> str:
    """The text of a run of items, then ``tail``: item i is its punctuation,
    then the decimal digits of ``values[i]`` (int64, >= 0).  The
    punctuation is ``text`` for the items of each ``(text, items)`` pair of
    ``marks`` (no item in two), and ``","`` for the rest.  Each item is
    written into one byte buffer, filled with commas, at an offset summed
    from the widths of the items before it: each text, then the digits,
    the last first."""
    top = int(values.max()) if values.shape[0] else 0
    width = np.ones_like(values)
    for tens in _TENS[:len(str(top)) - 1]:
        width += values >= tens
    lead = width + 1
    for text, items in marks:
        lead[items] += len(text) - 1
    end = np.cumsum(lead)
    size = int(end[-1]) if end.shape[0] else 0
    buf = np.full(size + len(tail), ord(","), dtype=np.uint8)
    buf[size:] = np.frombuffer(tail.encode(), dtype=np.uint8)
    first = end - width
    for text, items in marks:
        at = first[items] - len(text)
        for j, char in enumerate(text.encode()):
            if char != ord(","):
                buf[at + j] = char
    if top < 2 ** 31:  # 32-bit division is the faster
        values = values.astype(np.int32)
    at = end - 1
    while values.shape[0]:
        values, digit = np.divmod(values, 10)
        buf[at] = digit + 48
        more = values > 0
        values, at = values[more], at[more] - 1
    return buf.tobytes().decode("ascii")


def save_edge_list(graph: Graph, path) -> None:
    """Write ``n m`` header then one ``u v`` line per edge (u < v, sorted),
    as one :func:`_int_text` run."""
    ids = np.concatenate([[graph.n, graph.m], graph.edges().ravel()])
    count = ids.shape[0]
    text = _int_text(ids, [("", [0]), (" ", np.arange(1, count, 2)),
                           ("\n", np.arange(2, count, 2))], "\n")
    Path(path).write_text(text, encoding="ascii")


def _plain_edges(text: str):
    """``(n, edges)`` of a file of digits, spaces and newlines, its body
    parsed by one ``np.loadtxt`` call, if it passes every check of
    :func:`load_edge_list`'s line loop; else None.  A body of blank lines
    only, on which loadtxt warns, is left to the loop."""
    head, _, body = text.partition("\n")
    fields = head.split()
    if (not _PLAIN.fullmatch(text) or len(fields) != 2 or not body
            or body.isspace()):
        return None
    n, m = map(int, fields)
    try:
        e = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None,
                       ndmin=2)
    except ValueError:  # a line of other than two fields, or an overflow
        return None
    if e.shape != (m, 2) or e.max() >= n or not (e[:, 0] < e[:, 1]).all():
        return None
    return n, e


def load_edge_list(path) -> Graph:
    """Parse and validate an edge-list file written by :func:`save_edge_list`.

    Raises LoadError with a line reference on any malformed content or
    graph-invariant violation.  A file that passes every check is parsed
    as arrays (:func:`_plain_edges`); the line loop runs only on the rest,
    and finds the first fault.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    if (plain := _plain_edges(text)) is not None:
        return _loaded(path, *plain)
    lines = text.splitlines()
    if not lines:
        raise LoadError(f"{path}: empty file")

    def ints(line: str, lineno: int, what: str) -> list:
        parts = line.split()
        if len(parts) != 2:
            raise LoadError(f"{path}:{lineno}: expected two integers ({what})")
        try:
            return [int(p) for p in parts]
        except ValueError as exc:
            raise LoadError(f"{path}:{lineno}: non-integer field") from exc

    n, m = ints(lines[0], 1, "header 'n m'")
    if n < 1 or m < 0:
        raise LoadError(f"{path}:1: invalid header n={n} m={m}")
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != m:
        raise LoadError(
            f"{path}: header declares {m} edges but file has {len(body)}")
    edges = []
    for i, ln in body:
        u, v = ints(ln, i, "edge 'u v'")
        if not (0 <= u < n and 0 <= v < n):
            raise LoadError(f"{path}:{i}: endpoint out of range for n={n}")
        if u >= v:
            raise LoadError(f"{path}:{i}: edges must satisfy u < v")
        edges.append((u, v))
    return _loaded(path, n, edges)


def _loaded(path, n: int, edges) -> Graph:
    try:
        return Graph.from_edges(n, edges)
    except InvalidParameterError as exc:
        raise LoadError(f"{path}: {exc}") from exc
