"""Coupled executions of visit-exchange and push over one choice oracle,
plus the bookkeeping that makes the coupling checkable: informing-time
tables, S-sets, C-counters, canonical walks and their congestion.

The even coupling drives every departure of an informed agent from vertex u
through the oracle sequence w_u(1), w_u(2), ...; the push replay lets vertex
u sample exactly that same sequence once informed.  Under this arrangement
the push informing round of any vertex is bounded by the vertex's C-counter
at its walk informing round, and the minimizing chain through the S-sets
yields a canonical walk whose congestion equals the C-counter exactly.  The
odd coupling consumes oracle entries only for departures that follow
even-round visits, leaving even-round steps independent of push.

A canonical walk starts at the source and, each round, either stays put or
follows one of the agents leaving its current vertex; its congestion is the
sum over rounds of the number of agents sharing its position.

Both processes read the oracle in bulk and unchecked, their queries being in
range by construction: each round the walk ranks the informed agents within
their vertex in agent order, and push samples every informed vertex.  The oracle
draws each vertex's entries ahead in blocks from the vertex's own stream,
which yields exactly the entries of one-at-a-time draws, so a transcript is
the same bytes either way; its ``choices`` list, per vertex, exactly the
entries some process requested (the requested prefix), never those drawn
ahead.  The walk is one position matrix: entry [r, g] is agent g's vertex
at the end of round r, or -1 while g is absent (before an agent added by the
occupancy floor arrives).  Every table and check reads it as arrays, over
all (round, agent) steps at once.  The C-counters come in closed form from
a cumulative occupancy table, with one minimum per informing round over
the S-set members, and the minimizing chains from one lexsort of the
member pairs.  Verification builds one flat table of the recorded choices
for both the push replay and the oracle check, and checks every chain walk
in one pass over the cumulative occupancy table.  The JSON text is one
:func:`json.dumps` of the document, into which one byte writer,
:func:`~rumorwalks.graphs._int_text` (which also writes edge lists),
splices the visits and each large integer table (edges, choices, S-sets,
C-table), written from arrays with no Python list per row or cell;
:func:`_keyed_text` lays out every ``[[key,[values]],...]`` table for it:
choices, S-sets and each round of visits.
"""
from __future__ import annotations

import collections
import json
import operator
from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import InvalidParameterError, TranscriptCorruptError
from .graphs import Graph, _distinct, _int_text
from .protocols import (AgentConfig, _floor_level, _occupancy_floor,
                        _recorder, _start, _Visit, _walk)
from .rng import ChoiceOracle, SimRng

__all__ = [
    "CouplingTranscript", "CanonicalWalk", "VerifyReport",
    "run_coupled", "run_coupled_even", "run_coupled_odd", "compute_s_sets",
    "compute_c_counters", "verify_tau_leq_c", "reconstruct_min_chain_walk",
    "max_congestion_dp", "transcript_to_json", "transcript_from_json",
    "transcript_dumps", "verify_transcript",
]


@dataclass
class CouplingTranscript:
    """Everything needed to re-check a coupled run offline.

    ``positions`` has shape (rounds + 1, agent_count + len(additions)):
    entry [r, g] is agent g's vertex at the end of round r, or -1 while g
    is absent, as an added agent is before its arrival round.
    ``choices[u]`` lists oracle entries 1..k of u, k being the highest
    index either process requested; ``walk_consumed[u]`` says how many of
    them the walk side consumed as informed departures from u.
    ``repeat_round`` is the first round whose JSON listing named some
    agent more than once (the matrix keeps one of its vertices), or None.
    """
    graph: Graph
    source: int
    mode: str
    seed: int
    agent_count: int
    placement: str
    round_cap: int
    min_rounds: int
    visitx_rounds: int
    visitx_complete: bool
    push_rounds: int
    push_complete: bool
    t_visit: np.ndarray
    tau_push: np.ndarray
    agent_informed_at: np.ndarray
    positions: np.ndarray
    choices: dict
    walk_consumed: dict
    additions: list = field(default_factory=list)
    floor: float | None = None
    s_sets: dict | None = None
    c_table: np.ndarray | None = None
    repeat_round: int | None = None

    @property
    def complete(self) -> bool:
        return self.visitx_complete and self.push_complete


@dataclass
class CanonicalWalk:
    """A source-anchored walk: ``vertices[r]`` is the position after round r;
    ``follows[r-1]`` is the agent followed at round r (None = stayed put)."""
    vertices: list
    follows: list
    congestion: int


@dataclass
class VerifyReport:
    ok: bool
    incomplete: bool
    checks: dict
    violations: list


def run_coupled(graph: Graph, source: int, config: AgentConfig, rng: SimRng,
                round_cap: int | None, min_rounds: int, mode: str,
                enable_r_floor: bool, floor: float | None) -> CouplingTranscript:
    """The coupled run in either mode, and the one place that checks its
    settings; :func:`run_coupled_even` and :func:`run_coupled_odd` fix
    ``mode`` for it."""
    if mode not in ("even", "odd"):
        raise InvalidParameterError(f"unknown coupling mode {mode!r}")
    if config.lazy:
        raise InvalidParameterError(
            "coupled runs require non-lazy walks: a stayed step is not a "
            "neighbor choice, so it cannot be shared with push")
    if enable_r_floor:
        if mode != "odd":
            raise InvalidParameterError(
                "the occupancy floor (enable_r_floor, --r-floor) is odd-mode only")
        floor = _floor_level(graph, config.count, floor, "occupancy floor")
    elif floor is not None:
        raise InvalidParameterError(
            "a floor level needs the occupancy floor (enable_r_floor, --r-floor)")
    n = graph.n
    source, cap, min_rounds, pos, step = _start(graph, source, config, rng,
                                                round_cap, min_rounds)
    oracle = ChoiceOracle(graph, rng.child_seed("oracle"))
    visit = _Visit(n, source, pos)
    v_inf = visit.v_inf
    consumed = np.zeros(n, dtype=np.int64)  # informed departures per vertex

    def oracle_step(pos: np.ndarray, t: int) -> np.ndarray:
        if mode == "odd" and t % 2 == 0:
            return step(pos, t)
        # informed departures consume the oracle in (round, agent) order:
        # the k-th informed agent on u (in agent order) this round takes
        # entry consumed[u] + k; u is informed here iff it was informed by
        # round t-1
        informed = v_inf[pos] != -1
        new_pos = np.empty_like(pos)
        if informed.any():
            us = pos[informed]
            rank, counts = _ranks(us, n)
            first = consumed[us] + 1
            consumed[:] += counts
            new_pos[informed] = oracle._entries(us, first + rank, consumed[us])
        free = ~informed
        if free.any():
            new_pos[free] = step(pos[free], t)
        return new_pos

    additions: list = []
    grow = (_occupancy_floor(graph, floor, visit, additions)
            if enable_r_floor else None)
    rows, record = _recorder(pos, grow)
    visitx_rounds = _walk(pos, oracle_step, [visit], cap, min_rounds, record)
    visitx_complete = visit.done
    positions = np.full((len(rows), rows[-1].shape[0]), -1, dtype=np.int64)
    for r, row in enumerate(rows):  # added agents are -1 before arrival
        positions[r, :row.shape[0]] = row

    # push replays the same oracle, regardless of what the walk consumed
    tau, push_rounds, push_complete = _push_replay(
        n, source, lambda us, idx: oracle._entries(us, idx, idx), cap)
    choices = oracle.materialized_lists()
    tr = CouplingTranscript(
        graph=graph, source=source, mode=mode, seed=rng.seed,
        agent_count=config.count, placement=config.placement,
        round_cap=cap, min_rounds=min_rounds,
        visitx_rounds=visitx_rounds, visitx_complete=visitx_complete,
        push_rounds=push_rounds, push_complete=push_complete,
        t_visit=v_inf, tau_push=tau, agent_informed_at=visit.a_inf,
        positions=positions, choices=choices,
        walk_consumed={u: int(consumed[u])
                       for u in np.flatnonzero(consumed).tolist()},
        additions=additions, floor=floor)
    if visitx_complete:
        tr.s_sets = compute_s_sets(tr)
        tr.c_table = compute_c_counters(tr)
    return tr


def _ranks(us: np.ndarray, n: int):
    """``(rank, counts)``: each entry's rank among the equal entries before
    it in ``us``, and how often each vertex of [0, n) occurs."""
    counts = np.bincount(us, minlength=n)
    order = np.argsort(us, kind="stable")
    first = np.cumsum(counts) - counts  # each vertex's first sorted slot
    rank = np.empty_like(us)
    rank[order] = np.arange(us.shape[0]) - first[us[order]]
    return rank, counts


def _push_replay(n: int, source: int, take, cap: int):
    """Push driven by a choice table: vertex u's i-th sample is entry i of
    u, issued at round tau_u + i; ``take(us, idx)`` looks entries up.
    Vertices join ``order`` in discovery order: by round, then by the
    position of the first informed vertex that sampled them.  Returns
    ``(tau, rounds, complete)``."""
    tau = np.full(n, -1, dtype=np.int64)
    tau[source] = 0
    order = np.empty(n, dtype=np.int64)
    order[0] = source
    known = 1
    r = 0
    while known < n and r < cap:
        r += 1
        us = order[:known]
        ws = take(us, r - tau[us])
        fresh = ws[tau[ws] == -1]
        if fresh.shape[0] > 1:
            _, first = np.unique(fresh, return_index=True)
            fresh = fresh[np.sort(first)]
        tau[fresh] = r
        order[known:known + fresh.shape[0]] = fresh
        known += fresh.shape[0]
    return tau, r, known == n


def run_coupled_even(graph: Graph, source: int, config: AgentConfig,
                     rng: SimRng, round_cap: int | None = None,
                     min_rounds: int = 0) -> CouplingTranscript:
    """Visit-exchange and push coupled through every informed departure."""
    return run_coupled(graph, source, config, rng, round_cap, min_rounds,
                       "even", False, None)


def run_coupled_odd(graph: Graph, source: int, config: AgentConfig,
                    rng: SimRng, round_cap: int | None = None,
                    min_rounds: int = 0, enable_r_floor: bool = False,
                    floor: float | None = None) -> CouplingTranscript:
    """Coupling through odd-round departures only: an agent's step at odd
    round t+1 replays the oracle entry indexed by its even-round-t visit,
    so even-round steps stay independent of push.  Optionally maintains the
    neighborhood occupancy floor after odd rounds (regular graphs).
    """
    return run_coupled(graph, source, config, rng, round_cap, min_rounds,
                       "odd", enable_r_floor, floor)


# -- derived tables -------------------------------------------------------------

def _steps(pos: np.ndarray):
    """Every step of an agent present in two consecutive rounds, in
    (round, agent) order: ``(t, g, a, b)`` says agent g moved a -> b at
    round t."""
    r, g = np.nonzero((pos[:-1] != -1) & (pos[1:] != -1))
    return r + 1, g, pos[r, g], pos[r + 1, g]


def compute_s_sets(tr: CouplingTranscript) -> dict:
    """For each vertex u informed after round 0, the neighbors v informed
    strictly earlier from which an informing agent arrived: some agent stood
    on v at round t_u - 1 and on u at round t_u.
    """
    tv, n = tr.t_visit, tr.graph.n
    t, _, a, b = _steps(tr.positions)
    hit = (tv[b] == t) & (tv[a] >= 0) & (tv[a] < t)
    a, b = a[hit], b[hit]
    near = tr.graph.has_edges(a, b)
    pairs = _distinct(b[near] * n + a[near])
    bounds = np.searchsorted(pairs, np.arange(n + 1, dtype=np.int64) * n)
    lonely = np.flatnonzero((tv > 0) & (bounds[1:] == bounds[:-1]))
    if lonely.size:
        u = int(lonely[0])
        raise TranscriptCorruptError(
            f"vertex {u} informed at round {tv[u]} has no informing neighbor")
    members, bounds = (pairs % n).tolist(), bounds.tolist()
    return {u: members[bounds[u]:bounds[u + 1]] for u in range(n)}


def _occupancy(tr: CouplingTranscript) -> np.ndarray:
    """Occupancy table z, shape (recorded rounds, n): z[r][u] is the number
    of agents on u at the end of round r."""
    pos, n = tr.positions, tr.graph.n
    keys = (np.arange(pos.shape[0])[:, None] * n + pos)[pos != -1]
    return np.bincount(keys, minlength=pos.shape[0] * n).reshape(-1, n)


def _met(tr: CouplingTranscript) -> np.ndarray:
    """Cumulative occupancy, shape (recorded rounds + 1, n): entry [r][u] is
    the number of agents met by staying on u through rounds 0 .. r-1."""
    z = _occupancy(tr)
    met = np.zeros((z.shape[0] + 1, z.shape[1]), dtype=np.int64)
    np.cumsum(z, axis=0, out=met[1:])
    return met


def _member_pairs(tr: CouplingTranscript):
    """``(fresh, us, vs, count)``: the vertices informed after round 0, by
    informing round then vertex; one pair (u, v) per S-set member v of each,
    in that order; and each vertex's member count (a vertex the S-set table
    lacks has none)."""
    tv = tr.t_visit
    fresh = np.flatnonzero(tv > 0)
    fresh = fresh[np.argsort(tv[fresh], kind="stable")]
    vs, sizes = _rows(tr.s_sets, fresh.tolist())
    count = np.zeros(tv.shape[0], dtype=np.int64)
    count[fresh] = sizes
    return fresh, np.repeat(fresh, sizes), vs, count


def _by_round(tv: np.ndarray, last: int) -> list:
    """The vertices of each informing round 1 .. last, ascending."""
    order = np.argsort(tv, kind="stable")
    cut = np.searchsorted(tv[order], np.arange(1, last + 2)).tolist()
    return [order[a:b] for a, b in zip(cut, cut[1:])]


def compute_c_counters(tr: CouplingTranscript) -> np.ndarray:
    """C-counter table, shape (rounds+1, n).

    C[t][u] is 0 before u is informed; at u's informing round it inherits the
    minimum counter among the S-set; afterwards it grows by the number of
    agents standing on u each round.  So C[t][u] = C[t_u][u] + met[t][u] -
    met[t_u][u] for t >= t_u, and each informing round takes one minimum
    over the members of its vertices' S-sets.  A member informed that same
    round is read in ascending vertex order: its counter is set when it is
    the lower vertex, 0 otherwise, as is a member informed later; a member
    never informed (t = -1) counts as informed at round 0.
    """
    if not tr.visitx_complete:
        raise InvalidParameterError("C-counters need a complete walk phase")
    if tr.s_sets is None:
        tr.s_sets = compute_s_sets(tr)
    n, T, tv = tr.graph.n, tr.visitx_rounds, tr.t_visit
    fresh, us, vs, count = _member_pairs(tr)
    empty = fresh[count[fresh] == 0]
    if empty.size:
        raise TranscriptCorruptError(f"empty S-set at vertex {empty[0]}")
    met = _met(tr)
    since = np.maximum(tv, 0)
    r = tv[us]
    earlier = tv[vs] < r
    # member v adds C[t_v][v] (read from base) and what it met since t_v;
    # a member not yet set reads base[n], which stays 0
    gain = np.where(earlier, met[r, vs] - met[since[vs], vs], 0)
    lower = (tv[vs] == r) & (vs < us)  # set earlier in its own round
    read = np.where(earlier | lower, vs, n)
    base = np.zeros(n + 1, dtype=np.int64)  # C[t_u][u]
    cut = np.searchsorted(tv[fresh], np.arange(1, T + 2)).tolist()
    starts = np.append(0, np.cumsum(count[fresh])).tolist()
    for a, b in zip(cut, cut[1:]):  # the vertices of one round
        if a == b:
            continue
        lo, hi = starts[a], starts[b]
        if lower[lo:hi].any():  # in ascending vertex order
            for u, p, q in zip(fresh[a:b].tolist(), starts[a:b],
                               starts[a + 1:b + 1]):
                base[u] = (base[read[p:q]] + gain[p:q]).min()
        else:
            base[fresh[a:b]] = np.minimum.reduceat(
                base[read[lo:hi]] + gain[lo:hi], np.subtract(starts[a:b], lo))
    c = base[:n] + met[:T + 1] - met[since, np.arange(n)]
    c[np.arange(T + 1)[:, None] < tv] = 0
    return c


def verify_tau_leq_c(tr: CouplingTranscript):
    """Check that every vertex's push informing round is bounded by its
    C-counter at its walk informing round.  Returns (ok, first_violation).
    """
    if not tr.complete:
        raise InvalidParameterError("both processes must have finished")
    if tr.c_table is None:
        tr.c_table = compute_c_counters(tr)
    n = tr.graph.n
    bound = tr.c_table[tr.t_visit, np.arange(n)]
    over = np.flatnonzero(tr.tau_push > bound)
    if over.size:
        u = int(over[0])
        return False, (u, int(tr.tau_push[u]), int(bound[u]))
    return True, None


def _min_chains(tr: CouplingTranscript):
    """The minimizing chains of all vertices, built over arrays in order of
    informing round.  Returns ``(pred, follow, fault)``:

    - ``pred[w]``: the S-set member v minimizing (C[t_w][v], v), the
      previous vertex of w's chain; -1 at a chain's root (t_w <= 0);
    - ``follow[w]``: the lowest agent that moved pred[w] -> w at round t_w;
    - ``fault``: for each vertex whose walk back meets a fault, the first
      such fault: an empty S-set on the way back, then a root other than
      the source, then the first hop, from the source side, that no agent
      made.
    """
    n, tv = tr.graph.n, tr.t_visit
    fresh, owner, vs, count = _member_pairs(tr)
    # the argmin of (C[t_w][v], v) over each informed vertex w's members
    order = np.lexsort((vs, tr.c_table[tv[owner], vs], owner))
    heads = order[np.flatnonzero(np.diff(owner[order], prepend=-1))]
    ws, vs = owner[heads], vs[heads]
    late = (tv[vs] < 0) | (tv[vs] >= tv[ws])
    pred = np.full(n, -1, dtype=np.int64)
    pred[ws[~late]] = vs[~late]
    # the lowest agent to make each hop v -> w on w's informing round: the
    # first such step in (round, agent) order
    t, g, a, b = _steps(tr.positions)
    on_time = t == tv[b]
    hops, at = np.unique(a[on_time] * n + b[on_time], return_index=True)
    hops = np.append(hops, n * n)  # a sentinel above every hop
    chained = np.flatnonzero(pred != -1)
    keys = pred[chained] * n + chained
    slot = np.searchsorted(hops, keys)
    made = hops[slot] == keys
    follow = np.full(n, -1, dtype=np.int64)
    follow[chained[made]] = g[on_time][at[slot[made]]]

    own: dict = {}  # each vertex's own fault
    for w in np.flatnonzero(tv <= 0).tolist():
        if w != tr.source:
            own[w] = "chain did not terminate at the source"
    for w in fresh[count[fresh] == 0].tolist():
        own[w] = f"empty S-set at vertex {w}"
    for w, v in zip(ws[late].tolist(), vs[late].tolist()):
        own[w] = f"S-set member {v} of vertex {w} is informed at round {tv[v]}"
    for w, v in zip(chained[~made].tolist(), pred[chained[~made]].tolist()):
        own[w] = f"no agent moved {v} -> {w} at round {tv[w]}"
    if not own:
        return pred, follow, own
    # a vertex carries the fault its predecessor carries, else its own
    origin = np.full(n, -1, dtype=np.int64)
    origin[list(own)] = list(own)
    for ws in _by_round(tv, int(tv.max())):
        ws = ws[pred[ws] != -1]
        inherited = origin[pred[ws]]
        origin[ws] = np.where(inherited != -1, inherited, origin[ws])
    faulty = np.flatnonzero(origin != -1)
    return pred, follow, {w: own[o] for w, o in zip(
        faulty.tolist(), origin[faulty].tolist())}


def reconstruct_min_chain_walk(tr: CouplingTranscript, u: int,
                               t: int) -> CanonicalWalk:
    """Build the canonical walk that realizes C_u(t): follow the minimizing
    chain of S-sets back to the source (ties broken toward the lowest vertex
    id), pad with stays between hops, and assert the resulting congestion
    equals the counter exactly.
    """
    if not tr.visitx_complete:
        raise InvalidParameterError("walk phase incomplete")
    if tr.c_table is None:
        tr.c_table = compute_c_counters(tr)
    tu = int(tr.t_visit[u])
    if t < tu or t > tr.visitx_rounds:
        raise InvalidParameterError(
            f"need informing round {tu} <= t <= {tr.visitx_rounds}, got {t}")
    pred, follow, fault = _min_chains(tr)
    if u in fault:
        raise TranscriptCorruptError(fault[u])
    chain = [u]
    while pred[chain[-1]] != -1:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()

    tv = tr.t_visit
    verts = [tr.source]
    follows: list = []
    for prev_v, cur_v in zip(chain, chain[1:]):
        stays = int(tv[cur_v]) - int(tv[prev_v]) - 1
        verts.extend([prev_v] * stays)
        follows.extend([None] * stays)
        verts.append(cur_v)
        follows.append(int(follow[cur_v]))
    tail = t - int(tv[u])
    verts.extend([u] * tail)
    follows.extend([None] * tail)

    rounds = max(t, 0)
    congestion = int(_occupancy(tr)[np.arange(rounds), verts[:rounds]].sum())
    expected = int(tr.c_table[t][u])
    if congestion != expected:
        raise TranscriptCorruptError(
            f"chain walk congestion {congestion} != C[{t}][{u}] = {expected}")
    return CanonicalWalk(verts, follows, congestion)


def _check_chain_walks(tr: CouplingTranscript) -> None:
    """``reconstruct_min_chain_walk(tr, u, t)`` for every u and every t from
    t_u to the last round, in that order, in one pass: raises the fault of
    the first failing (u, t) with the message that call would raise.

    A chain's congestion is read off the cumulative occupancy table:
    base[w], the congestion up to round t_w, is base[pred] plus the agents
    met while staying on pred, and after t_w the walk stays on w.  Before
    round 0 (a source recorded at t = -1) the walk has met nobody.
    """
    n, T = tr.graph.n, tr.visitx_rounds
    tv, c = tr.t_visit, tr.c_table
    pred, _, fault = _min_chains(tr)
    zcum = _met(tr)
    base = np.zeros(n, dtype=np.int64)
    for r, ws in enumerate(_by_round(tv, T), 1):
        ws = ws[pred[ws] != -1]
        p = pred[ws]
        base[ws] = base[p] + zcum[r, p] - zcum[tv[p], p]
    ts = np.arange(min(int(tv.min()), 0), T + 1)  # every step checked
    since = zcum[np.maximum(ts, 0)] - zcum[np.maximum(tv, 0), np.arange(n)]
    cong = np.where(ts[:, None] < 0, 0, base + since)
    expected = c[ts]  # a negative step wraps, as C[t] does
    bad = (ts[:, None] >= tv) & (cong != expected)
    faulty = np.zeros(n, dtype=bool)
    faulty[list(fault)] = True
    failing = np.flatnonzero((faulty & (tv <= T)) | bad.any(axis=0))
    if failing.size:
        u = int(failing[0])
        if u in fault:
            raise TranscriptCorruptError(fault[u])
        j = int(np.flatnonzero(bad[:, u])[0])
        raise TranscriptCorruptError(
            f"chain walk congestion {int(cong[j, u])} != "
            f"C[{int(ts[j])}][{u}] = {int(expected[j, u])}")


def max_congestion_dp(tr: CouplingTranscript, k: int) -> np.ndarray:
    """Maximum congestion over all canonical walks, per end vertex and
    length.  Entry [t][v] is -1 when no canonical walk of length t ends at v.
    """
    if k < 0 or k > tr.visitx_rounds:
        raise InvalidParameterError(
            f"need 0 <= k <= recorded rounds {tr.visitx_rounds}, got {k}")
    n = tr.graph.n
    z = _occupancy(tr)
    t, _, a, b = _steps(tr.positions[:k + 1])
    dp = np.full((k + 1, n), -1, dtype=np.int64)
    dp[0][tr.source] = 0
    for step in range(1, k + 1):
        prev = dp[step - 1]
        score = np.where(prev >= 0, prev + z[step - 1], -1)
        dp[step] = score  # staying put
        moved = t == step  # following an agent that left a reached vertex
        np.maximum.at(dp[step], b[moved], score[a[moved]])
    return dp


# -- serialization ----------------------------------------------------------------

TRANSCRIPT_FORMAT = "rumorwalks-transcript-v1"


def transcript_to_json(tr: CouplingTranscript) -> dict:
    return json.loads(transcript_dumps(tr))


def transcript_dumps(tr: CouplingTranscript) -> str:
    """The transcript's JSON text, as ``json.dumps`` with separators
    ``(",", ":")`` writes :func:`transcript_to_json`'s object.  One
    :func:`json.dumps` call writes the document with the visits and every
    large integer table (edges, choices, S-sets, C-table) held by a
    placeholder ``0``; each table's text, written by :func:`_int_text`,
    then replaces its ``"key":0``.  That text cannot occur inside a JSON
    string, where every quote is escaped."""
    g = tr.graph
    spliced: dict = {}

    def table(key: str, encoded):
        """``encoded``, a table's lists, or its JSON text to splice in."""
        if not isinstance(encoded, str):
            return encoded
        spliced[key] = encoded
        return 0

    doc = {
        "format": TRANSCRIPT_FORMAT, "mode": tr.mode, "seed": tr.seed,
        "source": tr.source, "agent_count": tr.agent_count,
        "placement": tr.placement, "round_cap": tr.round_cap,
        "min_rounds": tr.min_rounds,
        "graph": {"n": g.n, "family": g.family_tag,
                  "edges": table("edges", _table_json(g.edges()))},
        "visitx": {"rounds": tr.visitx_rounds,
                   "complete": tr.visitx_complete, "t": tr.t_visit.tolist(),
                   "agent_informed_at": tr.agent_informed_at.tolist()},
        "push": {"rounds": tr.push_rounds, "complete": tr.push_complete,
                 "tau": tr.tau_push.tolist()},
        "visits": table("visits", _visits_text(tr.positions, g.n)),
        "choices": table("choices", _keyed_json(tr.choices)),
        "walk_consumed": [list(e) for e in sorted(tr.walk_consumed.items())],
        "additions": [list(a) for a in tr.additions],
        "floor": tr.floor,
    }
    if tr.s_sets is not None:
        doc["s_sets"] = table("s_sets", _keyed_json(tr.s_sets))
    if tr.c_table is not None:
        doc["c_table"] = table("c_table", _table_json(tr.c_table))
    # a fresh document holds no cycles, so the encoder need not track them
    text = json.dumps(doc, separators=(",", ":"), check_circular=False)
    parts, at = [], 0
    for key, encoded in spliced.items():  # in document order
        cut = text.index(f'"{key}":0', at) + len(key) + 4
        parts += (text[at:cut - 1], encoded)
        at = cut
    parts.append(text[at:])
    return "".join(parts)


_SMALL_TABLE = 1200  # below this size json.dumps of the lists is faster
def _table_json(table: np.ndarray):
    """``table.tolist()`` for an integer array of any shape, or, for a
    large 2-d table of values >= 0, its JSON text, ``[[a,b],[c,d]]``."""
    if table.ndim == 2 and table.size and table.size >= _SMALL_TABLE \
            and table.min() >= 0:
        width = table.shape[1]
        return _int_text(table.ravel(), [("[[", [0]), ("],[", np.arange(
            width, table.size, width))], "]]")
    return table.tolist()


def _rows(table: dict, keys) -> tuple:
    """``(values, lengths)``: the integer rows of ``table`` at ``keys``,
    one after another, as an int64 array, and each row's length; a missing
    or None row is empty.  ``values`` is None when some value lies outside
    int64 (a loaded table may hold any JSON integer)."""
    rows = [table.get(u) or () for u in keys]
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    try:
        return np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                           int(lengths.sum())), lengths
    except OverflowError:
        return None, lengths


def _keyed_json(table: dict):
    """``[[key, [values]], ...]`` of a dict of integer lists, keys
    ascending, or, for a large table of keys and values in [0, 2**63), its
    JSON text; a row may be empty."""
    keys = sorted(table)
    if keys and sum(map(len, table.values())) + len(keys) >= _SMALL_TABLE \
            and 0 <= keys[0] and keys[-1] < 2 ** 63:
        values, lengths = _rows(table, keys)
        if values is not None and values.min(initial=0) >= 0:
            return _keyed_text(np.zeros_like(lengths), np.array(keys, np.int64),
                               lengths, values, 1)[1:-1]  # the one table, unlisted
    return [[u, list(table[u])] for u in keys]


def _keyed_text(table: np.ndarray, keys: np.ndarray, lengths: np.ndarray,
                values: np.ndarray, tables: int) -> str:
    """The JSON list of ``tables`` keyed tables ``[[key,[values]],...]``
    (int64, all >= 0): key i, in table ``table[i]`` (ascending), owns the
    next ``lengths[i]`` of ``values``; a row may be empty, and a table
    without keys is ``[]``.  The items are each key, then its values."""
    key_at = np.cumsum(lengths + 1) - lengths - 1
    items = np.empty(key_at.shape[0] + values.shape[0], dtype=np.int64)
    listed = np.ones(items.shape[0], dtype=bool)
    listed[key_at] = False
    items[key_at], items[listed] = keys, values
    full = lengths > 0
    after = np.concatenate(([True], full[:-1]))  # the row before has values
    later = table == np.concatenate(([-1], table[:-1]))  # not a table's first
    marks = {",[": key_at[full] + 1, "]],[": key_at[later & after],
             ",[]],[": key_at[later & ~after]}
    # a table's first key, then the end, closes the row and table before it
    # (or opens the list), then writes the empty tables in between
    firsts = np.flatnonzero(~later)
    tops = [-1] + table[firsts].tolist() + [tables]
    shuts = ["["] + ["]]]," if f else ",[]]],"
                     for f in after[firsts[1:]].tolist() + [full[-1:].any()]]
    texts = [shut + "[]," * (now - before - 1)
             for shut, before, now in zip(shuts, tops, tops[1:])]
    for at, text in zip(key_at[firsts].tolist(), texts):
        marks.setdefault(text + "[[", []).append(at)
    return _int_text(items, list(marks.items()),
                     texts[-1].removesuffix(",") + "]")


def _visits_text(pos: np.ndarray, n: int) -> str:
    """The JSON visits of a position matrix, by :func:`_keyed_text`: per
    round, its occupied vertices ascending, each with its agents.  One sort
    of the packed keys ``(r * n + u) * population + agent`` orders them all
    (a matrix that fits in memory keeps them below 2**63)."""
    population = max(pos.shape[1], 1)
    r, g = np.nonzero(pos != -1)
    keys = np.sort((r * n + pos[r, g]) * population + g)
    cells, ids = np.divmod(keys, population)
    # each cell's first agent, then the end
    bounds = np.flatnonzero(np.concatenate((cells[:1] >= 0,
                                            cells[1:] != cells[:-1], [True])))
    rounds, vertices = np.divmod(cells[bounds[:-1]], n)
    return _keyed_text(rounds, vertices, np.diff(bounds), ids, pos.shape[0])


def _json(what: str, value, kind: type = int):
    """``value``, which must be a JSON value of type ``kind``, int or bool
    (a bool is not an int here)."""
    if type(value) is not kind:
        raise TranscriptCorruptError(
            f"{what} must be a JSON {'integer' if kind is int else 'boolean'}"
            f", got {value!r}")
    return value


def _ints(what: str, values, low: int | None = None,
          high: int | None = None):
    """``values``, JSON integers only: as a list when no range is asked,
    else as an int64 array, each in [low, high) (no upper end if ``high``
    is None), or None when a value past int64 is in range.  Only a fault
    runs the Python scan that names the first value of the wrong type,
    else the first out of range, in list order."""
    values = list(values)
    if not {*map(type, values)} <= {int}:
        _json(what, next(v for v in values if type(v) is not int))
    if low is None:
        return values
    try:
        arr = np.fromiter(values, np.int64, len(values))
        if not arr.size or low <= int(arr.min()) and (
                high is None or int(arr.max()) < high):
            return arr
    except OverflowError:  # past int64
        pass
    bad = next((v for v in values
                if v < low or high is not None and v >= high), None)
    if bad is None:
        return None
    span = f"[{low}, {high})" if high is not None else f">= {low}"
    raise TranscriptCorruptError(f"{what} {bad} is not {span}")


def _vector(what: str, values, length: int) -> np.ndarray:
    """``values``, JSON integers, as an int64 array of shape (length,)."""
    arr = np.asarray(_ints(what, values), dtype=np.int64)
    if arr.shape != (length,):
        raise TranscriptCorruptError(
            f"{what} has shape {arr.shape}, expected ({length},)")
    return arr


def _positions(visits: list, n: int, population: int):
    """The position matrix of a JSON visits list, whose entries must be
    [vertex, agents] pairs (-1 for an agent no entry lists), and the first
    round listing some agent twice, or None.  A vertex listed twice keeps
    only its last list, as in a dict.  A matrix of more than four cells
    per listed id (plus one per round) is refused unallocated."""
    entries = list(itertools.chain.from_iterable(visits))
    # unpacking rejects an entry that is not a pair
    us, lists = [u for u, _ in entries], [a for _, a in entries]
    ids = list(itertools.chain.from_iterable(lists))
    # a written transcript lists nearly every cell: bound the matrix by the
    # JSON's size before allocating it
    if len(visits) * population > 4 * (len(ids) + len(visits)):
        raise TranscriptCorruptError(
            f"{len(ids)} listed agent ids cannot fill {len(visits)} rounds "
            f"of {population} agents")
    us = _ints("visited vertex", us, 0, n)
    ids = _ints("agent id", ids, 0, population)
    counts = np.fromiter(map(len, lists), np.int64, len(lists))
    keys = np.repeat(np.arange(len(visits)) * n, list(map(len, visits))) + us
    if (np.diff(keys) <= 0).any():  # out of JSON order: drop repeated keys
        last = keys.shape[0] - 1 - np.unique(keys[::-1], return_index=True)[1]
        kept = np.isin(np.arange(keys.shape[0]), last)
        ids, counts = ids[np.repeat(kept, counts)], counts * kept
    rnd, at = np.divmod(np.repeat(keys, counts), n)
    pos = np.full((len(visits), population), -1, dtype=np.int64)
    pos[rnd, ids] = at
    repeats = np.flatnonzero((pos != -1).sum(axis=1)
                             < np.bincount(rnd, minlength=len(visits)))
    return pos, int(repeats[0]) if repeats.size else None


def _int_table(pairs, key: str, what: str, low: int | None = None,
               high: int | None = None) -> dict:
    """A JSON list of [vertex, [values]] pairs as a dict of lists, whose
    vertices (named ``key`` in errors) and values (``what``) must be JSON
    integers in [low, high), as :func:`_ints` checks them."""
    table = {u: list(values) for u, values in pairs}
    _ints(key, table, low, high)
    _ints(what, itertools.chain.from_iterable(table.values()), low, high)
    return table


def transcript_from_json(obj: dict) -> CouplingTranscript:
    """Rebuild a transcript from its JSON object, rejecting anything
    verification could not index safely: vertex ids outside [0, n) (the
    source, visited vertices, S-sets, additions), agent ids outside [0,
    agent_count + len(additions)), added agents below agent_count or
    listed twice, informing and addition rounds outside [-1, rounds] and
    [0, rounds], a mode other than even and odd (the checks to run depend
    on it), tables or round lists of the wrong length, and a value of an
    integer field that is not a JSON integer (a bool, a float or a string
    is not one) or a complete flag that is not a boolean.  A round
    that does not partition the agents loads (conservation flags it).
    Recorded choices are not range-checked here: an out-of-range choice is
    a push-replay violation.  Every fault raises TranscriptCorruptError.
    """
    if not isinstance(obj, dict):
        raise TranscriptCorruptError("malformed transcript: not a JSON object")
    try:
        if obj.get("format") != TRANSCRIPT_FORMAT:
            raise TranscriptCorruptError(
                f"unknown transcript format {obj.get('format')!r}")
        if obj.get("mode") not in ("even", "odd"):
            raise TranscriptCorruptError(
                f"unknown coupling mode {obj.get('mode')!r}")
        n, edges = _json("graph.n", obj["graph"]["n"]), obj["graph"]["edges"]
        _ints("edge endpoint", itertools.chain.from_iterable(edges))
        graph = Graph.from_edges(n, edges, obj["graph"].get("family"))
        rounds = _json("visitx.rounds", obj["visitx"]["rounds"])
        _ints("walk round count", [rounds], 0)
        agent_count = _json("agent_count", obj["agent_count"])
        _ints("agent count", [agent_count], 0)
        additions = [(r, u, g) for r, u, g in obj.get("additions", [])]
        _ints("addition", itertools.chain.from_iterable(additions))
        population = agent_count + len(additions)
        add_rounds, add_vertices, added = list(zip(*additions)) or [()] * 3
        _ints("addition round", add_rounds, 0, rounds + 1)
        _ints("addition vertex", add_vertices, 0, n)
        _ints("added agent id", added, agent_count, population)
        counts = collections.Counter(added)
        if len(counts) < len(added):
            g = next(g for g in added if counts[g] > 1)
            raise TranscriptCorruptError(f"added agent id {g} is repeated")
        # sized by the JSON lists before the matrix is allocated
        informed_at = _vector("visitx.agent_informed_at",
                              obj["visitx"]["agent_informed_at"], population)
        visits = obj["visits"]
        if len(visits) != rounds + 1:
            raise TranscriptCorruptError(
                f"{len(visits)} rounds of visits recorded for "
                f"{rounds} walk rounds")
        positions, repeat_round = _positions(visits, n, population)
        t_visit = _vector("visitx.t", obj["visitx"]["t"], n)
        _ints("informing round", t_visit.tolist(), -1, rounds + 1)
        tr = CouplingTranscript(
            graph=graph, source=_json("source", obj["source"]),
            mode=obj["mode"], seed=_json("seed", obj["seed"]),
            agent_count=agent_count, placement=obj["placement"],
            round_cap=_json("round_cap", obj["round_cap"]),
            min_rounds=_json("min_rounds", obj["min_rounds"]),
            visitx_rounds=rounds,
            visitx_complete=_json("visitx.complete",
                                  obj["visitx"]["complete"], bool),
            push_rounds=_json("push.rounds", obj["push"]["rounds"]),
            push_complete=_json("push.complete", obj["push"]["complete"],
                                bool),
            t_visit=t_visit,
            tau_push=_vector("push.tau", obj["push"]["tau"], n),
            agent_informed_at=informed_at, positions=positions,
            choices=_int_table(obj["choices"], "choice vertex", "choice"),
            walk_consumed={u: c for u, c in obj["walk_consumed"]},
            additions=additions, floor=obj.get("floor"),
            repeat_round=repeat_round)
        _ints("walk_consumed vertex", tr.walk_consumed)
        _ints("walk_consumed count", tr.walk_consumed.values())
        _ints("source", [tr.source], 0, n)
        if "s_sets" in obj:
            tr.s_sets = _int_table(obj["s_sets"], "S-set vertex",
                                   "S-set member", 0, n)
        if "c_table" in obj:
            _ints("c_table cell", itertools.chain.from_iterable(
                obj["c_table"]))
            tr.c_table = np.asarray(obj["c_table"], dtype=np.int64)
        return tr
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TranscriptCorruptError(f"malformed transcript: {exc}") from exc


# -- offline verification -----------------------------------------------------------

def _recorded(tr: CouplingTranscript):
    """The recorded choices as one flat table: ``(flat, length, offset)``,
    vertex u's list being ``flat[offset[u]:offset[u] + length[u]]``; an
    entry outside [0, n) reads -1, so that no edge key is formed from it
    (numpy would wrap a negative id), as does the trailing entry, the one
    :func:`_entries` reads for a missing choice."""
    n = tr.graph.n
    flat, length = _rows(tr.choices, range(n))
    offset = np.cumsum(length) - length
    if flat is None:  # some entry is beyond int64, so out of range
        flat = _rows({u: [w if 0 <= w < n else -1 for w in ws]
                      for u, ws in tr.choices.items()}, range(n))[0]
    flat = np.append(np.where((flat >= 0) & (flat < n), flat, -1), -1)
    return flat, length, offset


def _entries(flat: np.ndarray, length: np.ndarray, offset: np.ndarray):
    """``entry(us, idx)``: the recorded choice idx (from 1) of each vertex
    of ``us`` in a table of :func:`_recorded`, -1 where none is recorded."""
    return lambda us, idx: flat[np.where(idx <= length[us],
                                         offset[us] + idx - 1, -1)]


def _replay_push(tr: CouplingTranscript, table):
    """Re-run the push replay from the recorded oracle choices (``table``,
    see :func:`_recorded`), for at most the recorded push rounds and the
    round cap.  Each round's lookup raises the violation of its first
    failing query, in replay order: a missing entry, or one that is not a
    neighbor.  Returns ``(tau, rounds, complete)``."""
    n = tr.graph.n
    flat, length, offset = table
    # every recorded entry that is no neighbor of its vertex reads -1 (one
    # out of range already does, whatever has_edges says of it)
    near = tr.graph.has_edges(np.repeat(np.arange(n), length), flat[:-1])
    entry = _entries(np.append(np.where(near, flat[:-1], -1), -1), length,
                     offset)

    def recorded(us: np.ndarray, idx: np.ndarray) -> np.ndarray:
        ws = entry(us, idx)
        if ws.min(initial=0) < 0:
            j = int(np.argmax(ws < 0))
            u, i = int(us[j]), int(idx[j])
            got = tr.choices.get(u, [])
            if i > len(got):
                raise TranscriptCorruptError(
                    f"push replay needs choice {i} of vertex {u}, "
                    f"only {len(got)} recorded")
            raise TranscriptCorruptError(
                f"recorded choice {got[i - 1]} is not a neighbor of {u}")
        return ws

    return _push_replay(n, tr.source, recorded,
                        min(tr.push_rounds, tr.round_cap))


def _check_oracle_consistency(tr: CouplingTranscript, table):
    """The i-th informed departure from u must equal recorded choice w_u(i)
    (``table``, see :func:`_recorded`).

    Departures count in (round, agent) order, from vertices informed by the
    round before (in the odd coupling, at odd rounds only); the first
    mismatch in (round, vertex, agent) order is reported.
    """
    tv = tr.t_visit
    t, g, a, b = _steps(tr.positions)
    keep = (tv[a] >= 0) & (tv[a] < t) & ((t % 2 == 1) | (tr.mode != "odd"))
    t, g, a, b = t[keep], g[keep], a[keep], b[keep]
    rank, counts = _ranks(a, tr.graph.n)
    bad = np.flatnonzero(_entries(*table)(a, rank + 1) != b)
    if bad.size:
        j = bad[np.lexsort((g[bad], a[bad], t[bad]))[0]]
        u, i = int(a[j]), int(rank[j]) + 1
        got = tr.choices.get(u, [])
        raise TranscriptCorruptError(
            f"departure {i} from vertex {u} went to {b[j]}, oracle recorded "
            f"{got[i - 1] if i <= len(got) else 'nothing'}")
    consumed = {u: int(counts[u]) for u in np.flatnonzero(counts).tolist()}
    if consumed != {u: c for u, c in tr.walk_consumed.items() if c}:
        raise TranscriptCorruptError("consumed-count table does not match visits")


def verify_transcript(tr: CouplingTranscript) -> VerifyReport:
    """Re-check a transcript from first principles.

    Structural checks (agent conservation, informing re-simulation, push
    replay, oracle consistency) run for both coupling modes; the counter
    bound and chain-walk congestion checks run for complete even-mode
    transcripts only.
    """
    checks: dict = {}
    violations: list = []

    def run_check(name, fn):
        try:
            fn()
            checks[name] = True
        except TranscriptCorruptError as exc:
            checks[name] = False
            violations.append(f"{name}: {exc}")

    def conservation():
        pos = tr.positions
        if pos.shape[0] != tr.visitx_rounds + 1:
            raise TranscriptCorruptError(
                f"{pos.shape[0]} rounds of visits recorded, "
                f"expected {tr.visitx_rounds + 1}")
        arrival = np.zeros(pos.shape[1], dtype=np.int64)
        for r, _u, g in tr.additions:
            arrival[g] = r
        arrived = np.arange(pos.shape[0])[:, None] >= arrival
        bad = np.flatnonzero(((pos != -1) != arrived).any(axis=1)).tolist()
        bad += [] if tr.repeat_round is None else [tr.repeat_round]
        if bad:
            raise TranscriptCorruptError(
                f"round {min(bad)} does not partition the agent population")

    def informing():
        # re-derive the informing rounds from positions alone: the
        # visit-exchange rule, with absent agents masked out each round
        pos = tr.positions
        visit = _Visit(tr.graph.n, tr.source, pos[0])
        for rnd in range(1, pos.shape[0]):
            visit.alive = pos[rnd] != -1
            visit.update(pos[rnd], rnd)
        for what, hat, rec in (("vertex", visit.v_inf, tr.t_visit),
                               ("agent", visit.a_inf, tr.agent_informed_at)):
            wrong = np.flatnonzero(hat != rec)
            if wrong.size:
                i = int(wrong[0])
                raise TranscriptCorruptError(
                    f"{what} {i}: recorded informing round {rec[i]}, "
                    f"re-simulation gives {hat[i]}")
        # the walk stops at the round cap, or once every vertex is informed
        # and min_rounds rounds have run
        cap, rounds = tr.round_cap, tr.visitx_rounds
        if not tr.visitx_complete and rounds != cap:
            raise TranscriptCorruptError(
                f"incomplete walk recorded {rounds} rounds, round cap {cap}")
        last = int(tr.t_visit.max(initial=0))
        if tr.visitx_complete and rounds != min(cap, max(tr.min_rounds, last)):
            raise TranscriptCorruptError(
                f"complete walk recorded {rounds} rounds, expected "
                f"{min(cap, max(tr.min_rounds, last))} from round cap {cap}, "
                f"min_rounds {tr.min_rounds} and last informing round {last}")

    table = _recorded(tr)  # the recorded choices, for both checks below

    def push_replay():
        tau_hat, rounds, complete = _replay_push(tr, table)
        if complete != tr.push_complete or not np.array_equal(tau_hat, tr.tau_push):
            raise TranscriptCorruptError("push replay disagrees with recorded tau")
        if rounds != tr.push_rounds or not (complete or rounds == tr.round_cap):
            raise TranscriptCorruptError(
                f"push replay ran {rounds} rounds, {tr.push_rounds} recorded, "
                f"round cap {tr.round_cap}")

    run_check("conservation", conservation)
    run_check("informing", informing)
    run_check("push-replay", push_replay)
    run_check("oracle-consistency",
              lambda: _check_oracle_consistency(tr, table))

    incomplete = not tr.complete
    if tr.visitx_complete:  # each stored table against its recomputation
        def recheck(field, compute, same, what):
            stored, fresh = getattr(tr, field), compute(tr)
            if stored is not None and not same(stored, fresh):
                raise TranscriptCorruptError(f"stored {what} from recomputation")
            setattr(tr, field, fresh)

        run_check("s-sets", lambda: recheck("s_sets", compute_s_sets,
                                            operator.eq, "S-sets differ"))
        run_check("c-table", lambda: recheck("c_table", compute_c_counters,
                                             np.array_equal, "C-table differs"))

    if tr.mode == "even" and tr.complete and checks.get("s-sets") \
            and checks.get("c-table"):
        def counter_bound():
            ok, viol = verify_tau_leq_c(tr)
            if not ok:
                u, tau_u, bound = viol
                raise TranscriptCorruptError(
                    f"vertex {u}: push round {tau_u} exceeds counter {bound}")

        run_check("counter-bound", counter_bound)
        run_check("chain-walks", lambda: _check_chain_walks(tr))

    return VerifyReport(ok=not violations, incomplete=incomplete,
                        checks=checks, violations=violations)
