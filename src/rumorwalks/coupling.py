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

Both processes read the oracle in bulk through :meth:`ChoiceOracle.take`:
each round the walk ranks the informed agents within their vertex in agent
order, and push samples from every informed vertex at once.  The oracle
draws each vertex's entries ahead in blocks from the vertex's own stream,
which yields exactly the entries of one-at-a-time draws, so a transcript is
the same bytes either way; its ``choices`` list, per vertex, exactly the
entries some process requested (the requested prefix), never those drawn
ahead.  The walk is one position matrix: entry [r, g] is agent g's vertex
at the end of round r, or -1 while g is absent (before an agent added by the
occupancy floor arrives).  Every table and check reads it as arrays, over
all (round, agent) steps at once; verification replays push over a flat
table of the recorded choices and checks every chain walk in one pass over
a cumulative occupancy table.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import InvalidParameterError, TranscriptCorruptError
from .graphs import Graph, _known
from .protocols import (AgentConfig, _floor_level, _move, _occupancy_floor,
                        _start, _Visit, _walk)
from .rng import ChoiceOracle, SimRng

__all__ = [
    "CouplingTranscript", "CanonicalWalk", "VerifyReport",
    "run_coupled_even", "run_coupled_odd", "compute_s_sets",
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


def _coupled_run(graph: Graph, source: int, config: AgentConfig, rng: SimRng,
                 round_cap: int | None, min_rounds: int, mode: str,
                 enable_r_floor: bool, floor: float | None) -> CouplingTranscript:
    if config.lazy:
        raise InvalidParameterError(
            "coupled runs require non-lazy walks: a stayed step is not a "
            "neighbor choice, so it cannot be shared with push")
    if enable_r_floor and mode != "odd":
        raise InvalidParameterError("the occupancy floor pairs with the odd coupling")
    if enable_r_floor:
        floor = _floor_level(graph, config.count, floor, "occupancy floor")
    n = graph.n
    source, cap, pos, _ = _start(graph, source, config, rng, round_cap)
    oracle = ChoiceOracle(graph, rng.child_seed("oracle"))
    walk_gen = rng.stream("walks")
    visit = _Visit(n, source, pos)
    v_inf = visit.v_inf
    consumed = np.zeros(n, dtype=np.int64)  # informed departures per vertex

    def oracle_step(pos: np.ndarray, t: int) -> np.ndarray:
        if mode == "odd" and t % 2 == 0:
            return _move(graph, pos, walk_gen, False, None)
        # informed departures consume the oracle in (round, agent) order:
        # the k-th informed agent on u (in agent order) this round takes
        # entry consumed[u] + k; u is informed here iff it was informed by
        # round t-1
        informed = v_inf[pos] != -1
        new_pos = np.empty_like(pos)
        if informed.any():
            us = pos[informed]
            rank, counts = _ranks(us, n)
            new_pos[informed] = oracle.take(us, consumed[us] + rank + 1)
            consumed[:] += counts
        free = ~informed
        if free.any():
            new_pos[free] = _move(graph, pos[free], walk_gen, False, None)
        return new_pos

    rows = [pos]  # no round changes a position array once it is made
    additions: list = []
    grow = (_occupancy_floor(graph, floor, visit, additions)
            if enable_r_floor else None)

    def record(t: int, pos: np.ndarray) -> np.ndarray:
        rows.append(pos if grow is None else grow(t, pos))
        return rows[-1]

    visitx_rounds = _walk(pos, oracle_step, [visit], cap, min_rounds, record)
    visitx_complete = visit.done
    positions = np.full((len(rows), rows[-1].shape[0]), -1, dtype=np.int64)
    for r, row in enumerate(rows):  # added agents are -1 before arrival
        positions[r, :row.shape[0]] = row

    # push replays the same oracle, regardless of what the walk consumed
    tau, push_rounds, push_complete = _push_replay(n, source, oracle.take,
                                                   cap)
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
        additions=additions, floor=floor if enable_r_floor else None)
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
    return _coupled_run(graph, source, config, rng, round_cap, min_rounds,
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
    return _coupled_run(graph, source, config, rng, round_cap, min_rounds,
                        "odd", enable_r_floor, floor)


# -- derived tables -------------------------------------------------------------

def _steps(pos: np.ndarray):
    """Every step of an agent present in two consecutive rounds, in
    (round, agent) order: ``(t, g, a, b)`` says agent g moved a -> b at
    round t."""
    r, g = np.nonzero((pos[:-1] != -1) & (pos[1:] != -1))
    return r + 1, g, pos[r, g], pos[r + 1, g]


def _edge_keys(graph: Graph) -> np.ndarray:
    """The sorted keys ``u * n + v`` of the directed edges (CSR rows and
    their neighbors are sorted), then the sentinel that ``_known`` needs."""
    keys = np.repeat(np.arange(graph.n), graph.degrees) * graph.n
    return np.append(keys + graph.indices, graph.n ** 2)


def compute_s_sets(tr: CouplingTranscript) -> dict:
    """For each vertex u informed after round 0, the neighbors v informed
    strictly earlier from which an informing agent arrived: some agent stood
    on v at round t_u - 1 and on u at round t_u.
    """
    tv, n = tr.t_visit, tr.graph.n
    t, _, a, b = _steps(tr.positions)
    hit = (tv[b] == t) & (tv[a] >= 0) & (tv[a] < t)
    a, b = a[hit], b[hit]
    near = _known(_edge_keys(tr.graph), a * n + b)
    pairs = np.unique(b[near] * n + a[near])
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


def compute_c_counters(tr: CouplingTranscript) -> np.ndarray:
    """C-counter table, shape (rounds+1, n).

    C[t][u] is 0 before u is informed; at u's informing round it inherits the
    minimum counter among the S-set; afterwards it grows by the number of
    agents standing on u each round.
    """
    if not tr.visitx_complete:
        raise InvalidParameterError("C-counters need a complete walk phase")
    if tr.s_sets is None:
        tr.s_sets = compute_s_sets(tr)
    n, T = tr.graph.n, tr.visitx_rounds
    t = tr.t_visit
    z = _occupancy(tr)
    by_round: dict = {}
    for u, tu in enumerate(t.tolist()):
        by_round.setdefault(tu, []).append(u)
    c = np.zeros((T + 1, n), dtype=np.int64)
    for step in range(1, T + 1):
        grown = t < step  # informed before this round (t >= 0 always here)
        c[step][grown] = c[step - 1][grown] + z[step - 1][grown]
        fresh = by_round.get(step)
        if not fresh:
            continue
        row = c[step].tolist()  # read and written in order, as a list
        for u in fresh:
            members = tr.s_sets.get(u)
            if not members:  # only a stored table can lack a member
                raise TranscriptCorruptError(f"empty S-set at vertex {u}")
            row[u] = min(row[v] for v in members)
        c[step, fresh] = [row[u] for u in fresh]
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
    """The minimizing chains of all vertices, built in one pass in order of
    informing round.  Returns ``(pred, follow, fault)``:

    - ``pred[w]``: the S-set member v minimizing (C[t_w][v], v), the
      previous vertex of w's chain; -1 at a chain's root (t_w <= 0);
    - ``follow[w]``: the lowest agent that moved pred[w] -> w at round t_w;
    - ``fault[w]``: the first fault a walk back from w meets, or None: an
      empty S-set on the way back, then a root other than the source, then
      the first hop, from the source side, that no agent made.
    """
    n = tr.graph.n
    tv, c, s_sets = tr.t_visit, tr.c_table.tolist(), tr.s_sets
    # the lowest agent to make each hop v -> w on w's informing round:
    # the first such step in (round, agent) order
    t, g, a, b = _steps(tr.positions)
    on_time = t == tv[b]
    movers: dict = {}
    for hop, agent in zip(zip(a[on_time].tolist(), b[on_time].tolist()),
                          g[on_time].tolist()):
        movers.setdefault(hop, agent)
    pred = np.full(n, -1, dtype=np.int64)
    follow = np.full(n, -1, dtype=np.int64)
    fault: list = [None] * n
    for w in np.argsort(tv, kind="stable").tolist():
        tw = int(tv[w])
        if tw <= 0:
            if w != tr.source:
                fault[w] = "chain did not terminate at the source"
            continue
        members = s_sets.get(w)
        if not members:
            fault[w] = f"empty S-set at vertex {w}"
            continue
        pred[w] = v = min(members, key=lambda v: (c[tw][v], v))
        fault[w] = fault[v]
        if (v, w) in movers:
            follow[w] = movers[v, w]
        elif fault[w] is None:
            fault[w] = f"no agent moved {v} -> {w} at round {tw}"
    return pred, follow, fault


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
    if fault[u] is not None:
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
    zcum = np.zeros((tr.positions.shape[0] + 1, n), dtype=np.int64)
    np.cumsum(_occupancy(tr), axis=0, out=zcum[1:])
    base = np.zeros(n, dtype=np.int64)
    for r in range(1, T + 1):
        ws = np.flatnonzero((tv == r) & (pred != -1))
        p = pred[ws]
        base[ws] = base[p] + zcum[r, p] - zcum[tv[p], p]
    ts = np.arange(min(int(tv.min()), 0), T + 1)  # every step checked
    since = zcum[np.maximum(ts, 0)] - zcum[np.maximum(tv, 0), np.arange(n)]
    cong = np.where(ts[:, None] < 0, 0, base + since)
    expected = c[ts]  # a negative step wraps, as C[t] does
    bad = (ts[:, None] >= tv) & (cong != expected)
    faulty = np.array([f is not None for f in fault]) & (tv <= T)
    failing = np.flatnonzero(faulty | bad.any(axis=0))
    if failing.size:
        u = int(failing[0])
        if fault[u] is not None:
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
    obj = {
        "format": TRANSCRIPT_FORMAT, "mode": tr.mode, "seed": tr.seed,
        "source": tr.source, "agent_count": tr.agent_count,
        "placement": tr.placement, "round_cap": tr.round_cap,
        "min_rounds": tr.min_rounds,
        "graph": {"n": tr.graph.n, "family": tr.graph.family_tag,
                  "edges": tr.graph.edges().tolist()},
        "visitx": {"rounds": tr.visitx_rounds,
                   "complete": tr.visitx_complete, "t": tr.t_visit.tolist(),
                   "agent_informed_at": tr.agent_informed_at.tolist()},
        "push": {"rounds": tr.push_rounds, "complete": tr.push_complete,
                 "tau": tr.tau_push.tolist()},
        "visits": _visit_lists(tr.positions, tr.graph.n),
        "choices": [[u, list(ws)] for u, ws in sorted(tr.choices.items())],
        "walk_consumed": [list(e) for e in sorted(tr.walk_consumed.items())],
        "additions": [list(a) for a in tr.additions],
        "floor": tr.floor,
    }
    if tr.s_sets is not None:
        obj["s_sets"] = [[u, list(vs)] for u, vs in sorted(tr.s_sets.items())]
    if tr.c_table is not None:
        obj["c_table"] = tr.c_table.tolist()
    return obj


def _visit_lists(pos: np.ndarray, n: int) -> list:
    """The JSON visits of a position matrix: per round, ``[u, agents]`` for
    each occupied vertex u in ascending order, agents ascending.  One
    stable sort of the keys ``r * n + u``, taken in (round, agent) order,
    orders them all."""
    r, g = np.nonzero(pos != -1)
    cells = r * n + pos[r, g]
    order = np.argsort(cells, kind="stable")
    cells, ids = cells[order], g[order].tolist()
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    bounds = np.append(starts, cells.shape[0]).tolist()
    groups = [[u, ids[a:b]] for u, a, b in
              zip((cells[starts] % n).tolist(), bounds, bounds[1:])]
    cut = np.searchsorted(cells[starts], np.arange(pos.shape[0] + 1) * n)
    return [groups[a:b] for a, b in zip(cut.tolist(), cut[1:].tolist())]


def _check_ids(what: str, ids, low: int, high: int | None = None) -> None:
    """Raise unless every id of ``ids`` (a sequence, or a dict's keys) lies
    in [low, high), with no upper end if ``high`` is None."""
    if not ids or (min(ids) >= low and (high is None or max(ids) < high)):
        return
    bad = next(x for x in ids if not (x >= low and (high is None or x < high)))
    span = f"[{low}, {high})" if high is not None else f">= {low}"
    raise TranscriptCorruptError(f"{what} {bad} is not {span}")


def _vector(what: str, values, length: int) -> np.ndarray:
    """``values`` as an int64 array, which must have shape (length,)."""
    arr = np.asarray(values, dtype=np.int64)
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
    us, lists = zip(*entries, strict=True) if entries else ((), ())
    ids = list(itertools.chain.from_iterable(lists))
    # a written transcript lists nearly every cell: bound the matrix by the
    # JSON's size before allocating it
    if len(visits) * population > 4 * (len(ids) + len(visits)):
        raise TranscriptCorruptError(
            f"{len(ids)} listed agent ids cannot fill {len(visits)} rounds "
            f"of {population} agents")
    _check_ids("visited vertex", us, 0, n)
    _check_ids("agent id", ids, 0, population)
    ids = np.fromiter(ids, np.int64, len(ids))
    counts = np.fromiter(map(len, lists), np.int64, len(lists))
    keys = np.repeat(np.arange(len(visits)) * n, list(map(len, visits))) \
        + np.fromiter(us, np.int64, len(us))
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


def transcript_from_json(obj: dict) -> CouplingTranscript:
    """Rebuild a transcript from its JSON object, rejecting anything
    verification could not index safely: vertex ids outside [0, n) (the
    source, visited vertices, S-sets, additions), agent ids outside [0,
    agent_count + len(additions)), added agents below agent_count or
    listed twice, informing and addition rounds outside [-1, rounds] and
    [0, rounds], a mode other than even and odd (the checks to run depend
    on it), and tables or round lists of the wrong length.  A round
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
        n, edges = int(obj["graph"]["n"]), obj["graph"]["edges"]
        if n > len(edges) + 1:  # checked before any array of size n exists
            raise TranscriptCorruptError(
                f"{len(edges)} edges cannot connect {n} vertices")
        graph = Graph.from_edges(n, edges, obj["graph"].get("family"))
        rounds = int(obj["visitx"]["rounds"])
        _check_ids("walk round count", [rounds], 0)
        agent_count = int(obj["agent_count"])
        _check_ids("agent count", [agent_count], 0)
        additions = [(int(r), int(u), int(g))
                     for r, u, g in obj.get("additions", [])]
        population = agent_count + len(additions)
        add_rounds, add_vertices, added = list(zip(*additions)) or [()] * 3
        _check_ids("addition round", add_rounds, 0, rounds + 1)
        _check_ids("addition vertex", add_vertices, 0, n)
        _check_ids("added agent id", added, agent_count, population)
        for g in added:
            if added.count(g) > 1:
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
        _check_ids("informing round", t_visit.tolist(), -1, rounds + 1)
        tr = CouplingTranscript(
            graph=graph, source=int(obj["source"]), mode=obj["mode"],
            seed=int(obj["seed"]), agent_count=agent_count,
            placement=obj["placement"], round_cap=int(obj["round_cap"]),
            min_rounds=int(obj["min_rounds"]), visitx_rounds=rounds,
            visitx_complete=bool(obj["visitx"]["complete"]),
            push_rounds=int(obj["push"]["rounds"]),
            push_complete=bool(obj["push"]["complete"]), t_visit=t_visit,
            tau_push=_vector("push.tau", obj["push"]["tau"], n),
            agent_informed_at=informed_at, positions=positions,
            choices={int(u): list(map(int, ws)) for u, ws in obj["choices"]},
            walk_consumed={int(u): int(c) for u, c in obj["walk_consumed"]},
            additions=additions, floor=obj.get("floor"),
            repeat_round=repeat_round)
        _check_ids("source", [tr.source], 0, n)
        if "s_sets" in obj:
            tr.s_sets = {int(u): list(map(int, vs)) for u, vs in obj["s_sets"]}
            _check_ids("S-set vertex", tr.s_sets, 0, n)
            _check_ids("S-set member", list(itertools.chain.from_iterable(
                tr.s_sets.values())), 0, n)
        if "c_table" in obj:
            tr.c_table = np.asarray(obj["c_table"], dtype=np.int64)
        return tr
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TranscriptCorruptError(f"malformed transcript: {exc}") from exc


def transcript_dumps(tr: CouplingTranscript) -> str:
    # a fresh object holds no cycles, so the encoder need not track them
    return json.dumps(transcript_to_json(tr), separators=(",", ":"),
                      check_circular=False)


# -- offline verification -----------------------------------------------------------

def _recorded(tr: CouplingTranscript):
    """``entry(us, idx)``: the recorded choice idx (from 1) of each vertex
    of ``us``, read off one flat table of the recorded lists; -1 where none
    is recorded or it lies outside [0, n), so that no edge key is formed
    from it (numpy would wrap a negative id)."""
    n = tr.graph.n
    rows = [tr.choices.get(u, []) for u in range(n)]
    length = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    offset = np.cumsum(length) - length
    total = int(length.sum())
    try:
        flat = np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                           total)
    except OverflowError:  # some entry is beyond int64, so out of range
        flat = np.fromiter((w if 0 <= w < n else -1 for ws in rows
                            for w in ws), np.int64, total)
    # trailing -1: the missing entry
    flat = np.append(np.where((flat >= 0) & (flat < n), flat, -1), -1)
    return lambda us, idx: flat[np.where(idx <= length[us],
                                         offset[us] + idx - 1, -1)]


def _replay_push(tr: CouplingTranscript):
    """Re-run the push replay from the recorded oracle choices.  Each
    round's lookup raises the violation of its first failing query, in
    replay order: a missing entry, or one that is not a neighbor."""
    n, entry, edge_keys = tr.graph.n, _recorded(tr), _edge_keys(tr.graph)

    def recorded(us: np.ndarray, idx: np.ndarray) -> np.ndarray:
        ws = entry(us, idx)
        bad = (ws < 0) | ~_known(edge_keys, us * n + ws)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            u, i = int(us[j]), int(idx[j])
            got = tr.choices.get(u, [])
            if i > len(got):
                raise TranscriptCorruptError(
                    f"push replay needs choice {i} of vertex {u}, "
                    f"only {len(got)} recorded")
            raise TranscriptCorruptError(
                f"recorded choice {got[i - 1]} is not a neighbor of {u}")
        return ws

    tau_hat, _, complete = _push_replay(n, tr.source, recorded, tr.push_rounds)
    return tau_hat, complete


def _check_oracle_consistency(tr: CouplingTranscript):
    """The i-th informed departure from u must equal recorded choice w_u(i).

    Departures count in (round, agent) order, from vertices informed by the
    round before (in the odd coupling, at odd rounds only); the first
    mismatch in (round, vertex, agent) order is reported.
    """
    tv = tr.t_visit
    t, g, a, b = _steps(tr.positions)
    keep = (tv[a] >= 0) & (tv[a] < t) & ((t % 2 == 1) | (tr.mode != "odd"))
    t, g, a, b = t[keep], g[keep], a[keep], b[keep]
    rank, counts = _ranks(a, tr.graph.n)
    bad = np.flatnonzero(_recorded(tr)(a, rank + 1) != b)
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

    def push_replay():
        tau_hat, complete = _replay_push(tr)
        if complete != tr.push_complete or not np.array_equal(tau_hat, tr.tau_push):
            raise TranscriptCorruptError("push replay disagrees with recorded tau")

    run_check("conservation", conservation)
    run_check("informing", informing)
    run_check("push-replay", push_replay)
    run_check("oracle-consistency", lambda: _check_oracle_consistency(tr))

    incomplete = not tr.complete
    if tr.visitx_complete:
        def s_sets():
            fresh = compute_s_sets(tr)
            if tr.s_sets is not None and fresh != tr.s_sets:
                raise TranscriptCorruptError("stored S-sets differ from recomputation")
            tr.s_sets = fresh

        def c_table():
            stored = tr.c_table
            tr.c_table = None
            fresh = compute_c_counters(tr)
            if stored is not None and not np.array_equal(stored, fresh):
                raise TranscriptCorruptError("stored C-table differs from recomputation")
            tr.c_table = fresh

        run_check("s-sets", s_sets)
        run_check("c-table", c_table)

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
