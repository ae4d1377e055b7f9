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
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, TranscriptCorruptError
from .graphs import Graph
from .protocols import (AgentConfig, _floor_level, _move, _occupancy_floor,
                        _start, _Visit, _walk)
from .rng import ChoiceOracle, SimRng

__all__ = [
    "CouplingTranscript",
    "CanonicalWalk",
    "VerifyReport",
    "run_coupled_even",
    "run_coupled_odd",
    "compute_s_sets",
    "compute_c_counters",
    "verify_tau_leq_c",
    "reconstruct_min_chain_walk",
    "max_congestion_dp",
    "transcript_to_json",
    "transcript_from_json",
    "verify_transcript",
]


@dataclass
class CouplingTranscript:
    """Everything needed to re-check a coupled run offline.

    ``visits[t]`` maps each occupied vertex to the sorted ids of agents
    standing there at the end of round t.  ``choices`` holds every oracle
    entry materialized by either process; ``walk_consumed[u]`` says how many
    of them the walk side consumed as informed departures from u.
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
    visits: list
    choices: dict
    walk_consumed: dict
    additions: list = field(default_factory=list)
    floor: float | None = None
    s_sets: dict | None = None
    c_table: np.ndarray | None = None

    @property
    def complete(self) -> bool:
        return self.visitx_complete and self.push_complete

    def z_agents(self, u: int, t: int) -> list:
        """Agent ids on vertex u at the end of round t."""
        return self.visits[t].get(u, [])

    def z_count(self, u: int, t: int) -> int:
        return len(self.visits[t].get(u, ()))


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


def _group_positions(pos: np.ndarray) -> dict:
    groups: dict = {}
    for g, u in enumerate(pos.tolist()):
        groups.setdefault(u, []).append(g)
    return groups


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
    walk_consumed: dict = {}

    def oracle_step(pos: np.ndarray, t: int) -> np.ndarray:
        if mode == "odd" and t % 2 == 0:
            return _move(graph, pos, walk_gen, False, None)
        # informed departures consume the oracle in (round, agent) order;
        # a vertex is informed here iff it was informed by round t-1
        new_pos = np.empty_like(pos)
        free: list = []
        for g, u in enumerate(pos.tolist()):
            if v_inf[u] != -1:
                i = walk_consumed.get(u, 0) + 1
                walk_consumed[u] = i
                new_pos[g] = oracle.choice(u, i)
            else:
                free.append(g)
        if free:
            fidx = np.asarray(free, dtype=np.int64)
            new_pos[fidx] = _move(graph, pos[fidx], walk_gen, False, None)
        return new_pos

    visits = [_group_positions(pos)]
    additions: list = []
    grow = (_occupancy_floor(graph, floor, visit, additions)
            if enable_r_floor else None)

    def record(t: int, pos: np.ndarray) -> np.ndarray:
        if grow is not None:
            pos = grow(t, pos)
        visits.append(_group_positions(pos))
        return pos

    visitx_rounds = _walk(pos, oracle_step, [visit], cap, min_rounds, record)
    visitx_complete = visit.done

    # push replays the same oracle, regardless of what the walk consumed
    tau, push_rounds, push_complete = _push_replay(n, source, oracle.choice,
                                                   cap)
    choices = {u: list(oracle.materialized(u))
               for u in range(n) if oracle.materialized(u)}
    tr = CouplingTranscript(
        graph=graph, source=source, mode=mode, seed=rng.seed,
        agent_count=config.count, placement=config.placement,
        round_cap=cap, min_rounds=min_rounds,
        visitx_rounds=visitx_rounds, visitx_complete=visitx_complete,
        push_rounds=push_rounds, push_complete=push_complete,
        t_visit=v_inf, tau_push=tau, agent_informed_at=visit.a_inf,
        visits=visits, choices=choices, walk_consumed=dict(walk_consumed),
        additions=additions, floor=floor if enable_r_floor else None)
    if visitx_complete:
        tr.s_sets = compute_s_sets(tr)
        tr.c_table = compute_c_counters(tr)
    return tr


def _push_replay(n: int, source: int, choice, cap: int):
    """Push driven by a choice sequence: vertex u's i-th sample is
    ``choice(u, i)``, issued at round tau_u + i.  Returns
    ``(tau, rounds, complete)``."""
    tau = np.full(n, -1, dtype=np.int64)
    tau[source] = 0
    order = [source]
    r = 0
    while len(order) < n and r < cap:
        r += 1
        known = len(order)
        for j in range(known):
            u = order[j]
            w = choice(u, r - int(tau[u]))
            if tau[w] == -1:
                tau[w] = r
                order.append(w)
    return tau, r, len(order) == n


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

def compute_s_sets(tr: CouplingTranscript) -> dict:
    """For each vertex u informed after round 0, the neighbors v informed
    strictly earlier from which an informing agent arrived: some agent stood
    on v at round t_u - 1 and on u at round t_u.
    """
    t = tr.t_visit
    s_sets: dict = {}
    for u in range(tr.graph.n):
        tu = int(t[u])
        if tu <= 0:
            s_sets[u] = []
            continue
        z_u = set(tr.z_agents(u, tu))
        members = []
        for v in tr.graph.neighbors(u).tolist():
            if 0 <= t[v] < tu:
                z_v = tr.z_agents(v, tu - 1)
                if z_v and not z_u.isdisjoint(z_v):
                    members.append(v)
        if not members:
            raise TranscriptCorruptError(
                f"vertex {u} informed at round {tu} has no informing neighbor")
        s_sets[u] = members
    return s_sets


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
    by_round: dict = {}
    for u in range(n):
        by_round.setdefault(int(t[u]), []).append(u)
    c = np.zeros((T + 1, n), dtype=np.int64)
    for step in range(1, T + 1):
        zprev = np.zeros(n, dtype=np.int64)
        for u, agents in tr.visits[step - 1].items():
            zprev[u] = len(agents)
        grown = t < step  # informed before this round (t >= 0 always here)
        c[step][grown] = c[step - 1][grown] + zprev[grown]
        for u in by_round.get(step, ()):
            c[step][u] = min(c[step][v] for v in tr.s_sets[u])
    return c


def verify_tau_leq_c(tr: CouplingTranscript):
    """Check that every vertex's push informing round is bounded by its
    C-counter at its walk informing round.  Returns (ok, first_violation).
    """
    if not tr.complete:
        raise InvalidParameterError("both processes must have finished")
    if tr.c_table is None:
        tr.c_table = compute_c_counters(tr)
    for u in range(tr.graph.n):
        tu = int(tr.t_visit[u])
        bound = int(tr.c_table[tu][u])
        if int(tr.tau_push[u]) > bound:
            return False, (u, int(tr.tau_push[u]), bound)
    return True, None


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
    c, tv = tr.c_table, tr.t_visit
    chain = [u]
    while int(tv[chain[0]]) > 0:
        w = chain[0]
        members = tr.s_sets[w]
        if not members:
            raise TranscriptCorruptError(f"empty S-set at vertex {w}")
        best = min(members, key=lambda v: (int(c[int(tv[w])][v]), v))
        chain.insert(0, best)
    if chain[0] != tr.source:
        raise TranscriptCorruptError("chain did not terminate at the source")

    verts = [tr.source]
    follows: list = []
    for j in range(1, len(chain)):
        prev_v, cur_v = chain[j - 1], chain[j]
        hop = int(tv[cur_v])
        stays = hop - int(tv[prev_v]) - 1
        verts.extend([prev_v] * stays)
        follows.extend([None] * stays)
        shared = set(tr.z_agents(prev_v, hop - 1)) & set(tr.z_agents(cur_v, hop))
        if not shared:
            raise TranscriptCorruptError(
                f"no agent moved {prev_v} -> {cur_v} at round {hop}")
        verts.append(cur_v)
        follows.append(min(shared))
    tail = t - int(tv[chain[-1]])
    verts.extend([chain[-1]] * tail)
    follows.extend([None] * tail)

    congestion = sum(tr.z_count(verts[r], r) for r in range(t))
    expected = int(c[t][u])
    if congestion != expected:
        raise TranscriptCorruptError(
            f"chain walk congestion {congestion} != C[{t}][{u}] = {expected}")
    return CanonicalWalk(verts, follows, congestion)


def max_congestion_dp(tr: CouplingTranscript, k: int) -> np.ndarray:
    """Maximum congestion over all canonical walks, per end vertex and
    length.  Entry [t][v] is -1 when no canonical walk of length t ends at v.
    """
    if k < 0 or k > tr.visitx_rounds:
        raise InvalidParameterError(
            f"need 0 <= k <= recorded rounds {tr.visitx_rounds}, got {k}")
    n = tr.graph.n
    dp = np.full((k + 1, n), -1, dtype=np.int64)
    dp[0][tr.source] = 0
    for step in range(1, k + 1):
        zprev = np.zeros(n, dtype=np.int64)
        for u, agents in tr.visits[step - 1].items():
            zprev[u] = len(agents)
        prev = dp[step - 1]
        score = np.where(prev >= 0, prev + zprev, -1)
        cur = dp[step]
        cur[:] = score  # staying put
        pos_now: dict = {}
        for v, agents in tr.visits[step].items():
            for g in agents:
                pos_now[g] = v
        for u, agents in tr.visits[step - 1].items():
            s = int(score[u])
            if s < 0:
                continue
            for g in agents:
                v = pos_now.get(g)
                if v is not None and s > cur[v]:
                    cur[v] = s
    return dp


# -- serialization ----------------------------------------------------------------

TRANSCRIPT_FORMAT = "rumorwalks-transcript-v1"


def transcript_to_json(tr: CouplingTranscript) -> dict:
    obj = {
        "format": TRANSCRIPT_FORMAT,
        "mode": tr.mode,
        "seed": tr.seed,
        "source": tr.source,
        "agent_count": tr.agent_count,
        "placement": tr.placement,
        "round_cap": tr.round_cap,
        "min_rounds": tr.min_rounds,
        "graph": {
            "n": tr.graph.n,
            "family": tr.graph.family_tag,
            "edges": tr.graph.edges().tolist(),
        },
        "visitx": {
            "rounds": tr.visitx_rounds,
            "complete": tr.visitx_complete,
            "t": tr.t_visit.tolist(),
            "agent_informed_at": tr.agent_informed_at.tolist(),
        },
        "push": {
            "rounds": tr.push_rounds,
            "complete": tr.push_complete,
            "tau": tr.tau_push.tolist(),
        },
        "visits": [sorted((u, list(agents)) for u, agents in round_map.items())
                   for round_map in tr.visits],
        "choices": sorted((u, list(ws)) for u, ws in tr.choices.items()),
        "walk_consumed": sorted(tr.walk_consumed.items()),
        "additions": [list(a) for a in tr.additions],
        "floor": tr.floor,
    }
    if tr.s_sets is not None:
        obj["s_sets"] = sorted((u, list(vs)) for u, vs in tr.s_sets.items())
    if tr.c_table is not None:
        obj["c_table"] = tr.c_table.tolist()
    return obj


def transcript_from_json(obj: dict) -> CouplingTranscript:
    try:
        if obj.get("format") != TRANSCRIPT_FORMAT:
            raise TranscriptCorruptError(
                f"unknown transcript format {obj.get('format')!r}")
        graph = Graph.from_edges(obj["graph"]["n"], obj["graph"]["edges"],
                                 obj["graph"].get("family"))
        tr = CouplingTranscript(
            graph=graph,
            source=int(obj["source"]),
            mode=obj["mode"],
            seed=int(obj["seed"]),
            agent_count=int(obj["agent_count"]),
            placement=obj["placement"],
            round_cap=int(obj["round_cap"]),
            min_rounds=int(obj["min_rounds"]),
            visitx_rounds=int(obj["visitx"]["rounds"]),
            visitx_complete=bool(obj["visitx"]["complete"]),
            push_rounds=int(obj["push"]["rounds"]),
            push_complete=bool(obj["push"]["complete"]),
            t_visit=np.asarray(obj["visitx"]["t"], dtype=np.int64),
            tau_push=np.asarray(obj["push"]["tau"], dtype=np.int64),
            agent_informed_at=np.asarray(obj["visitx"]["agent_informed_at"],
                                         dtype=np.int64),
            visits=[{int(u): [int(g) for g in agents] for u, agents in rnd}
                    for rnd in obj["visits"]],
            choices={int(u): [int(w) for w in ws] for u, ws in obj["choices"]},
            walk_consumed={int(u): int(cnt)
                           for u, cnt in obj["walk_consumed"]},
            additions=[tuple(a) for a in obj.get("additions", [])],
            floor=obj.get("floor"),
        )
        if "s_sets" in obj:
            tr.s_sets = {int(u): [int(v) for v in vs] for u, vs in obj["s_sets"]}
        if "c_table" in obj:
            tr.c_table = np.asarray(obj["c_table"], dtype=np.int64)
        return tr
    except (KeyError, TypeError, ValueError) as exc:
        raise TranscriptCorruptError(f"malformed transcript: {exc}") from exc


def transcript_dumps(tr: CouplingTranscript) -> str:
    return json.dumps(transcript_to_json(tr), indent=None, separators=(",", ":"))


# -- offline verification -----------------------------------------------------------

def _active_agents(tr: CouplingTranscript, t: int) -> list:
    ids = list(range(tr.agent_count))
    ids += [g for (rnd, _u, g) in tr.additions if rnd <= t]
    return sorted(ids)


def _resimulate_informing(tr: CouplingTranscript):
    """Re-derive vertex/agent informing rounds from positions alone."""
    n = tr.graph.n
    t_hat = np.full(n, -1, dtype=np.int64)
    t_hat[tr.source] = 0
    a_hat: dict = {}
    for g in tr.z_agents(tr.source, 0):
        a_hat[g] = 0
    for rnd in range(1, len(tr.visits)):
        for u, agents in tr.visits[rnd].items():
            if t_hat[u] == -1 and any(0 <= a_hat.get(g, -1) < rnd for g in agents):
                t_hat[u] = rnd
        for u, agents in tr.visits[rnd].items():
            if t_hat[u] != -1:
                for g in agents:
                    if g not in a_hat:
                        a_hat[g] = rnd
    return t_hat, a_hat


def _replay_push(tr: CouplingTranscript):
    """Re-run the push replay from the recorded oracle choices."""
    def recorded(u: int, i: int) -> int:
        got = tr.choices.get(u, [])
        if i > len(got):
            raise TranscriptCorruptError(
                f"push replay needs choice {i} of vertex {u}, "
                f"only {len(got)} recorded")
        w = got[i - 1]
        if w not in tr.graph.neighbors(u):
            raise TranscriptCorruptError(
                f"recorded choice {w} is not a neighbor of {u}")
        return w

    tau_hat, _, complete = _push_replay(tr.graph.n, tr.source, recorded,
                                        tr.push_rounds)
    return tau_hat, complete


def _check_oracle_consistency(tr: CouplingTranscript):
    """The i-th informed departure from u must equal recorded choice w_u(i)."""
    consumed: dict = {}
    for rnd in range(1, len(tr.visits)):
        if tr.mode == "odd" and rnd % 2 == 0:
            continue
        pos_now: dict = {}
        for v, agents in tr.visits[rnd].items():
            for g in agents:
                pos_now[g] = v
        for u, agents in sorted(tr.visits[rnd - 1].items()):
            if not (0 <= tr.t_visit[u] <= rnd - 1):
                continue
            for g in agents:
                dest = pos_now.get(g)
                if dest is None:
                    continue  # agent added later; cannot happen for departures
                i = consumed.get(u, 0) + 1
                consumed[u] = i
                got = tr.choices.get(u, [])
                if i > len(got) or got[i - 1] != dest:
                    raise TranscriptCorruptError(
                        f"departure {i} from vertex {u} went to {dest}, "
                        f"oracle recorded "
                        f"{got[i - 1] if i <= len(got) else 'nothing'}")
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
        if len(tr.visits) != tr.visitx_rounds + 1:
            raise TranscriptCorruptError(
                f"{len(tr.visits)} rounds of visits recorded, "
                f"expected {tr.visitx_rounds + 1}")
        for rnd, round_map in enumerate(tr.visits):
            seen = sorted(g for agents in round_map.values() for g in agents)
            if seen != _active_agents(tr, rnd):
                raise TranscriptCorruptError(
                    f"round {rnd} does not partition the agent population")

    def informing():
        t_hat, a_hat = _resimulate_informing(tr)
        if not np.array_equal(t_hat, tr.t_visit):
            u = int(np.nonzero(t_hat != tr.t_visit)[0][0])
            raise TranscriptCorruptError(
                f"vertex {u}: recorded informing round {tr.t_visit[u]}, "
                f"re-simulation gives {t_hat[u]}")
        for g, r in enumerate(tr.agent_informed_at.tolist()):
            if a_hat.get(g, -1) != r:
                raise TranscriptCorruptError(
                    f"agent {g}: recorded informing round {r}, "
                    f"re-simulation gives {a_hat.get(g, -1)}")

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

        def chain_walks():
            for u in range(tr.graph.n):
                for step in range(int(tr.t_visit[u]), tr.visitx_rounds + 1):
                    reconstruct_min_chain_walk(tr, u, step)

        run_check("counter-bound", counter_bound)
        run_check("chain-walks", chain_walks)

    return VerifyReport(ok=not violations, incomplete=incomplete,
                        checks=checks, violations=violations)
