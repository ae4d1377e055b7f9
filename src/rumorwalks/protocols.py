"""Round-synchronous broadcast protocols on connected graphs.

Four processes share the same round structure (round 0 is initial state,
rounds 1, 2, ... are synchronous updates):

* push: every vertex informed in an earlier round samples one uniform
  neighbor; sampled vertices become informed.
* push-pull: every vertex samples one uniform neighbor each round; when
  exactly one endpoint of a contact was informed before the round, the other
  endpoint becomes informed.
* visit-exchange: agents perform independent random walks; an agent informed
  in an earlier round informs the vertex it lands on, and any agent standing
  on an informed vertex becomes informed the same round.  Completion: all
  vertices informed.
* meet-exchange: agents walk as above but only agents carry information.
  Agents starting on the source are informed at round 0; otherwise the first
  round in which agents visit the source informs exactly those agents, and
  the source is permanently disarmed afterwards.  Co-located agents exchange:
  an agent informed in an earlier round informs every agent sharing its
  vertex.  No information chains within a round.  Completion: all agents
  informed.

Walks are simple by default; lazy walks stay put with probability 1/2 and
are needed on bipartite graphs where meet-exchange would otherwise deadlock
on walk parity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, _integer
from .graphs import Graph, _distinct
from .rng import SimRng, place_stationary

__all__ = [
    "AgentConfig",
    "ProtocolTrace",
    "BroadcastResult",
    "SharedWalkResult",
    "default_round_cap",
    "place_agents",
    "run_push",
    "run_push_pull",
    "run_visit_exchange",
    "run_meet_exchange",
    "run_t_visit_exchange",
    "run_r_visit_exchange",
    "run_shared_visit_meet",
    "trace_events",
]

PLACEMENTS = ("stationary", "one-per-vertex")


@dataclass(frozen=True)
class AgentConfig:
    """Walker population: how many agents, where they start, lazy or not."""
    count: int
    placement: str = "stationary"
    lazy: bool = False

    def __post_init__(self):
        object.__setattr__(self, "count", _integer(self.count, "agent count"))
        if not 0 <= self.count < 2 ** 63:
            raise InvalidParameterError(
                f"agent count must be in [0, 2**63), got {self.count}")
        if self.placement not in PLACEMENTS:
            raise InvalidParameterError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}")


@dataclass
class ProtocolTrace:
    """Informing times and optional per-round retention.

    ``vertex_informed_at`` / ``agent_informed_at`` hold the round each vertex
    or agent became informed, -1 meaning never.  meet-exchange does not
    inform vertices; its vertex array marks only the source at round 0.
    ``source_trigger_round`` is the single round (if any) in which the
    meet-exchange source informed its first visitors.
    """
    rounds: int
    vertex_informed_at: np.ndarray | None = None
    agent_informed_at: np.ndarray | None = None
    positions: list | None = None
    source_trigger_round: int | None = None


@dataclass
class BroadcastResult:
    """Outcome of one protocol run.

    ``broadcast_time`` is None when the run hit its round cap before
    completing.  ``rounds`` counts rounds actually executed.
    """
    broadcast_time: int | None
    completion_kind: str
    rounds: int
    trace: ProtocolTrace | None = None
    removal_log: list = field(default_factory=list)
    addition_log: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.broadcast_time is not None


@dataclass
class SharedWalkResult:
    """visit-exchange and meet-exchange driven by one shared walk realization."""
    visitx: BroadcastResult
    meetx: BroadcastResult
    visitx_agents_round: int | None


def default_round_cap(n: int) -> int:
    """Default hard stop: 64 * n * log2(n) rounds."""
    return max(64, int(64 * n * math.ceil(math.log2(max(n, 2)))))


def _check_run(graph: Graph, source: int, round_cap: int | None,
               min_rounds: int = 0):
    """The checked source, round cap and min_rounds (>= 0) of one run."""
    source = _integer(source, "source")
    if not (0 <= source < graph.n):
        raise InvalidParameterError(
            f"source {source} out of range for n={graph.n}")
    cap = (default_round_cap(graph.n) if round_cap is None
           else _integer(round_cap, "round_cap"))
    if cap < 1:
        raise InvalidParameterError(f"round_cap must be >= 1, got {cap}")
    if (min_rounds := _integer(min_rounds, "min_rounds")) < 0:
        raise InvalidParameterError(
            f"min_rounds must be >= 0, got {min_rounds}")
    return source, cap, min_rounds


def place_agents(graph: Graph, config: AgentConfig, rng: SimRng) -> np.ndarray:
    """Initial agent positions.

    stationary: i.i.d. with probability degree(v)/(2m).
    one-per-vertex: agent i starts on vertex i (count must equal n).
    """
    if config.placement == "one-per-vertex":
        if config.count != graph.n:
            raise InvalidParameterError(
                f"one-per-vertex placement needs count == n "
                f"({config.count} != {graph.n})")
        return np.arange(graph.n, dtype=np.int64)
    return place_stationary(graph, rng.stream("placement"), config.count)


def _draw_neighbors(graph: Graph, gen, starts: np.ndarray,
                    degs: np.ndarray | None) -> np.ndarray:
    """One uniform neighbor of each row: ``graph.indices[starts +
    integers(0, degs)]``, drawn by ``gen``, the stream's
    :class:`~rumorwalks.rng.Draws` reader, exactly as numpy draws it.

    ``starts`` are row starts in ``graph.indptr`` and ``degs`` the rows'
    degrees, which may be None on a regular graph.  numpy draws a bounded
    integer by Lemire's method, which consumes nothing for a range of zero,
    so degree-1 rows take their lone neighbor and draw nothing.  Rows that
    share one degree d draw ``gen.bounded(d, k)``; rows of several degrees
    draw ``gen.integers(degs, top)``, ``top`` being the largest degree.
    """
    indices = graph.indices
    values = graph.distinct_degrees  # the degrees a drawing row can have
    k = starts.shape[0]
    drawing = None  # every row draws
    if values[0] == 1:
        if values.shape[0] == 1:
            return indices[starts]
        values = values[1:]
        multi = np.flatnonzero(degs > 1)
        if multi.shape[0] == 0:
            return indices[starts]
        if multi.shape[0] < k:
            drawing, k, degs = multi, multi.shape[0], degs[multi]
    draws = (gen.bounded(int(values[0]), k)[0] if values.shape[0] == 1
             else gen.integers(degs, values[-1]))
    if drawing is None:
        return indices[starts + draws]
    at = starts.copy()
    at[drawing] += draws
    return indices[at]


def _move(graph: Graph, pos: np.ndarray, walk_gen, lazy: bool, lazy_gen) -> np.ndarray:
    """Advance every walker one synchronous step."""
    if pos.size == 0 or graph.n == 1:
        return pos
    if graph.is_regular:  # row u starts at u * d
        new = _draw_neighbors(graph, walk_gen, pos * graph.degrees[0], None)
    else:
        new = _draw_neighbors(graph, walk_gen, graph.indptr[pos],
                              graph.degrees[pos])
    if lazy:
        # random() < 0.5 exactly when its raw word's top bit is clear
        stay = lazy_gen.bit_generator.random_raw(pos.shape[0]) < 2 ** 63
        new = np.where(stay, pos, new)
    return new


# -- vertex-only protocols ----------------------------------------------------

def run_push(graph: Graph, source: int, rng: SimRng,
             round_cap: int | None = None) -> BroadcastResult:
    """Push rumor spreading from ``source``.

    A vertex informed at round t starts sampling at round t + 1.  Rounds
    that add no sampling vertex, while the sampling vertices share one
    degree (a star), run in blocks that :meth:`~rumorwalks.rng.Draws.bounded`
    reads ahead and leaves where rounds run one by one would.
    """
    source, cap, _ = _check_run(graph, source, round_cap)
    n = graph.n
    gen = rng.draws("push")
    indptr, degrees = graph.indptr, graph.degrees
    informed_at = np.full(n, -1, dtype=np.int64)
    informed_at[source] = 0
    # the row starts and degrees of the informed vertices of degree > 1, in
    # informed order; a degree-1 vertex draws nothing, and its push informs
    # nothing unless it is the source (its lone neighbor informed it)
    starts, degs = indptr[[source]], degrees[[source]]
    forced = starts[:0]
    if degs[0] == 1:
        starts, degs, forced = forced, forced, graph.indices[starts]
    leafy = graph.distinct_degrees[0] == 1
    count, t = 1, 0
    # calm counts rounds in a row that added no drawing row; from 4 on, a
    # block takes that many rounds again (so blocks double), at most 2**16
    # draws, kept up to the first round that adds a row or informs the last
    calm = 0
    while count < n and t < cap:
        k = starts.shape[0]
        rounds = min(calm, 2 ** 16 // k, cap - t) if calm >= 4 else 0
        if rounds > 1 and (degs == degs[0]).all():
            draws, leave = gen.bounded(int(degs[0]), rounds * k)
            targets = graph.indices[np.tile(starts, rounds) + draws]
            new = np.flatnonzero(informed_at[targets] == -1)
            fresh, first = np.unique(targets[new], return_index=True)
            when = new[first] // k  # the block round informing each
            last = int(when[degrees[fresh] > 1].min(initial=rounds - 1))
            if count + fresh.size >= n:
                last = min(last, int(np.sort(when)[n - count - 1]))
            informed_at[fresh] = np.where(when <= last, t + 1 + when, -1)
            count += int(np.count_nonzero(when <= last))
            leave((last + 1) * k)
            t, calm = t + last + 1, calm + last
            fresh = fresh[when == last]
        else:
            t += 1
            targets = _draw_neighbors(graph, gen, starts, degs)
            if forced.size:
                targets, forced = np.concatenate([targets, forced]), forced[:0]
            fresh = targets[informed_at[targets] == -1]
            if fresh.size > 1:
                fresh = _distinct(fresh)
            informed_at[fresh] = t
            count += fresh.size
        if leafy:
            fresh = fresh[degrees[fresh] > 1]
        if fresh.size:
            starts = np.concatenate([starts, indptr[fresh]])
            degs = np.concatenate([degs, degrees[fresh]])
        calm = 0 if fresh.size else calm + 1
    done = count == n
    trace = ProtocolTrace(rounds=t, vertex_informed_at=informed_at)
    return BroadcastResult(int(informed_at.max()) if done else None,
                           "all-vertices", t, trace)


def run_push_pull(graph: Graph, source: int, rng: SimRng,
                  round_cap: int | None = None) -> BroadcastResult:
    """Push-pull rumor spreading: all vertices sample every round; a contact
    transfers the rumor when exactly one endpoint was informed before the
    round (no within-round chaining).
    """
    source, cap, _ = _check_run(graph, source, round_cap)
    n = graph.n
    gen = rng.draws("pushpull")
    starts = graph.indptr[:-1]
    informed_at = np.full(n, -1, dtype=np.int64)
    informed_at[source] = 0
    count, t = 1, 0
    while count < n and t < cap:
        t += 1
        targets = _draw_neighbors(graph, gen, starts, graph.degrees)
        was = informed_at >= 0
        pushed = targets[was]
        pushed = pushed[informed_at[pushed] == -1]
        pulled = np.nonzero(~was & was[targets])[0]
        fresh = _distinct(np.concatenate([pushed, pulled]))
        if fresh.size:
            informed_at[fresh] = t
            count += fresh.size
    done = count == n
    trace = ProtocolTrace(rounds=t, vertex_informed_at=informed_at)
    return BroadcastResult(int(informed_at.max()) if done else None,
                           "all-vertices", t, trace)


# -- agent protocols ----------------------------------------------------------
#
# Every agent protocol is the same process: agents doing synchronous random
# walks.  The protocols differ only in who stores the rumor (the informing
# layers _Visit and _Meet) and in how the population is policed between
# rounds (a crowding cap, an occupancy floor, or nothing).

def _start(graph: Graph, source: int, config: AgentConfig, rng: SimRng,
           round_cap: int | None, min_rounds: int = 0):
    """Checked source, round cap and min_rounds, initial positions and the
    free (lazy) walk step ``step(pos, t)`` of one agent run; only a lazy
    run opens the ``lazy`` stream."""
    source, cap, min_rounds = _check_run(graph, source, round_cap, min_rounds)
    pos = place_agents(graph, config, rng)
    walk_gen = rng.draws("walks")
    lazy_gen = rng.stream("lazy") if config.lazy else None

    def step(pos: np.ndarray, _t: int) -> np.ndarray:
        return _move(graph, pos, walk_gen, config.lazy, lazy_gen)

    return source, cap, min_rounds, pos, step


def _walk(pos: np.ndarray, step, layers: list, cap: int, min_rounds: int = 0,
          after=None) -> int:
    """The round loop of every agent run; returns the rounds run.

    Runs until every informing layer is done and ``min_rounds`` rounds have
    run, or until ``cap`` rounds have run.  Round t moves the agents with
    ``step(pos, t)``, updates each layer, then applies the population
    policy ``after(t, pos)``, which returns the (possibly grown) positions.
    """
    t = 0
    first, *rest = layers  # the others are asked only once the first is done
    while (t < min_rounds or not (first.done and all(
            layer.done for layer in rest))) and t < cap:
        t += 1
        pos = step(pos, t)
        for layer in layers:
            layer.update(pos, t)
        if after is not None:
            pos = after(t, pos)
    return t


class _Visit:
    """The informing rule of :func:`run_visit_exchange`; agents masked out
    by ``alive`` neither inform nor get informed.  ``open`` marks the
    vertices and ``waiting`` counts the agents not yet informed; at 0, a
    round without ``alive`` takes every position as a carrier and skips the
    agent pass."""

    def __init__(self, n: int, source: int, pos: np.ndarray,
                 alive: np.ndarray | None = None):
        self.v_inf = np.full(n, -1, dtype=np.int64)
        self.v_inf[source] = 0
        self.open = self.v_inf == -1
        self.a_inf = np.full(pos.shape[0], -1, dtype=np.int64)
        self.a_inf[pos == source] = 0
        self.alive = alive
        self.uninformed = n - 1
        self.waiting = int(np.count_nonzero(self.a_inf == -1))

    @property
    def done(self) -> bool:
        return self.uninformed == 0

    def update(self, pos: np.ndarray, t: int) -> None:
        is_open, a_inf, alive = self.open, self.a_inf, self.alive
        if self.waiting or alive is not None:
            on_open = is_open[pos]
            idle = a_inf == -1  # not informed before this round
            carrying = np.greater(on_open, idle)
            if alive is not None:
                carrying &= alive
            fresh_v = pos[carrying]
        else:
            fresh_v = pos[is_open[pos]]
        if fresh_v.shape[0]:
            fresh_v = _distinct(fresh_v)
            self.v_inf[fresh_v] = t
            is_open[fresh_v] = False
            self.uninformed -= fresh_v.shape[0]
            if self.waiting:
                on_open = is_open[pos]
        if self.waiting:
            newly = np.greater(idle, on_open)
            if alive is not None:
                newly &= alive
            a_inf[newly] = t
            self.waiting -= int(np.count_nonzero(newly))

    def add(self, ws: np.ndarray, t: int) -> None:
        """New agents on the vertices ``ws`` after round t, each informed
        iff its vertex is."""
        informed = self.v_inf[ws] != -1
        self.a_inf = np.concatenate([self.a_inf, np.where(informed, t, -1)])
        self.waiting += int(np.count_nonzero(~informed))

    def result(self, t: int, positions: list | None = None,
               **logs) -> BroadcastResult:
        trace = ProtocolTrace(rounds=t, vertex_informed_at=self.v_inf,
                              agent_informed_at=self.a_inf, positions=positions)
        return BroadcastResult(int(self.v_inf.max()) if self.done else None,
                               "all-vertices", t, trace, **logs)


class _Meet:
    """The informing rule of :func:`run_meet_exchange`: an agent informed
    in an earlier round informs every agent sharing its vertex; the source
    informs only its first visitors."""

    def __init__(self, n: int, source: int, pos: np.ndarray):
        self.n, self.source = n, source
        self.a_inf = np.full(pos.shape[0], -1, dtype=np.int64)
        at_source = pos == source
        self.a_inf[at_source] = 0
        self.trigger = 0 if at_source.any() else None
        self.uninformed = int((self.a_inf == -1).sum())

    @property
    def done(self) -> bool:
        return self.uninformed == 0

    def update(self, pos: np.ndarray, t: int) -> None:
        prev = self.a_inf != -1
        occupied = np.zeros(self.n, dtype=bool)
        occupied[pos[prev]] = True
        if self.trigger is None and (pos == self.source).any():
            occupied[self.source] = True  # the source informs its visitors
            self.trigger = t
        newly = occupied[pos] > prev  # occupied, and not informed before
        count = np.count_nonzero(newly)
        if count:
            self.a_inf[newly] = t
            self.uninformed -= count

    def result(self, t: int, positions: list | None = None) -> BroadcastResult:
        marker = np.full(self.n, -1, dtype=np.int64)
        marker[self.source] = 0
        trace = ProtocolTrace(rounds=t, vertex_informed_at=marker,
                              agent_informed_at=self.a_inf, positions=positions,
                              source_trigger_round=self.trigger)
        bt = int(self.a_inf.max(initial=0)) if self.done else None
        return BroadcastResult(bt, "all-agents", t, trace)


def _recorder(pos: np.ndarray, policy=None):
    """``(positions, after)``: a list of the positions at the end of every
    round so far, from ``pos``, and the population policy ``after(t, pos)``
    that applies ``policy``, if any, and appends its result.  No round
    changes a position array once it is made, so none is copied."""
    positions = [pos]

    def after(t: int, pos: np.ndarray) -> np.ndarray:
        positions.append(pos if policy is None else policy(t, pos))
        return positions[-1]

    return positions, after


def run_visit_exchange(graph: Graph, source: int, config: AgentConfig,
                       rng: SimRng, round_cap: int | None = None,
                       min_rounds: int = 0,
                       record_positions: bool = False) -> BroadcastResult:
    """Visit-exchange broadcast; completes when every vertex is informed.

    Within a round, agent-to-vertex informing only uses agents informed in a
    previous round, while vertex-to-agent informing applies immediately, so
    an agent landing on an informed vertex is informed that same round.
    """
    source, cap, min_rounds, pos, step = _start(graph, source, config, rng,
                                                round_cap, min_rounds)
    visit = _Visit(graph.n, source, pos)
    positions, after = _recorder(pos) if record_positions else (None, None)
    t = _walk(pos, step, [visit], cap, min_rounds, after)
    return visit.result(t, positions)


def run_meet_exchange(graph: Graph, source: int, config: AgentConfig,
                      rng: SimRng, round_cap: int | None = None,
                      record_positions: bool = False) -> BroadcastResult:
    """Meet-exchange broadcast; completes when every agent is informed.

    Two agents meet when they occupy the same vertex at the end of a round.
    The source vertex informs only its first visitors (round 0 occupants, or
    else the first nonempty visiting round) and is disarmed afterwards.
    """
    source, cap, _, pos, step = _start(graph, source, config, rng, round_cap)
    meet = _Meet(graph.n, source, pos)
    positions, after = _recorder(pos) if record_positions else (None, None)
    t = _walk(pos, step, [meet], cap, 0, after)
    return meet.result(t, positions)


# -- tweaked visit-exchange variants -------------------------------------------

def _neighborhood_sums(graph: Graph, occ: np.ndarray) -> np.ndarray:
    """For each u: number of agents standing on neighbors of u."""
    return np.add.reduceat(occ[graph.indices], graph.indptr[:-1])


def _regular_degree(graph: Graph, what: str) -> int:
    if graph.n < 2 or not graph.is_regular:
        raise InvalidParameterError(f"{what} requires a regular graph with n >= 2")
    return int(graph.degrees[0])


def run_t_visit_exchange(graph: Graph, source: int, config: AgentConfig,
                         gamma: float, rng: SimRng,
                         round_cap: int | None = None,
                         min_rounds: int = 0) -> BroadcastResult:
    """Visit-exchange with a neighborhood crowding cap (regular graphs only).

    After every round t >= 0, while some vertex u has more than gamma * d
    agents standing in its neighborhood, the vertex with the largest excess
    (ties: lowest id) loses the highest-indexed agent currently on one of its
    neighbors.  Removals are logged as (round, capped_vertex, agent).
    Requires gamma >= 2e * count / n so the cap is not trivially violated in
    expectation.
    """
    d = _regular_degree(graph, "t-visit-exchange")
    n = graph.n
    if not math.isfinite(gamma):
        raise InvalidParameterError(f"gamma must be finite, got {gamma}")
    if gamma < 2 * math.e * config.count / n:
        raise InvalidParameterError(
            f"gamma must be >= 2e*|A|/n = {2 * math.e * config.count / n:.4f}, "
            f"got {gamma}")
    source, cap, min_rounds, pos, step = _start(graph, source, config, rng,
                                                round_cap, min_rounds)
    alive = np.ones(config.count, dtype=bool)
    visit = _Visit(n, source, pos, alive)
    removals: list = []
    limit = gamma * d

    def enforce(t: int, pos: np.ndarray) -> np.ndarray:
        occ = np.bincount(pos[alive], minlength=n)
        nsum = _neighborhood_sums(graph, occ)
        while True:
            u = int(np.argmax(nsum))
            if nsum[u] <= limit:
                return pos
            nbrs = graph.neighbors(u)
            cand = np.nonzero(alive & np.isin(pos, nbrs))[0]
            g = int(cand[-1])  # highest agent index in the neighborhood
            alive[g] = False
            x = int(pos[g])
            occ[x] -= 1
            nsum[graph.neighbors(x)] -= 1
            removals.append((t, u, g))

    enforce(0, pos)
    # removed agents still consume walk randomness so that a run whose
    # cap never binds is draw-for-draw identical to plain visit-exchange
    t = _walk(pos, step, [visit], cap, min_rounds, enforce)
    return visit.result(t, removal_log=removals)


def _floor_level(graph: Graph, count: int, floor: float | None,
                 what: str) -> float:
    """The occupancy floor, by default count * d / (2n) (regular graphs)."""
    d = _regular_degree(graph, what)
    if floor is None:
        return count * d / (2 * graph.n)
    if not math.isfinite(floor):
        raise InvalidParameterError(f"floor must be finite, got {floor}")
    return floor


def _occupancy_floor(graph: Graph, floor: float, visit: _Visit,
                     additions: list):
    """Population policy ``after(t, pos)`` that keeps every neighborhood
    at ``floor`` agents or more.

    After every odd round t, while some vertex u has fewer than ``floor``
    agents standing in its neighborhood, a new agent is spawned on the
    lowest-indexed neighbor of the most deficient vertex (ties: lowest id).
    The new agent adopts the informed state of the vertex it is placed on,
    as of the end of round t.  Additions are logged as
    (round, deficient_vertex, agent); a round's new agents join the
    positions and the visit state at once.
    """
    def replenish(t: int, pos: np.ndarray) -> np.ndarray:
        if t % 2 == 0:
            return pos
        nsum = _neighborhood_sums(graph, np.bincount(pos, minlength=graph.n))
        added: list = []
        while True:
            deficit = floor - nsum
            u = int(np.argmax(deficit))
            if deficit[u] <= 0:
                break
            w = int(graph.indices[graph.indptr[u]])  # lowest-indexed neighbor
            additions.append((t, u, pos.shape[0] + len(added)))
            added.append(w)
            nsum[graph.neighbors(w)] += 1
        if not added:
            return pos
        ws = np.array(added, dtype=np.int64)
        visit.add(ws, t)
        return np.concatenate([pos, ws])

    return replenish


def run_r_visit_exchange(graph: Graph, source: int, config: AgentConfig,
                         rng: SimRng, round_cap: int | None = None,
                         floor: float | None = None,
                         min_rounds: int = 0) -> BroadcastResult:
    """Visit-exchange with a neighborhood occupancy floor (regular graphs only).

    After every odd round the population is replenished up to ``floor``
    agents per neighborhood (default floor: count * d / (2n), fixed from the
    initial population); see :func:`_occupancy_floor`.
    """
    floor = _floor_level(graph, config.count, floor, "r-visit-exchange")
    source, cap, min_rounds, pos, step = _start(graph, source, config, rng,
                                                round_cap, min_rounds)
    visit = _Visit(graph.n, source, pos)
    additions: list = []
    t = _walk(pos, step, [visit], cap, min_rounds,
              _occupancy_floor(graph, floor, visit, additions))
    return visit.result(t, addition_log=additions)


# -- natural coupling of visit- and meet-exchange -------------------------------

def run_shared_visit_meet(graph: Graph, source: int, config: AgentConfig,
                          rng: SimRng,
                          round_cap: int | None = None) -> SharedWalkResult:
    """Run visit-exchange and meet-exchange over one shared walk realization.

    Both processes see identical placements and identical trajectories, which
    makes per-trial comparisons sharp: every agent is informed in
    visit-exchange no later than in meet-exchange, so the round when
    visit-exchange has informed all agents never exceeds the meet-exchange
    broadcast time.
    """
    source, cap, _, pos, step = _start(graph, source, config, rng, round_cap)
    visit = _Visit(graph.n, source, pos)
    meet = _Meet(graph.n, source, pos)
    t = _walk(pos, step, [visit, meet], cap)
    agents_round = None
    if (visit.a_inf != -1).all():
        agents_round = int(visit.a_inf.max(initial=0))
    return SharedWalkResult(visit.result(t), meet.result(t), agents_round)


def trace_events(trace: ProtocolTrace) -> list:
    """Informing events as (kind, id, round) triples, sorted by round."""
    events = [(kind, i, r) for kind, at in (("vertex", trace.vertex_informed_at),
                                           ("agent", trace.agent_informed_at))
              if at is not None for i, r in enumerate(at.tolist()) if r >= 0]
    return sorted(events, key=lambda e: (e[2], e[0], e[1]))
