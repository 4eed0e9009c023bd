"""Optimal one-direction embedding of cycle requests onto a substrate ring.

Per feasible anchor node and direction, the embeddings are the cycles through
the anchor of a layered digraph: one layer of feasible hosts per virtual
node, arcs along bandwidth-feasible ring segments, weight = bandwidth. The
digraph stays implicit: `feasible_sets` reads the residuals once per request
into host and bad-SL masks in ring order, and a backward sweep per layer then
a forward read find the minimum weight cycle in O(n·m) for n virtual nodes on
an m-node ring. `wdags` is the one enumeration of the digraphs, built lazily,
and `Wdag.to_json` the one explicit view, for `--dump-wdag` and inspection.
Ties go to the lexicographically smallest host sequence, then to the first
strictly cheapest over anchors in sorted order and directions, "+" before
"-". `c2ce` stops at the cost floor and at once when an SL cannot carry
min d; the dump takes its own full scan beside the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import inf

from .baseline import generic_batch
from .knapsack import _ratio_key
from .model import (
    Embedding,
    EmbeddingBatch,
    ModelError,
    Shape,
    commit,
    edge_key,
)

CLOCKWISE = "+"
ANTICLOCKWISE = "-"
DIRECTIONS = (CLOCKWISE, ANTICLOCKWISE)


class CycleView:
    """Cyclic ordering of a substrate network that is a simple ring.

    The canonical orientation starts at the minimum node id and proceeds
    toward its smaller neighbor; "+" follows that stored order, "-" reverses
    it. Both directions are explored by the solver, so the canonical choice
    never affects results.
    """

    def __init__(self, net):
        if len(net.nodes) < 3 or len(net.edges) != len(net.nodes):
            raise ModelError("substrate is not a cycle")
        for v in net.nodes:
            if net.degree(v) != 2:
                raise ModelError(f"substrate is not a cycle: degree {net.degree(v)} at {v!r}")
        self.net = net
        start = min(net.nodes)
        order = [start, min(net.neighbors(start))]
        while len(order) < len(net.nodes):
            prev, cur = order[-2], order[-1]
            a, b = net.neighbors(cur)
            order.append(b if a == prev else a)
        self.order = order
        self.index = {v: i for i, v in enumerate(order)}
        self.m = len(order)
        self.links = list(map(edge_key, order, order[1:] + order[:1]))  # link i joins indices i, i+1


def feasible_sets(cycle, req):
    """Per-VN host masks over clockwise node indices and per-VL bad-SL masks
    over clockwise edge indices (edge i joins indices i and i+1), read from the
    residuals once in ring order: one per distinct demand, shared, read only."""
    net = cycle.net
    cpu = list(map(net.residual_cpu.__getitem__, cycle.order))
    bw = list(map(net.residual_bw.__getitem__, cycle.links))
    hosts = {d: [c >= d for c in cpu] for d in set(req.cpu_demand.values())}
    bad = {d: [b < d for b in bw] for d in set(req.bw_demand.values())}
    return [hosts[req.cpu_demand[vn]] for vn in req.vns], [bad[req.bw_demand[vl]] for vl in req.vls]


@dataclass
class Wdag:
    """Layered weighted digraph for one (anchor SN, direction) pair, held
    implicitly as a snapshot of the residual feasibility.

    Positions 0..m run along the ring from the anchor in the direction of
    travel; `order[p]` is the SN there, position m being the anchor again.
    Layer j has a vertex at each position p with `hosts[j][p]`; layers 0 and
    n are the anchor at positions 0 and m. `bad[j][p]` marks the SL into
    position p as unable to carry VL j. A reachable layer-j vertex at t has
    an arc to each layer-(j+1) vertex at p > t with no bad SL in between,
    weighing (p - t) * `demands[j]`. `to_json` is the one explicit view.
    """

    start: object
    direction: str
    m: int
    n: int
    order: list
    hosts: list
    bad: list
    demands: list

    def arc_count(self):
        """Arcs plus closing arcs, counted by one sweep per layer: a head
        has one arc per reached tail behind it since the last bad SL."""
        tails = self.hosts[0]
        total = 0
        for j in range(self.n):
            reached = [False] * (self.m + 1)
            run = 0
            for p, bad, head, tail in zip(range(self.m + 1), self.bad[j], self.hosts[j + 1], tails):
                if bad:
                    run = 0
                if head and run:
                    total += run
                    reached[p] = True
                if tail:
                    run += 1
            tails = reached
        return total

    def to_json(self):
        """`layers` (hosts of layers 0..n-1), `arcs` into layers 1..n-1 and
        `closing` arcs back to the anchor, each with `weight` and `hops`, out
        of the tails reached from the anchor only. Tails go by layer, then by
        repr of their SN; heads by SN."""
        order = self.order
        arcs, closing = [], []
        frontier = [0]
        for j, demand in enumerate(self.demands):
            heads = sorted((v, p) for p, (v, ok) in enumerate(zip(order, self.hosts[j + 1])) if ok)
            blocked = list(accumulate(self.bad[j]))
            reached = set()
            for t in sorted(frontier, key=lambda t: repr(order[t])):
                for v, p in heads:
                    if p > t and blocked[p] == blocked[t]:
                        last = j == self.n - 1
                        (closing if last else arcs).append(
                            {"tail": [j, order[t]], "head": [0 if last else j + 1, v],
                             "weight": str((p - t) * demand), "hops": p - t})
                        reached.add(p)
            frontier = reached
        return {
            "start": self.start,
            "direction": self.direction,
            "layers": [[self.start]] + [sorted(v for v, ok in zip(order, mask) if ok)
                                        for mask in self.hosts[1:-1]],
            "arcs": arcs,
            "closing": closing,
        }


def _anchored(seq, s, direction):
    """`seq` (by clockwise index) re-indexed by position from index `s`."""
    if direction == CLOCKWISE:
        return seq[s:] + seq[:s]
    return seq[s::-1] + seq[:s:-1]


def build_wdag(cycle, req, start, direction, masks=None):
    """The layered digraph for `req` anchored at `start`, as a Wdag snapshot
    of the residual feasibility in ring order from the anchor. O(n·m): the
    arcs stay implicit. `masks`, the `feasible_sets` of `req`, lets a caller
    that builds many graphs for one request compute them once.
    """
    if req.shape is not Shape.CYCLE:
        raise ModelError("request is not a cycle")
    hosts, bad = masks or feasible_sets(cycle, req)
    s = cycle.index.get(start)
    if s is None or not hosts[0][s]:
        raise ModelError(f"start {start!r} is not feasible for the first VN")
    m = cycle.m
    # the SL into position p is clockwise edge s+p-1 going "+", s-p going "-"
    e = s if direction == CLOCKWISE else (s - 1) % m
    anchor = [True] + [False] * m
    return Wdag(
        start=start, direction=direction, m=m, n=req.n_vns,
        order=_anchored(cycle.order, s, direction) + [start],
        hosts=[anchor] + [_anchored(h, s, direction) + [False] for h in hosts[1:]] + [anchor[::-1]],
        bad=[[False] + _anchored(b, e, direction) for b in bad],
        demands=[req.bw_demand[vl] for vl in req.vls],
    )


def wdags(cycle, req):
    """The digraph of every feasible first-VN anchor, in sorted order, crossed
    with DIRECTIONS, built one at a time as the caller asks for it, so a
    caller that stops early builds no more. `feasible_sets` runs once, at the
    first graph asked for."""
    masks = feasible_sets(cycle, req)
    for start in sorted(v for v, ok in zip(cycle.order, masks[0][0]) if ok):
        for direction in DIRECTIONS:
            yield build_wdag(cycle, req, start, direction, masks=masks)


def min_weight_cycle(w):
    """Minimum weight cycle through the anchor, as (host list, weight), or
    None; ties go to the lexicographically smallest host list.

    rest[t] is the cheapest way back to the anchor from a tail at position t:
    the least rest[p] + (p − t)·d of the next layer over heads p > t with no
    bad SL in between, for demand d. One backward sweep per layer, last
    layer first and right to left, keeps it as a running minimum that takes
    in each head, grows by d per step and resets at each bad SL. The forward
    read spends d per step from the anchor and takes at each layer the
    smallest host id whose arc keeps the optimum.
    """
    m, order = w.m, w.order
    rests = [[inf] * m + [0]]  # layer n: the anchor at position m
    for j in reversed(range(w.n)):
        demand, ahead, tails, bad = w.demands[j], rests[-1], w.hosts[j], w.bad[j]
        rest = [inf] * (m + 1)
        best = inf
        for t in range(m, -1, -1):
            if tails[t]:
                rest[t] = best
            if ahead[t] < best:
                best = ahead[t]
            best = inf if bad[t] else best + demand
        if min(rest) == inf:
            return None
        rests.append(rest)
    rests.reverse()
    t, hosts = 0, [order[0]]
    for j in range(w.n - 1):
        need, ahead, pick = rests[j][t], rests[j + 1], None
        bad, demand = w.bad[j], w.demands[j]
        for p in range(t + 1, m + 1):
            if bad[p]:
                break
            need -= demand
            if ahead[p] == need and (pick is None or order[p] < order[pick]):
                pick = p
        t = pick
        hosts.append(order[t])
    return hosts, rests[0][0]


@dataclass
class SimplexEmbedding:
    """A one-direction ring embedding: ordered host assignment, per-VL SL
    segments that wrap the ring exactly once, and the total BW cost."""

    start: object
    direction: str
    assignment: list   # host SN per VN, in request order
    segments: list     # list of SL-key lists, one per VL in request order
    hops: list
    cost: object

    def to_embedding(self, req):
        node_map = {vn: sn for vn, sn in zip(req.vns, self.assignment)}
        link_map = {vl: list(seg) for vl, seg in zip(req.vls, self.segments)}
        return Embedding(req_id=req.req_id, node_map=node_map, link_map=link_map)


def _simplex_from_hosts(cycle, req, start, direction, hosts):
    """The SimplexEmbedding of `hosts`, a cycle found anchored at `start` going
    `direction`. Needs hosts[0] == start and ring positions strictly rising
    from there: each segment is the slice of the ring's links, read from
    `start`, between two consecutive hosts, the last back to m."""
    s, m = cycle.index[start], cycle.m
    # links[j] joins positions j and j+1: clockwise link s+j going "+", s-1-j going "-"
    links = _anchored(cycle.links, s if direction == CLOCKWISE else (s - 1) % m, direction)
    sign = 1 if direction == CLOCKWISE else -1
    pos = [sign * (cycle.index[v] - s) % m for v in hosts] + [m]
    hops = [b - a for a, b in zip(pos, pos[1:])]
    cost = sum(h * req.bw_demand[vl] for h, vl in zip(hops, req.vls))
    return SimplexEmbedding(start=start, direction=direction, assignment=list(hosts),
                            segments=[links[a:b] for a, b in zip(pos, pos[1:])], hops=hops, cost=cost)


def c2ce(net, req, cycle=None):
    """Least-BW-cost one-direction embedding of a cycle request on a ring.

    Scans `wdags` (every feasible anchor for the first VN crossed with both
    directions), takes the minimum weight directed cycle of each layered
    digraph, and keeps the strictly cheapest. Returns a SimplexEmbedding or
    None when no feasible one-direction embedding exists. An embedding
    crosses every SL once with h_j >= 1 hops summing to m: it needs min d
    residual BW on each SL (else None at once), and none costs less than
    floor = Σ d_j + (m − n)·min d, so the scan stops there. `cycle` is the
    caller's `CycleView` of `net`; when None it is built here.
    """
    if cycle is None:
        cycle = CycleView(net)
    if req.shape is not Shape.CYCLE:
        raise ModelError("request is not a cycle")
    least = min(req.bw_demand.values())
    if min(net.residual_bw.values()) < least:
        return None
    floor = sum(req.bw_demand.values()) + (cycle.m - req.n_vns) * least
    best = None
    for w in wdags(cycle, req):
        found = min_weight_cycle(w)
        if found is None:
            continue
        hosts, cost = found
        if best is None or cost < best.cost:
            best = _simplex_from_hosts(cycle, req, w.start, w.direction, hosts)
            if cost == floor:
                return best
    return best


def greedy_revenue(net, requests, fallback=False, trace=None):
    """Embed cycle requests in descending revenue-to-demand ratio, on the
    knapsack orders' exact int (`_ratio_key`); equal ratios keep input order.

    Each request is tried once with the ring solver and committed on success.
    With `fallback` on, the requests the ring solver cannot place then go, in
    the same order, through one `generic_batch` pass, which ranks the SNs once
    and commits each success. Returns the accepted batch. The ring's
    `CycleView` is built once, before the first request. `trace`, if given,
    gets, before each ring-solver request's solve, the `to_json` of every
    digraph of its full `wdags` scan, so the solve itself runs the same
    whether traced or not. `requests` may be any iterable; it is read once.
    """
    requests = list(requests)
    for req in requests:
        if req.shape is not Shape.CYCLE:
            raise ModelError(f"request {req.req_id!r} is not a cycle")
    revenues = [r.revenue for r in requests]
    sizes = [r.total_cpu_demand + r.total_bw_demand for r in requests]
    keys = list(map(_ratio_key(revenues, sizes), revenues, sizes))
    ranked = [requests[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
    batch = EmbeddingBatch()
    leftovers = []
    cycle = CycleView(net) if ranked else None
    for req in ranked:
        if trace is not None:
            trace.extend(w.to_json() for w in wdags(cycle, req))
        simplex = c2ce(net, req, cycle=cycle)
        if simplex is None:
            leftovers.append(req)
            continue
        emb = simplex.to_embedding(req)
        commit(net, req, emb)
        batch.add(req, emb)
    if fallback:
        batch.items += generic_batch(net, leftovers).items
    return batch
