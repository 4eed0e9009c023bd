"""Optimal one-direction embedding of cycle requests onto a substrate ring.

Per feasible anchor node and direction, the embeddings are the cycles through
the anchor of a layered digraph: one layer of feasible hosts per virtual
node, arcs along bandwidth-feasible ring segments, weight = bandwidth. The
digraph stays implicit: one sweep per layer with parent pointers finds the
minimum weight cycle in O(n·m) for n virtual nodes on an m-node ring, and
arcs are built only for `--dump-wdag` and inspection. Ties go to the
lexicographically smallest host sequence, then to the first strictly
cheapest over anchors in sorted order and directions, "+" before "-".
The scan stops at the cost floor and at once when an SL cannot carry min d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

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

    def seq_pos(self, start, direction, node):
        """Position of `node` in the SN sequence anchored at `start` following
        `direction` (start itself has position 0)."""
        delta = self.index[node] - self.index[start]
        if direction == ANTICLOCKWISE:
            delta = -delta
        return delta % self.m

    def segment_edges(self, start_node, hops, direction):
        """The SLs crossed by walking `hops` steps from `start_node`."""
        i = self.index[start_node]
        step = 1 if direction == CLOCKWISE else -1
        edges = []
        for t in range(hops):
            a = self.order[(i + step * t) % self.m]
            b = self.order[(i + step * (t + 1)) % self.m]
            edges.append(edge_key(a, b))
        return edges


@dataclass
class FeasibleSets:
    """Per-VN feasible host SNs and per-VL feasible SLs, from residuals."""

    vn_sets: list   # list of sets of SNs, one per VN in request order
    vl_sets: list   # list of sets of SL keys, one per VL in request order


def feasible_sets(net, req):
    vn_sets = [
        {v for v in net.nodes if net.residual_cpu[v] >= req.cpu_demand[vn]}
        for vn in req.vns
    ]
    vl_sets = [
        {k for k in net.edges if net.residual_bw[k] >= req.bw_demand[vl]}
        for vl in req.vls
    ]
    return FeasibleSets(vn_sets, vl_sets)


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
    weighing (p - t) * `demands[j]`.

    Explicit views for dumps and inspection, built on first access:
    `layers[j]` (hosts of layer j < n), `arcs[(j, sn)]` ((head_sn, weight,
    hops) into layer j+1 < n), `closing[sn]` ((weight, hops) back to the
    anchor) and `complete` (False when no cycle exists).
    """

    start: object
    direction: str
    m: int
    n: int
    order: list
    hosts: list
    bad: list
    demands: list

    @cached_property
    def layers(self):
        return [[self.start]] + [
            sorted(v for v, ok in zip(self.order, mask) if ok) for mask in self.hosts[1:-1]]

    @cached_property
    def _explicit(self):
        arcs, closing = {}, {}
        frontier = [0]
        for j, demand in enumerate(self.demands):
            heads = sorted((v, p) for p, (v, ok) in enumerate(zip(self.order, self.hosts[j + 1])) if ok)
            blocked = list(accumulate(self.bad[j]))
            reached = set()
            for t in frontier:
                outs = [(v, (p - t) * demand, p - t) for v, p in heads
                        if p > t and blocked[p] == blocked[t]]
                if outs and j == self.n - 1:
                    closing[self.order[t]] = outs[0][1:]
                elif outs:
                    arcs[(j, self.order[t])] = outs
                    reached.update(t + hops for _v, _w, hops in outs)
            frontier = reached
        return arcs, closing

    arcs = property(lambda self: self._explicit[0])
    closing = property(lambda self: self._explicit[1])
    complete = property(lambda self: bool(self._explicit[1]))

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

    def max_layer_size(self):
        return max((len(l) for l in self.layers), default=0)

    def to_json(self):
        return {
            "start": self.start,
            "direction": self.direction,
            "layers": [list(l) for l in self.layers],
            "arcs": [
                {"tail": [j, sn], "head": [j + 1, head], "weight": str(w), "hops": h}
                for (j, sn), outs in sorted(self.arcs.items(), key=lambda kv: (kv[0][0], repr(kv[0][1])))
                for head, w, h in outs
            ],
            "closing": [
                {"tail": [self.n - 1, sn], "head": [0, self.start], "weight": str(w), "hops": h}
                for sn, (w, h) in sorted(self.closing.items(), key=lambda kv: repr(kv[0]))
            ],
        }


def _anchored(seq, s, direction):
    """`seq` (by clockwise index) re-indexed by position from index `s`."""
    if direction == CLOCKWISE:
        return seq[s:] + seq[:s]
    return seq[s::-1] + seq[:s:-1]


def _clockwise_masks(cycle, fs):
    """Per-VN host masks over clockwise node indices and per-VL bad-SL masks
    over clockwise edge indices (edge i joins indices i and i+1)."""
    order, m = cycle.order, cycle.m
    edges = [edge_key(order[i], order[(i + 1) % m]) for i in range(m)]
    hosts = [[v in ok for v in order] for ok in fs.vn_sets]
    bad = [[e not in ok for e in edges] for ok in fs.vl_sets]
    return hosts, bad


def build_wdag(cycle, req, start, direction, fs=None, masks=None):
    """The layered digraph for `req` anchored at `start`, as a Wdag snapshot
    of the residual feasibility in ring order from the anchor. O(n·m): the
    arcs stay implicit. `fs` and `masks` let a caller that builds many
    graphs for one request compute them once.
    """
    if req.shape is not Shape.CYCLE:
        raise ModelError("request is not a cycle")
    if fs is None:
        fs = feasible_sets(cycle.net, req)
    if start not in fs.vn_sets[0]:
        raise ModelError(f"start {start!r} is not feasible for the first VN")
    hosts, bad = masks or _clockwise_masks(cycle, fs)
    m = cycle.m
    s = cycle.index[start]
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


def min_weight_cycle(w):
    """Minimum weight directed cycle through the anchor vertex, as (host
    list, weight), or None.

    Arc weight is hops times demand d, so a head at position p is reached
    cheapest at p·d + min(cost[t] − t·d) over reached tails t < p with no
    bad SL in between: one sweep per layer keeps that running minimum,
    resetting it at each bad SL, and parent pointers give back the cycle.
    For the tie rule each layer is ranked by (parent's rank, host id), and
    the running minimum prefers the smaller rank.
    """
    m, order = w.m, w.order
    cost = [0] + [None] * m
    rank = [0] * (m + 1)
    parents = []
    for j in range(w.n):
        demand = w.demands[j]
        nxt = [None] * (m + 1)
        parent = [None] * (m + 1)
        reached = []
        rk = None  # best open tail: cost - position * demand (rk), rank (rr), position (rp)
        for p, bad, head, c in zip(range(m + 1), w.bad[j], w.hosts[j + 1], cost):
            if bad:
                rk = None
            if head and rk is not None:
                nxt[p] = rk + p * demand
                parent[p] = rp
                reached.append((rr, order[p], p))
            if c is not None:
                k = c - p * demand
                if rk is None or k < rk or (k == rk and rank[p] < rr):
                    rk, rr, rp = k, rank[p], p
        if not reached:
            return None
        reached.sort()
        for r, (_pr, _v, p) in enumerate(reached):
            rank[p] = r
        cost = nxt
        parents.append(parent)
    p = m
    hosts = []
    for parent in reversed(parents):
        p = parent[p]
        hosts.append(order[p])
    return hosts[::-1], cost[m]


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
    segments = []
    hops = []
    cost = 0
    for j in range(req.n_vns):
        a = hosts[j]
        b = hosts[(j + 1) % req.n_vns]
        h = (cycle.seq_pos(start, direction, b) - cycle.seq_pos(start, direction, a)) % cycle.m
        if h == 0:
            h = cycle.m
        segments.append(cycle.segment_edges(a, h, direction))
        hops.append(h)
        cost += h * req.bw_demand[req.vls[j]]
    return SimplexEmbedding(start=start, direction=direction, assignment=list(hosts),
                            segments=segments, hops=hops, cost=cost)


def c2ce(net, req, collect=None):
    """Least-BW-cost one-direction embedding of a cycle request on a ring.

    Scans every feasible anchor for the first VN crossed with both
    directions, takes the minimum weight directed cycle of each layered
    digraph, and keeps the strictly cheapest. Returns a SimplexEmbedding or
    None when no feasible one-direction embedding exists. An embedding
    crosses every SL once with h_j >= 1 hops summing to m: it needs min d
    residual BW on each SL (else None at once), and none costs less than
    floor = Σ d_j + (m − n)·min d, so the scan stops there. `collect`, if
    given, receives every digraph (for the dump) and forces the full scan.
    """
    cycle = CycleView(net)
    if req.shape is not Shape.CYCLE:
        raise ModelError("request is not a cycle")
    least = min(req.bw_demand.values())
    if collect is None and any(net.residual_bw[k] < least for k in net.edges):
        return None
    floor = sum(req.bw_demand.values()) + (cycle.m - req.n_vns) * least
    fs = feasible_sets(net, req)
    masks = _clockwise_masks(cycle, fs)
    best = None
    for start in sorted(fs.vn_sets[0]):
        for direction in DIRECTIONS:
            w = build_wdag(cycle, req, start, direction, fs=fs, masks=masks)
            if collect is not None:
                collect(w)
            found = min_weight_cycle(w)
            if found is None:
                continue
            hosts, cost = found
            if best is None or cost < best.cost:
                best = _simplex_from_hosts(cycle, req, start, direction, hosts)
                if cost == floor and collect is None:
                    return best
    return best


def greedy_revenue(net, requests, fallback=None, collect=None):
    """Embed cycle requests in descending revenue-to-demand ratio.

    Each request is tried once with the ring solver and committed on success.
    Requests the ring solver cannot place are afterwards offered, once each
    and in the same order, to the `fallback` generic embedder (a callable
    (net, req) -> Embedding or None). Returns the accepted batch.
    """
    for req in requests:
        if req.shape is not Shape.CYCLE:
            raise ModelError(f"request {req.req_id!r} is not a cycle")
    ranked = sorted(
        requests,
        key=lambda r: Fraction(r.revenue, r.total_cpu_demand + r.total_bw_demand),
        reverse=True,
    )
    batch = EmbeddingBatch()
    leftovers = []
    for req in ranked:
        simplex = c2ce(net, req, collect=collect)
        if simplex is None:
            leftovers.append(req)
            continue
        emb = simplex.to_embedding(req)
        commit(net, req, emb)
        batch.add(req, emb)
    if fallback is not None:
        for req in leftovers:
            emb = fallback(net, req)
            if emb is None:
                continue
            commit(net, req, emb)
            batch.add(req, emb)
    return batch
