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
from .model import Embedding, EmbeddingBatch, ModelError, Shape, commit, distinct_ids, edge_key

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
    travel; `order[p]` is the SN there, position m being the anchor again,
    and `links[p]` the SL from p to p+1. Layer j has a vertex at each
    position p with `hosts[j][p]`; layers 0 and n = len(`demands`) are the
    anchor at positions 0 and m. `bad[j][p]` marks the SL into position p as
    unable to carry VL j. A reachable layer-j vertex at t has an arc to each
    layer-(j+1) vertex at p > t with no bad SL in between, weighing
    (p - t) * `demands[j]`. `to_json` is the one explicit view.
    """

    start: object
    direction: str
    order: list
    links: list
    hosts: list
    bad: list
    demands: list

    def arc_count(self):
        """Arcs plus closing arcs, counted by one sweep per layer: a head
        has one arc per reached tail behind it since the last bad SL."""
        tails = self.hosts[0]
        total = 0
        for j in range(len(self.demands)):
            reached = [False] * len(self.order)
            run = 0
            for p, (bad, head, tail) in enumerate(zip(self.bad[j], self.hosts[j + 1], tails)):
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
                        last = j == len(self.demands) - 1
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
    """The layered digraph for `req` anchored at `start`: a Wdag snapshot of
    the residual feasibility and the ring's links in ring order from the
    anchor, O(n·m) with the arcs implicit. `masks`, `req`'s `feasible_sets`,
    lets a caller that builds many graphs for it compute them once.
    """
    if req.shape is not Shape.CYCLE:
        raise ModelError("request is not a cycle")
    hosts, bad = masks or feasible_sets(cycle, req)
    s = cycle.index.get(start)
    if s is None or not hosts[0][s]:
        raise ModelError(f"start {start!r} is not feasible for the first VN")
    # the SL from position p to p+1 (`bad[j][p + 1]`) is clockwise edge s+p going "+", s-1-p going "-"
    e = s if direction == CLOCKWISE else (s - 1) % cycle.m
    anchor = [True] + [False] * cycle.m
    return Wdag(
        start=start, direction=direction,
        order=_anchored(cycle.order, s, direction) + [start],
        links=_anchored(cycle.links, e, direction),
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
    m, n, order = len(w.links), len(w.demands), w.order
    rests = [[inf] * m + [0]]  # layer n: the anchor at position m
    for j in reversed(range(n)):
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
    for j in range(n - 1):
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


def _embedding(req, w, hosts):
    """The Embedding of `hosts`, the cycle `min_weight_cycle` found in `w`:
    VN j on hosts[j], VL j on `w.links` from host j's position to host j+1's,
    the last back to the anchor at m."""
    pos = [*map(w.order.index, hosts), len(w.links)]
    return Embedding(node_map=dict(zip(req.vns, hosts)),
                     link_map={vl: w.links[a:b] for vl, a, b in zip(req.vls, pos, pos[1:])})


def c2ce(net, req, cycle=None):
    """Least-BW-cost one-direction embedding of a cycle request on a ring.

    Scans `wdags` (every feasible anchor for the first VN crossed with both
    directions), takes the minimum weight directed cycle of each layered
    digraph, and keeps the strictly cheapest as (cost, graph, hosts). Returns
    its Embedding, built once at the end, or None when no feasible
    one-direction embedding exists, as `generic_embed` does. An embedding
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
        if best is None or cost < best[0]:
            best = cost, w, hosts
            if cost == floor:
                break
    return None if best is None else _embedding(req, *best[1:])


def greedy_revenue(net, requests, fallback=True, trace=None):
    """Embed cycle requests in descending revenue-to-demand ratio, on the
    knapsack orders' exact int (`_ratio_key`); equal ratios keep input order.

    Each request is tried once with `c2ce`, and whatever Embedding it returns
    is committed. Unless `fallback` is off, the requests it cannot place then
    go, in the same order, through one `generic_batch` pass, which ranks the
    SNs once and commits each success. Returns the accepted batch. The ring's
    `CycleView` is built once, before the first request. `trace`, if given,
    gets, before each ring-solver request's solve, the `to_json` of every
    digraph of its full `wdags` scan, so the solve itself runs the same
    whether traced or not. `requests` may be any iterable; it is read once.
    Refuses a request that is not a cycle, and duplicate ids.
    """
    requests = list(requests)
    for req in requests:
        if req.shape is not Shape.CYCLE:
            raise ModelError(f"request {req.req_id!r} is not a cycle")
    distinct_ids(requests)
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
        emb = c2ce(net, req, cycle=cycle)
        if emb is None:
            leftovers.append(req)
            continue
        commit(net, req, emb)
        batch.add(req, emb)
    if fallback:
        batch.items += generic_batch(net, leftovers).items
    return batch
