"""Seeded instance generation: random topologies, request workloads, and the
two reduction constructions used to stress the solvers at desk scale."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .model import ModelError, Shape, SubstrateNetwork, VirtualRequest, edge_key


class SpecError(ModelError):
    """Impossible or inconsistent generation parameters."""


@dataclass
class SubstrateSpec:
    n_nodes: int
    topology: str = "random"  # random | complete | cycle | path
    n_edges: int | None = None  # random topology only
    cpu_capacity: object = 100
    bw_capacity: object = 100


@dataclass
class RequestSpec:
    shape: str = "path"           # path | cycle
    count: int = 10
    length_range: tuple = (5, 10)  # link count for paths, VN count for cycles
    demand_range: tuple = (1, 5)
    revenue_rule: str = "unit"     # unit | proportional (to VN count)


def gen_substrate(spec, seed):
    """Deterministic substrate for a spec: a random connected graph (spanning
    tree plus uniform extra links), or a complete graph, cycle, or path."""
    rng = random.Random(seed)
    n = spec.n_nodes
    if n < 1:
        raise SpecError("need at least one node")
    if spec.topology in ("complete", "cycle", "path") and spec.n_edges is not None:
        raise SpecError(f"n_edges is only for the random topology, not {spec.topology!r}")
    nodes = list(range(n))
    if spec.topology == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif spec.topology == "cycle":
        if n < 3:
            raise SpecError("cycle needs at least 3 nodes")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif spec.topology == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif spec.topology == "random":
        m = spec.n_edges
        if m is None:
            raise SpecError("random topology needs n_edges")
        if m < n - 1 or m > comb(n, 2):
            raise SpecError(f"cannot build a connected simple graph with {n} nodes and {m} edges")
        edges = random_connected_edges(rng, n, m - (n - 1))
    else:
        raise SpecError(f"unknown topology {spec.topology!r}")
    return SubstrateNetwork(
        nodes=nodes,
        edges=edges,
        cpu_capacity={v: spec.cpu_capacity for v in nodes},
        bw_capacity={edge_key(u, v): spec.bw_capacity for u, v in edges},
    )


def random_connected_edges(rng, n, extra=None):
    """Canonical links of a random connected graph on 0..n-1, tree first: in a
    shuffled node order each node joins a uniformly chosen earlier one; then
    `extra` (default: uniform) links drawn uniformly from the remaining pairs."""
    order = list(range(n))
    rng.shuffle(order)
    tree = [edge_key(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    present = set(tree)
    candidates = [e for e in combinations(range(n), 2) if e not in present]
    if extra is None:
        extra = rng.randint(0, len(candidates))
    return tree + rng.sample(candidates, min(extra, len(candidates)))


def gen_requests(spec, seed):
    """Deterministic request workload. Path lengths are link counts, cycle
    lengths are VN counts; demands are uniform over the demand range; the
    revenue is 1 under the "unit" rule and the VN count under "proportional"."""
    rng = random.Random(seed)
    lo, hi = spec.length_range
    dlo, dhi = spec.demand_range
    if lo > hi:
        raise SpecError(f"length_range ({lo}, {hi}) is empty")
    if dlo > dhi:
        raise SpecError(f"demand_range ({dlo}, {dhi}) is empty")
    if dlo < 1:
        raise SpecError(f"demand_range ({dlo}, {dhi}) starts below 1")
    if spec.count < 0:
        raise SpecError(f"negative request count {spec.count}")
    try:
        shape = Shape(spec.shape)
    except ValueError:
        raise SpecError(f"unknown request shape {spec.shape!r}") from None
    if shape is Shape.GENERAL:
        raise SpecError("gen_requests makes 'path' and 'cycle' requests, not 'general'")
    if spec.revenue_rule not in ("unit", "proportional"):
        raise SpecError(f"unknown revenue rule {spec.revenue_rule!r}")
    if shape is Shape.CYCLE and lo < 3:
        raise SpecError("cycle requests need at least 3 VNs")
    if shape is Shape.PATH and lo < 1:
        raise SpecError("path requests need at least one link")
    draw = rng.randrange  # randrange(a, b + 1) is what randint(a, b) calls: the same stream
    requests = []
    for k in range(spec.count):
        length = draw(lo, hi + 1)
        n_vns = length + 1 if shape is Shape.PATH else length
        vns = list(range(n_vns))
        vls = list(zip(vns, vns[1:]))  # canonical links, the closing one of a cycle last
        if shape is Shape.CYCLE:
            vls.append((0, n_vns - 1))
        demands = [draw(dlo, dhi + 1) for _ in range(n_vns + len(vls))]  # CPU per VN, then BW per link
        revenue = 1 if spec.revenue_rule == "unit" else n_vns
        requests.append(VirtualRequest(
            req_id=k, shape=shape, vns=vns, vls=vls,
            cpu_demand=dict(zip(vns, demands)), bw_demand=dict(zip(vls, demands[n_vns:])),
            revenue=revenue,
        ))
    return requests


@dataclass
class EdpReduction:
    """Result of translating an edge-disjoint-paths instance into a substrate
    plus path requests. Keeps the copy table for inspection."""

    net: SubstrateNetwork
    requests: list
    copy_of: dict         # original node -> its copy id


def gen_edp_reduction(nodes, edges, pairs):
    """Substrate and 4-VN path requests encoding an edge-disjoint-paths
    instance.

    Every original node gets CPU 1 and a copy node hung off a stem link;
    original links get BW 1. Copy CPUs grow strictly along the node order
    while stem BWs shrink, scaled by how often the node occurs as a terminal
    (never-occurring nodes count as 1 so no capacity degenerates to zero), so
    an end VN of the i-th request is hosted only by the copy of its terminal.
    """
    order = sorted(set(nodes))
    node_set = set(order)
    for u, v in edges:
        if u not in node_set or v not in node_set:
            raise SpecError("edge references unknown node")
    for s, t in pairs:
        if s == t:
            raise SpecError(f"terminal pair ({s!r}, {t!r}) is degenerate")
        if s not in node_set or t not in node_set:
            raise SpecError("terminal not in graph")

    occurrences = {v: 0 for v in order}
    for s, t in pairs:
        occurrences[s] += 1
        occurrences[t] += 1

    orig_id = {v: ("n", v) for v in order}
    copy_id = {v: ("c", v) for v in order}

    end_cpu = {}
    copy_cpu = {}
    c = 2
    for v in order:
        end_cpu[v] = c
        copy_cpu[v] = c * max(occurrences[v], 1)
        c = copy_cpu[v] + 1

    stem_bw_demand = {}
    stem_bw_cap = {}
    b = 2
    for v in reversed(order):
        stem_bw_demand[v] = b
        stem_bw_cap[v] = b * max(occurrences[v], 1)
        b = stem_bw_cap[v] + 1

    sub_nodes = [orig_id[v] for v in order] + [copy_id[v] for v in order]
    sub_edges = [(orig_id[u], orig_id[v]) for u, v in edges]
    sub_edges += [(orig_id[v], copy_id[v]) for v in order]
    cpu_cap = {orig_id[v]: 1 for v in order}
    cpu_cap.update({copy_id[v]: copy_cpu[v] for v in order})
    bw_cap = {edge_key(orig_id[u], orig_id[v]): 1 for u, v in edges}
    bw_cap.update({edge_key(orig_id[v], copy_id[v]): stem_bw_cap[v] for v in order})
    net = SubstrateNetwork(sub_nodes, sub_edges, cpu_cap, bw_cap)

    requests = []
    for i, (s, t) in enumerate(pairs):
        vns = [0, 1, 2, 3]
        vls = [(0, 1), (1, 2), (2, 3)]
        requests.append(VirtualRequest(
            req_id=i, shape=Shape.PATH, vns=vns, vls=vls,
            cpu_demand={0: end_cpu[s], 1: 1, 2: 1, 3: end_cpu[t]},
            bw_demand={(0, 1): stem_bw_demand[s], (1, 2): 1, (2, 3): stem_bw_demand[t]},
            revenue=1,
        ))
    return EdpReduction(net=net, requests=requests, copy_of=copy_id)


@dataclass
class DdkpReduction:
    """Substrate ring plus cycle requests encoding a cardinality-objective
    d-dimensional knapsack instance. When the source instance has only two
    dimensions a slack dimension is inserted between them so the ring has
    three nodes; `dim_position` maps each original dimension to its ring
    position."""

    net: SubstrateNetwork
    requests: list
    dim_position: dict    # original dimension index -> ring node index


def gen_ddkp_reduction(inst):
    """Ring substrate and cycle requests whose max acceptance count equals the
    source instance's cardinality optimum.

    Ring node i carries the i-th capacity scaled by a factor large enough
    that the i-th VN of every request is CPU-infeasible on all earlier ring
    nodes; link bandwidth equals the item count so the unit per-link demands
    never bind. Every item's size in every dimension must be at least 1.
    """
    d = len(inst.capacities)
    if d < 2:
        raise SpecError("need at least 2 dimensions")
    items = inst.items
    n_items = len(items)
    rows = []  # per item, its size in each dimension
    for item_id, _p, pairs in items:
        row = [0] * d  # an absent dimension is size 0
        for k, s in pairs:
            row[k] = s
        if min(row) < 1:
            raise SpecError(f"item {item_id!r} has a size component below 1; "
                            "the construction cannot force its placement")
        rows.append(row)
    for b in inst.capacities:
        if b < 1:
            raise SpecError("capacities must be at least 1")

    columns = [[row[k] for row in rows] for k in range(d)]
    caps = list(inst.capacities)
    dim_position = {k: k for k in range(d)}
    if d == 2:
        # 2-node rings do not exist in a simple graph; insert a slack
        # dimension that every item occupies with one unit and that never
        # binds (capacity = item count)
        columns = [columns[0], [1] * n_items, columns[1]]
        caps = [caps[0], max(n_items, 1), caps[1]]
        dim_position = {0: 0, 1: 2}

    # scale factors: position i demands must exceed every earlier capacity
    m = len(caps)
    scale = [1]
    cpu_caps = [caps[0]]
    for i in range(1, m):
        bound = max(cpu_caps)
        smallest = min(columns[i]) if columns[i] else 1
        factor = bound // smallest + 1
        scale.append(factor)
        cpu_caps.append(factor * caps[i])

    ring_nodes = list(range(m))
    ring_edges = [(i, (i + 1) % m) for i in range(m)]
    bw = max(n_items, 1)
    net = SubstrateNetwork(
        nodes=ring_nodes,
        edges=ring_edges,
        cpu_capacity={i: cpu_caps[i] for i in ring_nodes},
        bw_capacity={edge_key(u, v): bw for u, v in ring_edges},
    )

    requests = []
    for j, (item_id, _profit, _sizes) in enumerate(items):
        vns = list(range(m))
        vls = [(i, (i + 1) % m) for i in range(m)]
        requests.append(VirtualRequest(
            req_id=item_id, shape=Shape.CYCLE, vns=vns, vls=vls,
            cpu_demand={i: scale[i] * columns[i][j] for i in range(m)},
            bw_demand={edge_key(u, v): 1 for u, v in vls},
            revenue=1,
        ))
    return DdkpReduction(net=net, requests=requests, dim_position=dim_position)
