"""The two hardness reductions of the paper, as test instance builders.

Edge-disjoint paths to path embedding (the NP-hardness construction) and
cardinality d-dimensional knapsack to ring embedding. Nothing in `pcvne`
calls them; the tests use them to build instances whose answer the proofs fix.
"""

from __future__ import annotations

from dataclasses import dataclass

from pcvne.generators import SpecError
from pcvne.model import Shape, SubstrateNetwork, VirtualRequest, edge_key


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


def gen_ddkp_reduction(capacities, items):
    """Ring substrate and cycle requests whose max acceptance count equals the
    cardinality optimum of the MDKP given as `solve_mdkp` takes it: d
    capacities and (item_id, profit, pairs) items.

    Ring node i carries the i-th capacity scaled by a factor large enough
    that the i-th VN of every request is CPU-infeasible on all earlier ring
    nodes; link bandwidth equals the item count so the unit per-link demands
    never bind. Every item's size in every dimension must be at least 1.
    """
    d = len(capacities)
    if d < 2:
        raise SpecError("need at least 2 dimensions")
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
    for b in capacities:
        if b < 1:
            raise SpecError("capacities must be at least 1")

    columns = [[row[k] for row in rows] for k in range(d)]
    caps = list(capacities)
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
