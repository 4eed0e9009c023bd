import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))  # verify_theory

from pcvne.knapsack import mkp_order, solve_mkp
from pcvne.model import Shape, SubstrateNetwork, VirtualRequest, edge_key
from verify_theory import random_connected_graph  # noqa: F401  re-exported


def order_items(items):
    """Knapsack items (`oracles.Item`) in MKP order by `knapsack.mkp_order`,
    as `solve_mkp` takes their profits and sizes."""
    return [items[i] for i in mkp_order([it.profit for it in items], [it.size for it in items],
                                        [it.item_id for it in items])]


def solve_mkp_by_id(capacities, items, mode):
    """`solve_mkp` on the items in MKP order, read back by id:
    ({item_id: knapsack index or None}, packed profit)."""
    items = order_items(items)
    packed = solve_mkp(capacities, [it.profit for it in items], [it.size for it in items], mode=mode)
    assignment = dict.fromkeys(it.item_id for it in items)
    assignment.update((items[i].item_id, k) for i, k in packed)
    return assignment, sum(items[i].profit for i, _k in packed)


def make_net(nodes, edges, cpu, bw):
    return SubstrateNetwork(
        nodes=nodes,
        edges=edges,
        cpu_capacity=cpu if isinstance(cpu, dict) else {v: cpu for v in nodes},
        bw_capacity=bw if isinstance(bw, dict) else {edge_key(u, v): bw for u, v in edges},
    )


def ring_net(m, cpu=100, bw=100):
    edges = [(i, (i + 1) % m) for i in range(m)]
    return make_net(list(range(m)), edges, cpu, bw)


def path_net(n_nodes, cpu=100, bw=100):
    edges = [(i, i + 1) for i in range(n_nodes - 1)]
    return make_net(list(range(n_nodes)), edges, cpu, bw)


def make_path_request(req_id, demands_cpu, demands_bw, revenue=1):
    n = len(demands_cpu)
    vns = list(range(n))
    vls = [(i, i + 1) for i in range(n - 1)]
    return VirtualRequest(
        req_id=req_id, shape=Shape.PATH, vns=vns, vls=vls,
        cpu_demand={i: demands_cpu[i] for i in range(n)},
        bw_demand={edge_key(i, i + 1): demands_bw[i] for i in range(n - 1)},
        revenue=revenue,
    )


def make_cycle_request(req_id, demands_cpu, demands_bw, revenue=1):
    n = len(demands_cpu)
    vns = list(range(n))
    vls = [(i, (i + 1) % n) for i in range(n)]
    return VirtualRequest(
        req_id=req_id, shape=Shape.CYCLE, vns=vns, vls=vls,
        cpu_demand={i: demands_cpu[i] for i in range(n)},
        bw_demand={edge_key(i, (i + 1) % n): demands_bw[i] for i in range(n)},
        revenue=revenue,
    )


def mask_hosts(cycle, mask):
    """The SNs that a `feasible_sets` host mask (clockwise node indices of
    `cycle`) marks feasible, sorted."""
    return sorted(v for v, ok in zip(cycle.order, mask) if ok)


def uniform_path_request(req_id, length, revenue=1):
    return make_path_request(req_id, [1] * (length + 1), [1] * length, revenue)


def random_ring_instance(rng, m_range=(3, 8), n_range=(3, 5), demand_range=(1, 5),
                         cpu_range=(1, 8), bw_range=(1, 8)):
    """A random ring substrate plus one random cycle request; tight capacity
    ranges so infeasible layers and partial feasibility actually occur."""
    m = rng.randint(*m_range)
    n = rng.randint(n_range[0], min(n_range[1], m))
    net = make_net(
        list(range(m)), [(i, (i + 1) % m) for i in range(m)],
        {i: rng.randint(*cpu_range) for i in range(m)},
        {edge_key(i, (i + 1) % m): rng.randint(*bw_range) for i in range(m)},
    )
    req = make_cycle_request(
        f"r{rng.randrange(10 ** 6)}",
        [rng.randint(*demand_range) for _ in range(n)],
        [rng.randint(*demand_range) for _ in range(n)],
        revenue=rng.randint(1, 10),
    )
    return net, req


@pytest.fixture
def fig_ring():
    """Four-node ring where the best clockwise embedding of the triangle
    request costs exactly 8 and the best anticlockwise one exactly 9."""
    net = make_net(
        [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)],
        {0: 5, 1: 5, 2: 1, 3: 4},
        {(0, 1): 2, (1, 2): 3, (2, 3): 3, (0, 3): 3},
    )
    req = make_cycle_request("tri", [5, 5, 2], [1, 2, 3])
    return net, req


def atlas_connected(max_nodes=6):
    """All non-isomorphic connected graphs with at most `max_nodes` nodes,
    out of the networkx graph atlas."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    from verify_theory import Graph

    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or n > max_nodes:
            continue
        if not nx.is_connected(G):
            continue
        out.append(Graph.build(range(n), [tuple(e) for e in G.edges()]))
    return out
