"""Desk-scale graph-theory checks: what `pcvne verify-theory` runs.

The connected-graph sweep, the spanning-trail and supereulerian searches, the
two reductions between them, and the brute-force embedding of the spanning
unit path request (`UniformInstance`, `brute_force_path_embed`). Everything
here is exhaustive search with hard size caps (a cap violation is a refusal,
never a silent truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .generators import random_connected_edges
from .model import (
    Embedding,
    ModelError,
    Shape,
    SubstrateNetwork,
    VirtualRequest,
    edge_key,
    is_connected,
)


# size caps of the exhaustive searches
GRAPH_SWEEP_NODE_CAP = 7  # connected_graphs: 2^C(n, 2) edge masks
TRAIL_NODE_CAP = 12      # has_spanning_trail, is_supereulerian
PATH_EMBED_NODE_CAP = 8  # find_uniform_path_embedding, brute_force_path_embed


class SizeCapExceeded(ModelError):
    """Input too large for exhaustive search; refuse instead of truncating."""


@dataclass(frozen=True)
class Graph:
    """Tiny immutable undirected graph for the theory checks."""

    nodes: tuple
    edges: tuple

    @classmethod
    def build(cls, nodes, edges):
        nodes = tuple(sorted(set(nodes)))
        canon = set()
        for u, v in edges:
            canon.add(edge_key(u, v))
        return cls(nodes=nodes, edges=tuple(sorted(canon)))

    def adjacency(self):
        adj = {v: [] for v in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
        return adj

    def is_connected(self):
        return is_connected(self.nodes, self.adjacency())


def connected_graphs(n):
    """Every connected graph on nodes 0..n-1, lazily, by edge-subset mask."""
    if n > GRAPH_SWEEP_NODE_CAP:
        raise SizeCapExceeded(f"{n} nodes, cap {GRAPH_SWEEP_NODE_CAP}")
    all_edges = list(combinations(range(n), 2))
    graphs = (Graph.build(range(n), (e for i, e in enumerate(all_edges) if mask >> i & 1))
              for mask in range(1 << len(all_edges)))
    return (g for g in graphs if g.is_connected())


def random_connected_graph(rng, n, extra_edges=None):
    """Random spanning tree on 0..n-1 plus `extra_edges` (default random) more edges."""
    return Graph.build(range(n), random_connected_edges(rng, n, extra_edges))


def has_spanning_trail(g):
    """Does the graph contain a trail (edge-simple walk) visiting every node?

    Backtracking over walks from every possible start, with a reachability
    prune (unvisited nodes must stay reachable through unused edges) and a
    memo of failed (position, used-edge-set) states.
    """
    n = len(g.nodes)
    if n > TRAIL_NODE_CAP:
        raise SizeCapExceeded(f"{n} nodes, cap {TRAIL_NODE_CAP}")
    if n <= 1:
        return True
    if not g.is_connected():
        return False

    adj = g.adjacency()
    edge_bit = {e: 1 << i for i, e in enumerate(g.edges)}
    all_nodes = frozenset(g.nodes)

    def reachable_covers(cur, used, unvisited):
        seen = {cur}
        stack = [cur]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen and not used & edge_bit[edge_key(v, w)]:
                    seen.add(w)
                    stack.append(w)
        return unvisited <= seen

    failed = set()

    def extend(cur, used, visited):
        if visited == all_nodes:
            return True
        key = (cur, used)
        if key in failed:
            return False
        if not reachable_covers(cur, used, all_nodes - visited):
            failed.add(key)
            return False
        for w in adj[cur]:
            bit = edge_bit[edge_key(cur, w)]
            if used & bit:
                continue
            if extend(w, used | bit, visited | {w}):
                return True
        failed.add(key)
        return False

    return any(extend(s, 0, frozenset([s])) for s in g.nodes)


def is_supereulerian(g):
    """Does the graph contain a spanning connected subgraph with all degrees
    even (equivalently, a closed trail visiting every node)?

    Even subgraphs form the cycle space, so the search walks all XOR
    combinations of fundamental cycles of a spanning tree in Gray-code order
    (one XOR per step) and checks each for covering every node and being
    connected.
    """
    n = len(g.nodes)
    if n > TRAIL_NODE_CAP:
        raise SizeCapExceeded(f"{n} nodes, cap {TRAIL_NODE_CAP}")
    if n <= 1:
        return True
    if not g.is_connected():
        return False

    adj = g.adjacency()
    idx = {v: i for i, v in enumerate(g.nodes)}
    edge_bit = {e: 1 << i for i, e in enumerate(g.edges)}
    edge_vmask = [((1 << idx[u]) | (1 << idx[v])) for u, v in g.edges]
    full_vmask = (1 << n) - 1

    # spanning tree via DFS; non-tree edges generate the fundamental cycles
    parent = {g.nodes[0]: None}
    stack = [g.nodes[0]]
    tree_edges = set()
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                tree_edges.add(edge_key(v, w))
                stack.append(w)

    def tree_path_mask(u, v):
        # XOR of the two root paths cancels the shared prefix
        mask = 0
        for x in (u, v):
            while parent[x] is not None:
                mask ^= edge_bit[edge_key(x, parent[x])]
                x = parent[x]
        return mask

    cycles = []
    for e in g.edges:
        if e not in tree_edges:
            cycles.append(edge_bit[e] ^ tree_path_mask(*e))

    bit_of_edge = list(edge_bit.values())

    def spanning_connected(mask):
        vmask = 0
        members = []
        for i, ebit in enumerate(bit_of_edge):
            if mask & ebit:
                vmask |= edge_vmask[i]
                members.append(g.edges[i])
        if vmask != full_vmask:
            return False
        sub = {}
        for u, v in members:
            sub.setdefault(u, []).append(v)
            sub.setdefault(v, []).append(u)
        return is_connected(list(sub), sub)

    mask = 0
    for k in range(1, 1 << len(cycles)):
        mask ^= cycles[(k & -k).bit_length() - 1]  # step k flips the cycle of k's lowest set bit
        if mask and spanning_connected(mask):
            return True
    return False


def sset_to_sg_instances(g):
    """For every unordered node pair (v, u), the graph plus one fresh node
    adjacent to both. The source graph has a spanning trail iff at least one
    of these C(|V|, 2) graphs is supereulerian."""
    fresh = (max(g.nodes) + 1) if g.nodes else 0
    out = []
    for v, u in combinations(g.nodes, 2):
        out.append(Graph.build(g.nodes + (fresh,), g.edges + ((fresh, v), (fresh, u))))
    return out


def sg_to_sset_instance(g, v):
    """The graph plus two fresh degree-1 nodes attached to `v`. The source
    graph is supereulerian iff this graph has a spanning trail."""
    if v not in g.nodes:
        raise ModelError(f"{v!r} is not a node")
    f1 = max(g.nodes) + 1
    f2 = f1 + 1
    return Graph.build(g.nodes + (f1, f2), g.edges + ((f1, v), (f2, v)))


@dataclass
class UniformInstance:
    """The graph as a substrate with CPU 2 on every node and BW 1 on every
    link, paired with the unit-demand path request with one VN per node."""

    graph: Graph

    def __post_init__(self):
        g = self.graph
        self.net = SubstrateNetwork(nodes=list(g.nodes), edges=list(g.edges),
                                    cpu_capacity=dict.fromkeys(g.nodes, 2), bw_capacity=dict.fromkeys(g.edges, 1))
        n = len(g.nodes)
        vns = [("u", i) for i in range(n)]
        self.request = VirtualRequest(
            req_id="uniform",
            shape=Shape.PATH,
            vns=vns,
            vls=[(vns[i], vns[i + 1]) for i in range(n - 1)],
            cpu_demand={v: 1 for v in vns},
            bw_demand={edge_key(vns[i], vns[i + 1]): 1 for i in range(n - 1)},
            revenue=1,
        )


def find_uniform_path_embedding(inst):
    """Exhaustively search for an embedding of the spanning unit path request.

    Enumerates host orderings lazily: from the current host, try every not yet
    used node as the next host, connected by a simple path that is link-
    disjoint from everything used so far. Returns an Embedding or None.
    """
    net = inst.net
    n = len(net.nodes)
    if n > PATH_EMBED_NODE_CAP:
        raise SizeCapExceeded(f"{n} nodes, cap {PATH_EMBED_NODE_CAP}")
    req = inst.request

    def simple_paths(src, dst, used_edges):
        # all simple paths src -> dst avoiding used links, as SL-key lists
        out = []

        def walk(cur, visited, acc):
            if cur == dst:
                out.append(list(acc))
                return
            for w in net.neighbors(cur):
                k = edge_key(cur, w)
                if w in visited or k in used_edges:
                    continue
                acc.append(k)
                walk(w, visited | {w}, acc)
                acc.pop()

        walk(src, {src}, [])
        return out

    hosts = []
    links = []

    def place(i, used_edges):
        if i == n:
            return True
        for cand in net.nodes:
            if cand in hosts:
                continue
            if i == 0:
                hosts.append(cand)
                if place(1, used_edges):
                    return True
                hosts.pop()
                continue
            for path in simple_paths(hosts[-1], cand, used_edges):
                hosts.append(cand)
                links.append(path)
                if place(i + 1, used_edges | set(path)):
                    return True
                links.pop()
                hosts.pop()
        return False

    if not place(0, frozenset()):
        return None
    node_map = {vn: sn for vn, sn in zip(req.vns, hosts)}
    link_map = {vl: path for vl, path in zip(req.vls, links)}
    return Embedding(req_id=req.req_id, node_map=node_map, link_map=link_map)


def brute_force_path_embed(inst):
    """Decide whether the spanning unit path request embeds at all."""
    return find_uniform_path_embedding(inst) is not None

