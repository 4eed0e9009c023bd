"""Desk-scale graph-theory checks and brute-force oracles.

Everything here is exhaustive search with hard size caps (a cap violation is
a refusal, never a silent truncation). These functions serve as independent
ground truth for the solver modules' tests and for the verify-theory sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cycle_embedding import (
    ANTICLOCKWISE,
    CLOCKWISE,
    CycleView,
    _simplex_from_hosts,
)
from .model import (
    Embedding,
    ModelError,
    Shape,
    VirtualRequest,
    commit,
    edge_key,
    is_connected,
    release,
)


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


def has_spanning_trail(g, node_cap=12):
    """Does the graph contain a trail (edge-simple walk) visiting every node?

    Backtracking over walks from every possible start, with a reachability
    prune (unvisited nodes must stay reachable through unused edges) and a
    memo of failed (position, used-edge-set) states.
    """
    n = len(g.nodes)
    if n > node_cap:
        raise SizeCapExceeded(f"{n} nodes, cap {node_cap}")
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


def is_supereulerian(g, node_cap=12):
    """Does the graph contain a spanning connected subgraph with all degrees
    even (equivalently, a closed trail visiting every node)?

    Even subgraphs form the cycle space, so the search enumerates all XOR
    combinations of fundamental cycles of a spanning forest and checks each
    for covering every node and being connected.
    """
    n = len(g.nodes)
    if n > node_cap:
        raise SizeCapExceeded(f"{n} nodes, cap {node_cap}")
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
    order = [g.nodes[0]]
    stack = [g.nodes[0]]
    tree_edges = set()
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                tree_edges.add(edge_key(v, w))
                order.append(w)
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

    for combo in range(1, 1 << len(cycles)):
        mask = 0
        c = combo
        i = 0
        while c:
            if c & 1:
                mask ^= cycles[i]
            c >>= 1
            i += 1
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
    """A substrate with CPU 2 on every node and BW 1 on every link, paired
    with the unit-demand path request spanning as many VNs as there are SNs."""

    net: object

    def __post_init__(self):
        for v in self.net.nodes:
            if self.net.cpu_capacity[v] != 2:
                raise ModelError("uniform instance requires CPU capacity 2 everywhere")
        for k in self.net.edges:
            if self.net.bw_capacity[k] != 1:
                raise ModelError("uniform instance requires BW capacity 1 everywhere")
        n = len(self.net.nodes)
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


def find_uniform_path_embedding(inst, node_cap=8):
    """Exhaustively search for an embedding of the spanning unit path request.

    Enumerates host orderings lazily: from the current host, try every not yet
    used node as the next host, connected by a simple path that is link-
    disjoint from everything used so far. Returns an Embedding or None.
    """
    net = inst.net
    n = len(net.nodes)
    if n > node_cap:
        raise SizeCapExceeded(f"{n} nodes, cap {node_cap}")
    req = inst.request
    if n == 0:
        return None
    if n == 1:
        return Embedding(req_id=req.req_id, node_map={req.vns[0]: net.nodes[0]}, link_map={})

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


def brute_force_path_embed(inst, node_cap=8):
    """Decide whether the spanning unit path request embeds at all."""
    return find_uniform_path_embedding(inst, node_cap=node_cap) is not None


def enumerate_simplex_embeddings(net, req, start, direction):
    """All feasible one-direction embeddings anchored at (start, direction),
    found by direct position enumeration against the residuals. Returns a
    list of (host tuple, cost). Independent of the layered-digraph solver."""
    cycle = CycleView(net)
    m = cycle.m
    n = req.n_vns
    sign = 1 if direction == CLOCKWISE else -1
    start_idx = cycle.index[start]
    if net.residual_cpu[start] < req.cpu_demand[req.vns[0]]:
        return []
    found = []
    for positions in combinations(range(1, m), n - 1):
        offsets = (0,) + positions
        hosts = tuple(cycle.order[(start_idx + sign * p) % m] for p in offsets)
        if any(net.residual_cpu[h] < req.cpu_demand[vn] for h, vn in zip(hosts, req.vns)):
            continue
        cost = 0
        ok = True
        for j in range(n):
            a = offsets[j]
            b = offsets[j + 1] if j + 1 < n else m
            demand = req.bw_demand[req.vls[j]]
            for t in range(a, b):
                u = cycle.order[(start_idx + sign * t) % m]
                v = cycle.order[(start_idx + sign * (t + 1)) % m]
                if net.residual_bw[edge_key(u, v)] < demand:
                    ok = False
                    break
            if not ok:
                break
            cost += (b - a) * demand
        if ok:
            found.append((hosts, cost))
    return found


def brute_force_simplex_cycle(net, req, m_cap=8, n_cap=5):
    """Exhaustive minimum-cost one-direction cycle embedding.

    Enumerates every (feasible start, direction, position choice) tableau.
    Returns ((SimplexEmbedding, cost) or None, examined tableau count). The
    count covers every tableau whose start hosts the first VN, before any
    other feasibility filtering.
    """
    cycle = CycleView(net)
    if cycle.m > m_cap:
        raise SizeCapExceeded(f"{cycle.m} substrate nodes, cap {m_cap}")
    if req.n_vns > n_cap:
        raise SizeCapExceeded(f"{req.n_vns} virtual nodes, cap {n_cap}")
    examined = 0
    best = None
    starts = [v for v in sorted(net.nodes)
              if net.residual_cpu[v] >= req.cpu_demand[req.vns[0]]]
    for start in starts:
        for direction in (CLOCKWISE, ANTICLOCKWISE):
            examined += _count_tableaux(cycle.m, req.n_vns)
            for hosts, cost in enumerate_simplex_embeddings(net, req, start, direction):
                if best is None or cost < best[1]:
                    best = (_simplex_from_hosts(cycle, req, start, direction, list(hosts)), cost)
    return best, examined


def _count_tableaux(m, n):
    from math import comb

    return comb(m - 1, n - 1)


def brute_force_max_accepted(net, requests):
    """Maximum number of cycle requests simultaneously embeddable by
    one-direction embeddings, by depth-first search over per-request
    embedding choices with commit/rollback on a private copy."""
    work = net.copy()
    cycle = CycleView(work)

    def all_embeddings(req):
        out = []
        for start in sorted(work.nodes):
            if work.residual_cpu[start] < req.cpu_demand[req.vns[0]]:
                continue
            for direction in (CLOCKWISE, ANTICLOCKWISE):
                for hosts, cost in enumerate_simplex_embeddings(work, req, start, direction):
                    out.append(_simplex_from_hosts(cycle, req, start, direction, list(hosts)))
        return out

    best = 0

    def dfs(i, accepted):
        nonlocal best
        best = max(best, accepted)
        if i == len(requests) or accepted + (len(requests) - i) <= best:
            return
        req = requests[i]
        for sx in all_embeddings(req):
            emb = sx.to_embedding(req)
            commit(work, req, emb)
            dfs(i + 1, accepted + 1)
            release(work, req, emb)
        dfs(i + 1, accepted)

    dfs(0, 0)
    return best
