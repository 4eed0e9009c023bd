#!/usr/bin/env python3
"""Desk-scale graph-theory checks of the paper's hardness argument.

The connected-graph sweep, the spanning-trail and supereulerian deciders (one
trail search, open or closed: a graph is supereulerian exactly when it has a
closed spanning trail), the two reductions between them, and the brute-force
embedding of the spanning unit path request (`UniformInstance`,
`find_uniform_path_embedding`). Everything here is exhaustive search with hard
size caps (a cap violation is a refusal, never a silent truncation).

Run with the package importable, e.g. from the repository root:

    PYTHONPATH=src python scripts/verify_theory.py [--max-nodes 5] [--samples 100] [--sample-nodes 6] [--seed 0]

It prints one PASS/FAIL row per check and exits 1 if any row reads FAIL; a
flag out of range ends in `error: …` and exit 2.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from itertools import combinations
from math import inf

from pcvne import cli
from pcvne.generators import random_connected_edges
from pcvne.model import (
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
PATH_EMBED_NODE_CAP = 8  # find_uniform_path_embedding


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
    """Does the graph contain a trail (edge-simple walk) visiting every node?"""
    return _spanning_trail(g, closed=False)


def is_supereulerian(g):
    """Does the graph contain a spanning connected subgraph with all degrees
    even? Equivalently, a closed trail visiting every node, which is what the
    search looks for."""
    return _spanning_trail(g, closed=True)


def _spanning_trail(g, closed):
    """Is there a trail through every node, back at its start if `closed`?

    Backtracking over trails (from the first node only when closed: a closed
    spanning trail passes every node; when open, from the first leaf only if
    any, as a leaf ends a trail, else from every start), with a reachability
    prune (the unvisited nodes, and the start when closed, must stay reachable
    through unused edges) and a memo of failed (position, used-edge-set)
    states. One memo serves every start: a non-empty used-edge set visited
    exactly the nodes its edges touch. Nodes and edges are bits, by index.
    """
    n = len(g.nodes)
    if n > TRAIL_NODE_CAP:
        raise SizeCapExceeded(f"{n} nodes, cap {TRAIL_NODE_CAP}")
    if n <= 1:
        return True
    idx = {v: i for i, v in enumerate(g.nodes)}
    nbrs = [[] for _ in g.nodes]  # per node: (neighbour, edge bit)
    for i, (u, v) in enumerate(g.edges):
        nbrs[idx[u]].append((idx[v], 1 << i))
        nbrs[idx[v]].append((idx[u], 1 << i))

    def reached(cur, used):  # the nodes reachable from cur through unused edges
        seen = 1 << cur
        stack = [cur]
        while stack:
            for w, bit in nbrs[stack.pop()]:
                if not (seen >> w & 1 or used & bit):
                    seen |= 1 << w
                    stack.append(w)
        return seen

    every = (1 << n) - 1
    if reached(0, 0) != every:
        return False
    leaves = [i for i, ws in enumerate(nbrs) if len(ws) < 2]  # each can only end a trail
    if (leaves and closed) or len(leaves) > 2:
        return False
    home = 1 if closed else 0  # node 0, where a closed trail starts and ends
    failed = set()

    def extend(cur, used, visited):
        if visited == every and (not closed or cur == 0):
            return True
        key = (cur, used)
        if key in failed:
            return False
        if (every & ~visited | home) & ~reached(cur, used):
            failed.add(key)
            return False
        for w, bit in nbrs[cur]:
            if not used & bit and extend(w, used | bit, visited | 1 << w):
                return True
        failed.add(key)
        return False

    return any(extend(s, 0, 1 << s) for s in ([0] if closed else leaves[:1] or range(n)))


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


def _trail_equivalence(g):
    return (find_uniform_path_embedding(UniformInstance(g)) is not None) == has_spanning_trail(g)


def verify(args):
    for flag, value, least, most in (("--max-nodes", args.max_nodes, 1, GRAPH_SWEEP_NODE_CAP),
                                     ("--samples", args.samples, 0, inf),
                                     ("--sample-nodes", args.sample_nodes, 1, PATH_EMBED_NODE_CAP)):
        if value < least:
            raise ModelError(f"{flag} must be at least {least}, got {value}")
        if value > most:
            raise ModelError(f"{flag} must be at most {most}, got {value}")
    rng = random.Random(args.seed)

    def exhaustive(smallest):
        return (g for n in range(smallest, args.max_nodes + 1) for g in connected_graphs(n))

    def circuit_cases():  # (is_supereulerian(g), g, v) per node v: each graph decided once
        for g in exhaustive(1):
            closed = is_supereulerian(g)
            yield from ((closed, g, v) for v in g.nodes)

    checks = (  # (name, cases, predicate that must hold on every case)
        ("spanning-trail equivalence (exhaustive)", exhaustive(1), _trail_equivalence),
        (f"spanning-trail equivalence ({args.sample_nodes}-node samples)",
         (random_connected_graph(rng, args.sample_nodes) for _ in range(args.samples)),
         _trail_equivalence),
        ("trail-to-circuit reduction (exhaustive)", exhaustive(2),
         lambda g: has_spanning_trail(g) == any(is_supereulerian(h) for h in sset_to_sg_instances(g))),
        ("circuit-to-trail reduction (exhaustive)", circuit_cases(),
         lambda case: case[0] == has_spanning_trail(sg_to_sset_instance(*case[1:]))),
    )
    rows = []
    for name, cases, holds in checks:
        results = [holds(case) for case in cases]
        rows.append((name, len(results), all(results)))

    width = max(len(r[0]) for r in rows)
    for name, n_cases, ok in rows:
        print(f"{name:<{width}}  {n_cases:>6} cases  {'PASS' if ok else 'FAIL'}")
    if not all(ok for _, _, ok in rows):
        sys.exit(1)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Exhaustive small-graph sweeps of the hardness argument.")
    parser.add_argument("--max-nodes", type=int, default=5)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--sample-nodes", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=verify)
    cli.main(argv, parser)  # the CLI's `error: …`, exit 2, for a bad flag or a failed write


if __name__ == "__main__":
    main()
