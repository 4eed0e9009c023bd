"""Path-request pipeline: decompose the substrate into link-disjoint paths,
pack path requests onto them as a multiple-knapsack, then fund the packed
placements with CPU/BW resources as a multi-dimensional knapsack, repeating
on the updated residuals until an iteration places nothing."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .knapsack import (
    DEFAULT_EXACT_ITEM_LIMIT,
    KpItem,
    MdkpInstance,
    MkpInstance,
    item_order_key,
    solve_mdkp,
    solve_mkp,
)
from .model import Embedding, EmbeddingBatch, ModelError, Shape, commit, edge_key


@dataclass(frozen=True)
class SubstratePath:
    """A simple path in the substrate, stored as its ordered node sequence."""

    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ModelError("substrate path needs at least one link")

    @property
    def length(self):
        return len(self.nodes) - 1

    def edges(self):
        return [edge_key(self.nodes[i], self.nodes[i + 1]) for i in range(self.length)]


@dataclass
class PathPlacement:
    """One packed request: which substrate path hosts it and at which offset.
    A placed request of length L occupies L consecutive SLs; neighbouring
    placements may share the boundary SN."""

    req: object
    path_index: int
    path: SubstratePath
    offset: int

    def to_embedding(self):
        nodes = self.path.nodes
        node_map = {vn: nodes[self.offset + i] for i, vn in enumerate(self.req.vns)}
        link_map = {}
        for i, vl in enumerate(self.req.vls):
            a = nodes[self.offset + i]
            b = nodes[self.offset + i + 1]
            link_map[vl] = [edge_key(a, b)]
        return Embedding(req_id=self.req.req_id, node_map=node_map, link_map=link_map)


def _usable_subgraph(net):
    """Nodes with positive residual CPU; links with positive residual BW whose
    endpoints are both usable. Exhausted elements cannot host anything and
    would only inflate knapsack capacities."""
    nodes = {v for v in net.nodes if net.residual_cpu[v] > 0}
    edges = {k for k in net.edges
             if net.residual_bw[k] > 0 and k[0] in nodes and k[1] in nodes}
    return nodes, edges


def _dfs_tree(root, adj):
    """Iterative depth-first tree (children tried in sorted order); parents
    assigned at visit time so the tree matches the recursive traversal and
    stays deep on dense graphs."""
    parent = {}
    stack = [(root, None)]
    while stack:
        v, p = stack.pop()
        if v in parent:
            continue
        parent[v] = p
        for w in reversed(adj[v]):
            if w not in parent:
                stack.append((w, v))
    return parent


def _tree_farthest(start, tree_adj):
    """Farthest node from `start` inside the tree (ties: lowest id), with the
    parent pointers of the traversal for path reconstruction."""
    parent = {start: None}
    depth = {start: 0}
    stack = [start]
    best = start
    while stack:
        v = stack.pop()
        if depth[v] > depth[best] or (depth[v] == depth[best] and v < best):
            best = v
        for w in tree_adj[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append(w)
    return best, parent


def decompose_paths(net):
    """Split the usable part of the substrate into link-disjoint simple paths.

    Repeatedly: root a DFS tree at the usable node of maximum degree (ties by
    lowest id), take the longest path inside that tree (its diameter, exact by
    the classic two-pass sweep), emit it, remove its links, drop isolated
    nodes. Every usable SL ends up in exactly one returned path.
    """
    nodes, edges = _usable_subgraph(net)
    adj = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()

    paths = []
    while True:
        active = [v for v in adj if adj[v]]
        if not active:
            break
        root = min(active, key=lambda v: (-len(adj[v]), v))
        parent = _dfs_tree(root, adj)
        tree_adj = {v: [] for v in parent}
        for v, p in parent.items():
            if p is not None:
                tree_adj[v].append(p)
                tree_adj[p].append(v)
        for v in tree_adj:
            tree_adj[v].sort()
        a, _ = _tree_farthest(root, tree_adj)
        b, par = _tree_farthest(a, tree_adj)
        seq = [b]
        while par[seq[-1]] is not None:
            seq.append(par[seq[-1]])
        if seq[0] > seq[-1]:
            seq.reverse()
        paths.append(SubstratePath(tuple(seq)))
        for i in range(len(seq) - 1):
            adj[seq[i]].remove(seq[i + 1])
            adj[seq[i + 1]].remove(seq[i])
    return paths


def pack_mkp(paths, requests, mode="greedy", exact_item_limit=DEFAULT_EXACT_ITEM_LIMIT):
    """Pack path requests onto the decomposed substrate paths.

    Each request is an item of size = its link count and profit = revenue;
    each substrate path is a knapsack of capacity = its link count. Packed
    items receive concrete offsets left to right in efficiency order, sharing
    boundary SNs between consecutive placements.
    """
    for req in requests:
        if req.shape is not Shape.PATH:
            raise ModelError(f"request {req.req_id!r} is not a path")
    index_of = {req.req_id: req for req in requests}
    if len(index_of) != len(requests):
        raise ModelError("duplicate request ids")
    inst = MkpInstance(
        capacities=[p.length for p in paths],
        items=[KpItem(item_id=req.req_id, size=req.length, profit=req.revenue)
               for req in requests],
    )
    assignment, _profit = solve_mkp(inst, mode=mode, exact_item_limit=exact_item_limit)

    by_path = {}
    for item in inst.items:
        k = assignment.get(item.item_id)
        if k is not None:
            by_path.setdefault(k, []).append(item)

    placements = []
    for k in sorted(by_path):
        offset = 0
        for item in sorted(by_path[k], key=item_order_key):
            req = index_of[item.item_id]
            placements.append(PathPlacement(req=req, path_index=k, path=paths[k], offset=offset))
            offset += req.length
    return placements


def assign_mdkp(net, placements, mode="greedy", exact_item_limit=DEFAULT_EXACT_ITEM_LIMIT):
    """Fund packed placements with CPU and BW out of the current residuals.

    Each placement becomes an item with a sparse size mapping: one component
    per SN it uses (summed CPU demand mapped there) and per SL (BW demand
    routed there); the capacity vector is the residual vector over all SNs
    then all SLs. Selected placements are committed and returned.
    """
    dim_index = {d: i for i, d in enumerate([*net.nodes, *net.edges])}
    capacities = [net.residual_cpu[v] for v in net.nodes] + [net.residual_bw[k] for k in net.edges]

    embeddings = [pl.to_embedding() for pl in placements]
    items = []
    for idx, (pl, emb) in enumerate(zip(placements, embeddings)):
        sizes = defaultdict(int)
        for vn, sn in emb.node_map.items():
            sizes[dim_index[sn]] += pl.req.cpu_demand[vn]
        for vl, sls in emb.link_map.items():
            d = pl.req.bw_demand[vl]
            for e in sls:
                sizes[dim_index[edge_key(*e)]] += d
        items.append((idx, pl.req.revenue, sizes))

    inst = MdkpInstance(capacities=capacities, items=items)
    selected, _profit = solve_mdkp(inst, mode=mode, exact_item_limit=exact_item_limit)

    accepted = []
    for idx in sorted(selected):
        pl = placements[idx]
        commit(net, pl.req, embeddings[idx])
        accepted.append((pl, embeddings[idx]))
    return accepted


def procedure_pe(net, requests, mkp_mode="greedy", mdkp_mode="greedy",
                 exact_item_limit=DEFAULT_EXACT_ITEM_LIMIT, trace=None):
    """Full pipeline loop. Mutates `net` residuals; returns the accepted batch.

    Each iteration decomposes the usable residual substrate, packs the still
    pending requests, funds the packed placements, and commits the funded
    ones. The loop stops as soon as an iteration embeds nothing, so it runs
    at most len(requests) iterations. `trace`, if given, is a list receiving
    one record per iteration.
    """
    for req in requests:
        if req.shape is not Shape.PATH:
            raise ModelError(f"request {req.req_id!r} is not a path")
    batch = EmbeddingBatch()
    pending = list(requests)
    while pending:
        paths = decompose_paths(net)
        if not paths:
            break
        placements = pack_mkp(paths, pending, mode=mkp_mode, exact_item_limit=exact_item_limit)
        accepted = assign_mdkp(net, placements, mode=mdkp_mode, exact_item_limit=exact_item_limit)
        if trace is not None:
            trace.append({
                "paths": [list(p.nodes) for p in paths],
                "packed": [pl.req.req_id for pl in placements],
                "funded": [pl.req.req_id for pl, _ in accepted],
            })
        if not accepted:
            break
        funded_ids = set()
        for pl, emb in accepted:
            batch.add(pl.req, emb)
            funded_ids.add(pl.req.req_id)
        pending = [r for r in pending if r.req_id not in funded_ids]
    return batch
