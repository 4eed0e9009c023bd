"""Path-request pipeline: decompose the substrate into link-disjoint paths,
pack path requests onto them as a multiple-knapsack, then fund the packed
placements with CPU/BW resources as a multi-dimensional knapsack, repeating
on the updated residuals until an iteration places nothing."""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from operator import itemgetter

from .knapsack import mkp_order, solve_mdkp, solve_mkp
from .model import Embedding, EmbeddingBatch, ModelError, Shape, as_quantity, commit, distinct_ids, edge_key


def _dfs_tree(root, adj):
    """Iterative depth-first tree (children in list order, each pushed once,
    with the recursive traversal's parent) and its deepest node (ties: lowest
    id). `parent` is filled in preorder: each node comes after its parent."""
    parent = {root: None}
    stack = [(root, iter(adj[root]))]
    far, far_depth = root, 0
    while stack:
        v, children = stack[-1]
        for w in children:
            if w not in parent:
                parent[w] = v
                depth = len(stack)
                if depth > far_depth or (depth == far_depth and w < far):
                    far, far_depth = w, depth
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()
    return parent, far


def decompose_paths(net):
    """Split the usable substrate (SNs with positive residual CPU, SLs with
    positive residual BW between two of them) into link-disjoint simple paths.

    Repeatedly: root a DFS tree at the usable node of maximum degree (ties by
    lowest id, off a lazy heap), emit its longest path (from its deepest node a
    to the node farthest from a, read off the same tree's parents) and drop its
    links. Each path is its tuple of SNs, at least two and all distinct.
    `procedure_pe` reuses the paths until a residual hits 0.
    """
    bw = net.residual_bw
    usable = {v for v in net.nodes if net.residual_cpu[v] > 0}
    # `incident` is sorted by neighbor, so each list comes out sorted
    adj = {v: [w for w, k in net.incident(v) if w in usable and bw[k] > 0] for v in usable}
    heap = [(-len(nbrs), v) for v, nbrs in adj.items() if nbrs]
    heapq.heapify(heap)

    paths = []
    while heap:
        neg_degree, root = heapq.heappop(heap)
        if len(adj[root]) != -neg_degree:  # stale: the degree fell since the push, so re-key it
            if adj[root]:
                heapq.heappush(heap, (-len(adj[root]), root))
            continue
        parent, a = _dfs_tree(root, adj)
        rank, v = {a: 0}, a  # a and its ancestors up to the root, by distance to a
        while (v := parent[v]) is not None:
            rank[v] = len(rank)
        dist = {}  # tree distance to a; `parent` lists each parent before its children
        for v, p in parent.items():
            dist[v] = rank[v] if v in rank else dist[p] + 1
        far = max(dist.values())
        b = min(v for v, d in dist.items() if d == far)
        seq = [b]  # up from b to a's first ancestor, then down to a
        while seq[-1] not in rank:
            seq.append(parent[seq[-1]])
        seq += reversed(list(rank)[:rank[seq[-1]]])
        if seq[0] > seq[-1]:
            seq.reverse()
        paths.append(tuple(seq))
        for i in range(len(seq) - 1):
            adj[seq[i]].remove(seq[i + 1])
            adj[seq[i + 1]].remove(seq[i])
        heapq.heappush(heap, (neg_degree, root))  # stale if the path took root's links
    return paths


def path_items(requests):
    """The path requests in MKP order (`mkp_order`) as items of size = link
    count and profit = revenue. Any sublist stays in that order, so the
    pipeline sorts them once. Refuses a request that is not a path, duplicate
    ids, and a revenue that is not a non-negative quantity."""
    requests = list(requests)
    for req in requests:
        if req.shape is not Shape.PATH:
            raise ModelError(f"request {req.req_id!r} is not a path")
    ids = distinct_ids(requests)
    profits = []
    for p in map(as_quantity, (req.revenue for req in requests)):
        if p < 0:
            raise ModelError("negative profit")
        profits.append(p)
    return [requests[i] for i in mkp_order(profits, [req.length for req in requests], ids)]


def pack_mkp(paths, items):
    """Pack path requests (`path_items` order) onto the decomposed substrate
    paths, as (request, path index, offset) triples.

    Each substrate path is a knapsack of capacity = its link count, each
    request an item of profit = its revenue and size = its link count, handed
    to `solve_mkp` as plain lists in that order. Packed items receive concrete
    offsets left to right in efficiency order, sharing boundary SNs between
    consecutive placements: the triples come path by path, in MKP order
    within each path.
    """
    packed = solve_mkp([len(p) - 1 for p in paths], [req.revenue for req in items],
                       [len(req.vls) for req in items])
    placements = []
    used = [0] * len(paths)  # links already taken on each path
    for i, k in packed:
        req = items[i]
        placements.append((req, k, used[k]))
        used[k] += req.length
    placements.sort(key=itemgetter(1))  # stable: path by path, MKP order within
    return placements


def assign_mdkp(net, paths, links, placements):
    """Fund packed placements with CPU and BW out of the current residuals.

    A placement (req, k, o) puts VN i on SN `paths[k][o + i]` and VL i on SL
    `links[k][o + i]` (`links[k]` holds path k's SL keys). Each placement is
    an item whose (dimension, size) pairs, read off that slice (a simple
    path's SNs are distinct), are its `footprint`; the dimensions are the SNs
    and SLs they touch, numbered at first touch (SN and SL keys apart, so a
    tuple SN id never meets an SL key), with their residuals as capacities.
    The model has checked every one of these quantities, so `solve_mdkp`
    takes them as given; it weighs and orders the items. Only the selected
    placements become Embeddings, each returned as (request, embedding,
    the footprint its `commit` returned).
    """
    touched = itertools.count().__next__  # the next dimension index
    sn_dim, sl_dim = defaultdict(touched), defaultdict(touched)
    items = []
    for idx, (req, k, o) in enumerate(placements):
        cpu, bw = req.cpu_demand, req.bw_demand
        pairs = [(sn_dim[sn], cpu[vn]) for vn, sn in zip(req.vns, paths[k][o:o + len(cpu)])]
        pairs += [(sl_dim[sl], bw[vl]) for vl, sl in zip(req.vls, links[k][o:o + len(bw)])]
        items.append((idx, req.revenue, pairs))
    capacities = [None] * (len(sn_dim) + len(sl_dim))
    for dims, residual in ((sn_dim, net.residual_cpu), (sl_dim, net.residual_bw)):
        for key, i in dims.items():
            capacities[i] = residual[key]

    selected, _profit = solve_mdkp(capacities, items)

    accepted = []
    for req, k, o in map(placements.__getitem__, sorted(selected)):
        emb = Embedding(node_map=dict(zip(req.vns, paths[k][o:])),
                        link_map={vl: [sl] for vl, sl in zip(req.vls, links[k][o:])})
        accepted.append((req, emb, commit(net, req, emb)))
    return accepted


def procedure_pe(net, requests, trace=None):
    """Full pipeline loop. Mutates `net` residuals; returns the accepted batch.

    Each iteration packs the pending requests onto the decomposed usable
    residual substrate, funds the packed placements and commits the funded
    ones; the decomposition (and each path's SL keys) is recomputed only
    once a commit drove the residual of one of its SNs or SLs to 0
    (residuals only fall). The loop stops as soon as an iteration embeds
    nothing, so it runs at most len(requests) iterations. `trace`, if given,
    gets one record per iteration. `requests` may be any iterable; it is
    read once.
    """
    pending = {req.req_id: req for req in path_items(requests)}  # in MKP order; funded ones leave
    batch = EmbeddingBatch()
    paths = None
    while pending:
        if paths is None:
            paths = decompose_paths(net)
            links = [tuple(map(edge_key, p, p[1:])) for p in paths]
        if not paths:
            break
        placements = pack_mkp(paths, list(pending.values()))
        accepted = assign_mdkp(net, paths, links, placements)
        if trace is not None:
            trace.append({
                "paths": [list(p) for p in paths],
                "packed": [req.req_id for req, _k, _o in placements],
                "funded": [req.req_id for req, _emb, _use in accepted],
            })
        if not accepted:
            break
        for req, emb, (cpu, bw) in accepted:
            batch.add(req, emb)
            del pending[req.req_id]
            if 0 in map(net.residual_cpu.__getitem__, cpu) or 0 in map(net.residual_bw.__getitem__, bw):
                paths = None
    return batch
