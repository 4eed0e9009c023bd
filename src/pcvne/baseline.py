"""Generic topology-agnostic embedding heuristic.

Stand-in comparison arm and fallback: rank substrate nodes by local residual
resources, map virtual nodes greedily in descending demand order, route each
virtual link over the shortest bandwidth-feasible substrate path. Not a
reimplementation of any published algorithm.
"""

from __future__ import annotations

from collections import deque

from .model import Embedding, EmbeddingBatch, commit


def _raw_scores(net, nodes):
    """Residual CPU times summed incident residual BW, for each of `nodes`."""
    cpu, bw = net.residual_cpu, net.residual_bw
    return {v: cpu[v] * sum(bw[k] for _, k in net.incident(v)) for v in nodes}


def node_scores(net):
    """Residual CPU times summed incident residual BW, per node."""
    return _raw_scores(net, net.nodes)


def _walk(net, src, dst, dist, demand, pending):
    """First path src -> dst, depth first in `incident` order (so the
    lexicographically smallest), whose every hop lowers `dist` by one over a
    link with residual BW less its `pending` claim at least `demand`. A node
    found to lead nowhere is not entered again. Returns the SL key list or None."""
    bw = net.residual_bw
    path, dead, todo = [], set(), []
    v, links, want = src, iter(net.incident(src)), dist[src] - 1
    while True:
        for w, k in links:
            if dist.get(w) == want and w not in dead and bw[k] - pending.get(k, 0) >= demand:
                path.append(k)
                if w == dst:
                    return path
                todo.append((v, links, want))
                v, links, want = w, iter(net.incident(w)), want - 1
                break
        else:
            if not todo:
                return None
            dead.add(v)
            del path[-1]
            v, links, want = todo.pop()


def _shortest_feasible_path(net, src, dst, demand, pending):
    """Hop-minimal path src -> dst over links whose residual BW less their
    `pending` claim ({SL: BW}) is at least `demand`; among the shortest ones,
    the lexicographically smallest node sequence. Returns the SL key list or None.

    No usable path is shorter than the hop distance, so the walk over
    `net.hops(dst)` answers whenever a usable one of that length exists. Only a
    detour runs the BFS over usable links from dst until src is labelled, which
    fixes every distance the second walk reads, so it never backtracks."""
    if src == dst:
        return None
    path = _walk(net, src, dst, net.hops(dst), demand, pending)
    if path is not None:
        return path
    bw = net.residual_bw
    dist = {dst: 0}
    queue = deque([dst])
    while queue and src not in dist:
        v = queue.popleft()
        d = dist[v] + 1
        for w, k in net.incident(v):
            if w not in dist and bw[k] - pending.get(k, 0) >= demand:
                dist[w] = d
                queue.append(w)
    return _walk(net, src, dst, dist, demand, pending) if src in dist else None


def generic_embed(net, req, ranked=None):
    """Try to embed one request of any shape against the current residuals.

    Node stage: VNs in descending CPU demand (ties by request order) onto the
    highest-scored feasible unused SNs. Link stage: shortest residual-feasible
    substrate path per VL, accounting for bandwidth already claimed by earlier
    VLs of this request. Returns an Embedding or None; the residuals are left
    untouched either way.

    `ranked` is the caller's node ranking for the current residuals (SNs by
    descending score, ties by id); when None, the SNs are ranked here by
    their raw `node_scores`.
    """
    if ranked is None:
        scores = node_scores(net)
        ranked = sorted(net.nodes, key=lambda v: (-scores[v], v))
    order = sorted(range(req.n_vns), key=lambda i: (-req.cpu_demand[req.vns[i]], i))

    node_map = {}
    used = set()
    for i in order:
        vn = req.vns[i]
        demand = req.cpu_demand[vn]
        host = next((v for v in ranked if v not in used and net.residual_cpu[v] >= demand), None)
        if host is None:
            return None
        node_map[vn] = host
        used.add(host)

    pending = {}
    link_map = {}
    for vl in req.vls:
        demand = req.bw_demand[vl]
        u, v = vl
        path = _shortest_feasible_path(net, node_map[u], node_map[v], demand, pending)
        if path is None:
            return None
        for k in path:
            pending[k] = pending.get(k, 0) + demand
        link_map[vl] = path

    return Embedding(req_id=req.req_id, node_map=node_map, link_map=link_map)


def generic_batch(net, requests):
    """Apply generic_embed in input order, committing each success.

    Nodes are scored and ranked once. Only a commit changes residuals, and
    only the scores of its hosts and of both endpoints of each SL it uses:
    the batch re-scores those and re-sorts the kept ranking in place."""
    batch = EmbeddingBatch()
    scores = node_scores(net)

    def key(v):
        return (-scores[v], v)

    ranked = sorted(net.nodes, key=key)
    for req in requests:
        emb = generic_embed(net, req, ranked=ranked)
        if emb is None:
            continue
        hosts, links = commit(net, req, emb)
        batch.add(req, emb)
        scores.update(_raw_scores(net, set(hosts).union(*links)))
        ranked.sort(key=key)
    return batch
