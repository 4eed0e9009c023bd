"""Generic topology-agnostic embedding heuristic.

Stand-in comparison arm and fallback after Yu et al., "Rethinking virtual
network embedding" (SIGCOMM CCR 2008), not a copy: rank SNs by H = residual
CPU times summed incident residual BW, map VNs greedily in descending demand,
route each VL on a shortest BW-feasible path (their link stage, k = 1). A
request whose largest VN fits no SN is refused before any ranking. A batch
keeps SN incident BW sums across commits, failed routes' cuts up to the next.
"""

from __future__ import annotations

from collections import deque

from .model import Embedding, EmbeddingBatch, commit, distinct_ids


def node_scores(net):
    """Residual CPU times summed incident residual BW, per node."""
    cpu, bw = net.residual_cpu, net.residual_bw
    return {v: cpu[v] * sum(bw[k] for _, k in net.incident(v)) for v in net.nodes}


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


def _components(net, demand):
    """Component label of every SN over the SLs with residual BW >= demand."""
    bw, label = net.residual_bw, {}
    for s in net.nodes:
        if s not in label:
            label[s], todo = s, [s]
            while todo:
                for w, k in net.incident(todo.pop()):
                    if w not in label and bw[k] >= demand:
                        label[w] = s
                        todo.append(w)
    return label


def generic_embed(net, req, ranked=None, cuts=None):
    """Try to embed one request of any shape against the current residuals.

    Node stage: VNs by descending CPU demand, ties in request order (a stable
    reverse sort), onto the highest-scored feasible unused SNs. Link stage: a
    shortest residual-feasible substrate path per VL, net of the BW claimed by
    the request's earlier VLs. Returns an Embedding or None, leaving residuals
    untouched; None before any ranking if the largest VN (placed first) fits no SN.

    `ranked` is the caller's ranking of the SNs for the current residuals (by
    descending score, ties by id); when None, they are ranked by `node_scores`.
    `cuts` is the caller's memo {demand: `_components` at it} for the current
    residuals: a failed route stores its demand's labels, and a request is
    refused unrouted if a VL of demand d' has its two (distinct) hosts apart
    at a stored demand <= d'. Exact: that VL's usable SLs all carry d' or more.
    """
    if max(req.cpu_demand.values(), default=0) > max(net.residual_cpu.values(), default=0):
        return None
    if ranked is None:
        scores = node_scores(net)
        ranked = sorted(net.nodes, key=lambda v: (-scores[v], v))
    cpu, demand = net.residual_cpu, req.cpu_demand
    node_map, used = {}, set()
    # a reverse sort is stable, so VNs of equal demand keep request order
    for vn in sorted(req.vns, key=demand.__getitem__, reverse=True):
        need = demand[vn]
        for v in ranked:
            if v not in used and cpu[v] >= need:
                break
        else:
            return None
        node_map[vn] = v
        used.add(v)

    if cuts:
        for u, v in req.vls:
            d, u, v = req.bw_demand[u, v], node_map[u], node_map[v]
            for level, label in cuts.items():
                if level <= d and label[u] != label[v]:
                    return None
    pending = {}
    link_map = {}
    for vl in req.vls:
        demand = req.bw_demand[vl]
        u, v = vl
        path = _shortest_feasible_path(net, node_map[u], node_map[v], demand, pending)
        if path is None:
            if cuts is not None:
                cuts[demand] = _components(net, demand)
            return None
        for k in path:
            pending[k] = pending.get(k, 0) + demand
        link_map[vl] = path

    return Embedding(node_map=node_map, link_map=link_map)


def generic_batch(net, requests):
    """Apply generic_embed in input order, committing each success. `requests`
    may be any iterable; it is read once. Refuses duplicate request ids.

    Nodes are ranked, and their incident BW summed, once. Only a commit
    changes residuals: it lowers the sums at both ends of each SL by the SL's
    drop, re-keys those SNs and its hosts, re-sorts the nearly sorted list,
    and clears the `cuts` memo that generic_embed fills at failed routes."""
    requests = list(requests)
    distinct_ids(requests)
    batch = EmbeddingBatch()
    cpu, bw = net.residual_cpu, net.residual_bw
    inc = {v: sum(bw[k] for _, k in net.incident(v)) for v in net.nodes}
    rank = {v: (-s, v) for v, s in node_scores(net).items()}
    ranked = sorted(net.nodes, key=rank.__getitem__)
    cuts = {}
    for req in requests:
        emb = generic_embed(net, req, ranked=ranked, cuts=cuts)
        if emb is None:
            continue
        hosts, links = commit(net, req, emb)
        batch.add(req, emb)
        cuts.clear()
        for (u, w), d in links.items():
            inc[u] -= d
            inc[w] -= d
        for v in set(hosts).union(*links):
            rank[v] = (-cpu[v] * inc[v], v)
        ranked.sort(key=rank.__getitem__)
    return batch
