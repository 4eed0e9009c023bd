"""Independent brute-force oracles used by the test suite.

These deliberately re-derive everything from first principles (plain
enumeration, own modular arithmetic) so they share no solver logic with the
code under test.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations

from pcvne.model import Embedding, EmbeddingBatch, commit, edge_key


def kp_best_profit(capacity, items):
    """Exhaustive 0-1 knapsack optimum over all subsets."""
    n = len(items)
    best = 0
    for mask in range(1 << n):
        size = profit = 0
        for i in range(n):
            if mask >> i & 1:
                size += items[i].size
                profit += items[i].profit
        if size <= capacity and profit > best:
            best = profit
    return best


def mkp_best_profit(capacities, items):
    """Exhaustive multiple-knapsack optimum over all item-to-knapsack maps."""
    m = len(capacities)
    best = 0

    def rec(i, residual, profit):
        nonlocal best
        if profit > best:
            best = profit
        if i == len(items):
            return
        it = items[i]
        rec(i + 1, residual, profit)
        for k in range(m):
            if it.size <= residual[k]:
                residual[k] -= it.size
                rec(i + 1, residual, profit + it.profit)
                residual[k] += it.size

    rec(0, list(capacities), 0)
    return best


def mdkp_best_profit(capacities, items):
    """Exhaustive d-dimensional knapsack optimum over all subsets."""
    n = len(items)
    best = 0
    for mask in range(1 << n):
        totals = [0] * len(capacities)
        profit = 0
        ok = True
        for i in range(n):
            if mask >> i & 1:
                _id, p, sizes = items[i]
                profit += p
                for d, s in enumerate(sizes):
                    totals[d] += s
                    if totals[d] > capacities[d]:
                        ok = False
                        break
                if not ok:
                    break
        if ok and profit > best:
            best = profit
    return best


def sorted_first_fit(capacities, ordered_items):
    """Greedy MKP reference: items in the given order, each into the first
    knapsack with room after re-sorting all knapsacks by (descending
    residual, index). Returns {item_id: knapsack index or None}."""
    residual = list(capacities)
    assignment = {}
    for it in ordered_items:
        assignment[it.item_id] = None
        for k in sorted(range(len(residual)), key=lambda k: (-residual[k], k)):
            if it.size <= residual[k]:
                residual[k] -= it.size
                assignment[it.item_id] = k
                break
    return assignment


def cardinality_ddkp_optimum(capacities, size_vectors):
    """Max number of items packable under component-wise capacities."""
    n = len(size_vectors)
    best = 0
    for r in range(n, 0, -1):
        if r <= best:
            break
        for chosen in combinations(range(n), r):
            totals = [0] * len(capacities)
            ok = True
            for i in chosen:
                for d, s in enumerate(size_vectors[i]):
                    totals[d] += s
                    if totals[d] > capacities[d]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = r
                break
    return best


def ring_order(net):
    """Cyclic node order of a ring substrate, re-derived by walking from the
    minimum node toward its smaller neighbor."""
    start = min(net.nodes)
    order = [start, min(net.neighbors(start))]
    while len(order) < len(net.nodes):
        prev, cur = order[-2], order[-1]
        a, b = net.neighbors(cur)
        order.append(b if a == prev else a)
    return order


def independent_arcs(net, req, start, direction):
    """Arc set of the layered digraph, rebuilt from scratch by a double loop
    applying the two construction rules directly: the tail host must precede
    the head host in the anchored sequence, and every SL on the connecting
    segment must carry the VL demand. Returns {(layer, tail, head): weight}
    including the closing arcs as (n-1, tail, start)."""
    order = ring_order(net)
    m = len(order)
    idx = {v: i for i, v in enumerate(order)}
    sign = 1 if direction == "+" else -1

    def seq_pos(v):
        return (sign * (idx[v] - idx[start])) % m

    def segment_ok(a, hops, demand):
        for t in range(hops):
            u = order[(idx[a] + sign * t) % m]
            v = order[(idx[a] + sign * (t + 1)) % m]
            if net.residual_bw[edge_key(u, v)] < demand:
                return False
        return True

    n = req.n_vns
    feas = [
        {v for v in net.nodes if net.residual_cpu[v] >= req.cpu_demand[vn]}
        for vn in req.vns
    ]
    arcs = {}
    reachable = {start} if start in feas[0] else set()
    for j in range(n - 1):
        demand = req.bw_demand[req.vls[j]]
        nxt = set()
        for tail in reachable:
            for head in feas[j + 1]:
                hops = seq_pos(head) - seq_pos(tail)
                if hops <= 0:
                    continue
                if segment_ok(tail, hops, demand):
                    arcs[(j, tail, head)] = hops * demand
                    nxt.add(head)
        reachable = nxt
        if not reachable:
            return arcs
    demand = req.bw_demand[req.vls[n - 1]]
    for tail in reachable:
        hops = m - seq_pos(tail)
        if segment_ok(tail, hops, demand):
            arcs[(n - 1, tail, start)] = hops * demand
    return arcs


def wdag_all_cycles(w):
    """Every directed cycle through the anchor of a layered digraph, by plain
    depth-first traversal of its arcs. Returns [(host tuple, total weight)]."""
    out = []

    def walk(j, tail, path, cost):
        if j == w.n - 1:
            if tail in w.closing:
                out.append((tuple(path), cost + w.closing[tail][0]))
            return
        for head, weight, _h in w.arcs.get((j, tail), ()):
            path.append(head)
            walk(j + 1, head, path, cost + weight)
            path.pop()

    walk(0, w.start, [w.start], 0)
    return out


def tie_rule_oracle(net, req):
    """The ring solver's answer by exhaustive enumeration, as (start,
    direction, hosts, cost): per anchor and direction the lexicographically
    smallest minimum-cost host tuple; over anchors in sorted order, "+"
    before "-", the first strictly cheapest. None when nothing embeds."""
    from pcvne.theory import enumerate_simplex_embeddings

    best = None
    for start in sorted(net.nodes):
        for direction in ("+", "-"):
            found = enumerate_simplex_embeddings(net, req, start, direction)
            if not found:
                continue
            hosts, cost = min(found, key=lambda hc: (hc[1], hc[0]))
            if best is None or cost < best[3]:
                best = (start, direction, list(hosts), cost)
    return best


def first_fit_paths(net, substrate_paths, requests):
    """Naive control: take requests in input order, place each at the first
    offset of the first decomposed path with room left, commit if it fits the
    residuals. Returns total committed revenue."""
    from pcvne.model import CommitError, commit
    from pcvne.path_embedding import PathPlacement

    free_from = [0] * len(substrate_paths)
    revenue = 0
    for req in requests:
        placed = False
        for k, path in enumerate(substrate_paths):
            if placed:
                break
            if free_from[k] + req.length > path.length:
                continue
            placement = PathPlacement(req=req, path_index=k, path=path, offset=free_from[k])
            emb = placement.to_embedding()
            try:
                commit(net, req, emb)
            except CommitError:
                continue
            free_from[k] += req.length
            revenue += req.revenue
            placed = True
    return revenue


def simplex_min_cost(net, req):
    """Exhaustive minimum cost over every anchored position tableau, with
    direct index arithmetic (no shared helpers)."""
    order = ring_order(net)
    m = len(order)
    idx = {v: i for i, v in enumerate(order)}
    n = req.n_vns
    best = None
    for start in net.nodes:
        if net.residual_cpu[start] < req.cpu_demand[req.vns[0]]:
            continue
        for sign in (1, -1):
            for pos in combinations(range(1, m), n - 1):
                offsets = (0,) + pos
                hosts = [order[(idx[start] + sign * p) % m] for p in offsets]
                if any(net.residual_cpu[h] < req.cpu_demand[vn]
                       for h, vn in zip(hosts, req.vns)):
                    continue
                cost = 0
                ok = True
                for j in range(n):
                    a = offsets[j]
                    b = offsets[j + 1] if j + 1 < n else m
                    demand = req.bw_demand[req.vls[j]]
                    for t in range(a, b):
                        u = order[(idx[start] + sign * t) % m]
                        v = order[(idx[start] + sign * (t + 1)) % m]
                        if net.residual_bw[edge_key(u, v)] < demand:
                            ok = False
                            break
                    if not ok:
                        break
                    cost += (b - a) * demand
                if ok and (best is None or cost < best):
                    best = cost
    return best


# The generic baseline as it was before it reused one node ranking between
# commits and cached incident links: a full re-ranking per request and a BFS
# that labels the whole reachable graph. Kept verbatim as the reference that
# the faster baseline must match embedding for embedding.


def node_scores_reference(net, smooth=False):
    """Residual CPU times summed incident residual BW per node, optionally
    averaged once with the neighbors' scores (one power-iteration step)."""
    scores = {}
    for v in net.nodes:
        bw = sum(net.residual_bw[k] for k in net.incident_edges(v))
        scores[v] = net.residual_cpu[v] * bw
    if not smooth:
        return scores
    smoothed = {}
    for v in net.nodes:
        nbrs = net.neighbors(v)
        if nbrs:
            avg = Fraction(sum(scores[w] for w in nbrs), len(nbrs))
        else:
            avg = 0
        smoothed[v] = Fraction(scores[v] + avg, 2)
    return smoothed


def shortest_feasible_path_reference(net, src, dst, usable):
    """Hop-minimal path src -> dst over links satisfying `usable`; among the
    shortest ones, the lexicographically smallest node sequence. Returns the
    SL key list or None."""
    if src == dst:
        return None
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for w in net.neighbors(v):
            if w not in dist and usable(edge_key(v, w)):
                dist[w] = dist[v] + 1
                queue.append(w)
    if src not in dist:
        return None
    path = []
    cur = src
    while cur != dst:
        for w in net.neighbors(cur):  # neighbors are sorted, first hit wins
            k = edge_key(cur, w)
            if dist.get(w) == dist[cur] - 1 and usable(k):
                path.append(k)
                cur = w
                break
    return path


def generic_embed_reference(net, req, smooth=False):
    """Try to embed one request of any shape against the current residuals.

    Node stage: VNs in descending CPU demand (ties by request order) onto the
    highest-scored feasible unused SNs. Link stage: shortest residual-feasible
    substrate path per VL, accounting for bandwidth already claimed by earlier
    VLs of this request. Returns an Embedding or None.
    """
    scores = node_scores_reference(net, smooth=smooth)
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

        def usable(k, _d=demand):
            return net.residual_bw[k] - pending.get(k, 0) >= _d

        path = shortest_feasible_path_reference(net, node_map[u], node_map[v], usable)
        if path is None:
            return None
        for k in path:
            pending[k] = pending.get(k, 0) + demand
        link_map[vl] = path

    return Embedding(req_id=req.req_id, node_map=node_map, link_map=link_map)


def generic_batch_reference(net, requests, smooth=False):
    """Apply generic_embed_reference in input order, committing each success."""
    batch = EmbeddingBatch()
    for req in requests:
        emb = generic_embed_reference(net, req, smooth=smooth)
        if emb is None:
            continue
        commit(net, req, emb)
        batch.add(req, emb)
    return batch


# The ring solver as it was before it stopped at the cost floor and rejected
# requests that some SL cannot carry: every feasible anchor crossed with both
# directions, the strictly cheapest kept. Kept verbatim as the reference that
# the pruned scan must match embedding for embedding.


def c2ce_reference(net, req):
    """Least-BW-cost one-direction embedding by the full anchor x direction
    scan, as a SimplexEmbedding or None."""
    from pcvne.cycle_embedding import (
        DIRECTIONS,
        CycleView,
        _clockwise_masks,
        _simplex_from_hosts,
        build_wdag,
        feasible_sets,
        min_weight_cycle,
    )

    cycle = CycleView(net)
    fs = feasible_sets(net, req)
    masks = _clockwise_masks(cycle, fs)
    best = None
    for start in sorted(fs.vn_sets[0]):
        for direction in DIRECTIONS:
            w = build_wdag(cycle, req, start, direction, fs=fs, masks=masks)
            found = min_weight_cycle(w)
            if found is None:
                continue
            hosts, cost = found
            if best is None or cost < best.cost:
                best = _simplex_from_hosts(cycle, req, start, direction, hosts)
    return best


def greedy_revenue_reference(net, requests, fallback=None):
    """greedy_revenue on top of c2ce_reference: descending revenue-to-demand
    ratio, commit on success, leftovers offered once each to `fallback`."""
    ranked = sorted(
        requests,
        key=lambda r: Fraction(r.revenue, r.total_cpu_demand + r.total_bw_demand),
        reverse=True,
    )
    batch = EmbeddingBatch()
    leftovers = []
    for req in ranked:
        simplex = c2ce_reference(net, req)
        if simplex is None:
            leftovers.append(req)
            continue
        emb = simplex.to_embedding(req)
        commit(net, req, emb)
        batch.add(req, emb)
    if fallback is not None:
        for req in leftovers:
            emb = fallback(net, req)
            if emb is None:
                continue
            commit(net, req, emb)
            batch.add(req, emb)
    return batch
