"""Independent brute-force oracles used by the test suite.

These deliberately re-derive everything from first principles (plain
enumeration, own modular arithmetic) so they share no solver logic with the
code under test.
"""

from itertools import combinations

from pcvne.model import edge_key


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
