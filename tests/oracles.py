"""Independent brute-force oracles used by the test suite.

These deliberately re-derive everything from first principles (plain
enumeration, own modular arithmetic) so they share no solver logic with the
code under test.
"""

import heapq
import math
from collections import deque, namedtuple
from fractions import Fraction
from itertools import combinations

from pcvne.model import (
    Embedding,
    EmbeddingBatch,
    MalformedEmbeddingError,
    ModelError,
    Shape,
    Violation,
    as_quantity,
    commit,
    edge_key,
    footprint,
)
from verify_theory import SizeCapExceeded

# A knapsack item as the KP and MKP oracles read it: a plain record, unchecked.
Item = namedtuple("Item", "item_id size profit")


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


def solve_kp_dp(capacity, items):
    """Exact 0-1 knapsack by dynamic programming over the capacity axis.

    Sizes must be ints. Returns (selected item ids, optimal profit).
    O(n * capacity) time and space.
    """
    if not isinstance(capacity, int) or capacity < 0:
        raise ModelError(f"capacity must be a non-negative int, got {capacity!r}")
    n = len(items)
    best = [0] * (capacity + 1)
    keep = [[False] * (capacity + 1) for _ in range(n)]
    for i, it in enumerate(items):
        if it.size > capacity:
            continue
        for c in range(capacity, it.size - 1, -1):
            cand = best[c - it.size] + it.profit
            if cand > best[c]:
                best[c] = cand
                keep[i][c] = True
    selected = []
    c = capacity
    for i in range(n - 1, -1, -1):
        if keep[i][c]:
            selected.append(items[i].item_id)
            c -= items[i].size
    selected.reverse()
    return selected, best[capacity]


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


def mdkp_pairs(items):
    """MDKP (id, profit, dense size row) items as `solve_mdkp` takes them:
    each row as the (dimension, size) pairs of its nonzero sizes."""
    return [(item_id, profit, [(k, s) for k, s in enumerate(row) if s]) for item_id, profit, row in items]


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


def first_fit_stop_on_smallest_reference(capacities, items):
    """A frozen copy of `knapsack.first_fit` before its stop test read the
    remaining items: it stops once the top residual is below the smallest
    size of all the items. (position, knapsack) per packed item."""
    heap = [(-b, k) for k, b in enumerate(capacities)]
    heapq.heapify(heap)
    packed = []
    smallest = min((it.size for it in items), default=0)
    top = -heap[0][0] if heap else -1
    for i, it in enumerate(items):
        if top < smallest:
            break
        if it.size <= top:
            packed.append((i, heap[0][1]))
            heapq.heapreplace(heap, (it.size - top, heap[0][1]))
            top = -heap[0][0]
    return packed


def mkp_exact_reference(capacities, items):
    """A frozen copy of `knapsack.solve_mkp`'s exact mode when it took its own
    items: the items in item_order_key order, then the first optimum an
    include-first depth-first search meets, pruned by the fractional-knapsack
    bound over the summed residual capacity, each knapsack residual tried
    once. Returns {item_id: knapsack index or None}."""
    items = sorted(items, key=item_order_key)
    residual = list(capacities)
    current, best, best_profit = [], [], 0

    def bound(i, room):
        total = 0
        for it in items[i:]:
            if it.size == 0:
                total += it.profit
            elif room <= 0:
                break
            elif it.size <= room:
                total += it.profit
                room -= it.size
            else:
                total += it.profit * Fraction(room, it.size)
                room = 0
        return total

    def dfs(i, profit):
        nonlocal best, best_profit
        if profit > best_profit:
            best, best_profit = list(current), profit
        if i == len(items) or profit + bound(i, sum(residual)) <= best_profit:
            return
        tried = set()
        for k, r in enumerate(residual):
            if r in tried or items[i].size > r:
                continue
            tried.add(r)
            residual[k] -= items[i].size
            current.append((items[i].item_id, k))
            dfs(i + 1, profit + items[i].profit)
            current.pop()
            residual[k] += items[i].size
        dfs(i + 1, profit)

    dfs(0, 0)
    return {**dict.fromkeys(it.item_id for it in items), **dict(best)}


def _id_key(item_id):
    return (type(item_id).__name__, repr(item_id))


def item_order_key(item):
    """The MKP item order as one exact key per Item: profit/size descending
    as a Fraction (a zero-size item ranks first if its profit is positive,
    else at efficiency 0), ties by smaller size, then by the id's type name
    and repr."""
    if item.size == 0:
        eff = math.inf if item.profit > 0 else 0
    else:
        eff = Fraction(item.profit) / item.size
    return (-eff, item.size, _id_key(item.item_id))


def mdkp_weight_reference(capacities, sizes):
    """Surrogate weight of an MDKP item: the sum of size / capacity over the
    dimensions with positive capacity, one Fraction per component."""
    pairs = sizes.items() if isinstance(sizes, dict) else enumerate(sizes)
    return sum(Fraction(s, capacities[i]) for i, s in pairs if capacities[i] > 0)


def mdkp_order_reference(capacities, items):
    """MDKP (id, profit, sizes) items in funding order, by one plain Fraction
    key: (-profit/weight, weight, id type name and repr), weight =
    mdkp_weight_reference; at weight 0 a positive profit ranks first and a
    zero profit at efficiency 0."""
    def key(item):
        item_id, p, sizes = item
        w = mdkp_weight_reference(capacities, sizes)
        eff = (math.inf if p > 0 else 0) if w == 0 else Fraction(p) / w
        return (-eff, w, _id_key(item_id))
    return sorted(items, key=key)


def _mdkp_take(capacities, residual, sizes):
    """Take the sizes off the residual if they fit, and say whether they did; a
    positive size on a zero-capacity dimension never fits."""
    pairs = list(sizes.items() if isinstance(sizes, dict) else enumerate(sizes))
    if not all(s == 0 or (capacities[i] > 0 and s <= residual[i]) for i, s in pairs):
        return False
    for i, s in pairs:
        residual[i] -= s
    return True


def mdkp_greedy_reference(capacities, items):
    """Greedy MDKP: first fit in mdkp_order_reference order. Returns
    (selected ids in that order, profit)."""
    residual = list(capacities)
    selected, profit = [], 0
    for item_id, p, sizes in mdkp_order_reference(capacities, items):
        if _mdkp_take(capacities, residual, sizes):
            selected.append(item_id)
            profit += p
    return selected, profit


def mdkp_exact_reference(capacities, items):
    """Exact MDKP by enumeration: of the feasible subsets with the largest
    profit, the first when each is read as its positions in
    mdkp_order_reference order and compared as tuples (the first optimum an
    include-first depth-first search meets). Returns (selected ids in that
    order, profit)."""
    order = mdkp_order_reference(capacities, items)
    best = ((), 0)
    for k in range(1, len(order) + 1):
        for combo in combinations(range(len(order)), k):
            residual = list(capacities)
            if not all(_mdkp_take(capacities, residual, order[j][2]) for j in combo):
                continue
            profit = sum(order[j][1] for j in combo)
            if profit > best[1] or (profit == best[1] and combo < best[0]):
                best = (combo, profit)
    return [order[j][0] for j in best[0]], best[1]


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


def cpu_link_feasible_hosts(net, req, vn):
    """Nodes that could host `vn`: enough CPU, and at least one incident link
    able to carry the largest demand among the VLs touching `vn`."""
    need_cpu = req.cpu_demand[vn]
    vl_demands = [req.bw_demand[k] for k in req.vls if vn in k]
    need_bw = max(vl_demands, default=0)
    hosts = set()
    for v in net.nodes:
        if net.cpu_capacity[v] < need_cpu:
            continue
        if need_bw and not any(net.bw_capacity[k] >= need_bw for _, k in net.incident(v)):
            continue
        hosts.add(v)
    return hosts


def ring_order(net):
    """Cyclic node order of a ring substrate, re-derived by walking from the
    minimum node toward its smaller neighbor. Raises ModelError when some
    node's degree is not 2 (a connected substrate is then one ring)."""
    if len(net.nodes) < 3 or any(len(net.neighbors(v)) != 2 for v in net.nodes):
        raise ModelError("substrate is not a ring")
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
    depth-first traversal of the arcs in its `to_json` dump. Returns [(host
    tuple, total weight)]."""
    dump = w.to_json()
    arcs, closing = {}, {}
    for arc in dump["arcs"]:
        arcs.setdefault(tuple(arc["tail"]), []).append((arc["head"][1], as_quantity(arc["weight"])))
    for arc in dump["closing"]:
        closing[arc["tail"][1]] = as_quantity(arc["weight"])
    out = []

    def walk(j, tail, path, cost):
        if j == w.n - 1:
            if tail in closing:
                out.append((tuple(path), cost + closing[tail]))
            return
        for head, weight in arcs.get((j, tail), ()):
            path.append(head)
            walk(j + 1, head, path, cost + weight)
            path.pop()

    walk(0, w.start, [w.start], 0)
    return out


def tie_rule_oracle(net, req):
    """The ring solver's answer by exhaustive enumeration, as (start,
    direction, hosts, cost): the cheapest tableau of `ring_tableaux`, ties
    to the smaller start, then "+" before "-" (so in ASCII order), then the
    lexicographically smallest host tuple. None when nothing embeds."""
    found = [(cost, start, direction, hosts)
             for start, direction, hosts, cost in ring_tableaux(net, req)]
    if not found:
        return None
    cost, start, direction, hosts = min(found)
    return start, direction, list(hosts), cost


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


# Exhaustive embedding oracles: the ring minimum and the maximum number of
# simultaneously embeddable path or cycle requests. Embeddings are built here
# from ring_order and plain path walks, never by the solvers' own code.

SIMPLEX_RING_CAP = 8   # cycle requests: substrate nodes
SIMPLEX_VN_CAP = 5     # cycle requests: virtual nodes per request
PATH_SN_CAP = 7        # path requests: substrate nodes
PATH_LINK_CAP = 3      # path requests: links per request
PATH_REQUEST_CAP = 6   # path requests per max_accepted call


def ring_tableaux(net, req):
    """(start, direction, hosts, cost) of every feasible one-direction cycle
    embedding, by direct position enumeration against the residuals: starts
    that host the first VN in sorted order, each "+" (along ring_order) then
    "-", and per anchor every choice of ring offsets for the other VNs."""
    if req.shape is not Shape.CYCLE:
        raise ModelError(f"request {req.req_id!r} is not a cycle request")
    order = ring_order(net)
    m = len(order)
    idx = {v: i for i, v in enumerate(order)}
    n = req.n_vns
    for start in sorted(net.nodes):
        if net.residual_cpu[start] < req.cpu_demand[req.vns[0]]:
            continue
        for direction, sign in (("+", 1), ("-", -1)):
            ring = [order[(idx[start] + sign * t) % m] for t in range(m + 1)]  # ends back at start
            for positions in combinations(range(1, m), n - 1):
                offsets = (0,) + positions + (m,)
                hosts = tuple(ring[p] for p in offsets[:-1])
                if any(net.residual_cpu[h] < req.cpu_demand[vn] for h, vn in zip(hosts, req.vns)):
                    continue
                cost = 0
                for j in range(n):
                    a, b = offsets[j], offsets[j + 1]
                    demand = req.bw_demand[req.vls[j]]
                    if any(net.residual_bw[edge_key(ring[t], ring[t + 1])] < demand for t in range(a, b)):
                        break
                    cost += (b - a) * demand
                else:
                    yield start, direction, hosts, cost


def _refuse_past_caps(net, requests):
    """Raise SizeCapExceeded, naming the cap, past any cap, and ModelError
    for a general request."""
    m = len(net.nodes)
    for req in requests:
        if req.shape is Shape.CYCLE:
            if m > SIMPLEX_RING_CAP:
                raise SizeCapExceeded(f"{m} substrate nodes, cap {SIMPLEX_RING_CAP} for cycle requests")
            if req.n_vns > SIMPLEX_VN_CAP:
                raise SizeCapExceeded(f"{req.n_vns} virtual nodes in request {req.req_id!r}, "
                                      f"cap {SIMPLEX_VN_CAP}")
        elif req.shape is Shape.PATH:
            if m > PATH_SN_CAP:
                raise SizeCapExceeded(f"{m} substrate nodes, cap {PATH_SN_CAP} for path requests")
            if req.length > PATH_LINK_CAP:
                raise SizeCapExceeded(f"{req.length} links in request {req.req_id!r}, cap {PATH_LINK_CAP}")
        else:
            raise ModelError(f"request {req.req_id!r} has shape {req.shape.value!r}; "
                             "the exhaustive oracles take path and cycle requests")
    paths = sum(req.shape is Shape.PATH for req in requests)
    if paths > PATH_REQUEST_CAP:
        raise SizeCapExceeded(f"{paths} path requests, cap {PATH_REQUEST_CAP}")


def brute_force_simplex_cycle(net, req):
    """Minimum-cost one-direction cycle embedding over every tableau, as
    (hosts, cost), or None when nothing embeds."""
    _refuse_past_caps(net, [req])
    return min(((hosts, cost) for _s, _d, hosts, cost in ring_tableaux(net, req)),
               key=lambda hc: hc[1], default=None)


def _path_host_sequences(net, req):
    """Node sequences of every simple substrate path with the request's link
    count that fits the residuals, VN i on the i-th SN and VL i on the i-th
    SL (the path pipeline's own model), by depth-first walks from each SN."""
    if not req.vns:
        yield ()
        return

    def walk(seq):
        i = len(seq)
        if i == req.n_vns:
            yield tuple(seq)
            return
        demand = req.bw_demand[req.vls[i - 1]]
        for w in net.neighbors(seq[-1]):
            if (w not in seq and net.residual_cpu[w] >= req.cpu_demand[req.vns[i]]
                    and net.residual_bw[edge_key(seq[-1], w)] >= demand):
                yield from walk(seq + [w])

    for v in net.nodes:
        if net.residual_cpu[v] >= req.cpu_demand[req.vns[0]]:
            yield from walk([v])


def candidate_embeddings(net, req):
    """Every embedding max_accepted tries for one request against the
    current residuals: a cycle request's ring tableaux, each VL on the arc
    from its host to the next host, or a path request's host sequences."""
    if req.shape is Shape.PATH:
        return [Embedding(req.req_id, dict(zip(req.vns, seq)),
                          {vl: [edge_key(a, b)] for vl, a, b in zip(req.vls, seq, seq[1:])})
                for seq in _path_host_sequences(net, req)]
    order = ring_order(net)
    ahead = order[1:] + order[:1]
    steps = {"+": dict(zip(order, ahead)), "-": dict(zip(ahead, order))}
    out = []
    for _start, direction, hosts, _cost in ring_tableaux(net, req):
        step = steps[direction]
        link_map = {}
        for j, vl in enumerate(req.vls):
            u, stop, sls = hosts[j], hosts[(j + 1) % len(hosts)], []
            while u != stop:
                sls.append(edge_key(u, step[u]))
                u = step[u]
            link_map[vl] = sls
        out.append(Embedding(req.req_id, dict(zip(req.vns, hosts)), link_map))
    return out


def release(net, req, emb):
    """Inverse of commit. Raises, changing nothing, if releasing would push a
    residual above its capacity (i.e. the embedding was never committed here)."""
    cpu, bw = footprint([(req, emb)])
    for sn, d in cpu.items():
        if net.residual_cpu[sn] + d > net.cpu_capacity[sn]:
            raise ModelError(f"release overflows cpu capacity at {sn!r}")
    for k, d in bw.items():
        if net.residual_bw[k] + d > net.bw_capacity[k]:
            raise ModelError(f"release overflows bw capacity at {k}")
    for sn, d in cpu.items():
        net.residual_cpu[sn] += d
    for k, d in bw.items():
        net.residual_bw[k] += d


def _walk_chain_reference(path, start):
    """The end of the chain of SLs from `start`, or None if it breaks or revisits a node."""
    cur = start
    visited = {start}
    for e in path:
        u, v = e
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return None
        if cur in visited:
            return None
        visited.add(cur)
    return cur


def check_reference(net, req, emb, against_residuals):
    """A frozen copy of the embedding check `validate_embedding` and `commit`
    ran before their one-pass rewrite: (violations, footprint), or the same
    MalformedEmbeddingError/ModelError. Every map is walked check by check,
    every SL canonicalised with edge_key, every link path walked as a chain."""
    if set(emb.node_map) != set(req.vns):
        raise MalformedEmbeddingError("node map does not cover exactly the request VNs")
    if set(emb.link_map) != set(req.vls):
        raise MalformedEmbeddingError("link map does not cover exactly the request VLs")
    for vn, sn in emb.node_map.items():
        if sn not in net.cpu_capacity:
            raise MalformedEmbeddingError(f"VN {vn!r} mapped to unknown SN {sn!r}")
    for vl, path in emb.link_map.items():
        if not path:
            raise MalformedEmbeddingError(f"empty link path for VL {vl}")
        for e in path:
            if edge_key(*e) not in net.bw_capacity:
                raise MalformedEmbeddingError(f"VL {vl} routed over unknown SL {e}")

    violations = []
    mapped = {}
    for vn, sn in emb.node_map.items():
        if sn in mapped:
            violations.append(Violation("injectivity", f"VNs {mapped[sn]!r} and {vn!r} share SN {sn!r}"))
        else:
            mapped[sn] = vn

    for vl, path in emb.link_map.items():
        u, v = vl
        su, sv = emb.node_map[u], emb.node_map[v]
        end = _walk_chain_reference(path, su)
        if end is None:
            end_rev = _walk_chain_reference(path, sv)
            if end_rev is None:
                raise MalformedEmbeddingError(f"link path for VL {vl} is not a simple chain")
            if end_rev != su:
                violations.append(Violation("endpoint", f"VL {vl} path does not join {su!r} and {sv!r}"))
        elif end != sv:
            violations.append(Violation("endpoint", f"VL {vl} path ends at {end!r}, expected {sv!r}"))

    cpu_avail = net.residual_cpu if against_residuals else net.cpu_capacity
    bw_avail = net.residual_bw if against_residuals else net.bw_capacity
    cpu_use, bw_use = use = footprint([(req, emb)])
    for sn, used in cpu_use.items():
        if used > cpu_avail[sn]:
            violations.append(Violation("cpu", f"SN {sn!r} needs {used}, has {cpu_avail[sn]}"))
    for k, used in bw_use.items():
        if used > bw_avail[k]:
            violations.append(Violation("bw", f"SL {k} needs {used}, has {bw_avail[k]}"))
    return violations, use


def virtual_request_reference(req_id, shape, vns, vls, cpu_demand, bw_demand, revenue=1):
    """A frozen copy of `VirtualRequest`'s checks before its one-pass rewrite:
    the canonical (shape, vls, cpu_demand, bw_demand, revenue) of the request,
    or the same exception with the same message. Every check runs in turn."""
    shape = Shape(shape)
    if len(set(vns)) != len(vns):
        raise ModelError("duplicate virtual node ids")
    vn_set = set(vns)
    keys = []
    for u, v in vls:
        k = edge_key(u, v)
        if u not in vn_set or v not in vn_set:
            raise ModelError(f"virtual link {k} references unknown VN")
        keys.append(k)
    if len(set(keys)) != len(keys):
        raise ModelError("duplicate virtual links")
    n = len(vns)
    if shape is Shape.PATH:
        expected = [edge_key(vns[i], vns[i + 1]) for i in range(n - 1)]
        if keys != expected:
            raise ModelError("path request links must chain consecutive VNs")
    elif shape is Shape.CYCLE:
        if n < 3:
            raise ModelError("cycle request needs at least 3 VNs")
        expected = [edge_key(vns[i], vns[(i + 1) % n]) for i in range(n)]
        if keys != expected:
            raise ModelError("cycle request links must chain VNs and close")
    for v in vns:
        if v not in cpu_demand:
            raise ModelError(f"missing cpu demand for {v!r}")
    for k in keys:
        if k not in bw_demand and (k[1], k[0]) not in bw_demand:
            raise ModelError(f"missing bw demand for {k}")
    cpu = {v: as_quantity(cpu_demand[v]) for v in vns}
    bw = {k: as_quantity(bw_demand[k] if k in bw_demand else bw_demand[k[1], k[0]]) for k in keys}
    for v, d in cpu.items():
        if d <= 0:
            raise ModelError(f"cpu demand must be positive at {v!r}")
    for k, d in bw.items():
        if d <= 0:
            raise ModelError(f"bw demand must be positive at {k}")
    revenue = as_quantity(revenue)
    if revenue < 0:
        raise ModelError("negative revenue")
    return shape, keys, cpu, bw, revenue


def _fit_count(needs, room):
    """How many of the demands `needs` fit together into `room`, smallest first."""
    count = 0
    for need in sorted(needs):
        room -= need
        if room < 0:
            break
        count += 1
    return count


def max_accepted(net, requests):
    """Maximum number of the path and cycle requests simultaneously
    embeddable, by depth-first search over each request's candidate
    embeddings with commit/release on a private copy. A branch is cut off
    once the requests left that fit the summed residual CPU, and those that
    fit the summed residual BW, cannot beat the best count: every candidate
    takes its request's total CPU and at least its total BW. A general
    request raises ModelError, anything past the caps SizeCapExceeded."""
    _refuse_past_caps(net, requests)
    work = net.copy()
    cpu_need = [req.total_cpu_demand for req in requests]
    bw_need = [req.total_bw_demand for req in requests]
    best = 0

    def dfs(i, accepted):
        nonlocal best
        best = max(best, accepted)
        if i == len(requests):
            return
        left = min(_fit_count(cpu_need[i:], sum(work.residual_cpu.values())),
                   _fit_count(bw_need[i:], sum(work.residual_bw.values())))
        if accepted + left <= best:
            return
        req = requests[i]
        for emb in candidate_embeddings(work, req):  # a list: commits change the residuals
            commit(work, req, emb)
            dfs(i + 1, accepted + 1)
            release(work, req, emb)
        dfs(i + 1, accepted)

    dfs(0, 0)
    return best


# The generic baseline as it was before it reused one node ranking between
# commits, kept incident BW sums, refused a request whose largest VN fits no
# SN before ranking, and cached incident links: every request re-sums every
# node's incident BW and re-ranks all nodes, and its BFS labels the whole
# reachable graph. Kept verbatim as the reference that the faster baseline
# must match embedding for embedding.


def node_scores_reference(net):
    """Residual CPU times summed incident residual BW per node."""
    scores = {}
    for v in net.nodes:
        bw = sum(net.residual_bw[k] for _, k in net.incident(v))
        scores[v] = net.residual_cpu[v] * bw
    return scores


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


def generic_embed_reference(net, req):
    """Try to embed one request of any shape against the current residuals.

    Node stage: VNs in descending CPU demand (ties by request order) onto the
    highest-scored feasible unused SNs. Link stage: shortest residual-feasible
    substrate path per VL, accounting for bandwidth already claimed by earlier
    VLs of this request. Returns an Embedding or None.
    """
    scores = node_scores_reference(net)
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


def generic_batch_reference(net, requests):
    """Apply generic_embed_reference in input order, committing each success."""
    batch = EmbeddingBatch()
    for req in requests:
        emb = generic_embed_reference(net, req)
        if emb is None:
            continue
        commit(net, req, emb)
        batch.add(req, emb)
    return batch


# feasible_sets as first written: one comprehension per VN and per VL, so
# no two layers share a mask. Kept as the reference that the masks built
# once per distinct demand must equal, layer for layer.


def feasible_sets_reference(cycle, req):
    """Per-VN host masks over clockwise node indices and per-VL bad-SL masks
    over clockwise edge indices, each built on its own."""
    net = cycle.net
    cpu = [net.residual_cpu[v] for v in cycle.order]
    bw = [net.residual_bw[k] for k in cycle.links]
    hosts = [[c >= req.cpu_demand[vn] for c in cpu] for vn in req.vns]
    bad = [[b < req.bw_demand[vl] for b in bw] for vl in req.vls]
    return hosts, bad


# The ring solver as it was before it stopped at the cost floor and rejected
# requests that some SL cannot carry: every feasible anchor crossed with both
# directions, the strictly cheapest kept. Kept, on the current mask API, as
# the reference that the pruned scan must match embedding for embedding.


def c2ce_reference(net, req):
    """Least-BW-cost one-direction embedding by the full anchor x direction
    scan, as a SimplexEmbedding or None."""
    from pcvne.cycle_embedding import CycleView, _simplex_from_hosts, min_weight_cycle, wdags

    cycle = CycleView(net)
    best = None
    for w in wdags(cycle, req):
        found = min_weight_cycle(w)
        if found is None:
            continue
        hosts, cost = found
        if best is None or cost < best.cost:
            best = _simplex_from_hosts(cycle, req, w.start, w.direction, hosts)
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


# decompose_paths as first written: a scan over every active node for each
# path's root, sorted tree lists, and two farthest-node sweeps over the tree.


def _dfs_tree_reference(root, adj):
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


def _tree_farthest_reference(start, tree_adj):
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


def decompose_paths_reference(net):
    """Split the usable part of the substrate (SNs with positive residual CPU,
    SLs with positive residual BW between two of them) into link-disjoint
    simple paths.

    Repeatedly: root a DFS tree at the usable node of maximum degree (ties by
    lowest id), take the longest path inside that tree (its diameter, exact by
    the classic two-pass sweep), emit it, remove its links, drop isolated
    nodes. Every usable SL ends up in exactly one returned path.
    """
    from pcvne.path_embedding import SubstratePath

    nodes = {v for v in net.nodes if net.residual_cpu[v] > 0}
    edges = {k for k in net.edges
             if net.residual_bw[k] > 0 and k[0] in nodes and k[1] in nodes}
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
        parent = _dfs_tree_reference(root, adj)
        tree_adj = {v: [] for v in parent}
        for v, p in parent.items():
            if p is not None:
                tree_adj[v].append(p)
                tree_adj[p].append(v)
        for v in tree_adj:
            tree_adj[v].sort()
        a, _ = _tree_farthest_reference(root, tree_adj)
        b, par = _tree_farthest_reference(a, tree_adj)
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


# The greedy path pipeline in its plain form: one exact Fraction key per item
# for every sort, a re-sort per path, a Fraction sum per funding weight and a
# fresh decomposition every iteration, where procedure_pe sorts on integer
# ranks, sums weights as integers and decomposes again only once a residual
# reached 0. Only PathPlacement and commit are shared with the code under test.


def path_items_reference(requests):
    """A frozen copy of `path_items` when it built one checked item per
    request: (Item, request) pairs in item_order_key order, or the same
    ModelError (shapes, then ids, then each revenue in request order)."""
    for req in requests:
        if req.shape is not Shape.PATH:
            raise ModelError(f"request {req.req_id!r} is not a path")
    req_of = {req.req_id: req for req in requests}
    if len(req_of) != len(requests):
        raise ModelError("duplicate request ids")
    items = []
    for req in requests:
        profit = as_quantity(req.revenue)
        if profit < 0:
            raise ModelError("negative profit")
        items.append(Item(req.req_id, req.length, profit))
    return [(it, req_of[it.item_id]) for it in sorted(items, key=item_order_key)]


def pack_mkp_reference(paths, requests, mode="greedy"):
    """Placements by the rule pack_mkp followed while it built its own items:
    the MKP over one Item per request in request order (greedy:
    sorted_first_fit in item_order_key order; exact: mkp_exact_reference),
    then path by path the packed items left to right in item_order_key order."""
    from pcvne.path_embedding import PathPlacement

    items = [Item(r.req_id, r.length, r.revenue) for r in requests]
    caps = [p.length for p in paths]
    if mode == "greedy":
        assignment = sorted_first_fit(caps, sorted(items, key=item_order_key))
    else:
        assignment = mkp_exact_reference(caps, items)
    req_of = {r.req_id: r for r in requests}
    placements = []
    for k, path in enumerate(paths):
        offset = 0
        for it in sorted((it for it in items if assignment[it.item_id] == k), key=item_order_key):
            req = req_of[it.item_id]
            placements.append(PathPlacement(req=req, path_index=k, path=path, offset=offset))
            offset += req.length
    return placements


def procedure_pe_reference(net, requests):
    """Decompose (decompose_paths_reference), first-fit the pending requests
    in item_order_key order, place each path's items left to right in that
    order, fund greedily by revenue over mdkp_weight_reference, commit; repeat
    until an iteration embeds nothing. Mutates `net`; returns the accepted
    batch."""
    batch = EmbeddingBatch()
    pending = list(requests)
    while pending:
        paths = decompose_paths_reference(net)
        if not paths:
            break
        placements = pack_mkp_reference(paths, pending)

        caps = {("cpu", v): net.residual_cpu[v] for v in net.nodes}
        caps.update({("bw", e): net.residual_bw[e] for e in net.edges})
        funding = []
        for idx, pl in enumerate(placements):
            emb = pl.to_embedding()
            sizes = {}
            for vn, sn in emb.node_map.items():
                sizes[("cpu", sn)] = sizes.get(("cpu", sn), 0) + pl.req.cpu_demand[vn]
            for vl, sls in emb.link_map.items():
                for e in sls:
                    e = edge_key(*e)
                    sizes[("bw", e)] = sizes.get(("bw", e), 0) + pl.req.bw_demand[vl]
            w = mdkp_weight_reference(caps, sizes)
            eff = (math.inf if pl.req.revenue > 0 else 0) if w == 0 else pl.req.revenue / w
            funding.append(((-eff, w, _id_key(idx)), idx, emb, sizes))
        residual = dict(caps)
        funded = []
        for _key, idx, emb, sizes in sorted(funding, key=lambda f: f[0]):
            if all(s == 0 or (caps[d] > 0 and s <= residual[d]) for d, s in sizes.items()):
                for d, s in sizes.items():
                    residual[d] -= s
                funded.append((idx, emb))
        if not funded:
            break
        for idx, emb in sorted(funded, key=lambda f: f[0]):
            commit(net, placements[idx].req, emb)
            batch.add(placements[idx].req, emb)
        funded_ids = {placements[idx].req.req_id for idx, _ in funded}
        pending = [r for r in pending if r.req_id not in funded_ids]
    return batch


def supereulerian_reference(g):
    """Whether some edge subset of the graph touches every node, gives each
    an even degree and is connected, by trying every subset (one-node and
    empty graphs count as supereulerian)."""
    if len(g.nodes) <= 1:
        return True
    for mask in range(1, 1 << len(g.edges)):
        chosen = [e for i, e in enumerate(g.edges) if mask >> i & 1]
        degree = {v: 0 for v in g.nodes}
        for u, v in chosen:
            degree[u] += 1
            degree[v] += 1
        if any(d == 0 or d % 2 for d in degree.values()):
            continue
        seen, stack = {chosen[0][0]}, [chosen[0][0]]
        while stack:
            x = stack.pop()
            for u, v in chosen:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in seen:
                        seen.add(b)
                        stack.append(b)
        if len(seen) == len(g.nodes):
            return True
    return False
