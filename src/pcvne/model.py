"""Substrate network / virtual request data model and the feasibility validator.

Resource quantities are exact: plain ints or ``fractions.Fraction``. All
capacity comparisons are exact, there is no floating-point tolerance anywhere
in the feasibility logic.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import lt


class ModelError(ValueError):
    """Invalid model data (bad graph, bad request, bad quantities)."""


class MalformedEmbeddingError(ModelError):
    """Embedding is structurally broken: dangling ids or a non-contiguous,
    non-simple link path. Distinct from a capacity violation, which is a
    well-formed embedding that does not fit."""


class CommitError(ModelError):
    """Attempted to commit an embedding that does not fit the residuals."""

    def __init__(self, violations):
        super().__init__("infeasible commit: " + "; ".join(str(v) for v in violations))
        self.violations = violations


_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # before Python 3.10.7: no limit, 0


def as_quantity(x):
    """Coerce to an exact quantity. Floats go through their decimal repr so
    that e.g. 2.5 becomes Fraction(5, 2) instead of a binary approximation.
    A string with an exponent is refused before it is expanded if its
    mantissa's length plus the exponent's size passes Python's int/str digit
    limit (`sys.get_int_max_str_digits()`, 0 for none), as a JSON int would."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise ModelError(f"bool is not a quantity: {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, float):
        return as_quantity(str(x))
    if isinstance(x, str):
        try:
            mantissa, e, exp = x.lower().rpartition("e")
            if e and 0 < _int_digit_limit() < len(mantissa) + abs(int(exp)):
                raise ValueError
            return as_quantity(Fraction(x))
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"not a quantity: {x!r}") from None
    raise ModelError(f"not a quantity: {x!r}")


def edge_key(u, v):
    """Canonical unordered key for the link between u and v."""
    if u == v:
        raise ModelError(f"self-loop at {u!r}")
    try:
        if u <= v:
            return (u, v)
        if v <= u:  # neither holds for NaN
            return (v, u)
    except TypeError:
        pass
    raise ModelError(f"ids {u!r} and {v!r} are not comparable")


def is_connected(nodes, adj):
    """Whether every node of the sequence `nodes` is reachable from the first
    through `adj` (node -> neighbors). No nodes counts as connected."""
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


class Shape(str, enum.Enum):
    PATH = "path"
    CYCLE = "cycle"
    GENERAL = "general"


class SubstrateNetwork:
    """Undirected simple connected graph with CPU on nodes and BW on links.

    Capacities are immutable after construction; residuals mutate through
    commit only. A network with live residual state belongs to a
    single worker, copy() before sharing.
    """

    def __init__(self, nodes, edges, cpu_capacity, bw_capacity):
        self.nodes = list(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ModelError("duplicate node ids")
        node_set = set(self.nodes)
        self.edges = []
        seen = set()
        for u, v in edges:
            k = edge_key(u, v)
            if k in seen:
                raise ModelError(f"parallel edge {k}")
            if u not in node_set or v not in node_set:
                raise ModelError(f"edge {k} references unknown node")
            seen.add(k)
            self.edges.append(k)
        self.cpu_capacity = {}
        for v in self.nodes:
            if v != v:  # NaN, on no link: written out as NaN, which is not JSON
                raise ModelError(f"node id {v!r} is not equal to itself")
            if v not in cpu_capacity:
                raise ModelError(f"missing cpu capacity for {v!r}")
            q = as_quantity(cpu_capacity[v])
            if q < 0:
                raise ModelError(f"negative cpu capacity at {v!r}")
            self.cpu_capacity[v] = q
        self.bw_capacity = {}
        for k in self.edges:
            if k in bw_capacity:
                raw = bw_capacity[k]
            elif (k[1], k[0]) in bw_capacity:
                raw = bw_capacity[(k[1], k[0])]
            else:
                raise ModelError(f"missing bw capacity for {k}")
            q = as_quantity(raw)
            if q < 0:
                raise ModelError(f"negative bw capacity at {k}")
            self.bw_capacity[k] = q
        self._inc = {v: [] for v in self.nodes}
        for k in self.edges:
            u, v = k
            self._inc[u].append((v, k))
            self._inc[v].append((u, k))
        for pairs in self._inc.values():
            pairs.sort()
        self._adj = {v: [w for w, _ in pairs] for v, pairs in self._inc.items()}
        if not is_connected(self.nodes, self._adj):
            raise ModelError("substrate graph is not connected")
        self.residual_cpu = dict(self.cpu_capacity)
        self.residual_bw = dict(self.bw_capacity)
        self._hops = {}

    def neighbors(self, v):
        return self._adj[v]

    def incident(self, v):
        """(neighbor, link key) pairs of v, sorted by neighbor; built once.
        The list is shared, do not mutate it."""
        return self._inc[v]

    def degree(self, v):
        return len(self._adj[v])

    def hops(self, dst):
        """Hop distance of every SN to `dst` over all links, residuals ignored.
        Built by one BFS on first use and kept, as the topology never changes
        (a copy() starts with none). The dict is shared, do not mutate it."""
        row = self._hops.get(dst)
        if row is None:
            row = self._hops[dst] = {dst: 0}
            order = [dst]
            for v in order:  # grows as it is read: a BFS queue
                d = row[v] + 1
                for w in self._adj[v]:
                    if w not in row:
                        row[w] = d
                        order.append(w)
        return row

    def copy(self):
        net = SubstrateNetwork(self.nodes, self.edges, self.cpu_capacity, self.bw_capacity)
        net.residual_cpu = dict(self.residual_cpu)
        net.residual_bw = dict(self.residual_bw)
        return net

    def check_residual_bounds(self):
        for v in self.nodes:
            if not (0 <= self.residual_cpu[v] <= self.cpu_capacity[v]):
                raise ModelError(f"residual cpu out of bounds at {v!r}")
        for k in self.edges:
            if not (0 <= self.residual_bw[k] <= self.bw_capacity[k]):
                raise ModelError(f"residual bw out of bounds at {k}")


@dataclass
class VirtualRequest:
    """A path- or cycle-shaped (or general) request with per-node CPU demand,
    per-link BW demand and a revenue weight."""

    req_id: object
    shape: Shape
    vns: list
    vls: list
    cpu_demand: dict
    bw_demand: dict
    revenue: object = 1

    def __post_init__(self):
        if type(self.shape) is not Shape:
            self.shape = Shape(self.shape)
        if self.req_id != self.req_id:  # NaN: a dump of it cannot load back
            raise ModelError(f"request id {self.req_id!r} is not equal to itself")
        if self._take_chain():  # kept: without it path-oversub setup_s is 11% higher
            return
        # otherwise the checks one by one, raising the first defect
        if len(set(self.vns)) != len(self.vns):
            raise ModelError("duplicate virtual node ids")
        vn_set = set(self.vns)
        keys = []
        for u, v in self.vls:
            k = edge_key(u, v)
            if u not in vn_set or v not in vn_set:
                raise ModelError(f"virtual link {k} references unknown VN")
            keys.append(k)
        if len(set(keys)) != len(keys):
            raise ModelError("duplicate virtual links")
        self.vls = keys
        for v in self.vns:
            if v != v:  # NaN, on no link
                raise ModelError(f"virtual node id {v!r} is not equal to itself")
        n = len(self.vns)
        if self.shape is Shape.PATH:
            expected = [edge_key(self.vns[i], self.vns[i + 1]) for i in range(n - 1)]
            if keys != expected:
                raise ModelError("path request links must chain consecutive VNs")
        elif self.shape is Shape.CYCLE:
            if n < 3:
                raise ModelError("cycle request needs at least 3 VNs")
            expected = [edge_key(self.vns[i], self.vns[(i + 1) % n]) for i in range(n)]
            if keys != expected:
                raise ModelError("cycle request links must chain VNs and close")
        cpu, bw = self.cpu_demand, self.bw_demand
        for v in self.vns:
            if v not in cpu:
                raise ModelError(f"missing cpu demand for {v!r}")
        for k in keys:
            if k not in bw and (k[1], k[0]) not in bw:
                raise ModelError(f"missing bw demand for {k}")
        self.cpu_demand = {v: as_quantity(cpu[v]) for v in self.vns}
        self.bw_demand = {k: as_quantity(bw[k] if k in bw else bw[k[1], k[0]]) for k in keys}
        for v, d in self.cpu_demand.items():
            if d <= 0:
                raise ModelError(f"cpu demand must be positive at {v!r}")
        for k, d in self.bw_demand.items():
            if d <= 0:
                raise ModelError(f"bw demand must be positive at {k}")
        self.revenue = as_quantity(self.revenue)
        if self.revenue < 0:
            raise ModelError("negative revenue")

    def _take_chain(self):
        """One pass for a valid path or cycle request on strictly ascending VN
        ids, given as a list of canonical links, two dicts of positive int
        demands and an int revenue: the links must be exactly the chain
        through the VNs (a cycle closed by (first, last)) and each demand be
        found under its VN or link. Sets the fields as the step-by-step checks
        would and returns True; else changes nothing and returns False."""
        vns, vls, cpu, bw, shape = self.vns, self.vls, self.cpu_demand, self.bw_demand, self.shape
        if (type(vns) is not list or type(vls) is not list or type(cpu) is not dict
                or type(bw) is not dict or type(self.revenue) is not int or self.revenue < 0):
            return False
        after = vns[1:]
        chain = list(zip(vns, after))
        if shape is Shape.CYCLE and len(vns) >= 3:
            chain.append((vns[0], vns[-1]))
        elif shape is not Shape.PATH:
            return False
        try:
            # ascending: distinct, each link canonical and no NaN (`lt` sees no lone VN)
            if vls != chain or not all(map(lt, vns, after)) or vns and vns[0] != vns[0]:
                return False
            keys = list(map(tuple, vls))
            cpu = {v: d for v in vns if type(d := cpu[v]) is int and d > 0}
            bw = {k: d for k in keys if type(d := bw[k]) is int and d > 0}
        except (KeyError, TypeError):
            return False
        if len(cpu) != len(vns) or len(bw) != len(keys):
            return False
        self.vls, self.cpu_demand, self.bw_demand = keys, cpu, bw
        return True

    @property
    def n_vns(self):
        return len(self.vns)

    @property
    def length(self):
        return len(self.vls)

    @property
    def total_cpu_demand(self):
        return sum(self.cpu_demand.values())

    @property
    def total_bw_demand(self):
        return sum(self.bw_demand.values())


@dataclass
class Embedding:
    """Node map (VN to SN) plus link map (VL to an ordered list of SLs forming
    a simple substrate path between the mapped endpoints). It does not name
    its request: every reader takes the request beside it."""

    node_map: dict
    link_map: dict


@dataclass(frozen=True)
class Violation:
    kind: str  # injectivity | cpu | bw | endpoint
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


def _walk_chain(path, start):
    """Follow a list of SLs from `start`; return the final node or None if the
    chain breaks or revisits a node."""
    cur, visited = start, {start}
    for a, b in path:
        cur = b if cur == a else a if cur == b else None
        if cur is None or cur in visited:
            return None
        visited.add(cur)
    return cur


def footprint(pairs):
    """CPU per SN and BW per canonical SL that the (request, embedding) pairs
    take together, as two dicts. Both batch checks read it; `commit` returns
    the same quantity for its one pair, summed in its check's walk."""
    cpu, bw = {}, {}
    for req, emb in pairs:
        for vn, sn in emb.node_map.items():
            cpu[sn] = cpu.get(sn, 0) + req.cpu_demand[vn]
        for vl, path in emb.link_map.items():
            d = req.bw_demand[vl]
            for e in path:
                k = edge_key(*e)
                bw[k] = bw.get(k, 0) + d
    return cpu, bw


def validate_embedding(net, req, emb):
    """Check an embedding of `req` into `net` against its full capacities.

    Returns (verdict, violations). Structural problems (dangling ids, a link
    path that does not chain or is not simple) raise MalformedEmbeddingError;
    capacity, injectivity and endpoint problems are reported as violations.
    `commit` checks against the current residuals instead.
    """
    violations, _use = _check(net, req, emb, False)
    return (not violations, violations)


def _check(net, req, emb, against_residuals):
    """`validate_embedding`'s violations, and the embedding's footprint. Each
    map is walked once, and the walk that checks an SN or SL adds its demand
    to the footprint; a broken chain is raised once every SL is known."""
    node_map, link_map = emb.node_map, emb.link_map
    if node_map.keys() != req.cpu_demand.keys():  # the demand maps are keyed by the VNs and VLs
        raise MalformedEmbeddingError("node map does not cover exactly the request VNs")
    if link_map.keys() != req.bw_demand.keys():
        raise MalformedEmbeddingError("link map does not cover exactly the request VLs")
    cpu_cap, bw_cap = net.cpu_capacity, net.bw_capacity
    violations = []
    cpu_demand = req.cpu_demand
    cpu_use = {}
    for vn, sn in node_map.items():
        if sn in cpu_use:  # named after the first VN on that SN (matched as a dict key is)
            first = next(v for v, s in node_map.items() if s is sn or s == sn)
            violations.append(Violation("injectivity", f"VNs {first!r} and {vn!r} share SN {sn!r}"))
            cpu_use[sn] += cpu_demand[vn]
        elif sn in cpu_cap:
            cpu_use[sn] = cpu_demand[vn]
        else:
            raise MalformedEmbeddingError(f"VN {vn!r} mapped to unknown SN {sn!r}")

    bw_use = {}
    broken = None  # the first VL whose path chains from neither end, raised after the SL checks
    for vl, path in link_map.items():
        if not path:
            raise MalformedEmbeddingError(f"empty link path for VL {vl}")
        d = req.bw_demand[vl]
        for e in path:
            # kept: without it ring method.solve_s is 4% and path-oversub generic.solve_s 3% higher
            try:
                known = type(e) is tuple and e in bw_cap  # then e is a canonical key
            except TypeError:  # an unhashable id: edge_key below names the fault
                known = False
            k = e if known else edge_key(*e)
            if not known and k not in bw_cap:
                raise MalformedEmbeddingError(f"VL {vl} routed over unknown SL {e}")
            bw_use[k] = bw_use.get(k, 0) + d
        if broken is not None:
            continue
        su, sv = node_map[vl[0]], node_map[vl[1]]
        # kept: without it path-light and path-oversub method.solve_s are 2-4% higher
        if len(path) == 1:  # one SL, not a self-loop: its end from su, else from sv
            a, b = path[0]
            end = b if su == a else a if su == b else None
            end_rev = b if sv == a else a if sv == b else None
        else:
            end = _walk_chain(path, su)
            end_rev = None if end is not None else _walk_chain(path, sv)
        if end is None:
            if end_rev is None:
                broken = vl
            elif end_rev != su:
                violations.append(Violation("endpoint", f"VL {vl} path does not join {su!r} and {sv!r}"))
        elif end != sv:
            violations.append(Violation("endpoint", f"VL {vl} path ends at {end!r}, expected {sv!r}"))
    if broken is not None:
        raise MalformedEmbeddingError(f"link path for VL {broken} is not a simple chain")

    cpu_avail = net.residual_cpu if against_residuals else cpu_cap
    bw_avail = net.residual_bw if against_residuals else bw_cap
    for sn, used in cpu_use.items():
        if used > cpu_avail[sn]:
            violations.append(Violation("cpu", f"SN {sn!r} needs {used}, has {cpu_avail[sn]}"))
    for k, used in bw_use.items():
        if used > bw_avail[k]:
            violations.append(Violation("bw", f"SL {k} needs {used}, has {bw_avail[k]}"))

    return violations, (cpu_use, bw_use)


def commit(net, req, emb):
    """Atomically subtract the embedding's footprint from the residuals and
    return it as (cpu, bw). Raises CommitError (no partial update) if it does
    not fit."""
    violations, (cpu, bw) = _check(net, req, emb, True)
    if violations:
        raise CommitError(violations)
    for sn, d in cpu.items():
        net.residual_cpu[sn] -= d
    for k, d in bw.items():
        net.residual_bw[k] -= d
    return cpu, bw


def distinct_ids(requests):
    """The ids of a request list, in order; a ModelError if two requests
    share one. Every embedder checks its requests with it."""
    ids = [req.req_id for req in requests]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate request ids")
    return ids


class EmbeddingBatch:
    """Accepted (request, embedding) pairs."""

    def __init__(self):
        self.items = []

    def add(self, req, emb):
        self.items.append((req, emb))

    def __len__(self):
        return len(self.items)

    @property
    def revenue(self):
        return sum(req.revenue for req, _ in self.items)

    def accepted_ids(self):
        return [req.req_id for req, _ in self.items]

    def validate_against(self, net):
        """Re-validate the whole batch against full capacities: each embedding
        individually well-formed, aggregate usage within every capacity."""
        violations = []
        for req, emb in self.items:
            ok, vio = validate_embedding(net, req, emb)
            for v in vio:
                if v.kind != "cpu" and v.kind != "bw":
                    violations.append(v)
        cpu, bw = footprint(self.items)
        for sn, used in cpu.items():
            if used > net.cpu_capacity[sn]:
                violations.append(Violation("cpu", f"aggregate at SN {sn!r}: {used} > {net.cpu_capacity[sn]}"))
        for k, used in bw.items():
            if used > net.bw_capacity[k]:
                violations.append(Violation("bw", f"aggregate at SL {k}: {used} > {net.bw_capacity[k]}"))
        return (not violations, violations)


def batch_metrics(batch, total_requests):
    """Acceptance ratio |accepted| / total and total revenue. A zero-request
    workload has ratio 0 by definition."""
    if total_requests < 0:
        raise ModelError("negative request count")
    if total_requests == 0:
        return Fraction(0), 0
    ratio = Fraction(len(batch), total_requests)
    return ratio, batch.revenue


def audit_residuals(net, batches):
    """Check residual = capacity - committed demand, exactly, for every node
    and link, given all batches committed on `net`. Raises on mismatch."""
    cpu_used, bw_used = footprint(pair for batch in batches for pair in batch.items)
    for v in net.nodes:
        if net.residual_cpu[v] != net.cpu_capacity[v] - cpu_used.get(v, 0):
            raise ModelError(f"residual cpu mismatch at {v!r}")
    for k in net.edges:
        if net.residual_bw[k] != net.bw_capacity[k] - bw_used.get(k, 0):
            raise ModelError(f"residual bw mismatch at {k}")
