"""Substrate network / virtual request data model and the feasibility validator.

Resource quantities are exact: plain ints or ``fractions.Fraction``. All
capacity comparisons are exact, there is no floating-point tolerance anywhere
in the feasibility logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction


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


def as_quantity(x):
    """Coerce to an exact quantity. Floats go through their decimal repr so
    that e.g. 2.5 becomes Fraction(5, 2) instead of a binary approximation."""
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
            return as_quantity(Fraction(x))
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"not a quantity: {x!r}") from None
    raise ModelError(f"not a quantity: {x!r}")


def edge_key(u, v):
    """Canonical unordered key for the link between u and v."""
    if u == v:
        raise ModelError(f"self-loop at {u!r}")
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        raise ModelError(f"ids {u!r} and {v!r} are not comparable") from None


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
    commit/release only. A network with live residual state belongs to a
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

    def neighbors(self, v):
        return self._adj[v]

    def incident(self, v):
        """(neighbor, link key) pairs of v, sorted by neighbor; built once.
        The list is shared, do not mutate it."""
        return self._inc[v]

    def incident_edges(self, v):
        return [k for _, k in self._inc[v]]

    def degree(self, v):
        return len(self._adj[v])

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
        self.shape = Shape(self.shape)
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
        self.cpu_demand = {v: as_quantity(self.cpu_demand[v]) for v in self.vns}
        self.bw_demand = {k: as_quantity(self.bw_demand.get(k, self.bw_demand.get((k[1], k[0])))) for k in keys}
        for v, d in self.cpu_demand.items():
            if d <= 0:
                raise ModelError(f"cpu demand must be positive at {v!r}")
        for k, d in self.bw_demand.items():
            if d is None or d <= 0:
                raise ModelError(f"bw demand must be positive at {k}")
        self.revenue = as_quantity(self.revenue)
        if self.revenue < 0:
            raise ModelError("negative revenue")

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
    a simple substrate path between the mapped endpoints)."""

    req_id: object
    node_map: dict
    link_map: dict

    def used_edges(self):
        for path in self.link_map.values():
            for e in path:
                yield e


@dataclass(frozen=True)
class Violation:
    kind: str  # injectivity | cpu | bw | endpoint
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


def _walk_chain(path, start):
    """Follow a list of SLs from `start`; return the final node or None if the
    chain breaks or revisits a node."""
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


def validate_embedding(net, req, emb, against_residuals=False):
    """Check an embedding of `req` into `net`.

    Returns (verdict, violations). Structural problems (dangling ids, a link
    path that does not chain or is not simple) raise MalformedEmbeddingError;
    capacity, injectivity and endpoint problems are reported as violations.
    By default checks against full capacities; set against_residuals=True to
    check against current residuals instead.
    """
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
        end = _walk_chain(path, su)
        if end is None:
            end_rev = _walk_chain(path, sv)
            if end_rev is None:
                raise MalformedEmbeddingError(f"link path for VL {vl} is not a simple chain")
            if end_rev != su:
                violations.append(Violation("endpoint", f"VL {vl} path does not join {su!r} and {sv!r}"))
        elif end != sv:
            violations.append(Violation("endpoint", f"VL {vl} path ends at {end!r}, expected {sv!r}"))

    cpu_avail = net.residual_cpu if against_residuals else net.cpu_capacity
    bw_avail = net.residual_bw if against_residuals else net.bw_capacity

    cpu_use = {}
    for vn, sn in emb.node_map.items():
        cpu_use[sn] = cpu_use.get(sn, 0) + req.cpu_demand[vn]
    for sn, used in cpu_use.items():
        if used > cpu_avail[sn]:
            violations.append(Violation("cpu", f"SN {sn!r} needs {used}, has {cpu_avail[sn]}"))

    bw_use = {}
    for vl, path in emb.link_map.items():
        d = req.bw_demand[vl]
        for e in path:
            k = edge_key(*e)
            bw_use[k] = bw_use.get(k, 0) + d
    for k, used in bw_use.items():
        if used > bw_avail[k]:
            violations.append(Violation("bw", f"SL {k} needs {used}, has {bw_avail[k]}"))

    return (not violations, violations)


def commit(net, req, emb):
    """Atomically subtract the embedding's demands from the residuals.
    Raises CommitError (no partial update) if it does not fit."""
    ok, violations = validate_embedding(net, req, emb, against_residuals=True)
    if not ok:
        raise CommitError(violations)
    for vn, sn in emb.node_map.items():
        net.residual_cpu[sn] -= req.cpu_demand[vn]
    for vl, path in emb.link_map.items():
        d = req.bw_demand[vl]
        for e in path:
            net.residual_bw[edge_key(*e)] -= d


def release(net, req, emb):
    """Inverse of commit. Raises if releasing would push a residual above its
    capacity (i.e. the embedding was never committed here)."""
    new_cpu = dict(net.residual_cpu)
    new_bw = dict(net.residual_bw)
    for vn, sn in emb.node_map.items():
        new_cpu[sn] += req.cpu_demand[vn]
        if new_cpu[sn] > net.cpu_capacity[sn]:
            raise ModelError(f"release overflows cpu capacity at {sn!r}")
    for vl, path in emb.link_map.items():
        d = req.bw_demand[vl]
        for e in path:
            k = edge_key(*e)
            new_bw[k] += d
            if new_bw[k] > net.bw_capacity[k]:
                raise ModelError(f"release overflows bw capacity at {k}")
    net.residual_cpu = new_cpu
    net.residual_bw = new_bw


class EmbeddingBatch:
    """Accepted (request, embedding) pairs plus aggregate per-SN / per-SL usage."""

    def __init__(self):
        self.items = []
        self.node_usage = {}
        self.edge_usage = {}

    def add(self, req, emb):
        self.items.append((req, emb))
        for vn, sn in emb.node_map.items():
            self.node_usage[sn] = self.node_usage.get(sn, 0) + req.cpu_demand[vn]
        for vl, path in emb.link_map.items():
            d = req.bw_demand[vl]
            for e in path:
                k = edge_key(*e)
                self.edge_usage[k] = self.edge_usage.get(k, 0) + d

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
        for sn, used in self.node_usage.items():
            if used > net.cpu_capacity[sn]:
                violations.append(Violation("cpu", f"aggregate at SN {sn!r}: {used} > {net.cpu_capacity[sn]}"))
        for k, used in self.edge_usage.items():
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
    cpu_used = {v: 0 for v in net.nodes}
    bw_used = {k: 0 for k in net.edges}
    for batch in batches:
        for sn, used in batch.node_usage.items():
            cpu_used[sn] += used
        for k, used in batch.edge_usage.items():
            bw_used[k] += used
    for v in net.nodes:
        if net.residual_cpu[v] != net.cpu_capacity[v] - cpu_used[v]:
            raise ModelError(f"residual cpu mismatch at {v!r}")
    for k in net.edges:
        if net.residual_bw[k] != net.bw_capacity[k] - bw_used[k]:
            raise ModelError(f"residual bw mismatch at {k}")
