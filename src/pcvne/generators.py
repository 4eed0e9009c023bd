"""Seeded instance generation: random topologies and request workloads."""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, filterfalse
from math import comb, isqrt

from .model import ModelError, Shape, SubstrateNetwork, VirtualRequest, edge_key


class SpecError(ModelError):
    """Impossible or inconsistent generation parameters."""


@dataclass
class SubstrateSpec:
    n_nodes: int
    topology: str = "random"  # random | complete | cycle | path
    n_edges: int | None = None  # random topology only
    cpu_capacity: object = 100
    bw_capacity: object = 100


@dataclass
class RequestSpec:
    shape: str = "path"           # path | cycle
    count: int = 10
    length_range: tuple = (5, 10)  # link count for paths, VN count for cycles
    demand_range: tuple = (1, 5)
    revenue_rule: str = "unit"     # unit | proportional (to VN count)


def _need_ints(**fields):
    """Raise SpecError naming the first field that holds a non-int or a bool."""
    for field, values in fields.items():
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise SpecError(f"{field}: {x!r} is not an int")


def gen_substrate(spec, seed):
    """Deterministic substrate for a spec: a random connected graph (spanning
    tree plus uniform extra links), or a complete graph, cycle, or path."""
    rng = random.Random(seed)
    n = spec.n_nodes
    _need_ints(n_nodes=[n], n_edges=[] if spec.n_edges is None else [spec.n_edges])
    if n < 1:
        raise SpecError("need at least one node")
    if spec.topology in ("complete", "cycle", "path") and spec.n_edges is not None:
        raise SpecError(f"n_edges is only for the random topology, not {spec.topology!r}")
    nodes = list(range(n))
    if spec.topology == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif spec.topology == "cycle":
        if n < 3:
            raise SpecError("cycle needs at least 3 nodes")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif spec.topology == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif spec.topology == "random":
        m = spec.n_edges
        if m is None:
            raise SpecError("random topology needs n_edges")
        if m < n - 1 or m > comb(n, 2):
            raise SpecError(f"cannot build a connected simple graph with {n} nodes and {m} edges")
        edges = random_connected_edges(rng, n, m - (n - 1))
    else:
        raise SpecError(f"unknown topology {spec.topology!r}")
    return SubstrateNetwork(nodes, edges, dict.fromkeys(nodes, spec.cpu_capacity),
                            {edge_key(u, v): spec.bw_capacity for u, v in edges})


def random_connected_edges(rng, n, extra=None):
    """Canonical links of a random connected graph on 0..n-1, tree first: in a
    shuffled node order each node joins a uniformly chosen earlier one; then
    `extra` (default: uniform) links drawn uniformly from the remaining pairs."""
    order = list(range(n))
    rng.shuffle(order)
    tree = [edge_key(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    free = _FreePairs(n, tree)
    if extra is None:
        extra = rng.randint(0, len(free))
    return tree + rng.sample(free, min(extra, len(free)))


class _FreePairs(Sequence):
    """The pairs of `combinations(range(n), 2)` that are not tree links, in that order, in O(n)
    memory: item i is the pair of rank i plus the tree ranks it passes, unranked in closed form."""

    def __init__(self, n, tree):
        self.n, self.tree = n, set(tree)
        ranks = enumerate(sorted(u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in self.tree))
        self.skip = [r - j for j, r in ranks]  # the free pairs ranked below each tree link
        self.size = comb(n, 2) - len(self.skip)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        back = self.size + len(self.skip) - 1 - i - bisect_right(self.skip, i)  # rank from the last pair
        t = (isqrt(8 * back + 1) - 1) // 2  # the pair is in the row of t + 1 pairs, t rows above the last
        return self.n - 2 - t, self.n - 1 - back + t * (t + 1) // 2

    def __iter__(self):
        return filterfalse(self.tree.__contains__, combinations(range(self.n), 2))


def gen_requests(spec, seed):
    """Deterministic request workload. Path lengths are link counts, cycle
    lengths are VN counts; demands are uniform over the demand range; the
    revenue is 1 under the "unit" rule and the VN count under "proportional".
    Each request owns its `vls` list; equal links share one immutable tuple."""
    rng = random.Random(seed)
    ranges = {"length_range": spec.length_range, "demand_range": spec.demand_range}
    for field, pair in ranges.items():
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise SpecError(f"{field}: {pair!r} is not a pair")
    (lo, hi), (dlo, dhi) = ranges.values()
    _need_ints(count=[spec.count], length_range=[lo, hi], demand_range=[dlo, dhi])
    if lo > hi:
        raise SpecError(f"length_range ({lo}, {hi}) is empty")
    if dlo > dhi:
        raise SpecError(f"demand_range ({dlo}, {dhi}) is empty")
    if dlo < 1:
        raise SpecError(f"demand_range ({dlo}, {dhi}) starts below 1")
    if spec.count < 0:
        raise SpecError(f"negative request count {spec.count}")
    try:
        shape = Shape(spec.shape)
    except ValueError:
        raise SpecError(f"unknown request shape {spec.shape!r}") from None
    if shape is Shape.GENERAL:
        raise SpecError("gen_requests makes 'path' and 'cycle' requests, not 'general'")
    if spec.revenue_rule not in ("unit", "proportional"):
        raise SpecError(f"unknown revenue rule {spec.revenue_rule!r}")
    if shape is Shape.CYCLE and lo < 3:
        raise SpecError("cycle requests need at least 3 VNs")
    if shape is Shape.PATH and lo < 1:
        raise SpecError("path requests need at least one link")
    bits, width, proportional = rng.getrandbits, dhi - dlo + 1, spec.revenue_rule == "proportional"
    k = width.bit_length()  # a demand draw is randrange(dlo, dhi + 1), inlined: the same stream
    chain, closing = [], {}  # chain[i] is the link (i, i + 1), closing[n] is (0, n - 1)
    requests = []
    for req_id in range(spec.count):
        length = rng.randrange(lo, hi + 1)
        n_vns = length + 1 if shape is Shape.PATH else length
        vns = list(range(n_vns))
        chain.extend((i, i + 1) for i in range(len(chain), n_vns - 1))
        vls = chain[:n_vns - 1]  # canonical links, the closing one of a cycle last
        if shape is Shape.CYCLE:
            vls.append(closing.setdefault(n_vns, (0, n_vns - 1)))
        demands = []  # CPU per VN, then BW per link
        for _ in range(n_vns + len(vls)):
            r = bits(k)
            while r >= width:
                r = bits(k)
            demands.append(dlo + r)
        requests.append(VirtualRequest(req_id, shape, vns, vls, dict(zip(vns, demands)),
                                       dict(zip(vls, demands[n_vns:])), n_vns if proportional else 1))
    return requests
