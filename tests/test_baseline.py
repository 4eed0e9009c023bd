import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcvne.baseline as baseline
from conftest import (
    make_cycle_request,
    make_net,
    make_path_request,
    path_net,
    random_connected_graph,
    ring_net,
    uniform_path_request,
)
from oracles import generic_batch_reference, node_scores_reference, shortest_feasible_path_reference
from pcvne.baseline import generic_batch, generic_embed, node_scores
from pcvne.generators import RequestSpec, SubstrateSpec, gen_requests, gen_substrate
from pcvne.model import Embedding, Shape, VirtualRequest, audit_residuals, commit, edge_key


def graph_net(g, cpu=100, bw=100):
    return make_net(list(g.nodes), list(g.edges), cpu, bw)


class TestNodeScores:
    def test_raw_scores(self):
        net = path_net(3, cpu=2, bw=5)
        scores = node_scores(net)
        assert scores[0] == 2 * 5
        assert scores[1] == 2 * 10


class TestGenericEmbed:
    def test_single_vn_lands_on_only_feasible_host(self):
        net = make_net([0, 1], [(0, 1)], {0: 1, 1: 9}, 5)
        req = make_path_request("r", [7], [])
        emb = generic_embed(net, req)
        assert emb is not None and emb.node_map[0] == 1

    def test_unsatisfiable_cpu_returns_none(self):
        net = path_net(3, cpu=4)
        req = make_path_request("r", [5], [])
        assert generic_embed(net, req) is None

    def test_no_link_capacity_returns_none(self):
        net = path_net(3, cpu=10, bw=1)
        req = make_path_request("r", [1, 1], [2])
        assert generic_embed(net, req) is None

    def test_outputs_validate_on_random_instances(self):
        rng = random.Random(7)
        produced = 0
        for _ in range(50):
            g = random_connected_graph(rng, 10)
            net = graph_net(g, cpu=rng.randint(3, 8), bw=rng.randint(2, 6))
            length = rng.randint(1, 5)
            req = make_path_request(
                "r", [rng.randint(1, 3) for _ in range(length + 1)],
                [rng.randint(1, 3) for _ in range(length)])
            emb = generic_embed(net, req)
            if emb is None:
                continue
            produced += 1
            commit(net.copy(), req, emb)  # raises unless it fits the residuals
        assert produced >= 30

    def test_handles_cycle_requests(self):
        from conftest import ring_net

        net = ring_net(6)
        req = make_cycle_request("c", [1, 1, 1], [1, 1, 1])
        emb = generic_embed(net, req)
        assert emb is not None
        commit(net.copy(), req, emb)

    def test_deterministic(self):
        rng = random.Random(9)
        g = random_connected_graph(rng, 8)
        net = graph_net(g, cpu=5, bw=5)
        req = make_path_request("r", [2, 2, 2], [1, 1])
        a = generic_embed(net, req)
        b = generic_embed(net, req)
        assert a == b


class TestCpuCeiling:
    """A request whose largest CPU demand exceeds every residual CPU is
    refused before the ranking; equality still fits, and an empty request or
    an empty substrate must not reach an empty max()."""

    def test_empty_request_is_an_empty_embedding(self):
        for net in (path_net(3), make_net([], [], 1, 1)):
            req = make_path_request("e", [], [])
            assert generic_embed(net, req) == Embedding({}, {})
            assert batch_view(generic_batch(net, [req])) == [("e", {}, {})]

    def test_zero_node_substrate_refuses_without_raising(self):
        net = make_net([], [], 1, 1)
        req = make_path_request("r", [1], [])
        assert generic_embed(net, req) is None
        assert len(generic_batch(net, [req])) == 0

    @pytest.mark.parametrize("top", [7, Fraction(7, 2)])
    def test_demand_equal_to_the_largest_residual_is_hosted(self, top):
        # capacities all exceed the residuals, so the bound is on residual CPU
        net = make_net([0, 1, 2], [(0, 1), (1, 2)], 9, 5)
        net.residual_cpu.update({0: 1, 1: top, 2: Fraction(1, 2)})
        assert generic_embed(net, make_path_request("r", [top, 1], [1])).node_map == {0: 1, 1: 0}
        assert generic_embed(net, make_path_request("r", [top + Fraction(1, 4), 1], [1])) is None
        assert generic_embed(net, make_path_request("r", [top + 1], [])) is None
        batch = generic_batch(net, [make_path_request(i, [top], []) for i in range(2)])
        assert batch.accepted_ids() == [0]

    def test_hopeless_request_is_not_ranked(self, monkeypatch):
        calls = []

        def counting(net):
            calls.append(1)
            return node_scores(net)

        monkeypatch.setattr(baseline, "node_scores", counting)
        net = path_net(3, cpu=9)
        net.residual_cpu[1] = 4
        net.residual_cpu[0] = net.residual_cpu[2] = 3
        assert generic_embed(net, make_path_request("r", [5], [])) is None
        assert calls == []
        assert generic_embed(net, make_path_request("r", [4], [])).node_map == {0: 1}
        assert calls == [1]


class TestGenericBatch:
    def test_empty(self):
        net = path_net(3)
        batch = generic_batch(net, [])
        assert len(batch) == 0 and batch.revenue == 0

    def test_revenue_is_sum_of_committed(self):
        net = path_net(8, cpu=3, bw=3)
        reqs = [uniform_path_request(i, 2, revenue=i + 1) for i in range(6)]
        batch = generic_batch(net, reqs)
        assert batch.revenue == sum(r.revenue for r, _ in batch.items)
        audit_residuals(net, [batch])

    def test_never_beats_pe_on_uniform_path_substrate(self, exact_pe):
        # where the path pipeline with its exact stages provably hits the
        # knapsack optimum, the baseline can at most match it
        from pcvne.path_embedding import procedure_pe

        rng = random.Random(13)
        for _ in range(15):
            size = rng.randint(6, 12)
            net = path_net(size + 1, cpu=2, bw=1)
            reqs = [uniform_path_request(i, rng.randint(1, size), revenue=rng.randint(1, 9))
                    for i in range(rng.randint(4, 9))]
            generic_revenue = generic_batch(net.copy(), reqs).revenue
            pe_revenue = procedure_pe(net.copy(), reqs).revenue
            assert generic_revenue <= pe_revenue


# Few distinct small values, so node scores tie and links run out; Fractions
# among them so the ranking compares exact non-integer scores.
TIGHT = (1, 2, 3, Fraction(3, 2), Fraction(5, 2))


def random_requests(rng, n, values, count):
    """`count` requests of 1-4 VNs (at most n) with demands drawn from
    `values`: paths, and from 3 VNs on also cycles and general requests."""
    reqs = []
    for i in range(count):
        k = rng.randint(1, min(4, n))
        vns = list(range(k))
        shape = rng.choice((Shape.PATH, Shape.CYCLE, Shape.GENERAL)) if k >= 3 else Shape.PATH
        vls = [(j, j + 1) for j in range(k - 1)]
        if shape is not Shape.PATH:
            vls.append((0, k - 1))
        reqs.append(VirtualRequest(
            req_id=i, shape=shape, vns=vns, vls=vls,
            cpu_demand={v: rng.choice(values) for v in vns},
            bw_demand={l: rng.choice(values) for l in vls},
            revenue=rng.randint(1, 5)))
    return reqs


def tight_instance(rng):
    """A random connected substrate with tight, often equal capacities and a
    stream of path, cycle and general requests that outgrows it."""
    n = rng.randint(3, 9)
    g = random_connected_graph(rng, n)
    uniform = rng.random() < 0.3
    net = make_net(list(g.nodes), list(g.edges),
                   {v: 4 if uniform else rng.choice((2, 3, 4, Fraction(7, 2))) for v in g.nodes},
                   {e: 3 if uniform else rng.choice(TIGHT) for e in g.edges})
    return net, random_requests(rng, n, TIGHT, rng.randint(4, 14))


def sparse_instance(rng, fractions):
    """A sparse random substrate of 15-40 nodes and short requests, so that
    a commit usually touches a strict subset of the nodes, even counting
    their neighbors. Capacities are ints, or Fractions when `fractions`."""
    n = rng.randint(15, 40)
    g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n))
    if fractions:
        def cap():
            return Fraction(rng.randint(4, 30), rng.randint(1, 4))
    else:
        def cap():
            return rng.randint(2, 9)
    net = make_net(list(g.nodes), list(g.edges), {v: cap() for v in g.nodes}, {e: cap() for e in g.edges})
    return net, random_requests(rng, n, TIGHT, rng.randint(10, 40))


def tight_ring_instance(rng, fractions):
    """A ring of 5-16 SNs with ample CPU and tight BW, ints or Fractions when
    `fractions`, and a stream of requests that cuts the ring in places and
    then asks across the cuts."""
    n = rng.randint(5, 16)
    caps = (Fraction(5, 2), 3, Fraction(7, 2), Fraction(9, 2)) if fractions else (2, 3, 4, 5)
    net = make_net(list(range(n)), [(i, (i + 1) % n) for i in range(n)],
                   {v: rng.randint(6, 12) for v in range(n)},
                   {edge_key(i, (i + 1) % n): rng.choice(caps) for i in range(n)})
    return net, random_requests(rng, n, TIGHT, rng.randint(10, 40))


def batch_view(batch):
    return [(req.req_id, emb.node_map, emb.link_map) for req, emb in batch.items]


def check_route(seed):
    """Both router calls of one seeded instance against the reference: a
    residual filter alone, then with pending claims of earlier VLs."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(2, 10))
    net = graph_net(g)
    allowed = {e for e in g.edges if rng.random() < rng.choice((0.4, 0.7, 1.0))}
    for k in net.edges:
        if k not in allowed:
            net.residual_bw[k] = 0

    def usable(k):
        return k in allowed

    src, dst = rng.choice(g.nodes), rng.choice(g.nodes)
    got = baseline._shortest_feasible_path(net, src, dst, 1, {})
    assert got == shortest_feasible_path_reference(net, src, dst, usable)

    # claims of earlier VLs of the same request come off the residuals
    pending = {k: rng.randint(1, 100) for k in net.edges if rng.random() < 0.5}
    demand = rng.randint(1, 60)

    def claimed(k):
        return net.residual_bw[k] - pending.get(k, 0) >= demand

    got = baseline._shortest_feasible_path(net, src, dst, demand, pending)
    assert got == shortest_feasible_path_reference(net, src, dst, claimed)


def record_refusals(monkeypatch):
    """Count the requests a batch's generic_embed refuses without reading its
    ranking, which only the CPU ceiling does."""
    refused = Counter()
    embed = baseline.generic_embed

    class Probe(list):
        read = False

        def __iter__(self):
            self.read = True
            return super().__iter__()

    def counting(net, req, ranked=None, cuts=None):
        probe = Probe(ranked)
        emb = embed(net, req, ranked=probe, cuts=cuts)
        refused[emb is None and not probe.read] += 1
        return emb

    monkeypatch.setattr(baseline, "generic_embed", counting)
    return refused


def record_walks(monkeypatch):
    """Count the router's walks by (over the hop distances, found a path)."""
    walks = Counter()
    walk = baseline._walk

    def counting(net, src, dst, dist, demand, pending):
        path = walk(net, src, dst, dist, demand, pending)
        walks[dist is net.hops(dst), path is not None] += 1
        return path

    monkeypatch.setattr(baseline, "_walk", counting)
    return walks


def record_cut_refusals(monkeypatch):
    """Count the requests a batch's generic_embed refuses by a stored cut:
    it reads a component label (only that check does) and routes no VL."""
    seen = Counter()
    components, route, embed = baseline._components, baseline._shortest_feasible_path, baseline.generic_embed

    class Labels(dict):
        def __getitem__(self, v):
            seen["label reads"] += 1
            return super().__getitem__(v)

    def routing(*args):
        seen["routes"] += 1
        return route(*args)

    def counting(net, req, ranked=None, cuts=None):
        reads, routes = seen["label reads"], seen["routes"]
        emb = embed(net, req, ranked=ranked, cuts=cuts)
        seen["cut"] += emb is None and seen["label reads"] > reads and seen["routes"] == routes
        return emb

    monkeypatch.setattr(baseline, "_components", lambda net, demand: Labels(components(net, demand)))
    monkeypatch.setattr(baseline, "_shortest_feasible_path", routing)
    monkeypatch.setattr(baseline, "generic_embed", counting)
    return seen


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_property_batch_matches_reference(self, seed):
        net, reqs = tight_instance(random.Random(seed))
        ref_net = net.copy()
        got = generic_batch(net, reqs)
        want = generic_batch_reference(ref_net, reqs)
        assert batch_view(got) == batch_view(want)
        assert net.residual_cpu == ref_net.residual_cpu
        assert net.residual_bw == ref_net.residual_bw

    @pytest.mark.parametrize("substrate, requests, detours, bfs, cut, refusals", [
        (SubstrateSpec(n_nodes=100, n_edges=500), RequestSpec(count=1000), 5, 5, 0, 300),
        (SubstrateSpec(n_nodes=30, topology="cycle"),
         RequestSpec(shape="cycle", count=100, revenue_rule="proportional"), 60, 10, 40, 0),
    ], ids=["path-100-nodes-500-links", "ring-30-nodes"])
    def test_batch_matches_reference_at_benchmark_scale(self, monkeypatch, substrate, requests, detours,
                                                        bfs, cut, refusals):
        # hop distances of 3 and more, which the tight instances above rarely
        # have. `detours` is a floor on the VLs with no usable hop-short path:
        # those refused by a stored cut before routing, with floor `cut`, plus
        # the routes the hop walk leaves to the BFS, with floor `bfs`.
        # `refusals` is one on the requests the CPU ceiling refuses (606 of
        # the path requests; every ring request fits some SN's residual CPU)
        walks = record_walks(monkeypatch)
        refused = record_refusals(monkeypatch)
        cuts = record_cut_refusals(monkeypatch)
        net, reqs = gen_substrate(substrate, 1), gen_requests(requests, 2)
        ref_net = net.copy()
        got = generic_batch(net, reqs)
        assert walks[True, False] >= bfs and cuts["cut"] >= cut
        assert walks[True, False] + cuts["cut"] >= detours
        assert refused[True] >= refusals
        want = generic_batch_reference(ref_net, reqs)
        assert batch_view(got) == batch_view(want)
        assert net.residual_cpu == ref_net.residual_cpu
        assert net.residual_bw == ref_net.residual_bw

    def test_instances_reject_after_commits(self):
        # the property above only pins the ranking refresh if requests are
        # rejected once others have committed
        rejected_late = 0
        for seed in range(40):
            net, reqs = tight_instance(random.Random(seed))
            accepted = set(generic_batch(net, reqs).accepted_ids())
            first = min(accepted, default=len(reqs))
            rejected_late += sum(1 for r in reqs[first + 1:] if r.req_id not in accepted)
        assert rejected_late >= 40

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_property_route_matches_reference(self, seed):
        check_route(seed)

    def test_route_property_reaches_both_branches(self, monkeypatch):
        # the property above pins the hop walk and the BFS fallback only if
        # its instances reach both: hop answers, BFS runs, detours the BFS finds
        walks = record_walks(monkeypatch)
        for seed in range(200):
            check_route(seed)
        assert walks[True, True] >= 150
        assert walks[True, False] >= 100
        assert walks[False, True] >= 40

    def test_hop_walk_backtracks_without_the_bfs(self, monkeypatch):
        walks = record_walks(monkeypatch)
        net = make_net([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)], 100, 100)
        net.residual_bw[1, 3] = 0
        assert baseline._shortest_feasible_path(net, 0, 3, 1, {}) == [(0, 2), (2, 3)]
        assert walks == {(True, True): 1}

    def test_pending_claim_forces_the_detour(self, monkeypatch):
        walks = record_walks(monkeypatch)
        net = ring_net(5)
        assert baseline._shortest_feasible_path(net, 0, 2, 1, {(1, 2): 100}) == [(0, 4), (3, 4), (2, 3)]
        assert walks == {(True, False): 1, (False, True): 1}

    def test_unreachable_source_has_no_route(self):
        net = path_net(4)
        cut = (1, 2)
        net.residual_bw[cut] = 0
        assert baseline._shortest_feasible_path(net, 0, 3, 1, {}) is None
        assert shortest_feasible_path_reference(net, 0, 3, lambda k: net.residual_bw[k] >= 1) is None
        net = path_net(4)
        assert baseline._shortest_feasible_path(net, 0, 3, 1, {cut: 100}) is None
        assert baseline._shortest_feasible_path(net, 0, 3, 1, {cut: 99}) == [(0, 1), (1, 2), (2, 3)]

    def test_scores_once_per_batch(self, monkeypatch):
        calls = []

        def counting(net):
            calls.append(1)
            return node_scores(net)

        monkeypatch.setattr(baseline, "node_scores", counting)
        net = path_net(6, cpu=3, bw=3)
        reqs = [uniform_path_request(i, 2) for i in range(8)]
        batch = generic_batch(net, reqs)
        assert 0 < len(batch) < len(reqs)
        assert len(calls) == 1


class TestCutRefusal:
    """A batch stores the SN components at the demand of each failed route
    until the next commit, and refuses a request whose hosts they separate
    at a stored level no higher than the VL's demand, without routing."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
    def test_property_batch_matches_reference(self, seed, ring, fractions):
        make = tight_ring_instance if ring else sparse_instance
        check_batch_against_reference(*make(random.Random(seed), fractions))

    @pytest.mark.parametrize("make, floor", [(tight_ring_instance, 150), (sparse_instance, 100)])
    def test_instances_refuse_across_stored_cuts(self, monkeypatch, make, floor):
        # the property above pins the refusal only if its instances reach it
        cuts = record_cut_refusals(monkeypatch)
        for seed in range(40):
            generic_batch(*make(random.Random(seed), seed % 2 == 1))
        assert cuts["cut"] >= floor

    def test_refusal_without_routing_until_the_next_commit(self, monkeypatch):
        # 0 - 1 - 2 - 3 with (1, 2) exhausted and (2, 3) left at exactly 1:
        # SNs 0 and 1 rank first, and only 2 and 3 can host a VN of CPU 5
        net = make_net([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)], {0: 2, 1: 2, 2: 9, 3: 9}, 10)
        net.residual_bw[1, 2] = 0
        net.residual_bw[2, 3] = 1
        seen = []
        route, embed = baseline._shortest_feasible_path, baseline.generic_embed

        def routing(*args):
            seen[-1][1] += 1
            return route(*args)

        def spying(net, req, ranked=None, cuts=None):
            seen.append([sorted(cuts), 0])
            return embed(net, req, ranked=ranked, cuts=cuts)

        monkeypatch.setattr(baseline, "_shortest_feasible_path", routing)
        monkeypatch.setattr(baseline, "generic_embed", spying)
        reqs = [
            make_path_request(0, [1, 1, 1], [1, 1]),  # on 0, 1, 2: (1, 2) fails, the cut at 1 is stored
            make_path_request(1, [1, 1, 1], [1, 1]),  # across that cut: refused, not routed
            make_path_request(2, [5, 5], [2]),        # on 2, 3, one side: routed, fails at 2
            make_path_request(3, [5, 5], [1]),        # on 2, 3 at 1 <= the residual: the level 2 cut
                                                      # does not apply, so it is routed and committed
            make_path_request(4, [1, 1, 1], [1, 1]),  # the commit cleared the memo: routed again
        ]
        batch = check_batch_against_reference(net, reqs)
        assert batch.accepted_ids() == [3]
        assert seen == [[[], 2], [[1], 0], [[1], 1], [[1, 2], 1], [[], 2]]


def reference_ranking(net):
    scores = node_scores_reference(net)
    return sorted(net.nodes, key=lambda v: (-scores[v], v))


class TestIncrementalRanking:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_property_every_call_sees_the_fresh_ranking(self, seed, fractions):
        net, reqs = sparse_instance(random.Random(seed), fractions)
        seen = []

        def checking(net, req, ranked=None, cuts=None):
            assert ranked == reference_ranking(net)
            seen.append(req.req_id)
            return generic_embed(net, req, ranked=ranked, cuts=cuts)

        with patch.object(baseline, "generic_embed", checking):
            generic_batch(net, reqs)
        assert seen == [r.req_id for r in reqs]

    def test_commits_leave_nodes_untouched(self):
        # the property above pins the partial refresh only if commits are
        # followed by more requests and touch a strict subset of the nodes,
        # neighbors of the touched ones included
        partial = 0
        for seed in range(30):
            net, reqs = sparse_instance(random.Random(seed), seed % 2 == 1)
            batch = generic_batch(net, reqs)
            last = reqs[-1].req_id
            for req, emb in batch.items:
                touched = set(emb.node_map.values()).union(*(k for path in emb.link_map.values() for k in path))
                near = touched.union(*map(net.neighbors, touched))
                partial += req.req_id != last and len(near) < len(net.nodes)
        assert partial >= 300


def check_batch_against_reference(net, reqs):
    """generic_batch against the reference on a copy: accepted ids, node and
    link maps, the order each request's VNs were placed in, and both
    residual maps. Returns the batch."""
    ref_net = net.copy()
    got = generic_batch(net, reqs)
    want = generic_batch_reference(ref_net, reqs)
    assert batch_view(got) == batch_view(want)
    assert [list(emb.node_map) for _, emb in got.items] == [list(emb.node_map) for _, emb in want.items]
    assert net.residual_cpu == ref_net.residual_cpu
    assert net.residual_bw == ref_net.residual_bw
    return got


def record_skips(monkeypatch):
    """Count the VNs a batch's generic_embed places past an SN that is ranked
    higher, could host the VN, and already hosts an earlier VN of the request."""
    skips = Counter()
    embed = baseline.generic_embed

    def counting(net, req, ranked=None, cuts=None):
        emb = embed(net, req, ranked=ranked, cuts=cuts)
        if emb is not None:
            pos = {v: i for i, v in enumerate(ranked)}
            placed = []
            for vn, host in emb.node_map.items():
                need = req.cpu_demand[vn]
                skips["skipped"] += any(pos[u] < pos[host] and net.residual_cpu[u] >= need for u in placed)
                placed.append(host)
        return emb

    monkeypatch.setattr(baseline, "generic_embed", counting)
    return skips


def fraction_tie_requests(rng, n, count):
    """`count` path and cycle requests of 3-6 VNs (at most n): Fraction(7, 2)
    as the CPU demand of two VNs, ints from 1-4 on the others."""
    reqs = []
    for i in range(count):
        k = rng.randint(3, min(6, n))
        cpu = [rng.randint(1, 4) for _ in range(k)]
        for j in rng.sample(range(k), 2):
            cpu[j] = Fraction(7, 2)
        if rng.random() < 0.5:
            reqs.append(make_cycle_request(i, cpu, [rng.randint(1, 3) for _ in range(k)]))
        else:
            reqs.append(make_path_request(i, cpu, [rng.randint(1, 3) for _ in range(k - 1)]))
    return reqs


class TestNodeStageTies:
    """The node stage takes VNs of equal CPU demand in request order, as the
    reference's (-demand, index) sort does; in these instances nearly every
    request has such ties."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape, topology, edges", [("path", "random", 40), ("cycle", "cycle", None)])
    def test_equal_demands_match_the_reference(self, shape, topology, edges, seed):
        net = gen_substrate(SubstrateSpec(n_nodes=20, topology=topology, n_edges=edges,
                                          cpu_capacity=8, bw_capacity=10), seed)
        reqs = gen_requests(RequestSpec(shape=shape, count=40, demand_range=(2, 2)), seed + 100)
        batch = check_batch_against_reference(net, reqs)
        assert 0 < len(batch) < len(reqs)

    @pytest.mark.parametrize("seed", range(6))
    def test_fraction_ties_among_ints_match_the_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 12)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n))
        net = make_net(list(g.nodes), list(g.edges),
                       {v: rng.choice((Fraction(7, 2), 8, 16, Fraction(31, 2))) for v in g.nodes},
                       {e: rng.choice((6, 9, 12)) for e in g.edges})
        reqs = fraction_tie_requests(rng, n, rng.randint(10, 30))
        batch = check_batch_against_reference(net, reqs)
        assert 0 < len(batch) < len(reqs)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_later_vns_skip_used_top_ranked_sns_on_a_ring(self, monkeypatch, seed):
        skips = record_skips(monkeypatch)
        net = gen_substrate(SubstrateSpec(n_nodes=30, topology="cycle"), seed)
        reqs = gen_requests(RequestSpec(shape="cycle", count=100, demand_range=(1, 3)), seed + 1)
        batch = check_batch_against_reference(net, reqs)
        assert 0 < len(batch) < len(reqs)
        assert skips["skipped"] >= 100


def test_embed_generic_golden_output_is_unchanged(tmp_path):
    # on a 12-node, 24-link substrate with 20 path requests the run accepts
    # 15, so the report pins rejections and every host and route chosen
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    cli = [sys.executable, "-m", "pcvne.cli"]
    inst = tmp_path / "inst.json"
    subprocess.run([*cli, "generate", "--nodes", "12", "--edges", "24", "--cpu-capacity", "20",
                    "--bw-capacity", "20", "--shape", "path", "--count", "20", "--length-min", "2",
                    "--length-max", "5", "--seed", "3", "--out", str(inst)], check=True, env=env)
    proc = subprocess.run([*cli, "embed-generic", "--instance", str(inst)],
                          capture_output=True, check=True, env=env)
    assert proc.stdout == (root / "tests" / "data" / "embed_generic.out").read_bytes()
