import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcvne.knapsack as knapsack
import pcvne.path_embedding as path_embedding
from conftest import (
    make_cycle_request,
    make_net,
    make_path_request,
    order_items,
    path_net,
    random_connected_graph,
    uniform_path_request,
)
from oracles import (
    Item,
    _dfs_tree_reference,
    decompose_paths_reference,
    first_fit_paths,
    mdkp_exact_reference,
    mdkp_greedy_reference,
    mkp_best_profit,
    item_order_key,
    pack_mkp_reference,
    path_items_reference,
    procedure_pe_reference,
    solve_kp_dp,
)
from pcvne.generators import RequestSpec, SubstrateSpec, gen_requests, gen_substrate
from pcvne.knapsack import EXACT_ITEM_LIMIT, _mdkp_items, solve_mdkp
from pcvne.model import ModelError, commit, edge_key, footprint, validate_embedding
from pcvne.path_embedding import (
    PathPlacement,
    SubstratePath,
    _dfs_tree,
    assign_mdkp,
    decompose_paths,
    pack_mkp,
    path_items,
    procedure_pe,
)
from reductions import gen_edp_reduction


def graph_net(g, cpu=100, bw=100):
    return make_net(list(g.nodes), list(g.edges), cpu, bw)


class TestDecompose:
    def test_path_substrate_is_one_path(self):
        net = path_net(6)
        paths = decompose_paths(net)
        assert len(paths) == 1
        assert paths[0].nodes == tuple(range(6))

    def test_triangle(self):
        net = make_net([0, 1, 2], [(0, 1), (1, 2), (0, 2)], 10, 10)
        lengths = sorted(p.length for p in decompose_paths(net))
        assert lengths == [1, 2]

    def test_star(self):
        net = make_net([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)], 10, 10)
        lengths = sorted(p.length for p in decompose_paths(net))
        assert lengths == [1, 2]

    def test_empty_when_no_usable_links(self):
        net = path_net(3)
        for k in net.edges:
            net.residual_bw[k] = 0
        assert decompose_paths(net) == []

    def test_exhausted_nodes_excluded(self):
        net = path_net(4)
        net.residual_cpu[1] = 0
        paths = decompose_paths(net)
        used = {e for p in paths for e in p.edges()}
        assert edge_key(0, 1) not in used and edge_key(1, 2) not in used
        assert edge_key(2, 3) in used

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 9))
    def test_link_disjoint_and_covering(self, seed, n):
        g = random_connected_graph(random.Random(seed), n)
        net = graph_net(g)
        paths = decompose_paths(net)
        seen = set()
        for p in paths:
            # consecutive nodes adjacent, no repeated link
            for e in p.edges():
                assert e in net.bw_capacity
                assert e not in seen
                seen.add(e)
        assert seen == set(net.edges)
        assert len(paths) <= len(net.edges)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_matches_reference(self, seed):
        # the heap of roots, the sweep folded into the DFS and the unsorted
        # tree lists must give the paths of the plain scan-and-two-sweeps form,
        # also once exhausted SNs and SLs leave holes in the usable subgraph
        rng = random.Random(seed)
        net = _exhaust_some(rng, graph_net(random_connected_graph(rng, rng.randint(1, 12))))
        assert decompose_paths(net) == decompose_paths_reference(net)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_matches_reference_on_tuple_ids(self, seed):
        # the EDP reduction names its SNs ("n", v) and ("c", v): adjacency
        # lists read off `incident` must keep the order of the reference's sort
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8))
        pairs = [tuple(rng.sample(list(g.nodes), 2)) for _ in range(rng.randint(0, 3))]
        net = _exhaust_some(rng, gen_edp_reduction(list(g.nodes), list(g.edges), pairs).net)
        assert decompose_paths(net) == decompose_paths_reference(net)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_matches_reference_on_sparse_nets(self, seed):
        # 30-100 SNs and 60-500 SLs: deep DFS trees, so the deepest node's
        # ancestor chain is long and the farthest node often hangs off it
        rng = random.Random(seed)
        n = rng.randint(30, 100)
        m = rng.randint(max(60, n - 1), min(500, n * (n - 1) // 2))
        net = _exhaust_some(rng, graph_net(random_connected_graph(rng, n, m - (n - 1))))
        assert decompose_paths(net) == decompose_paths_reference(net)

    def test_two_node_tree(self):
        net = path_net(2)
        assert decompose_paths(net) == decompose_paths_reference(net) == [SubstratePath((0, 1))]

    def test_star_paths(self):
        # root 0, deepest leaf 1, farthest from it 2: up to the root and down
        net = make_net([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)], 10, 10)
        want = [SubstratePath((1, 0, 2)), SubstratePath((0, 3))]
        assert decompose_paths(net) == decompose_paths_reference(net) == want

    def test_long_path_rooted_inside(self):
        # the root, id 0, splits the path into arms of 60 and 40 SNs: a ends
        # the longer arm, b the other one, below the root but off a's chain
        seq = list(range(60, 0, -1)) + [0] + list(range(61, 101))
        net = make_net(seq, list(zip(seq, seq[1:])), 10, 10)
        assert decompose_paths(net) == decompose_paths_reference(net) == [SubstratePath(tuple(seq))]

    def test_farthest_node_hangs_off_an_ancestor_below_the_root(self):
        # root 0 (degree 3, lowest id) down the chain 1..30 to a = 30; the
        # branch 100..114 hangs off 10, so the path turns at 10, not at the root
        chain, branch = list(range(31)), [10, *range(100, 115)]
        edges = [*zip(chain, chain[1:]), *zip(branch, branch[1:]), (0, 200), (0, 201)]
        net = make_net([*chain, *branch[1:], 200, 201], edges, 10, 10)
        paths = decompose_paths(net)
        assert paths == decompose_paths_reference(net)
        assert paths[0] == SubstratePath((*range(30, 9, -1), *range(100, 115)))


def _exhaust_some(rng, net):
    """`net` with the residuals of about 15% of its SNs and 25% of its SLs at 0."""
    for v in net.nodes:
        if rng.random() < 0.15:
            net.residual_cpu[v] = 0
    for k in net.edges:
        if rng.random() < 0.25:
            net.residual_bw[k] = 0
    return net


def _check_dfs_tree(root, adj):
    parent, far = _dfs_tree(root, adj)
    assert parent == _dfs_tree_reference(root, adj)
    depth = {root: 0}
    for v in parent:  # parents enter the dict before their children
        if parent[v] is not None:
            depth[v] = depth[parent[v]] + 1
    deepest = max(depth.values())
    assert far == min(v for v, d in depth.items() if d == deepest)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_dfs_tree_matches_reference(seed):
    # one iterator per level must give the parents of the push-every-neighbour
    # traversal, and the deepest node with ties to the lowest id, from any root
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(1, 14))
    adj = {v: [] for v in g.nodes}
    for u, v in sorted(g.edges):
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    for root in rng.sample(sorted(adj), min(3, len(adj))):
        _check_dfs_tree(root, adj)


def test_dfs_tree_on_a_long_path_needs_no_recursion():
    n = 5001
    adj = {v: [w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)}
    _check_dfs_tree(0, adj)
    assert _dfs_tree(0, adj)[1] == n - 1
    # from the middle both ends are 2500 deep: the lower id wins
    _check_dfs_tree(2500, adj)
    assert _dfs_tree(2500, adj)[1] == 0


class TestPackMkp:
    def test_single_request_at_offset_zero(self):
        paths = [SubstratePath(tuple(range(11)))]
        req = uniform_path_request("r", 5)
        placements = pack_mkp(paths, path_items([req]))
        assert len(placements) == 1
        assert placements[0].offset == 0 and placements[0].path_index == 0

    def test_capacity_excludes_one_of_two(self):
        paths = [SubstratePath(tuple(range(11)))]
        reqs = [uniform_path_request("a", 5, revenue=5),
                uniform_path_request("b", 6, revenue=6)]
        placements = pack_mkp(paths, path_items(reqs), mode="exact")
        assert len(placements) == 1  # 5 + 6 > 10
        assert placements[0].req.req_id == "b"  # higher profit wins in exact mode

    def test_exact_profit_matches_exhaustive(self):
        rng = random.Random(23)
        for _ in range(15):
            paths = [SubstratePath(tuple(range(rng.randint(2, 8))))
                     for _ in range(3)]
            reqs = [uniform_path_request(i, rng.randint(1, 6), revenue=rng.randint(1, 9))
                    for i in range(8)]
            placements = pack_mkp(paths, path_items(reqs), mode="exact")
            placed_profit = sum(pl.req.revenue for pl in placements)
            items = [Item(item_id=r.req_id, size=r.length, profit=r.revenue) for r in reqs]
            assert placed_profit == mkp_best_profit([p.length for p in paths], items)

    def test_placements_fit_and_share_boundaries(self):
        rng = random.Random(31)
        for _ in range(20):
            paths = [SubstratePath(tuple(range(rng.randint(2, 9)))),
                     SubstratePath(tuple(range(100, 100 + rng.randint(2, 9))))]
            reqs = [uniform_path_request(i, rng.randint(1, 5)) for i in range(7)]
            placements = pack_mkp(paths, path_items(reqs))
            by_path = {}
            for pl in placements:
                by_path.setdefault(pl.path_index, []).append(pl)
            for k, pls in by_path.items():
                pls.sort(key=lambda pl: pl.offset)
                assert sum(pl.req.length for pl in pls) <= paths[k].length
                cursor = 0
                for pl in pls:
                    assert pl.offset == cursor  # left-packed, boundary shared
                    cursor += pl.req.length
                    assert pl.offset + pl.req.length <= paths[k].length

    def test_placement_embeddings_structurally_sound(self):
        # geometric realizability: the induced embedding is well formed and
        # endpoint-consistent even before any capacity question
        rng = random.Random(37)
        g = random_connected_graph(rng, 8)
        net = graph_net(g)
        paths = decompose_paths(net)
        reqs = [uniform_path_request(i, rng.randint(1, 4)) for i in range(6)]
        for pl in pack_mkp(paths, path_items(reqs)):
            emb = pl.to_embedding()
            ok, violations = validate_embedding(net, pl.req, emb)
            assert not any(v.kind in ("endpoint", "injectivity") for v in violations)

    def test_rejects_non_path_requests(self):
        cycle = make_cycle_request(0, [1, 1, 1], [1, 1, 1])
        with pytest.raises(ModelError):
            pack_mkp([SubstratePath((0, 1))], path_items([cycle]))


def _path_items_outcome(requests):
    try:
        return [req.req_id for req in path_items(requests)]
    except ModelError as exc:
        return type(exc), str(exc)


def _path_items_reference_outcome(requests):
    try:
        return [req.req_id for _it, req in path_items_reference(requests)]
    except ModelError as exc:
        return type(exc), str(exc)


_REVENUES = st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), 6])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), _REVENUES), max_size=20), st.randoms(use_true_random=False))
def test_property_path_items_orders_as_order_items_over_kp_items(specs, rnd):
    # tied lengths and revenues, zero lengths and revenues, int and str ids in
    # shuffled order: the requests come back in the order that order_items
    # gives one item per request, which the Fraction key reference also gives
    reqs = [uniform_path_request(i if i % 3 else f"r{i}", length, revenue=rev)
            for i, (length, rev) in enumerate(specs)]
    rnd.shuffle(reqs)
    items = [Item(r.req_id, r.length, r.revenue) for r in reqs]
    got = [r.req_id for r in path_items(reqs)]
    assert got == [it.item_id for it in order_items(items)]
    assert got == [it.item_id for it in sorted(items, key=item_order_key)]


def test_path_items_orders_a_revenue_mutated_after_construction_as_a_kp_item_would():
    # a revenue set to a float or a numeric string after construction is
    # ordered as its exact quantity, as the checked item's profit was
    reqs = [uniform_path_request("a", 2, revenue=1), uniform_path_request("b", 4, revenue=1),
            uniform_path_request("c", 2, revenue=1)]
    reqs[1].revenue, reqs[2].revenue = 2.5, "1/2"
    assert _path_items_outcome(reqs) == _path_items_reference_outcome(reqs) == ["b", "a", "c"]


def _with_revenue(req, revenue):
    req.revenue = revenue
    return req


@pytest.mark.parametrize("requests, refusal", [
    (lambda: [uniform_path_request(0, 2), make_cycle_request(1, [1, 1, 1], [1, 1, 1])],
     "request 1 is not a path"),
    (lambda: [uniform_path_request("a", 2), uniform_path_request("a", 3)], "duplicate request ids"),
    (lambda: [uniform_path_request(0, 2), _with_revenue(uniform_path_request(1, 2), -1)], "negative profit"),
    (lambda: [_with_revenue(uniform_path_request(0, 2), "x")], "not a quantity: 'x'"),
    (lambda: [_with_revenue(uniform_path_request(0, 2), None)], "not a quantity: None"),
    (lambda: [_with_revenue(uniform_path_request(0, 2), True)], "bool is not a quantity: True"),
    # the first defect in the old order: shapes, then ids, then each revenue in request order
    (lambda: [_with_revenue(uniform_path_request(0, 2), -1), make_cycle_request(1, [1, 1, 1], [1, 1, 1])],
     "request 1 is not a path"),
    (lambda: [_with_revenue(uniform_path_request("a", 2), "x"), uniform_path_request("a", 3)],
     "duplicate request ids"),
    (lambda: [_with_revenue(uniform_path_request(0, 2), -1), _with_revenue(uniform_path_request(1, 2), "x")],
     "negative profit"),
    (lambda: [_with_revenue(uniform_path_request(0, 2), "x"), _with_revenue(uniform_path_request(1, 2), -1)],
     "not a quantity: 'x'"),
])
def test_path_items_refuses_as_when_it_built_kp_items(requests, refusal):
    assert _path_items_outcome(requests()) == _path_items_reference_outcome(requests()) == (ModelError, refusal)


class TestAssignMdkp:
    def test_single_fitting_placement_accepted(self):
        net = path_net(6, cpu=2, bw=1)
        paths = [SubstratePath(tuple(range(6)))]
        placements = pack_mkp(paths, path_items([uniform_path_request("r", 3)]))
        accepted = assign_mdkp(net, placements)
        assert [pl.req.req_id for pl, _emb, _use in accepted] == ["r"]
        assert net.residual_bw[edge_key(0, 1)] == 0
        # each funded placement comes with the footprint its commit returned
        (pl, emb, use), = accepted
        assert use == footprint([(pl.req, emb)]) == ({0: 1, 1: 1, 2: 1, 3: 1}, {(0, 1): 1, (1, 2): 1, (2, 3): 1})

    def test_boundary_cpu_conflict_drops_one(self):
        # two placements share node 3; its capacity only fits one end VN
        net = path_net(7, cpu=1, bw=1)
        paths = [SubstratePath(tuple(range(7)))]
        reqs = [uniform_path_request("a", 3), uniform_path_request("b", 3)]
        placements = pack_mkp(paths, path_items(reqs))
        assert len(placements) == 2
        accepted = assign_mdkp(net, placements)
        assert len(accepted) == 1

    def test_exact_matches_exhaustive_subsets(self):
        from oracles import mdkp_best_profit

        rng = random.Random(41)
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            net = graph_net(g, cpu=rng.randint(1, 4), bw=rng.randint(1, 3))
            paths = decompose_paths(net)
            reqs = [uniform_path_request(i, rng.randint(1, 4), revenue=rng.randint(1, 9))
                    for i in range(8)]
            placements = pack_mkp(paths, path_items(reqs))
            dims = list(net.nodes) + list(net.edges)
            dim_index = {d: i for i, d in enumerate(dims)}
            caps = [net.residual_cpu[v] for v in net.nodes] + [net.residual_bw[k] for k in net.edges]
            items = []
            for i, pl in enumerate(placements):
                emb = pl.to_embedding()
                sizes = [0] * len(dims)
                for vn, sn in emb.node_map.items():
                    sizes[dim_index[sn]] += pl.req.cpu_demand[vn]
                for vl, sls in emb.link_map.items():
                    for e in sls:
                        sizes[dim_index[edge_key(*e)]] += pl.req.bw_demand[vl]
                items.append((i, pl.req.revenue, tuple(sizes)))
            expected = mdkp_best_profit(caps, items)
            accepted = assign_mdkp(net, placements, mode="exact")
            assert sum(pl.req.revenue for pl, _emb, _use in accepted) == expected


    @pytest.mark.parametrize("mode", ["greedy", "exact"])
    def test_placement_on_an_exhausted_sn_is_never_funded(self, mode):
        # the pipeline never packs onto a zero residual, but assign_mdkp alone
        # may be handed such a placement: it weighs 0 there, never fits, and
        # the others are funded as if it were not there
        net = path_net(7, cpu=2, bw=2)
        net.residual_cpu[1] = 0
        path = SubstratePath(tuple(range(7)))
        a, b = uniform_path_request("a", 2, revenue=9), uniform_path_request("b", 3)
        placements = [PathPlacement(a, 0, path, 0), PathPlacement(b, 0, path, 3)]
        accepted = assign_mdkp(net, placements, mode=mode)
        assert [pl.req.req_id for pl, _emb, _use in accepted] == ["b"]
        assert net.residual_cpu == {0: 2, 1: 0, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1}

    def test_embeds_each_funded_placement_once_and_no_other(self, monkeypatch):
        # the funding sizes come off the path slice: only a funded placement
        # is turned into an Embedding, once, for its commit
        calls = []
        to_embedding = PathPlacement.to_embedding

        def counting(self):
            calls.append(self.req.req_id)
            return to_embedding(self)

        monkeypatch.setattr(PathPlacement, "to_embedding", counting)
        net = path_net(12, cpu=1, bw=1)
        reqs = [uniform_path_request(i, 3) for i in range(4)]
        placements = pack_mkp([SubstratePath(tuple(range(12)))], path_items(reqs))
        accepted = assign_mdkp(net, placements)
        assert 0 < len(accepted) < len(placements)
        assert sorted(calls) == sorted(pl.req.req_id for pl, _emb, _use in accepted)


class TestProcedurePe:
    def test_uniform_path_substrate_reaches_kp_optimum(self):
        rng = random.Random(53)
        for _ in range(12):
            size = rng.randint(6, 14)
            net = path_net(size + 1, cpu=2, bw=1)
            reqs = [uniform_path_request(i, rng.randint(1, size), revenue=rng.randint(1, 9))
                    for i in range(rng.randint(4, 10))]
            batch = procedure_pe(net, reqs, mkp_mode="exact", mdkp_mode="exact")
            items = [Item(item_id=r.req_id, size=r.length, profit=r.revenue) for r in reqs]
            _, optimum = solve_kp_dp(size, items)
            assert batch.revenue == optimum

    def test_zero_requests(self):
        net = path_net(4)
        batch = procedure_pe(net, [])
        assert len(batch) == 0 and batch.revenue == 0

    def test_rejects_cycle_request(self):
        from conftest import make_cycle_request

        net = path_net(4)
        with pytest.raises(ModelError):
            procedure_pe(net, [make_cycle_request(0, [1, 1, 1], [1, 1, 1])])

    def test_beats_first_fit_control(self):
        rng = random.Random(61)
        g = random_connected_graph(rng, 10, extra_edges=8)
        net = graph_net(g, cpu=6, bw=4)
        reqs = []
        for i in range(20):
            length = rng.randint(2, 5)
            reqs.append(make_path_request(
                i,
                [rng.randint(1, 3) for _ in range(length + 1)],
                [rng.randint(1, 2) for _ in range(length)],
                revenue=rng.randint(1, 9),
            ))
        control_net = net.copy()
        control_paths = decompose_paths(control_net)
        control_revenue = first_fit_paths(control_net, control_paths, reqs)
        batch = procedure_pe(net, reqs)
        assert batch.revenue >= control_revenue

    def test_batch_validates_and_each_iteration_progresses(self):
        rng = random.Random(67)
        g = random_connected_graph(rng, 12, extra_edges=10)
        net = graph_net(g, cpu=5, bw=3)
        reqs = []
        for i in range(15):
            length = rng.randint(1, 4)
            reqs.append(make_path_request(
                i, [rng.randint(1, 3) for _ in range(length + 1)],
                [rng.randint(1, 3) for _ in range(length)], revenue=1))
        trace = []
        batch = procedure_pe(net, reqs, trace=trace)
        ok, violations = batch.validate_against(net)
        assert ok, violations
        assert len(trace) <= len(reqs) + 1
        for rec in trace[:-1]:
            assert rec["funded"]


def _random_pipeline_instance(rng):
    """A small random substrate with tight, partly Fraction CPU and BW, and
    path requests whose lengths and revenues tie often."""
    g = random_connected_graph(rng, rng.randint(3, 9))
    cpu = {v: rng.choice([1, 2, 3, 4, Fraction(5, 2), Fraction(7, 3)]) for v in g.nodes}
    bw = {e: rng.choice([1, 2, 3, Fraction(3, 2)]) for e in g.edges}
    net = make_net(list(g.nodes), list(g.edges), cpu, bw)
    reqs = []
    for i in range(rng.randint(1, 14)):
        length = rng.randint(1, 4)
        reqs.append(make_path_request(
            i,  # int ids: 10 sorts before 9 by repr
            [rng.choice([1, 1, 2, Fraction(1, 2)]) for _ in range(length + 1)],
            [rng.choice([1, 1, 2, Fraction(1, 3)]) for _ in range(length)],
            revenue=rng.choice([1, 1, 2, Fraction(3, 2), length]),
        ))
    return net, reqs


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_procedure_pe_matches_fraction_key_reference(seed):
    net, reqs = _random_pipeline_instance(random.Random(seed))
    ref_net = net.copy()
    batch = procedure_pe(net, reqs)
    ref = procedure_pe_reference(ref_net, reqs)
    assert batch.accepted_ids() == ref.accepted_ids()
    for (req, emb), (ref_req, ref_emb) in zip(batch.items, ref.items):
        assert req.req_id == ref_req.req_id
        assert emb.node_map == ref_emb.node_map and emb.link_map == ref_emb.link_map
    assert net.residual_cpu == ref_net.residual_cpu
    assert net.residual_bw == ref_net.residual_bw


def _funding_calls(net, reqs):
    """Run procedure_pe and return, per funding call, the placements, the
    residual CPU and BW maps before it, and the MDKP capacities and items it
    solved."""
    calls = []
    assign, solve = path_embedding.assign_mdkp, path_embedding.solve_mdkp

    def recording_assign(net, placements, mode="greedy"):
        calls.append([placements, dict(net.residual_cpu), dict(net.residual_bw)])
        return assign(net, placements, mode=mode)

    def recording_solve(capacities, items, mode="greedy"):
        calls[-1].append((capacities, items))
        return solve(capacities, items, mode=mode)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(path_embedding, "assign_mdkp", recording_assign)
        monkeypatch.setattr(path_embedding, "solve_mdkp", recording_solve)
        procedure_pe(net, reqs)
    assert calls
    return calls


def _assert_funding_sizes_are_footprints(net, reqs):
    # every funding instance procedure_pe builds: its dimensions are the SNs
    # and SLs the placements touch, numbered at first touch (placement by
    # placement, its SNs then its SLs, SN and SL keys apart); item idx's
    # (dimension, size) pairs, read off placement idx's path slice, are the
    # `footprint` of that placement's embedding mapped through that
    # numbering, in footprint order; the capacities are the residuals of
    # those SNs and SLs and of nothing else; and the solver weighs each item
    # as the Fraction sum of size / residual over its pairs, times a scale
    # that every touched residual's numerator divides
    for placements, residual_cpu, residual_bw, (caps, items) in _funding_calls(net, reqs):
        assert [item[0] for item in items] == list(range(len(placements)))
        residual = {("SN", sn): q for sn, q in residual_cpu.items()}
        residual.update({("SL", k): q for k, q in residual_bw.items()})
        dims = {}
        for (_idx, profit, pairs), pl in zip(items, placements):
            cpu, bw = footprint([(pl.req, pl.to_embedding())])
            use = {**{("SN", sn): q for sn, q in cpu.items()}, **{("SL", k): q for k, q in bw.items()}}
            for d in use:
                dims.setdefault(d, len(dims))
            assert profit == pl.req.revenue
            assert pairs == [(dims[d], q) for d, q in use.items()]
        assert caps == [residual[d] for d in dims]
        weighed, scale = _mdkp_items(caps, items)
        assert all(scale % q.numerator == 0 for q in caps)
        for idx, _p, pairs, weight in weighed:
            assert weight == scale * sum(Fraction(q) / caps[d] for d, q in pairs)
            assert pairs == items[idx][2]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_funding_sizes_are_footprints(seed):
    _assert_funding_sizes_are_footprints(*_random_pipeline_instance(random.Random(seed)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_funding_sizes_are_footprints_on_tuple_ids(seed):
    _assert_funding_sizes_are_footprints(*_edp_instance(random.Random(seed)))


def _edp_instance(rng):
    """The EDP reduction of a random graph and pairs: its SNs are named ("n", v) and ("c", v)."""
    g = random_connected_graph(rng, rng.randint(2, 8))
    pairs = [tuple(rng.sample(list(g.nodes), 2)) for _ in range(rng.randint(1, 6))]
    red = gen_edp_reduction(list(g.nodes), list(g.edges), pairs)
    return red.net, red.requests


def _assert_sparse_funding_selects_as_dense(net, reqs):
    # every funding instance procedure_pe builds, over the touched SNs and SLs
    # alone, selects what the dense instance of the same placements over every
    # SN then every SL selects under the Fraction-key references: greedy, and
    # exhaustive up to EXACT_ITEM_LIMIT items (the exact search bounds with a
    # surrogate capacity that counts the touched dimensions only)
    index = {d: i for i, d in enumerate([*(("SN", v) for v in net.nodes), *(("SL", k) for k in net.edges)])}
    for placements, residual_cpu, residual_bw, (touched, items) in _funding_calls(net, reqs):
        caps = [residual_cpu[v] for v in net.nodes] + [residual_bw[k] for k in net.edges]
        dense = []
        for idx, pl in enumerate(placements):
            cpu, bw = footprint([(pl.req, pl.to_embedding())])
            sizes = [0] * len(index)
            for sn, q in cpu.items():
                sizes[index["SN", sn]] = q
            for k, q in bw.items():
                sizes[index["SL", k]] = q
            dense.append((idx, pl.req.revenue, tuple(sizes)))
        assert solve_mdkp(touched, items) == mdkp_greedy_reference(caps, dense)
        if len(dense) <= EXACT_ITEM_LIMIT:
            assert solve_mdkp(touched, items, mode="exact") == mdkp_exact_reference(caps, dense)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_sparse_funding_selects_as_the_dense_instance(seed):
    _assert_sparse_funding_selects_as_dense(*_random_pipeline_instance(random.Random(seed)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_sparse_funding_selects_as_the_dense_instance_on_tuple_ids(seed):
    _assert_sparse_funding_selects_as_dense(*_edp_instance(random.Random(seed)))


def test_pack_mkp_builds_the_ratio_key_once(monkeypatch):
    # 1000 unit-revenue requests: the requests are sorted once, on a ratio key
    # built once for the whole sort and then called once per request
    calls = {"mkp_order": 0, "ratio_key": 0, "key": 0}
    mkp_order, ratio_key = knapsack.mkp_order, knapsack._ratio_key

    def counting_mkp_order(*args):
        calls["mkp_order"] += 1
        return mkp_order(*args)

    def counting_ratio_key(profits, sizes):
        calls["ratio_key"] += 1
        key = ratio_key(profits, sizes)

        def counting_key(*args):
            calls["key"] += 1
            return key(*args)
        return counting_key

    monkeypatch.setattr(knapsack, "_ratio_key", counting_ratio_key)
    monkeypatch.setattr(knapsack, "mkp_order", counting_mkp_order)
    monkeypatch.setattr(path_embedding, "mkp_order", counting_mkp_order)
    reqs = [uniform_path_request(i, 5 + i % 6) for i in range(1000)]
    paths = [SubstratePath(tuple(range(100 * k, 100 * k + 61))) for k in range(40)]
    placements = pack_mkp(paths, path_items(reqs))
    assert 0 < len(placements) < len(reqs)
    assert calls == {"mkp_order": 1, "ratio_key": 1, "key": len(reqs)}


@pytest.mark.parametrize("mode", ["greedy", "exact"])
def test_pack_mkp_calls_solve_mkp_once(monkeypatch, mode):
    # both modes reach the solver by one route: one solve_mkp call per
    # pack_mkp call, on the capacities and the items' profits and sizes
    calls = []
    solve_mkp = path_embedding.solve_mkp

    def spying(*args, **kwargs):
        calls.append((args, kwargs))
        return solve_mkp(*args, **kwargs)

    monkeypatch.setattr(path_embedding, "solve_mkp", spying)
    paths = [SubstratePath(tuple(range(7))), SubstratePath(tuple(range(10, 14)))]
    reqs = path_items([uniform_path_request(i, 1 + i % 4, revenue=1 + i % 3) for i in range(9)])
    placements = pack_mkp(paths, reqs, mode=mode)
    assert 0 < len(placements) < len(reqs)
    assert calls == [(([6, 3], [req.revenue for req in reqs], [req.length for req in reqs]), {"mode": mode})]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["greedy", "exact"]))
def test_property_pack_mkp_places_as_the_per_call_items_did(seed, mode):
    # requests in shuffled order with tied lengths and revenues: the items
    # sorted once by path_items must give the placements that building and
    # solving the items in request order gave
    rng = random.Random(seed)
    paths = [SubstratePath(tuple(range(100 * k, 100 * k + rng.randint(2, 9))))
             for k in range(rng.randint(0, 4))]
    reqs = [uniform_path_request(i, rng.randint(1, 6),
                                 revenue=rng.choice([1, 2, 3, Fraction(3, 2), Fraction(5, 2)]))
            for i in range(rng.randint(0, EXACT_ITEM_LIMIT - 3))]
    rng.shuffle(reqs)
    got = pack_mkp(paths, path_items(reqs), mode=mode)
    want = pack_mkp_reference(paths, reqs, mode=mode)
    assert ([(pl.req.req_id, pl.path_index, pl.offset) for pl in got]
            == [(pl.req.req_id, pl.path_index, pl.offset) for pl in want])


def test_procedure_pe_builds_and_sorts_items_once(monkeypatch):
    # a 30-node, 150-link substrate with 100 path requests runs 15 iterations:
    # the requests are sorted once, and each iteration packs them with one
    # `solve_mkp` call on plain lists
    rng = random.Random(7)
    net = gen_substrate(SubstrateSpec(n_nodes=30, n_edges=150), rng.randrange(2 ** 31))
    reqs = gen_requests(RequestSpec(shape="path", count=100), rng.randrange(2 ** 31))
    calls = {"mkp_order": 0, "solve_mkp": 0}
    mkp_order, solve_mkp = knapsack.mkp_order, path_embedding.solve_mkp

    def counting_mkp_order(*args):
        calls["mkp_order"] += 1
        return mkp_order(*args)

    def counting_solve_mkp(capacities, profits, sizes, mode="greedy"):
        calls["solve_mkp"] += 1
        assert all(type(x) is list for x in (capacities, profits, sizes))
        return solve_mkp(capacities, profits, sizes, mode=mode)

    monkeypatch.setattr(knapsack, "mkp_order", counting_mkp_order)
    monkeypatch.setattr(path_embedding, "mkp_order", counting_mkp_order)
    monkeypatch.setattr(path_embedding, "solve_mkp", counting_solve_mkp)
    trace = []
    batch = procedure_pe(net, reqs, trace=trace)
    assert len(trace) >= 10 and 0 < len(batch) < len(reqs)
    assert calls == {"mkp_order": 1, "solve_mkp": len(trace)}


def test_embed_paths_golden_output_is_unchanged(tmp_path):
    # the report and trace on a 30-node, 150-link substrate with 100 path
    # requests pin every packing, placement and funding decision of the
    # pipeline; the trace only watches, so the report is the same without it
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    cli = [sys.executable, "-m", "pcvne.cli"]
    inst, trace = tmp_path / "inst.json", tmp_path / "trace.jsonl"
    subprocess.run([*cli, "generate", "--nodes", "30", "--edges", "150", "--shape", "path",
                    "--count", "100", "--seed", "7", "--out", str(inst)], check=True, env=env)
    proc = subprocess.run([*cli, "embed-paths", "--instance", str(inst), "--trace", str(trace)],
                          capture_output=True, check=True, env=env)
    untraced = subprocess.run([*cli, "embed-paths", "--instance", str(inst)],
                              capture_output=True, check=True, env=env)
    data = root / "tests" / "data"
    assert proc.stdout == untraced.stdout == (data / "embed_paths.out").read_bytes()
    assert trace.read_bytes() == (data / "embed_paths_trace.jsonl").read_bytes()


def _pipeline_events(monkeypatch, net, reqs):
    """Run procedure_pe and log its stages as one string: D per decomposition,
    P per packing, and per commit X if it drove a residual of one of its SNs
    or SLs to 0, else C. Returns (log, batch, trace)."""
    log = []
    decompose, pack = path_embedding.decompose_paths, path_embedding.pack_mkp

    def logging_decompose(net):
        log.append("D")
        return decompose(net)

    def logging_pack(*args, **kwargs):
        log.append("P")
        return pack(*args, **kwargs)

    def logging_commit(net, req, emb):
        use = commit(net, req, emb)
        exhausted = (any(net.residual_cpu[sn] == 0 for sn in emb.node_map.values())
                     or any(net.residual_bw[edge_key(*e)] == 0 for sls in emb.link_map.values() for e in sls))
        log.append("X" if exhausted else "C")
        return use

    monkeypatch.setattr(path_embedding, "decompose_paths", logging_decompose)
    monkeypatch.setattr(path_embedding, "pack_mkp", logging_pack)
    monkeypatch.setattr(path_embedding, "commit", logging_commit)
    trace = []
    batch = procedure_pe(net, reqs, trace=trace)
    return "".join(log), batch, trace


def _assert_decomposes_only_after_exhaustion(log, batch, reqs, trace):
    # one decomposition up front, then one after each iteration whose commits
    # drove a residual to 0, unless that iteration funded the last request
    first, *iterations = log.split("P")
    assert first == "D"
    for i, events in enumerate(iterations):
        commits = events.rstrip("D")
        assert set(commits) <= {"C", "X"} and len(events) - len(commits) <= 1
        more = i < len(iterations) - 1 or len(batch) < len(reqs)
        assert events.endswith("D") == ("X" in commits and more), log
    assert len(trace) == len(iterations)  # one --trace record per iteration


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_decomposes_only_after_a_residual_reached_zero(seed):
    net, reqs = _random_pipeline_instance(random.Random(seed))
    with pytest.MonkeyPatch.context() as monkeypatch:
        log, batch, trace = _pipeline_events(monkeypatch, net, reqs)
    _assert_decomposes_only_after_exhaustion(log, batch, reqs, trace)


def test_decomposition_is_reused_at_benchmark_scale(monkeypatch):
    # 30 nodes, 150 links, 100 path requests: most iterations exhaust nothing
    rng = random.Random(7)
    net = gen_substrate(SubstrateSpec(n_nodes=30, n_edges=150), rng.randrange(2 ** 31))
    reqs = gen_requests(RequestSpec(shape="path", count=100), rng.randrange(2 ** 31))
    ref = procedure_pe_reference(net.copy(), reqs)
    log, batch, trace = _pipeline_events(monkeypatch, net, reqs)
    _assert_decomposes_only_after_exhaustion(log, batch, reqs, trace)
    assert 1 < log.count("D") < log.count("P")
    assert batch.accepted_ids() == ref.accepted_ids()


def test_exhausted_link_forces_a_new_decomposition(monkeypatch):
    # 0-1-2-3-4, CPU 3 everywhere, BW 1 on 0-1 and 2 elsewhere. Iteration 1
    # packs A on 0..2 and B on 2..4; SN 2 funds only A, whose BW 1 on 0-1
    # exhausts that SL. Iteration 2 must decompose 1-2-3-4 afresh, where B
    # fits at 1..3; on the stale path 0..4 it would land on the dead SL 0-1.
    bw = {edge_key(i, i + 1): 2 for i in range(4)}
    bw[edge_key(0, 1)] = 1
    net = make_net(list(range(5)), list(bw), 3, bw)
    a = make_path_request("a", [1, 1, 2], [1, 1], revenue=2)
    b = make_path_request("b", [2, 1, 1], [1, 1], revenue=1)
    ref_net = net.copy()
    ref = procedure_pe_reference(ref_net, [a, b])
    log, batch, trace = _pipeline_events(monkeypatch, net, [a, b])
    assert log == "DPXDPX"
    assert [rec["paths"] for rec in trace] == [[[0, 1, 2, 3, 4]], [[1, 2, 3, 4]]]
    assert batch.accepted_ids() == ref.accepted_ids() == ["a", "b"]
    assert [emb.node_map for _req, emb in batch.items] == [emb.node_map for _req, emb in ref.items]
    assert net.residual_cpu == ref_net.residual_cpu and net.residual_bw == ref_net.residual_bw


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_funding_items_meet_the_solver_contract(seed):
    # solve_mdkp checks nothing, so every call assign_mdkp makes must meet its
    # contract: exact non-negative capacities, exact non-negative profits, and
    # per item a list of (dimension, size) pairs, each dimension in range and
    # at most once, each size exact and positive
    net, reqs = _random_pipeline_instance(random.Random(seed))
    calls = _funding_calls(net, reqs)
    for _placements, _cpu, _bw, (caps, items) in calls:
        assert all(type(q) in (int, Fraction) and q >= 0 for q in caps)
        for _idx, profit, pairs in items:
            assert type(profit) in (int, Fraction) and profit >= 0
            assert type(pairs) is list and len({d for d, _q in pairs}) == len(pairs)
            assert all(type(d) is int and 0 <= d < len(caps) for d, _q in pairs)
            assert all(type(q) in (int, Fraction) and q > 0 for _d, q in pairs)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_funding_ignores_untouched_residuals(seed):
    # the funding units come from the touched residuals only: when an SN or
    # SL that no placement touches takes a new residual, a large prime that
    # no touched residual shares a factor with, each funding call builds the
    # same instance, weighs it alike and funds the same placements
    prime = 2 ** 61 - 1
    net, reqs = _random_pipeline_instance(random.Random(seed))
    for placements, residual_cpu, residual_bw, _solved in _funding_calls(net.copy(), reqs):
        sns = {sn for pl in placements for sn in pl.path.nodes[pl.offset:pl.offset + pl.req.length + 1]}
        sls = {k for pl in placements for k in pl.path.edges()[pl.offset:pl.offset + pl.req.length]}
        changes = [None, *[("cpu", v) for v in net.nodes if v not in sns][:1],
                   *[("bw", k) for k in net.edges if k not in sls][:1]]
        runs = []
        for change in changes:
            run = net.copy()
            run.residual_cpu, run.residual_bw = dict(residual_cpu), dict(residual_bw)
            if change is not None:
                getattr(run, f"residual_{change[0]}")[change[1]] = prime
            insts = []

            def capturing(capacities, items, mode="greedy"):
                insts.append((capacities, items))
                return solve_mdkp(capacities, items, mode=mode)

            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(path_embedding, "solve_mdkp", capturing)
                funded = [pl.req.req_id for pl, _emb, _use in assign_mdkp(run, placements)]
            ((caps, items),) = insts
            runs.append((caps, items, _mdkp_items(caps, items), funded))
        assert all(r == runs[0] for r in runs)
