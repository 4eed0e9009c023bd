import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_net,
    make_path_request,
    path_net,
    random_connected_graph,
    uniform_path_request,
)
from oracles import first_fit_paths, mkp_best_profit
from pcvne.knapsack import KpItem, solve_kp_dp
from pcvne.model import ModelError, edge_key, validate_embedding
from pcvne.path_embedding import (
    PathPlacement,
    SubstratePath,
    assign_mdkp,
    decompose_paths,
    pack_mkp,
    procedure_pe,
)


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


class TestPackMkp:
    def test_single_request_at_offset_zero(self):
        paths = [SubstratePath(tuple(range(11)))]
        req = uniform_path_request("r", 5)
        placements = pack_mkp(paths, [req])
        assert len(placements) == 1
        assert placements[0].offset == 0 and placements[0].path_index == 0

    def test_capacity_excludes_one_of_two(self):
        paths = [SubstratePath(tuple(range(11)))]
        reqs = [uniform_path_request("a", 5, revenue=5),
                uniform_path_request("b", 6, revenue=6)]
        placements = pack_mkp(paths, reqs, mode="exact")
        assert len(placements) == 1  # 5 + 6 > 10
        assert placements[0].req.req_id == "b"  # higher profit wins in exact mode

    def test_exact_profit_matches_exhaustive(self):
        rng = random.Random(23)
        for _ in range(15):
            paths = [SubstratePath(tuple(range(rng.randint(2, 8))))
                     for _ in range(3)]
            reqs = [uniform_path_request(i, rng.randint(1, 6), revenue=rng.randint(1, 9))
                    for i in range(8)]
            placements = pack_mkp(paths, reqs, mode="exact")
            placed_profit = sum(pl.req.revenue for pl in placements)
            items = [KpItem(item_id=r.req_id, size=r.length, profit=r.revenue) for r in reqs]
            assert placed_profit == mkp_best_profit([p.length for p in paths], items)

    def test_placements_fit_and_share_boundaries(self):
        rng = random.Random(31)
        for _ in range(20):
            paths = [SubstratePath(tuple(range(rng.randint(2, 9)))),
                     SubstratePath(tuple(range(100, 100 + rng.randint(2, 9))))]
            reqs = [uniform_path_request(i, rng.randint(1, 5)) for i in range(7)]
            placements = pack_mkp(paths, reqs)
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
        for pl in pack_mkp(paths, reqs):
            emb = pl.to_embedding()
            ok, violations = validate_embedding(net, pl.req, emb)
            assert not any(v.kind in ("endpoint", "injectivity") for v in violations)

    def test_rejects_non_path_requests(self):
        from conftest import make_cycle_request

        with pytest.raises(ModelError):
            pack_mkp([SubstratePath((0, 1))], [make_cycle_request(0, [1, 1, 1], [1, 1, 1])])


class TestAssignMdkp:
    def test_single_fitting_placement_accepted(self):
        net = path_net(6, cpu=2, bw=1)
        paths = [SubstratePath(tuple(range(6)))]
        placements = pack_mkp(paths, [uniform_path_request("r", 3)])
        accepted = assign_mdkp(net, placements)
        assert [pl.req.req_id for pl, _ in accepted] == ["r"]
        assert net.residual_bw[edge_key(0, 1)] == 0

    def test_boundary_cpu_conflict_drops_one(self):
        # two placements share node 3; its capacity only fits one end VN
        net = path_net(7, cpu=1, bw=1)
        paths = [SubstratePath(tuple(range(7)))]
        placements = pack_mkp(paths, [uniform_path_request("a", 3), uniform_path_request("b", 3)])
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
            placements = pack_mkp(paths, reqs)
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
            assert sum(pl.req.revenue for pl, _ in accepted) == expected


    def test_embeds_each_placement_once(self, monkeypatch):
        calls = []
        to_embedding = PathPlacement.to_embedding

        def counting(self):
            calls.append(self.req.req_id)
            return to_embedding(self)

        monkeypatch.setattr(PathPlacement, "to_embedding", counting)
        net = path_net(12, cpu=1, bw=1)
        reqs = [uniform_path_request(i, 3) for i in range(4)]
        placements = pack_mkp([SubstratePath(tuple(range(12)))], reqs)
        accepted = assign_mdkp(net, placements)
        assert 0 < len(accepted) < len(placements)
        assert sorted(calls) == sorted(pl.req.req_id for pl in placements)


class TestProcedurePe:
    def test_uniform_path_substrate_reaches_kp_optimum(self):
        rng = random.Random(53)
        for _ in range(12):
            size = rng.randint(6, 14)
            net = path_net(size + 1, cpu=2, bw=1)
            reqs = [uniform_path_request(i, rng.randint(1, size), revenue=rng.randint(1, 9))
                    for i in range(rng.randint(4, 10))]
            batch = procedure_pe(net, reqs, mkp_mode="exact", mdkp_mode="exact")
            items = [KpItem(item_id=r.req_id, size=r.length, profit=r.revenue) for r in reqs]
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
