import random

import pytest

from conftest import (
    make_cycle_request,
    make_net,
    path_net,
    random_ring_instance,
    ring_net,
)
from oracles import independent_arcs, simplex_min_cost, tie_rule_oracle, wdag_all_cycles
from pcvne.cycle_embedding import (
    ANTICLOCKWISE,
    CLOCKWISE,
    CycleView,
    build_wdag,
    c2ce,
    feasible_sets,
    greedy_revenue,
    min_weight_cycle,
)
from pcvne.model import ModelError, commit, edge_key, validate_embedding


def per_direction_minimum(net, req, direction):
    cycle = CycleView(net)
    fs = feasible_sets(net, req)
    best = None
    for start in sorted(fs.vn_sets[0]):
        w = build_wdag(cycle, req, start, direction, fs=fs)
        found = min_weight_cycle(w)
        if found and (best is None or found[1] < best):
            best = found[1]
    return best


class TestCycleView:
    def test_rejects_non_cycle(self):
        with pytest.raises(ModelError):
            CycleView(path_net(4))

    def test_order_covers_ring(self):
        view = CycleView(ring_net(6))
        assert sorted(view.order) == list(range(6))
        for i in range(6):
            assert view.net.has_edge(view.order[i], view.order[(i + 1) % 6])

    def test_positions_both_directions(self):
        view = CycleView(ring_net(5))
        assert view.seq_pos(2, CLOCKWISE, 4) == 2
        assert view.seq_pos(2, ANTICLOCKWISE, 0) == 2
        assert view.seq_pos(2, CLOCKWISE, 2) == 0


class TestBuildWdag:
    def test_ring_fixture_clockwise_cycle_weight(self, fig_ring):
        net, req = fig_ring
        cycle = CycleView(net)
        w = build_wdag(cycle, req, 0, CLOCKWISE)
        found = min_weight_cycle(w)
        assert found is not None
        hosts, cost = found
        assert cost == 8
        assert hosts == [0, 1, 3]

    def test_empty_feasible_layer_yields_no_cycle(self):
        net = ring_net(5, cpu=3, bw=10)
        req = make_cycle_request("r", [1, 9, 1], [1, 1, 1])  # second VN infeasible anywhere
        cycle = CycleView(net)
        w = build_wdag(cycle, req, 0, CLOCKWISE)
        assert not w.complete
        assert min_weight_cycle(w) is None

    def test_arcs_match_independent_checker(self):
        rng = random.Random(3)
        for _ in range(30):
            net, req = random_ring_instance(rng, m_range=(7, 7), n_range=(4, 4))
            cycle = CycleView(net)
            fs = feasible_sets(net, req)
            if not fs.vn_sets[0]:
                continue
            for start in sorted(fs.vn_sets[0]):
                for direction in (CLOCKWISE, ANTICLOCKWISE):
                    w = build_wdag(cycle, req, start, direction, fs=fs)
                    got = {}
                    for (j, tail), outs in w.arcs.items():
                        for head, weight, _h in outs:
                            got[(j, tail, head)] = weight
                    for tail, (weight, _h) in w.closing.items():
                        got[(req.n_vns - 1, tail, start)] = weight
                    assert got == independent_arcs(net, req, start, direction)

    def test_layer_and_arc_bounds(self):
        rng = random.Random(5)
        for _ in range(40):
            net, req = random_ring_instance(rng)
            cycle = CycleView(net)
            fs = feasible_sets(net, req)
            for start in sorted(fs.vn_sets[0]):
                for direction in (CLOCKWISE, ANTICLOCKWISE):
                    w = build_wdag(cycle, req, start, direction, fs=fs)
                    assert w.max_layer_size() <= cycle.m
                    assert w.arc_count() <= cycle.m ** 2 * req.n_vns

    def test_graph_is_a_snapshot(self, fig_ring):
        # the explicit views are built lazily, but from the residuals at
        # build time: later commits must not leak into a dump
        net, req = fig_ring
        fresh = build_wdag(CycleView(net.copy()), req, 0, CLOCKWISE).to_json()
        w = build_wdag(CycleView(net), req, 0, CLOCKWISE)
        sx = c2ce(net, req)
        commit(net, req, sx.to_embedding(req))
        assert w.to_json() == fresh
        assert min_weight_cycle(w) == ([0, 1, 3], 8)

    def test_start_must_be_feasible(self):
        net = ring_net(4, cpu=1)
        req = make_cycle_request("r", [2, 1, 1], [1, 1, 1])
        with pytest.raises(ModelError):
            build_wdag(CycleView(net), req, 0, CLOCKWISE)


class TestMinWeightCycle:
    def test_single_chain(self):
        net = ring_net(3, cpu=5, bw=5)
        req = make_cycle_request("r", [1, 1, 1], [1, 1, 1])
        cycle = CycleView(net)
        w = build_wdag(cycle, req, 0, CLOCKWISE)
        found = min_weight_cycle(w)
        assert found is not None
        hosts, cost = found
        # forced hops of one each way round
        assert cost == 3 and hosts == [0, 1, 2]

    def test_matches_exhaustive_cycle_enumeration(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            net, req = random_ring_instance(rng)
            cycle = CycleView(net)
            fs = feasible_sets(net, req)
            for start in sorted(fs.vn_sets[0]):
                for direction in (CLOCKWISE, ANTICLOCKWISE):
                    w = build_wdag(cycle, req, start, direction, fs=fs)
                    all_cycles = wdag_all_cycles(w)
                    found = min_weight_cycle(w)
                    assert w.arc_count() == sum(map(len, w.arcs.values())) + len(w.closing)
                    if not all_cycles:
                        assert found is None
                    else:
                        checked += 1
                        assert found is not None
                        assert found[1] == min(c for _, c in all_cycles)
                        # ties go to the lexicographically smallest host tuple
                        hosts, cost = min(all_cycles, key=lambda hc: (hc[1], hc[0]))
                        assert found == (list(hosts), cost)
        assert checked > 20


class TestC2ce:
    def test_ring_fixture_clockwise_beats_anticlockwise(self, fig_ring):
        net, req = fig_ring
        assert per_direction_minimum(net, req, CLOCKWISE) == 8
        assert per_direction_minimum(net, req, ANTICLOCKWISE) == 9
        sx = c2ce(net, req)
        assert sx.cost == 8 and sx.direction == CLOCKWISE

    def test_full_ring_forces_unit_hops(self):
        m = 6
        net = ring_net(m, cpu=9, bw=9)
        demands = [1, 2, 3, 1, 2, 3]
        req = make_cycle_request("r", [1] * m, demands)
        sx = c2ce(net, req)
        assert sx is not None
        assert sx.hops == [1] * m
        assert sx.cost == sum(demands)

    def test_agrees_with_brute_force(self):
        from pcvne.theory import brute_force_simplex_cycle

        rng = random.Random(13)
        agree_feasible = agree_infeasible = 0
        for _ in range(60):
            net, req = random_ring_instance(rng)
            sx = c2ce(net, req)
            (best, _count) = brute_force_simplex_cycle(net, req)[0], None
            if best is None:
                assert sx is None
                agree_infeasible += 1
            else:
                assert sx is not None
                assert sx.cost == best[1]
                agree_feasible += 1
        assert agree_feasible > 10 and agree_infeasible > 5

    def test_agrees_with_independent_tableau_scan(self):
        rng = random.Random(17)
        for _ in range(40):
            net, req = random_ring_instance(rng)
            sx = c2ce(net, req)
            best = simplex_min_cost(net, req)
            assert (sx.cost if sx else None) == best

    def test_result_wraps_ring_exactly_once_and_validates(self):
        rng = random.Random(19)
        checked = 0
        while checked < 25:
            net, req = random_ring_instance(rng)
            sx = c2ce(net, req)
            if sx is None:
                continue
            checked += 1
            assert sum(sx.hops) == CycleView(net).m
            used = [e for seg in sx.segments for e in seg]
            assert len(used) == len(set(used))  # link-disjoint segments
            assert sx.cost == sum(h * req.bw_demand[vl] for h, vl in zip(sx.hops, req.vls))
            emb = sx.to_embedding(req)
            ok, violations = validate_embedding(net, req, emb, against_residuals=True)
            assert ok, violations

    def test_uniform_demand_ties_follow_the_rule(self):
        # every one-direction embedding of a uniform-demand request costs
        # m * demand, so the tie rule alone picks the answer
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            m = rng.randint(4, 8)
            labels = rng.sample(range(100), m)
            edges = [(labels[i], labels[(i + 1) % m]) for i in range(m)]
            net = make_net(labels, edges, rng.randint(2, 4), rng.randint(2, 4))
            for k in range(6):
                n = rng.randint(3, min(5, m))
                d = rng.randint(1, 2)
                req = make_cycle_request(k, [d] * n, [d] * n)
                sx = c2ce(net, req)
                got = None if sx is None else (sx.start, sx.direction, sx.assignment, sx.cost)
                assert got == tie_rule_oracle(net, req)
                if sx is not None:
                    checked += 1
                    commit(net, req, sx.to_embedding(req))
        assert checked > 50

    def test_infeasible_when_request_larger_than_ring(self):
        net = ring_net(4)
        req = make_cycle_request("r", [1] * 5, [1] * 5)
        assert c2ce(net, req) is None


class TestGreedyRevenue:
    def test_ratio_ordering_prefers_high_revenue(self):
        # capacity fits exactly one of two identical-demand requests
        net = ring_net(4, cpu=1, bw=1)
        cheap = make_cycle_request("cheap", [1, 1, 1], [1, 1, 1], revenue=1)
        rich = make_cycle_request("rich", [1, 1, 1], [1, 1, 1], revenue=10)
        batch = greedy_revenue(net, [cheap, rich], fallback=None)
        assert batch.accepted_ids() == ["rich"]

    def test_empty_requests(self):
        net = ring_net(4)
        batch = greedy_revenue(net, [], fallback=None)
        assert len(batch) == 0

    def test_fallback_gets_leftovers(self):
        from pcvne.baseline import generic_embed

        # a dead link kills every wrap-once embedding (each must cross all
        # links), but the generic embedder routes around it
        m = 6
        bw = {edge_key(i, (i + 1) % m): 10 for i in range(m)}
        bw[edge_key(4, 5)] = 0
        net = make_net(list(range(m)), [(i, (i + 1) % m) for i in range(m)], 10, bw)
        req = make_cycle_request("tri", [1, 1, 1], [1, 1, 1])
        assert c2ce(net, req) is None
        batch = greedy_revenue(net, [req], fallback=generic_embed)
        assert batch.accepted_ids() == ["tri"]
        ok, violations = batch.validate_against(net)
        assert ok, violations

    def test_sorted_order_usually_beats_unsorted(self):
        rng = random.Random(23)
        wins = 0
        seeds = 100
        for s in range(seeds):
            sub_rng = random.Random(900 + s)
            net = ring_net(20)
            reqs = []
            for i in range(20):
                n = sub_rng.randint(5, 10)
                reqs.append(make_cycle_request(
                    i, [sub_rng.randint(1, 5) for _ in range(n)],
                    [sub_rng.randint(1, 5) for _ in range(n)],
                    revenue=n))
            sorted_batch = greedy_revenue(net.copy(), reqs, fallback=None)
            unsorted_net = net.copy()
            unsorted_revenue = 0
            for req in reqs:
                sx = c2ce(unsorted_net, req)
                if sx is not None:
                    commit(unsorted_net, req, sx.to_embedding(req))
                    unsorted_revenue += req.revenue
            if sorted_batch.revenue >= unsorted_revenue:
                wins += 1
        assert wins >= 60, f"sorted order won only {wins}/{seeds} seeds"

    def test_batch_validates(self):
        rng = random.Random(29)
        net = ring_net(12, cpu=6, bw=6)
        reqs = []
        for i in range(8):
            n = rng.randint(3, 6)
            reqs.append(make_cycle_request(
                i, [rng.randint(1, 3) for _ in range(n)],
                [rng.randint(1, 3) for _ in range(n)], revenue=n))
        from pcvne.baseline import generic_embed

        batch = greedy_revenue(net, reqs, fallback=generic_embed)
        ok, violations = batch.validate_against(net)
        assert ok, violations
