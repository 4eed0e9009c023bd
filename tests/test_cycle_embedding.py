import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcvne.cycle_embedding as cycle_embedding
from conftest import (
    make_cycle_request,
    make_net,
    make_path_request,
    path_net,
    random_ring_instance,
    ring_net,
)
from oracles import (
    c2ce_reference,
    greedy_revenue_reference,
    independent_arcs,
    simplex_min_cost,
    tie_rule_oracle,
    wdag_all_cycles,
)
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
            assert edge_key(view.order[i], view.order[(i + 1) % 6]) in view.net.edges

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

    def test_rejects_non_cycle_request_with_feasible_anchor(self):
        req = make_path_request("p", [1, 1, 1], [1, 1])
        with pytest.raises(ModelError, match="request is not a cycle"):
            c2ce(ring_net(4), req)

    def test_rejects_non_cycle_request_without_feasible_anchor(self):
        # no SN can host the first VN, so no graph would ever be built
        req = make_path_request("p", [9, 1, 1], [1, 1])
        with pytest.raises(ModelError, match="request is not a cycle"):
            c2ce(ring_net(4, cpu=1), req)

    def test_non_ring_substrate_fails_before_the_request_check(self):
        req = make_path_request("p", [1, 1, 1], [1, 1])
        with pytest.raises(ModelError, match="substrate is not a cycle"):
            c2ce(path_net(4), req)


def spy(monkeypatch, name):
    """Record the calls c2ce makes to `cycle_embedding.<name>`."""
    calls = []
    original = getattr(cycle_embedding, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cycle_embedding, name, wrapper)
    return calls


def outcome(sx):
    return None if sx is None else (sx.start, sx.direction, sx.assignment, sx.hops, sx.cost)


class TestScanCounts:
    """How much of the anchor x direction scan c2ce does: none when an SL
    cannot carry the smallest VL demand, up to the first candidate at the
    cost floor Σ d_j + (m − n)·min d otherwise, all of it for `collect`."""

    def test_no_graph_when_an_sl_cannot_carry_the_smallest_demand(self, monkeypatch):
        bw = {edge_key(i, (i + 1) % 6): 9 for i in range(6)}
        bw[edge_key(2, 3)] = 1
        net = ring_net(6, cpu=9, bw=bw)
        req = make_cycle_request("r", [1, 1, 1], [2, 3, 4])
        counts = [spy(monkeypatch, name)
                  for name in ("feasible_sets", "build_wdag", "min_weight_cycle")]
        assert c2ce(net, req) is None
        assert counts == [[], [], []]
        assert c2ce_reference(net, req) is None

    def test_one_graph_when_the_first_anchor_reaches_the_floor(self, monkeypatch):
        net = ring_net(6)
        req = make_cycle_request("r", [1, 1, 1], [1, 2, 3])
        built = spy(monkeypatch, "build_wdag")
        swept = spy(monkeypatch, "min_weight_cycle")
        sx = c2ce(net, req)
        assert len(built) == len(swept) == 1
        # floor = (1 + 2 + 3) + (6 - 3) * 1: the demand-1 VL takes the slack
        assert outcome(sx) == (0, CLOCKWISE, [0, 4, 5], [4, 1, 1], 9)
        assert outcome(sx) == outcome(c2ce_reference(net, req))

    def test_every_pair_when_the_floor_is_out_of_reach(self, monkeypatch):
        # only SNs 0 and 3 host the first and last VN, so the demand-3 VL
        # closing the cycle always takes 3 hops: cost 2 + 2 + 9 > floor 9
        net = ring_net(6, cpu={0: 5, 1: 1, 2: 1, 3: 5, 4: 1, 5: 1})
        req = make_cycle_request("r", [5, 1, 5], [1, 2, 3])
        swept = spy(monkeypatch, "min_weight_cycle")
        sx = c2ce(net, req)
        assert len(swept) == 4  # anchors 0 and 3, both directions
        assert sx.cost == 13
        assert outcome(sx) == outcome(c2ce_reference(net, req))

    @pytest.mark.parametrize("dead_link", [False, True])
    def test_collect_gets_one_graph_per_feasible_anchor_and_direction(self, monkeypatch, dead_link):
        bw = {edge_key(i, (i + 1) % 6): 9 for i in range(6)}
        if dead_link:
            bw[edge_key(4, 5)] = 0
        net = ring_net(6, cpu={0: 1, 1: 3, 2: 3, 3: 1, 4: 3, 5: 3}, bw=bw)
        req = make_cycle_request("r", [3, 1, 1], [1, 2, 3])
        swept = spy(monkeypatch, "min_weight_cycle")
        graphs = []
        sx = c2ce(net, req, collect=graphs.append)
        assert [(w.start, w.direction) for w in graphs] == [
            (s, d) for s in (1, 2, 4, 5) for d in (CLOCKWISE, ANTICLOCKWISE)]
        assert len(swept) == len(graphs)
        assert outcome(sx) == outcome(c2ce_reference(net, req))
        assert (sx is None) == dead_link


def fraction_quantities(low, high):
    return st.builds(Fraction, st.integers(low, high), st.integers(1, 3))


RING_KINDS = ("tight", "uniform", "heterogeneous", "fraction")


@st.composite
def ring_workloads(draw, kinds=RING_KINDS):
    """A ring with shuffled labels and tight capacities plus a few cycle
    requests, each committed by the caller before the next. Kinds: "tight"
    small random demands; "uniform" one demand per request, so every
    embedding costs m·d and the tie rule decides; "heterogeneous" two big
    SNs and two heavy VNs per request, so the cost floor is reached only
    when their spacings match; "fraction" Fraction capacities and demands."""
    kind = draw(st.sampled_from(kinds))
    quantities = fraction_quantities if kind == "fraction" else st.integers
    m = draw(st.integers(5 if kind == "heterogeneous" else 3, 9))
    labels = draw(st.lists(st.integers(0, 99), min_size=m, max_size=m, unique=True))
    edges = [(labels[i], labels[(i + 1) % m]) for i in range(m)]
    if kind == "heterogeneous":
        big = (labels[0], labels[draw(st.integers(2, m - 2))])
        cpu = {v: 9 if v in big else 2 for v in labels}
        bw = st.integers(4, 12)
    else:
        bw = quantities(1, {"tight": 6, "uniform": 5, "fraction": 8}[kind])
        cpu = {v: draw(bw) for v in labels}
    net = make_net(labels, edges, cpu, {edge_key(u, v): draw(bw) for u, v in edges})
    reqs = []
    for k in range(draw(st.integers(1, 5))):
        n = draw(st.integers(3, m + 1))
        if kind == "uniform":
            cpu_demand = bw_demand = [draw(st.integers(1, 2))] * n
        elif kind == "heterogeneous":
            heavy = (0, draw(st.integers(1, n - 1)))
            cpu_demand = [4 if i in heavy else 1 for i in range(n)]
            bw_demand = [draw(st.integers(1, 8)) for _ in range(n)]
        else:
            demand = quantities(1, {"tight": 4, "fraction": 6}[kind])
            cpu_demand = [draw(demand) for _ in range(n)]
            bw_demand = [draw(demand) for _ in range(n)]
        reqs.append(make_cycle_request(k, cpu_demand, bw_demand, revenue=draw(st.integers(1, 9))))
    return net, reqs


class TestPrunedScanMatchesFullScan:
    @settings(max_examples=300, deadline=None)
    @given(ring_workloads())
    def test_c2ce_equals_full_scan_with_commits_between(self, workload):
        net, reqs = workload
        for req in reqs:
            sx = c2ce(net, req)
            assert outcome(sx) == outcome(c2ce_reference(net, req))
            if sx is not None:
                commit(net, req, sx.to_embedding(req))

    @settings(max_examples=150, deadline=None)
    @given(ring_workloads())
    def test_greedy_revenue_with_fallback_accepts_the_same_ids(self, workload):
        from pcvne.baseline import generic_embed

        net, reqs = workload
        ref_net = net.copy()
        batch = greedy_revenue(net, reqs, fallback=generic_embed)
        ref = greedy_revenue_reference(ref_net, reqs, fallback=generic_embed)
        assert batch.accepted_ids() == ref.accepted_ids()
        assert net.residual_bw == ref_net.residual_bw
        assert net.residual_cpu == ref_net.residual_cpu


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
