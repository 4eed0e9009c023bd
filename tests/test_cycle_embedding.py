import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import pcvne.baseline as baseline
import pcvne.cycle_embedding as cycle_embedding
from conftest import (
    make_cycle_request,
    make_net,
    make_path_request,
    mask_hosts,
    path_net,
    random_ring_instance,
    ring_net,
)
from oracles import (
    brute_force_simplex_cycle,
    c2ce_reference,
    feasible_sets_reference,
    greedy_revenue_reference,
    independent_arcs,
    tie_rule_oracle,
    wdag_all_cycles,
)
from pcvne import RequestSpec, SubstrateSpec, gen_requests, gen_substrate
from pcvne.baseline import generic_embed
from pcvne.cycle_embedding import (
    ANTICLOCKWISE,
    CLOCKWISE,
    CycleView,
    build_wdag,
    c2ce,
    feasible_sets,
    greedy_revenue,
    min_weight_cycle,
    wdags,
)
from pcvne.model import ModelError, as_quantity, commit, edge_key, validate_embedding


def per_direction_minimum(net, req, direction):
    cycle = CycleView(net)
    masks = feasible_sets(cycle, req)
    best = None
    for start in mask_hosts(cycle, masks[0][0]):
        w = build_wdag(cycle, req, start, direction, masks=masks)
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
        assert not w.to_json()["closing"]
        assert min_weight_cycle(w) is None

    def test_arcs_match_independent_checker(self):
        rng = random.Random(3)
        for _ in range(30):
            net, req = random_ring_instance(rng, m_range=(7, 7), n_range=(4, 4))
            cycle = CycleView(net)
            masks = feasible_sets(cycle, req)
            for start in mask_hosts(cycle, masks[0][0]):
                for direction in (CLOCKWISE, ANTICLOCKWISE):
                    w = build_wdag(cycle, req, start, direction, masks=masks)
                    dump = w.to_json()
                    got = {}
                    for arc in dump["arcs"]:
                        got[(arc["tail"][0], arc["tail"][1], arc["head"][1])] = as_quantity(arc["weight"])
                    for arc in dump["closing"]:
                        got[(req.n_vns - 1, arc["tail"][1], start)] = as_quantity(arc["weight"])
                    assert got == independent_arcs(net, req, start, direction)

    def test_layer_and_arc_bounds(self):
        rng = random.Random(5)
        for _ in range(40):
            net, req = random_ring_instance(rng)
            cycle = CycleView(net)
            masks = feasible_sets(cycle, req)
            for start in mask_hosts(cycle, masks[0][0]):
                for direction in (CLOCKWISE, ANTICLOCKWISE):
                    w = build_wdag(cycle, req, start, direction, masks=masks)
                    assert max(map(len, w.to_json()["layers"])) <= cycle.m
                    assert w.arc_count() <= cycle.m ** 2 * req.n_vns

    def test_dump_order(self):
        # tails by layer, then by repr of their SN (so 10 comes before 2 on
        # a 12-node ring), heads by SN: the order of every existing dump
        net = ring_net(12)
        req = make_cycle_request("r", [1, 1, 1], [1, 1, 1])
        for direction in (CLOCKWISE, ANTICLOCKWISE):
            dump = build_wdag(CycleView(net), req, 0, direction).to_json()
            for kind in ("arcs", "closing"):
                keys = [(a["tail"][0], repr(a["tail"][1]), a["head"][1]) for a in dump[kind]]
                assert keys == sorted(keys) and len(set(keys)) == len(keys)
            tails = [a["tail"][1] for a in dump["closing"]]
            assert tails.index(10) < tails.index(2)

    def test_graph_is_a_snapshot(self, fig_ring):
        # the dump is built on request, but from the residuals at build
        # time: later commits must not leak into it
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
        # a start that is not on the ring at all is refused the same way
        req = make_cycle_request("r", [1, 1, 1], [1, 1, 1])
        with pytest.raises(ModelError, match="not feasible"):
            build_wdag(CycleView(net), req, 99, CLOCKWISE)


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
        instances = [random_ring_instance(rng) for _ in range(60)]
        # uniform demands on ids out of ring order, as in the uniform-demand
        # c2ce test: every cycle costs the same, so most graphs have tied
        # optima, and the smallest host tuple is seldom the first in ring order
        rng = random.Random(31)
        for k in range(60):
            m = rng.randint(4, 8)
            labels = rng.sample(range(100), m)
            edges = [(labels[i], labels[(i + 1) % m]) for i in range(m)]
            net = make_net(labels, edges, rng.randint(2, 4), rng.randint(2, 4))
            n, d = rng.randint(3, min(5, m)), rng.randint(1, 2)
            instances.append((net, make_cycle_request(k, [d] * n, [d] * n)))
        checked = tied = 0
        for net, req in instances:
            cycle = CycleView(net)
            masks = feasible_sets(cycle, req)
            for start in mask_hosts(cycle, masks[0][0]):
                for direction in (CLOCKWISE, ANTICLOCKWISE):
                    w = build_wdag(cycle, req, start, direction, masks=masks)
                    all_cycles = wdag_all_cycles(w)
                    found = min_weight_cycle(w)
                    dump = w.to_json()
                    assert w.arc_count() == len(dump["arcs"]) + len(dump["closing"])
                    if not all_cycles:
                        assert found is None
                    else:
                        checked += 1
                        assert found is not None
                        assert found[1] == min(c for _, c in all_cycles)
                        tied += sum(c == found[1] for _, c in all_cycles) > 1
                        # ties go to the lexicographically smallest host tuple
                        hosts, cost = min(all_cycles, key=lambda hc: (hc[1], hc[0]))
                        assert found == (list(hosts), cost)
        assert checked > 20 and tied > 400


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

    @pytest.mark.parametrize("seed, rings", [(13, 60), (17, 40)])
    def test_agrees_with_brute_force(self, seed, rings):
        rng = random.Random(seed)
        agree_feasible = agree_infeasible = 0
        for _ in range(rings):
            net, req = random_ring_instance(rng)
            sx = c2ce(net, req)
            best = brute_force_simplex_cycle(net, req)
            if best is None:
                assert sx is None
                agree_infeasible += 1
            else:
                assert sx is not None
                assert sx.cost == best[1]
                agree_feasible += 1
        assert agree_feasible > 10 and agree_infeasible > 5

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
    """Record the calls made to `cycle_embedding.<name>` through its module
    binding."""
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
    cost floor Σ d_j + (m − n)·min d otherwise. `wdags` is the full scan,
    which the dump takes beside the solve; watching never changes c2ce's."""

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
    def test_wdags_gives_one_graph_per_feasible_anchor_and_direction(self, monkeypatch, dead_link):
        bw = {edge_key(i, (i + 1) % 6): 9 for i in range(6)}
        if dead_link:
            bw[edge_key(4, 5)] = 0
        net = ring_net(6, cpu={0: 1, 1: 3, 2: 3, 3: 1, 4: 3, 5: 3}, bw=bw)
        req = make_cycle_request("r", [3, 1, 1], [1, 2, 3])
        built = spy(monkeypatch, "build_wdag")
        graphs = wdags(CycleView(net), req)
        assert not built  # lazy: nothing is built before the first graph is asked for
        graphs = list(graphs)
        assert [(w.start, w.direction) for w in graphs] == [
            (s, d) for s in (1, 2, 4, 5) for d in (CLOCKWISE, ANTICLOCKWISE)]
        assert len(built) == len(graphs)
        sx = c2ce(net, req)
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
        net, reqs = workload
        ref_net = net.copy()
        batch = greedy_revenue(net, reqs, fallback=True)
        ref = greedy_revenue_reference(ref_net, reqs, fallback=generic_embed)
        assert batch.accepted_ids() == ref.accepted_ids()
        assert net.residual_bw == ref_net.residual_bw
        assert net.residual_cpu == ref_net.residual_cpu

    @pytest.mark.parametrize("seed", [1, 7, 11, 31])
    def test_leftover_pass_matches_the_reference_at_the_benchmark_scale(self, seed):
        # the first instance of the benchmark's `ring` workload at this seed:
        # a 30-node ring and 100 proportional-revenue cycle requests. The one
        # generic pass must place the leftovers as the reference does, with
        # a freshly ranked generic_embed call per leftover and a commit after
        # each success, and must place at least one
        rng = random.Random(seed)
        s_sub, s_req = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        net = gen_substrate(SubstrateSpec(n_nodes=30, topology="cycle"), s_sub)
        reqs = gen_requests(RequestSpec(shape="cycle", count=100, revenue_rule="proportional"), s_req)
        ref_net = net.copy()
        ring_only = greedy_revenue(net.copy(), reqs, fallback=False)
        batch = greedy_revenue(net, reqs, fallback=True)
        ref = greedy_revenue_reference(ref_net, reqs, fallback=generic_embed)
        assert batch.accepted_ids() == ref.accepted_ids()
        assert net.residual_bw == ref_net.residual_bw
        assert net.residual_cpu == ref_net.residual_cpu
        assert batch.accepted_ids()[:len(ring_only)] == ring_only.accepted_ids()
        assert len(batch) > len(ring_only)


def shared_pairs(masks, keys, demand):
    """Pairs of layers whose masks are one list; checks that they are
    exactly the pairs with equal demands."""
    shared = 0
    for a, b in combinations(range(len(keys)), 2):
        same = masks[a] is masks[b]
        assert same == (demand[keys[a]] == demand[keys[b]])
        shared += same
    return shared


def check_masks(cycle, req):
    """feasible_sets against the reference, and its sharing; returns the
    number of shared layer pairs."""
    hosts, bad = feasible_sets(cycle, req)
    assert (hosts, bad) == feasible_sets_reference(cycle, req)
    return shared_pairs(hosts, req.vns, req.cpu_demand) + shared_pairs(bad, req.vls, req.bw_demand)


def record_masks(monkeypatch):
    """Every `feasible_sets` result through its module binding, with a copy
    taken when it was returned."""
    seen = []
    original = cycle_embedding.feasible_sets

    def recording(cycle, req):
        masks = original(cycle, req)
        seen.append((masks, copy.deepcopy(masks)))
        return masks

    monkeypatch.setattr(cycle_embedding, "feasible_sets", recording)
    return seen


class TestSharedMasks:
    """feasible_sets builds one mask per distinct demand and hands it to
    every layer with that demand; the masks must equal the per-layer
    reference, and no reader may write to them."""

    @settings(max_examples=200, deadline=None)
    @given(ring_workloads(kinds=("tight", "uniform", "fraction")))
    def test_property_masks_match_the_reference_with_commits_between(self, workload):
        net, reqs = workload
        cycle = CycleView(net)
        for req in reqs:
            check_masks(cycle, req)
            sx = c2ce(net, req, cycle=cycle)
            if sx is not None:
                commit(net, req, sx.to_embedding(req))

    def test_repeated_and_fraction_demands_share_masks(self):
        # demands from 1-2 repeat in nearly every request; then Fraction and
        # int demands, repeated too, on Fraction and int residuals
        rng = random.Random(53)
        shared = fractions = 0
        for _ in range(60):
            net, req = random_ring_instance(rng, m_range=(4, 9), n_range=(3, 6), demand_range=(1, 2))
            shared += check_masks(CycleView(net), req)
            values = (Fraction(3, 2), 2, Fraction(7, 2), 3)
            net.residual_cpu.update({v: rng.choice(values) for v in net.nodes})
            net.residual_bw.update({k: rng.choice(values) for k in net.edges})
            req = make_cycle_request("f", [rng.choice(values) for _ in req.vns],
                                     [rng.choice(values) for _ in req.vls])
            fractions += check_masks(CycleView(net), req)
        assert shared >= 200 and fractions >= 100

    def test_masks_are_unchanged_by_every_reader(self, monkeypatch):
        seen = record_masks(monkeypatch)
        net = gen_substrate(SubstrateSpec(n_nodes=12, topology="cycle", cpu_capacity=30, bw_capacity=30), 5)
        reqs = gen_requests(RequestSpec(shape="cycle", count=30, length_range=(3, 8),
                                        revenue_rule="proportional"), 6)
        cycle = CycleView(net)
        for req in reqs:
            for w in wdags(cycle, req):
                min_weight_cycle(w)
                w.to_json()
        assert all(masks == before for masks, before in seen)
        for req in reqs:
            c2ce(net, req, cycle=cycle)
        assert all(masks == before for masks, before in seen)
        batch = greedy_revenue(net, reqs, fallback=True, trace=[])
        assert 0 < len(batch) < len(reqs)
        assert all(masks == before for masks, before in seen)
        shared = sum(len(set(map(id, hosts))) < len(hosts) for (hosts, _bad), _ in seen)
        assert shared >= len(seen) // 2


class TestTracingChangesNothing:
    def test_same_embeddings_and_sweeps_with_and_without_trace(self, monkeypatch):
        # the trace takes its own full scan before each solve, on the same
        # residuals, so the solve sweeps and commits exactly as untraced
        swept = spy(monkeypatch, "min_weight_cycle")
        rng = random.Random(37)
        graphs = 0
        for _ in range(60):
            net, first = random_ring_instance(rng)
            m = len(net.nodes)
            reqs = [first] + [random_ring_instance(rng, m_range=(m, m))[1] for _ in range(3)]
            for k, req in enumerate(reqs):
                req.req_id = k
            runs = []
            for trace in (None, []):
                before = len(swept)
                batch = greedy_revenue(net.copy(), reqs, fallback=True, trace=trace)
                runs.append(([(req.req_id, emb) for req, emb in batch.items], len(swept) - before))
            assert runs[0] == runs[1]
            graphs += len(trace)
        assert graphs > 500


class TestGreedyRevenue:
    def test_ratio_ordering_prefers_high_revenue(self):
        # capacity fits exactly one of two identical-demand requests
        net = ring_net(4, cpu=1, bw=1)
        cheap = make_cycle_request("cheap", [1, 1, 1], [1, 1, 1], revenue=1)
        rich = make_cycle_request("rich", [1, 1, 1], [1, 1, 1], revenue=10)
        batch = greedy_revenue(net, [cheap, rich], fallback=False)
        assert batch.accepted_ids() == ["rich"]

    @pytest.mark.parametrize("rows, expected", [
        # ratio 1/5 at demands 15, 10 and 5, listed largest first and out of
        # id order, after a request of ratio 3/2
        ([("b", [2, 2, 2], [3, 3, 3], 3), ("a", [2, 2, 2], [1, 1, 2], 2),
          ("c", [1, 1, 1], ["2/3", "2/3", "2/3"], 1), ("d", [1, 1, 1], [1, 1, 1], 9)],
         ["d", "b", "a", "c"]),
        # "p/q" revenues and demands: ratio 1/3 at demands 6 and 2, ratio 1/2,
        # 7/12 and 1/9
        ([("y", [1, 1, 1], [1, 1, 1], 2), ("x", ["1/2", "1/3", "1/6"], ["1/4", "1/4", "1/2"], "2/3"),
          ("v", ["1/7", "2/7", "3/7"], ["1/7", "1/7", "2/7"], "5/7"),
          ("u", ["1/3", "1/3", "1/3"], ["2/3", "2/3", "2/3"], "1/3"),
          ("t", ["3/2", "3/2", "3/2"], ["1/2", "1/2", "1/2"], "7/2")],
         ["t", "v", "y", "x", "u"]),
    ])
    def test_tries_requests_in_the_reference_ratio_order(self, monkeypatch, rows, expected):
        # equal ratios keep input order, as the reference's Fraction sort
        # does; breaking them by smaller demand or by id, as the knapsack
        # orders do, would try them in another order
        reqs = [make_cycle_request(*row) for row in rows]
        tried = spy(monkeypatch, "c2ce")
        referenced = []
        c2ce_reference = oracles.c2ce_reference

        def recording(net, req):
            referenced.append(req.req_id)
            return c2ce_reference(net, req)

        monkeypatch.setattr(oracles, "c2ce_reference", recording)
        greedy_revenue(ring_net(6, cpu=10, bw=10), reqs, fallback=False)
        greedy_revenue_reference(ring_net(6, cpu=10, bw=10), reqs)
        assert [req.req_id for _net, req in tried] == referenced == expected

    def test_empty_requests(self):
        # no request, no ring walk: a non-ring substrate is not an error here
        for net in (ring_net(4), path_net(4)):
            assert len(greedy_revenue(net, [], fallback=False)) == 0

    def test_builds_the_cycle_view_once(self, monkeypatch):
        views = spy(monkeypatch, "CycleView")
        solves = spy(monkeypatch, "c2ce")
        reqs = [make_cycle_request(i, [1, 1, 1], [1, 1, 1]) for i in range(5)]
        batch = greedy_revenue(ring_net(6, cpu=2, bw=2), reqs, fallback=False)
        assert 0 < len(batch) < len(reqs)
        assert len(views) == 1 and len(solves) == len(reqs)

    def test_non_ring_substrate_fails(self):
        req = make_cycle_request("c", [1, 1, 1], [1, 1, 1])
        with pytest.raises(ModelError, match="substrate is not a cycle"):
            greedy_revenue(path_net(4), [req], fallback=False)

    @staticmethod
    def dead_link_ring(cap):
        # a dead link kills every wrap-once embedding (each must cross all
        # links), but the generic embedder routes around it
        m = 6
        bw = {edge_key(i, (i + 1) % m): cap for i in range(m)}
        bw[edge_key(4, 5)] = 0
        return make_net(list(range(m)), [(i, (i + 1) % m) for i in range(m)], cap, bw)

    def test_fallback_gets_leftovers(self):
        net = self.dead_link_ring(10)
        req = make_cycle_request("tri", [1, 1, 1], [1, 1, 1])
        assert c2ce(net, req) is None
        batch = greedy_revenue(net, [req], fallback=True)
        assert batch.accepted_ids() == ["tri"]
        ok, violations = batch.validate_against(net)
        assert ok, violations

    def test_ranks_the_sns_once_for_all_leftovers(self, monkeypatch):
        # every request is a leftover; the one generic pass scores the SNs
        # once and re-keys after each commit, where a call per leftover would
        # score them again for each
        calls = []
        original = baseline.node_scores

        def scoring(net):
            calls.append(net)
            return original(net)

        monkeypatch.setattr(baseline, "node_scores", scoring)
        net = self.dead_link_ring(4)
        reqs = [make_cycle_request(i, [1, 1, 1], [1, 1, 1]) for i in range(4)]
        assert len(greedy_revenue(net.copy(), reqs, fallback=False)) == 0 and not calls
        batch = greedy_revenue(net, reqs, fallback=True)
        assert 1 < len(batch) < len(reqs)
        assert len(calls) == 1

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
            sorted_batch = greedy_revenue(net.copy(), reqs, fallback=False)
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
        batch = greedy_revenue(net, reqs, fallback=True)
        ok, violations = batch.validate_against(net)
        assert ok, violations


def test_ring_demo_output_is_unchanged():
    # the demo walks the reference instance through the whole solver, so its
    # stdout pins the dumped graphs, the cycles and the chosen embedding
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "ring_demo.py")],
                          capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout == (root / "tests" / "data" / "ring_demo.out").read_bytes()


def test_embed_cycles_dump_is_unchanged(tmp_path):
    # every layered digraph of the full anchor scan of each request, on a
    # 6-node ring with 4 cycle requests, pins the one explicit view: layers,
    # arcs and closing arcs with their weights, hops and order; the report is
    # the same with the dump as without it
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    cli = [sys.executable, "-m", "pcvne.cli"]
    inst, dump = tmp_path / "inst.json", tmp_path / "wdag.json"
    subprocess.run([*cli, "generate", "--nodes", "6", "--topology", "cycle", "--cpu-capacity", "10",
                    "--bw-capacity", "10", "--shape", "cycle", "--count", "4", "--length-min", "3",
                    "--length-max", "4", "--revenue", "proportional", "--seed", "3", "--out", str(inst)],
                   check=True, env=env)
    dumped = subprocess.run([*cli, "embed-cycles", "--instance", str(inst), "--dump-wdag", str(dump)],
                            capture_output=True, check=True, env=env)
    plain = subprocess.run([*cli, "embed-cycles", "--instance", str(inst)],
                           capture_output=True, check=True, env=env)
    data = root / "tests" / "data"
    assert dump.read_bytes() == (data / "embed_cycles_dump.json").read_bytes()
    assert dumped.stdout == plain.stdout == (data / "embed_cycles.out").read_bytes()
