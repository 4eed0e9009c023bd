import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_cycle_request,
    make_net,
    make_path_request,
    path_net,
    random_connected_graph,
    random_ring_instance,
    ring_net,
)
import oracles
from oracles import (
    brute_force_simplex_cycle,
    candidate_embeddings,
    max_accepted,
    ring_order,
    ring_tableaux,
    supereulerian_reference,
)
from pcvne.cycle_embedding import greedy_revenue
from pcvne.model import ModelError, Shape, VirtualRequest, edge_key, validate_embedding
from pcvne.path_embedding import procedure_pe
from verify_theory import (
    Graph,
    SizeCapExceeded,
    UniformInstance,
    connected_graphs,
    find_uniform_path_embedding,
    has_spanning_trail,
    is_supereulerian,
    sg_to_sset_instance,
    sset_to_sg_instances,
)


def G(nodes, edges):
    return Graph.build(nodes, edges)


def from_nx(h):
    h = nx.convert_node_labels_to_integers(h)
    return G(h.nodes, h.edges)


class TestSpanningTrail:
    def test_path_graph(self):
        assert has_spanning_trail(G(range(5), [(i, i + 1) for i in range(4)]))

    def test_star_with_four_leaves(self):
        # any walk through the hub strands fresh leaves once edges run out
        assert not has_spanning_trail(G(range(5), [(0, i) for i in range(1, 5)]))

    def test_trail_shaped_graph(self):
        # vertex sequence a,b,c,d,b,e written as a graph: an actual trail
        edges = [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)]
        assert has_spanning_trail(G(range(5), edges))

    def test_size_cap_refusal(self):
        g = G(range(13), [(i, i + 1) for i in range(12)])
        with pytest.raises(SizeCapExceeded, match=r"^13 nodes, cap 12$"):
            has_spanning_trail(g)

    def test_matches_the_brute_force_on_small_graphs(self):
        # the search starts only at the first leaf when there is one, and
        # answers False at once past two; labelled graphs put leaves at every index
        for n in range(1, 6):
            for g in connected_graphs(n):
                assert has_spanning_trail(g) == (find_uniform_path_embedding(UniformInstance(g)) is not None), g


@pytest.mark.parametrize("g, trail, supereulerian", [
    pytest.param(G((), ()), True, True, id="0-nodes"),
    pytest.param(G([0], ()), True, True, id="1-node"),
    # the single edge is a trail, but no closed trail covers both ends
    pytest.param(G(range(2), [(0, 1)]), True, False, id="2-nodes"),
])
def test_smallest_graphs(g, trail, supereulerian):
    assert (has_spanning_trail(g), is_supereulerian(g)) == (trail, supereulerian)
    assert supereulerian_reference(g) == supereulerian


class TestConnectedGraphs:
    def test_counts_labelled_connected_graphs(self):
        # OEIS A001187: connected labelled graphs on n nodes
        assert [sum(1 for _ in connected_graphs(n)) for n in range(1, 6)] == [1, 1, 4, 38, 728]

    def test_size_cap_refused_at_the_call(self):
        with pytest.raises(SizeCapExceeded, match=r"^8 nodes, cap 7$"):
            connected_graphs(8)
        connected_graphs(7)  # lazy: 2^21 masks, none walked here


class TestSupereulerian:
    def test_matches_the_definition_on_small_graphs(self):
        # the closed trail search against every edge subset
        for n in range(1, 6):
            for g in connected_graphs(n):
                assert is_supereulerian(g) == supereulerian_reference(g), g

    def test_matches_the_definition_on_sparse_larger_graphs(self):
        # 6-9 nodes, past the exhaustive sweep: a random spanning tree with
        # an edge added at each node still of degree 1, so that the search,
        # not the degree check, answers; at most 14 edges keep the
        # reference's 2^|E| subsets cheap
        rng = random.Random(37)
        answers = []
        for _ in range(40):
            tree = random_connected_graph(rng, rng.randint(6, 9), 0)
            edges = set(tree.edges)
            for v in tree.nodes:
                if sum(v in e for e in edges) == 1:
                    edges.add(edge_key(v, rng.choice([w for w in tree.nodes
                                                      if w != v and edge_key(v, w) not in edges])))
            g = G(tree.nodes, edges)
            assert len(g.edges) <= 14
            answers.append(is_supereulerian(g))
            assert answers[-1] == supereulerian_reference(g), g
        assert answers.count(False) >= 5 and answers.count(True) >= 20

    @pytest.mark.parametrize("g, expected", [
        # 2-edge-connected, but 3-regular: a spanning even subgraph would be
        # a Hamiltonian cycle, and it has none
        pytest.param(from_nx(nx.petersen_graph()), False, id="petersen"),
        # every degree-2 node needs both its edges, so the hubs get odd degree 9
        pytest.param(from_nx(nx.complete_bipartite_graph(2, 9)), False, id="K2,9"),
        # as K2,9, but the hubs get the even degree 10: the graph is Eulerian
        pytest.param(from_nx(nx.complete_bipartite_graph(2, 10)), True, id="K2,10"),
        # each large-side node on two edges, joining the small side's a-b,
        # b-c, c-d, d-a twice over: connected, every small-side degree 4
        pytest.param(from_nx(nx.complete_bipartite_graph(4, 8)), True, id="K4,8"),
        # Hamiltonian (a Gray code of 3 bits)
        pytest.param(from_nx(nx.hypercube_graph(3)), True, id="3-cube"),
    ])
    def test_known_answers(self, g, expected):
        assert is_supereulerian(g) == expected

    def test_size_cap_refused_before_the_degree_check(self):
        # the path's ends have degree 1, so a degree check first would say False
        g = G(range(13), [(i, i + 1) for i in range(12)])
        with pytest.raises(SizeCapExceeded, match=r"^13 nodes, cap 12$"):
            is_supereulerian(g)

    def test_cycle_is_supereulerian(self):
        assert is_supereulerian(G(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_tree_is_not(self):
        assert not is_supereulerian(G(range(4), [(0, 1), (1, 2), (1, 3)]))

    def test_cycle_with_pendant_is_not(self):
        # pendant vertex can never have even positive degree
        assert not is_supereulerian(G(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]))

    def test_two_triangles_sharing_a_vertex(self):
        edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
        assert is_supereulerian(G(range(5), edges))


class TestReductions:
    def test_instance_count_is_pairs(self):
        g = G(range(3), [(0, 1), (1, 2)])
        out = sset_to_sg_instances(g)
        assert len(out) == 3
        for h in out:
            assert len(h.nodes) == 4 and len(h.edges) == 4

    def test_single_edge_graph(self):
        out = sset_to_sg_instances(G(range(2), [(0, 1)]))
        assert len(out) == 1
        assert len(out[0].nodes) == 3 and len(out[0].edges) == 3  # a triangle

    def test_trail_to_circuit_equivalence_small(self):
        rng = random.Random(3)
        for n in range(2, 6):
            for _ in range(25):
                g = random_connected_graph(rng, n)
                lhs = has_spanning_trail(g)
                rhs = any(is_supereulerian(h) for h in sset_to_sg_instances(g))
                assert lhs == rhs, f"mismatch on {g}"

    def test_circuit_to_trail_equivalence_small(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for _ in range(20):
                g = random_connected_graph(rng, n)
                expected = is_supereulerian(g)
                for v in g.nodes:
                    assert has_spanning_trail(sg_to_sset_instance(g, v)) == expected

    def test_c4_attachment_has_trail(self):
        c4 = G(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        for v in c4.nodes:
            assert has_spanning_trail(sg_to_sset_instance(c4, v))

    def test_tree_attachment_never_has_trail(self):
        tree = G(range(4), [(0, 1), (1, 2), (1, 3)])
        for v in tree.nodes:
            assert not has_spanning_trail(sg_to_sset_instance(tree, v))

    def test_attachment_rejects_unknown_vertex(self):
        from pcvne.model import ModelError

        with pytest.raises(ModelError):
            sg_to_sset_instance(G(range(2), [(0, 1)]), 99)


class TestUniformBruteForce:
    def test_triangle_embeds(self):
        assert find_uniform_path_embedding(UniformInstance(G(range(3), [(0, 1), (1, 2), (0, 2)]))) is not None

    def test_small_star_does_not(self):
        assert find_uniform_path_embedding(UniformInstance(G(range(4), [(0, i) for i in range(1, 4)]))) is None

    def test_witness_validates(self):
        rng = random.Random(7)
        hits = 0
        while hits < 8:
            g = random_connected_graph(rng, 5)
            inst = UniformInstance(g)
            emb = find_uniform_path_embedding(inst)
            if emb is None:
                continue
            hits += 1
            ok, violations = validate_embedding(inst.net, inst.request, emb)
            assert ok, violations

    def test_agrees_with_spanning_trail(self):
        # 6 and 7 nodes: 36 of the 40 graphs have a spanning trail, 4 do not
        rng = random.Random(11)
        for n in range(2, 8):
            for _ in range(20):
                g = random_connected_graph(rng, n)
                assert (find_uniform_path_embedding(UniformInstance(g)) is not None) == has_spanning_trail(g)

    def test_agrees_with_spanning_trail_on_0_and_1_nodes(self):
        for n in (0, 1):
            g = random_connected_graph(random.Random(n), n)
            inst = UniformInstance(g)
            assert (find_uniform_path_embedding(inst) is not None, has_spanning_trail(g)) == (True, True)
            ok, violations = validate_embedding(inst.net, inst.request, find_uniform_path_embedding(inst))
            assert ok, violations

    def test_size_cap(self):
        g = G(range(9), [(i, i + 1) for i in range(8)])
        with pytest.raises(SizeCapExceeded, match=r"^9 nodes, cap 8$"):
            find_uniform_path_embedding(UniformInstance(g))


class TestSimplexBruteForce:
    def test_ring_fixture(self, fig_ring):
        net, req = fig_ring
        best = brute_force_simplex_cycle(net, req)
        assert best is not None and best[1] == 8

    def test_infeasible_cpu(self):
        net = ring_net(5, cpu=2)
        req = make_cycle_request("r", [3, 1, 1], [1, 1, 1])
        best = brute_force_simplex_cycle(net, req)
        assert best is None

    def test_size_cap(self):
        net = ring_net(9)
        req = make_cycle_request("r", [1, 1, 1], [1, 1, 1])
        with pytest.raises(SizeCapExceeded):
            brute_force_simplex_cycle(net, req)

    def test_enumeration_costs_are_exact(self):
        # each tableau's cost is Σ hops_j·d_j, the hops from host j to host
        # j + 1 (the last back to the start) counted by stepping along
        # ring_order in the tableau's direction, one SN at a time
        rng = random.Random(17)
        checked = 0
        for _ in range(20):
            net, req = random_ring_instance(rng)
            order = ring_order(net)
            m, n = len(order), req.n_vns
            for start, direction, hosts, cost in ring_tableaux(net, req):
                assert len(set(hosts)) == len(hosts)
                assert hosts[0] == start
                step = 1 if direction == "+" else -1
                hops = []
                for j in range(n):
                    cur, target, count = order.index(hosts[j]), hosts[(j + 1) % n], 0
                    while True:
                        cur, count = (cur + step) % m, count + 1
                        if order[cur] == target:
                            break
                    hops.append(count)
                assert sum(hops) == m  # one wrap around the ring
                assert cost == sum(h * req.bw_demand[vl] for h, vl in zip(hops, req.vls))
                checked += 1
        assert checked > 0


class TestBruteForceBatch:
    def test_counts_capacity_limited_acceptance(self):
        net = ring_net(4, cpu=2, bw=10)
        reqs = [make_cycle_request(i, [1, 1, 1], [1, 1, 1]) for i in range(3)]
        # every node has CPU 2; each embedding uses three nodes once each, so
        # at most two requests fit simultaneously on four nodes
        assert max_accepted(net, reqs) == 2


def small_path_instance(rng, capacity=10, requests=(1, 4)):
    """A random connected substrate of 3-7 SNs at uniform CPU and BW
    `capacity`, with unit-revenue path requests of 1-3 links and demands
    1-5, as many as randint(*requests) draws: within the path oracle's caps."""
    g = random_connected_graph(rng, rng.randint(3, 7))
    net = make_net(list(g.nodes), list(g.edges), capacity, capacity)
    reqs = []
    for i in range(rng.randint(*requests)):
        links = rng.randint(1, 3)
        reqs.append(make_path_request(i, [rng.randint(1, 5) for _ in range(links + 1)],
                                      [rng.randint(1, 5) for _ in range(links)]))
    return net, reqs


def _pipeline_against_the_optimum(rng, count, requests):
    """procedure_pe (greedy modes) on `count` small_path_instance draws:
    (instances at the optimum, requests missed in all); never above it."""
    at_optimum = gap = 0
    for _ in range(count):
        net, reqs = small_path_instance(rng, requests=requests)
        best = max_accepted(net, reqs)
        got = len(procedure_pe(net.copy(), reqs))
        assert got <= best
        at_optimum += got == best
        gap += best - got
    return at_optimum, gap


class TestMaxAcceptedBoundary:
    def test_path_request_on_a_ring_is_answered(self):
        net = ring_net(5, cpu=2, bw=2)
        reqs = [make_path_request(i, [2, 2, 2], [1, 1]) for i in range(3)]
        # each request takes three of the five SNs whole
        assert max_accepted(net, reqs) == 1

    def test_path_and_cycle_requests_share_one_ring(self):
        net = ring_net(4, cpu=1, bw=5)
        cyc = make_cycle_request("c", [1, 1, 1], [1, 1, 1])
        assert max_accepted(net, [cyc, make_path_request("p", [1], [])]) == 2
        assert max_accepted(net, [cyc, make_path_request("p", [1], []), make_path_request("e", [], [])]) == 3
        assert max_accepted(net, [cyc, make_path_request("p", [1, 1], [1])]) == 1

    def test_general_request_refused_by_name(self):
        req = VirtualRequest(req_id="star", shape=Shape.GENERAL, vns=[0, 1, 2],
                             vls=[(0, 1), (0, 2)], cpu_demand={0: 1, 1: 1, 2: 1},
                             bw_demand={(0, 1): 1, (0, 2): 1})
        with pytest.raises(ModelError, match="'star'.*'general'") as info:
            max_accepted(ring_net(5), [req])
        assert not isinstance(info.value, SizeCapExceeded)

    def test_cycle_request_off_a_ring_refused(self):
        with pytest.raises(ModelError, match="not a ring"):
            max_accepted(path_net(5), [make_cycle_request("c", [1, 1, 1], [1, 1, 1])])

    @pytest.mark.parametrize("net, reqs, message", [
        pytest.param(ring_net(9), [make_cycle_request("c", [1] * 3, [1] * 3)],
                     r"^9 substrate nodes, cap 8 for cycle requests$", id="ring-nodes"),
        pytest.param(ring_net(8), [make_cycle_request("c", [1] * 6, [1] * 6)],
                     r"^6 virtual nodes in request 'c', cap 5$", id="cycle-vns"),
        pytest.param(path_net(8), [make_path_request("p", [1, 1], [1])],
                     r"^8 substrate nodes, cap 7 for path requests$", id="path-nodes"),
        pytest.param(path_net(7), [make_path_request("p", [1] * 5, [1] * 4)],
                     r"^4 links in request 'p', cap 3$", id="path-links"),
        pytest.param(path_net(7), [make_path_request(i, [1, 1], [1]) for i in range(7)],
                     r"^7 path requests, cap 6$", id="path-requests"),
    ])
    def test_caps_refused_by_name(self, net, reqs, message):
        with pytest.raises(SizeCapExceeded, match=message):
            max_accepted(net, reqs)


class TestMaxAcceptedPaths:
    def test_unit_candidates_are_the_simple_paths(self):
        rng = random.Random(29)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(3, 7))
            net = make_net(list(g.nodes), list(g.edges), 1, 1)
            graph = nx.Graph(list(g.edges))
            for links in (1, 2, 3):
                req = make_path_request("u", [1] * (links + 1), [1] * links)
                found = []
                for emb in candidate_embeddings(net, req):
                    ok, violations = validate_embedding(net, req, emb, against_residuals=True)
                    assert ok, violations
                    found.append(tuple(emb.node_map[vn] for vn in req.vns))
                expected = [tuple(p) for s in g.nodes for t in g.nodes if s != t
                            for p in nx.all_simple_paths(graph, s, t, cutoff=links) if len(p) == links + 1]
                assert sorted(found) == sorted(expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_property_pipeline_never_beats_the_optimum(self, seed):
        net, reqs = small_path_instance(random.Random(seed))
        best = max_accepted(net, reqs)
        for mkp_mode in ("greedy", "exact"):
            for mdkp_mode in ("greedy", "exact"):
                assert len(procedure_pe(net.copy(), reqs, mkp_mode, mdkp_mode)) <= best

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_property_ring_greedy_never_beats_the_optimum(self, seed):
        rng = random.Random(seed)
        net, req = random_ring_instance(rng, m_range=(3, 6))
        reqs = [req] + [random_ring_instance(rng, m_range=(len(net.nodes),) * 2)[1]
                        for _ in range(rng.randint(0, 3))]
        assert len(greedy_revenue(net.copy(), reqs, fallback=False)) <= max_accepted(net, reqs)

    def test_pipeline_gap_on_the_seeded_set(self):
        # procedure_pe (greedy modes) against the optimum on 400 fixed
        # instances; 338 at the optimum with 63 requests missed in all at the
        # time of writing, and a better pipeline may only raise the one and
        # lower the other
        at_optimum, gap = _pipeline_against_the_optimum(random.Random(2), 400, requests=(1, 4))
        assert at_optimum >= 338 and gap <= 63

    def test_pipeline_gap_on_the_six_request_seeded_set(self):
        # the same on 200 fixed instances of exactly 6 requests, where the
        # substrate is oversubscribed more often and packing matters; 56 at
        # the optimum with 209 requests missed in all at the time of writing
        at_optimum, gap = _pipeline_against_the_optimum(random.Random(2), 200, requests=(6, 6))
        assert at_optimum >= 56 and gap <= 209

    def test_capacity_bound_answers_as_the_plain_search(self, monkeypatch):
        # with `_fit_count` counting every request left, the search cuts only
        # where the accepted count plus the requests left cannot beat the
        # best: the plain search, cheap at up to 5 requests; both answer alike
        # on path and on ring instances, and the bound tries fewer candidates
        rng = random.Random(3)
        instances = [small_path_instance(rng, requests=(1, 5)) for _ in range(120)]
        for _ in range(30):
            net, req = random_ring_instance(rng, m_range=(3, 6))
            instances.append((net, [req] + [random_ring_instance(rng, m_range=(len(net.nodes),) * 2)[1]
                                            for _ in range(rng.randint(1, 4))]))
        real, tried = oracles.candidate_embeddings, []

        def counted(net, req):
            tried.append(req)
            return real(net, req)

        def answers():
            tried.clear()
            return [max_accepted(net, reqs) for net, reqs in instances], len(tried)

        monkeypatch.setattr(oracles, "candidate_embeddings", counted)
        bounded, bounded_tries = answers()
        monkeypatch.setattr(oracles, "_fit_count", lambda needs, room: len(needs))
        plain, plain_tries = answers()
        assert bounded == plain
        assert bounded_tries < plain_tries
