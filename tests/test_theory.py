import random

import pytest

from conftest import (
    make_cycle_request,
    random_connected_graph,
    random_ring_instance,
    ring_net,
)
from oracles import supereulerian_reference
from pcvne.model import validate_embedding
from pcvne.theory import (
    Graph,
    SizeCapExceeded,
    UniformInstance,
    brute_force_max_accepted,
    brute_force_path_embed,
    brute_force_simplex_cycle,
    connected_graphs,
    enumerate_simplex_embeddings,
    find_uniform_path_embedding,
    has_spanning_trail,
    is_supereulerian,
    sg_to_sset_instance,
    sset_to_sg_instances,
)


def G(nodes, edges):
    return Graph.build(nodes, edges)


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
        with pytest.raises(SizeCapExceeded):
            has_spanning_trail(g)


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
        # the Gray-code walk over the cycle space against every edge subset
        for n in range(1, 6):
            for g in connected_graphs(n):
                assert is_supereulerian(g) == supereulerian_reference(g), g

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
        g = G(range(3), [(0, 1), (1, 2), (0, 2)])
        assert brute_force_path_embed(UniformInstance(g))

    def test_small_star_does_not(self):
        g = G(range(4), [(0, i) for i in range(1, 4)])
        assert not brute_force_path_embed(UniformInstance(g))

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
        rng = random.Random(11)
        for n in range(2, 6):
            for _ in range(20):
                g = random_connected_graph(rng, n)
                inst = UniformInstance(g)
                assert brute_force_path_embed(inst) == has_spanning_trail(g)

    def test_agrees_with_spanning_trail_on_0_and_1_nodes(self):
        for n in (0, 1):
            g = random_connected_graph(random.Random(n), n)
            inst = UniformInstance(g)
            assert (brute_force_path_embed(inst), has_spanning_trail(g)) == (True, True)
            ok, violations = validate_embedding(inst.net, inst.request, find_uniform_path_embedding(inst))
            assert ok, violations

    def test_size_cap(self):
        g = G(range(9), [(i, i + 1) for i in range(8)])
        with pytest.raises(SizeCapExceeded):
            brute_force_path_embed(UniformInstance(g))


class TestSimplexBruteForce:
    def test_ring_fixture(self, fig_ring):
        net, req = fig_ring
        (best, count) = brute_force_simplex_cycle(net, req)
        assert best is not None and best[1] == 8

    def test_infeasible_cpu(self):
        net = ring_net(5, cpu=2)
        req = make_cycle_request("r", [3, 1, 1], [1, 1, 1])
        best, _ = brute_force_simplex_cycle(net, req)
        assert best is None

    def test_examined_count_matches_closed_form(self):
        from math import comb

        rng = random.Random(13)
        for _ in range(25):
            net, req = random_ring_instance(rng)
            m = len(net.nodes)
            n = req.n_vns
            f1 = sum(1 for v in net.nodes
                     if net.residual_cpu[v] >= req.cpu_demand[req.vns[0]])
            _, examined = brute_force_simplex_cycle(net, req)
            assert examined == 2 * f1 * comb(m - 1, n - 1)

    def test_size_cap(self):
        net = ring_net(9)
        req = make_cycle_request("r", [1, 1, 1], [1, 1, 1])
        with pytest.raises(SizeCapExceeded):
            brute_force_simplex_cycle(net, req)

    def test_enumeration_costs_are_exact(self):
        rng = random.Random(17)
        for _ in range(20):
            net, req = random_ring_instance(rng)
            for start in sorted(net.nodes):
                if net.residual_cpu[start] < req.cpu_demand[req.vns[0]]:
                    continue
                for direction in ("+", "-"):
                    for hosts, cost in enumerate_simplex_embeddings(net, req, start, direction):
                        assert len(set(hosts)) == len(hosts)
                        assert hosts[0] == start


class TestBruteForceBatch:
    def test_counts_capacity_limited_acceptance(self):
        net = ring_net(4, cpu=2, bw=10)
        reqs = [make_cycle_request(i, [1, 1, 1], [1, 1, 1]) for i in range(3)]
        # every node has CPU 2; each embedding uses three nodes once each, so
        # at most two requests fit simultaneously on four nodes
        assert brute_force_max_accepted(net, reqs) == 2
