import random
import tracemalloc

import pytest

from conftest import mask_hosts
from oracles import cardinality_ddkp_optimum, cpu_link_feasible_hosts, mdkp_pairs
from pcvne.generators import (
    RequestSpec,
    SpecError,
    SubstrateSpec,
    gen_requests,
    gen_substrate,
)
from pcvne.model import Shape
from reductions import gen_ddkp_reduction, gen_edp_reduction


class TestGenSubstrate:
    def test_complete_graph(self):
        net = gen_substrate(SubstrateSpec(n_nodes=4, topology="complete"), seed=0)
        assert len(net.edges) == 6
        assert all(net.cpu_capacity[v] == 100 for v in net.nodes)

    def test_cycle(self):
        net = gen_substrate(SubstrateSpec(n_nodes=20, topology="cycle"), seed=0)
        assert len(net.edges) == 20
        assert all(net.degree(v) == 2 for v in net.nodes)

    def test_random_always_connected(self):
        for seed in range(100):
            net = gen_substrate(SubstrateSpec(n_nodes=12, topology="random", n_edges=15), seed)
            assert len(net.edges) == 15  # constructor would raise when disconnected

    def test_impossible_size_refused(self):
        with pytest.raises(SpecError):
            gen_substrate(SubstrateSpec(n_nodes=5, topology="random", n_edges=3), 0)
        with pytest.raises(SpecError):
            gen_substrate(SubstrateSpec(n_nodes=3, topology="random", n_edges=4), 0)

    @pytest.mark.parametrize("topology", ["complete", "cycle", "path"])
    def test_edge_count_refused_off_the_random_topology(self, topology):
        # used to be ignored: a 4-node complete graph with n_edges=99 had 6 links
        with pytest.raises(SpecError) as exc:
            gen_substrate(SubstrateSpec(n_nodes=4, topology=topology, n_edges=99), 0)
        assert str(exc.value) == f"n_edges is only for the random topology, not '{topology}'"

    def test_unknown_topology_keeps_its_message(self):
        with pytest.raises(SpecError) as exc:
            gen_substrate(SubstrateSpec(n_nodes=4, topology="star", n_edges=3), 0)
        assert str(exc.value) == "unknown topology 'star'"

    def test_deterministic(self):
        spec = SubstrateSpec(n_nodes=10, topology="random", n_edges=14)
        a = gen_substrate(spec, 99)
        b = gen_substrate(spec, 99)
        assert a.edges == b.edges


class TestGenRequests:
    def test_unit_revenue(self):
        reqs = gen_requests(RequestSpec(shape="path", count=50, revenue_rule="unit"), 1)
        assert all(r.revenue == 1 for r in reqs)

    def test_path_lengths_and_count(self):
        reqs = gen_requests(RequestSpec(shape="path", count=1000, length_range=(5, 10)), 2)
        assert len(reqs) == 1000
        assert all(r.shape is Shape.PATH for r in reqs)
        assert all(5 <= r.length <= 10 for r in reqs)

    def test_demand_range_respected(self):
        reqs = gen_requests(RequestSpec(shape="cycle", count=500, length_range=(3, 8),
                                        demand_range=(1, 5)), 3)
        samples = 0
        for r in reqs:
            for v in r.vns:
                assert 1 <= r.cpu_demand[v] <= 5
                samples += 1
            for k in r.vls:
                assert 1 <= r.bw_demand[k] <= 5
                samples += 1
        assert samples >= 10 ** 4 / 4

    def test_proportional_revenue(self):
        reqs = gen_requests(RequestSpec(shape="cycle", count=30, length_range=(5, 10),
                                        revenue_rule="proportional"), 4)
        assert all(r.revenue == r.n_vns for r in reqs)

    @pytest.mark.parametrize("count", [0, 3])
    @pytest.mark.parametrize("field, value", [("revenue_rule", "bogus"), ("shape", "tree")])
    def test_unknown_shape_or_revenue_rule_refused(self, field, value, count):
        spec = RequestSpec(count=count, **{field: value})
        with pytest.raises(SpecError, match=f"unknown .*'{value}'"):
            gen_requests(spec, 0)

    @pytest.mark.parametrize("length_range", [(1, 1), (2, 2), (5, 10)])
    def test_general_shape_refused(self, length_range):
        # used to emit rings labelled general, and at lengths 1 and 2 to fail
        # on a self-loop or duplicate links without naming the spec
        with pytest.raises(SpecError) as exc:
            gen_requests(RequestSpec(shape="general", count=3, length_range=length_range), 0)
        assert str(exc.value) == "gen_requests makes 'path' and 'cycle' requests, not 'general'"

    def test_negative_count_refused(self):
        assert gen_requests(RequestSpec(count=0), 0) == []
        with pytest.raises(SpecError, match="negative request count -1"):
            gen_requests(RequestSpec(count=-1), 0)

    @pytest.mark.parametrize("field, value, message", [
        ("length_range", (5, 3), "length_range (5, 3) is empty"),
        ("demand_range", (4, 2), "demand_range (4, 2) is empty"),
        ("demand_range", (0, 5), "demand_range (0, 5) starts below 1"),
    ])
    def test_bad_range_is_named(self, field, value, message):
        with pytest.raises(SpecError) as exc:
            gen_requests(RequestSpec(**{field: value}), 0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("shape", ["path", "cycle"])
    def test_equal_links_share_a_tuple_but_not_a_vls_list(self, shape):
        reqs = gen_requests(RequestSpec(shape=shape, count=20, length_range=(4, 5)), 6)
        a, b = [r for r in reqs if r.length == reqs[0].length][:2]
        assert a.vls is not b.vls
        assert all(x is y for x, y in zip(a.vls, b.vls, strict=True))
        before = list(b.vls)
        a.vls.append((98, 99))
        assert b.vls == before

    def test_link_table_grows_only_to_the_longest_request_drawn(self):
        # a table built to length_range's upper end would hold 10**6 tuples
        # here (tens of MB); no request is drawn, so none may be built
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert gen_requests(RequestSpec(count=0, length_range=(3, 10 ** 6)), 0) == []
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 10 ** 6


_VALID_SPECS = {RequestSpec: {}, SubstrateSpec: {"n_nodes": 5, "topology": "random", "n_edges": 6}}


@pytest.mark.parametrize("spec, field, value, bad", [
    (RequestSpec, "count", 2.5, 2.5),
    (RequestSpec, "count", True, True),  # would generate one request
    (RequestSpec, "count", "3", "3"),
    (RequestSpec, "length_range", (5.5, 10), 5.5),
    (RequestSpec, "length_range", (5, 10.0), 10.0),
    (RequestSpec, "demand_range", (1, 5.0), 5.0),  # accepted by randrange before Python 3.12
    (RequestSpec, "demand_range", (True, 5), True),
    (SubstrateSpec, "n_nodes", 5.0, 5.0),
    (SubstrateSpec, "n_nodes", True, True),
    (SubstrateSpec, "n_edges", 6.0, 6.0),
    (SubstrateSpec, "n_edges", False, False),
])
def test_non_int_spec_fields_are_named(spec, field, value, bad):
    gen = gen_requests if spec is RequestSpec else gen_substrate
    gen(spec(**_VALID_SPECS[spec]), 0)
    with pytest.raises(SpecError) as exc:
        gen(spec(**{**_VALID_SPECS[spec], field: value}), 0)
    assert str(exc.value) == f"{field}: {bad!r} is not an int"


class TestEdpReduction:
    def _line(self):
        return [0, 1, 2], [(0, 1), (1, 2)]

    def test_edge_count_identity(self):
        rng = random.Random(5)
        from conftest import random_connected_graph

        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 7))
            k = rng.randint(0, 3)
            pairs = []
            for _ in range(k):
                s, t = rng.sample(list(g.nodes), 2)
                pairs.append((s, t))
            red = gen_edp_reduction(list(g.nodes), list(g.edges), pairs)
            assert len(red.net.edges) == len(g.edges) + len(g.nodes)

    def test_end_vns_forced_onto_terminal_copies(self):
        nodes, edges = self._line()
        red = gen_edp_reduction(nodes, edges, [(0, 2)])
        req = red.requests[0]
        assert cpu_link_feasible_hosts(red.net, req, 0) == {red.copy_of[0]}
        assert cpu_link_feasible_hosts(red.net, req, 3) == {red.copy_of[2]}

    def test_forcing_holds_on_random_instances(self):
        rng = random.Random(7)
        from conftest import random_connected_graph

        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 6))
            pairs = []
            for _ in range(rng.randint(1, 3)):
                s, t = rng.sample(list(g.nodes), 2)
                pairs.append((s, t))
            red = gen_edp_reduction(list(g.nodes), list(g.edges), pairs)
            for i, (s, t) in enumerate(pairs):
                req = red.requests[i]
                assert cpu_link_feasible_hosts(red.net, req, 0) == {red.copy_of[s]}
                assert cpu_link_feasible_hosts(red.net, req, 3) == {red.copy_of[t]}

    def test_zero_pairs(self):
        nodes, edges = self._line()
        red = gen_edp_reduction(nodes, edges, [])
        assert red.requests == []
        assert len(red.net.edges) == len(edges) + len(nodes)

    def test_degenerate_pair_refused(self):
        nodes, edges = self._line()
        with pytest.raises(SpecError):
            gen_edp_reduction(nodes, edges, [(1, 1)])


class TestDdkpReduction:
    def test_two_dimensional_feasibility_singletons(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(1, 6)
            caps = [rng.randint(2, 8), rng.randint(2, 8)]
            items = [(j, 1, (rng.randint(1, caps[0]), rng.randint(1, caps[1])))
                     for j in range(n)]
            red = gen_ddkp_reduction(caps, mdkp_pairs(items))
            from pcvne.cycle_embedding import CycleView, feasible_sets

            cycle = CycleView(red.net)
            for req in red.requests:
                hosts, _bad = feasible_sets(cycle, req)
                # original dimension 2 sits at its mapped ring node, alone
                pos = red.dim_position[1]
                assert mask_hosts(cycle, hosts[pos]) == [pos]

    def test_identity_assignment_forced_jointly(self):
        # with three or more dimensions the later ring nodes stay CPU-feasible
        # for earlier VNs, but any complete embedding is still the identity
        from oracles import ring_tableaux

        rng = random.Random(11)
        for _ in range(10):
            d = 3
            caps = [rng.randint(2, 6) for _ in range(d)]
            items = [(j, 1, tuple(rng.randint(1, caps[i]) for i in range(d)))
                     for j in range(rng.randint(1, 4))]
            red = gen_ddkp_reduction(caps, mdkp_pairs(items))
            for req in red.requests:
                found = [h for _s, _d, h, _c in ring_tableaux(red.net, req)]
                assert found, "every item must be embeddable alone"
                assert {tuple(h) for h in found} == {tuple(red.net.nodes)}

    def test_acceptance_equals_cardinality_optimum(self):
        from oracles import max_accepted

        rng = random.Random(13)
        for _ in range(8):
            n = rng.randint(1, 6)
            caps = [rng.randint(2, 6), rng.randint(2, 6)]
            items = [(j, 1, (rng.randint(1, 4), rng.randint(1, 4))) for j in range(n)]
            red = gen_ddkp_reduction(caps, mdkp_pairs(items))
            expected = cardinality_ddkp_optimum(caps, [sizes for _j, _p, sizes in items])
            assert max_accepted(red.net, red.requests) == expected

    def test_zero_items(self):
        red = gen_ddkp_reduction([3, 4], [])
        assert red.requests == []
        assert len(red.net.nodes) == 3

    def test_rejects_zero_sizes(self):
        with pytest.raises(SpecError):
            gen_ddkp_reduction([3, 4], [(0, 1, [(0, 0), (1, 2)])])

    def test_mapping_sizes_match_their_dense_form(self):
        # an item's (dimension, size) pairs in any order build the same ring and
        # requests as in dimension order
        rng = random.Random(17)
        for d in (2, 2, 3, 4, 5) * 6:
            caps = [rng.randint(1, 9) for _ in range(d)]
            dense = mdkp_pairs([(j, 1, [rng.randint(1, 6) for _ in range(d)]) for j in range(rng.randint(0, 5))])
            shuffled = [(j, p, rng.sample(pairs, d)) for j, p, pairs in dense]
            a = gen_ddkp_reduction(caps, dense)
            b = gen_ddkp_reduction(caps, shuffled)
            assert (b.net.nodes, b.net.edges) == (a.net.nodes, a.net.edges)
            assert (b.net.cpu_capacity, b.net.bw_capacity) == (a.net.cpu_capacity, a.net.bw_capacity)
            assert (b.requests, b.dim_position) == (a.requests, a.dim_position)

    def test_mapping_sizes_worked_example(self):
        items = [(0, 1, [(0, 2), (1, 3)]), (1, 1, [(1, 1), (0, 1)])]
        red = gen_ddkp_reduction([4, 4], items)
        assert [r.cpu_demand for r in red.requests] == [{0: 2, 1: 5, 2: 33}, {0: 1, 1: 5, 2: 11}]

    @pytest.mark.parametrize("sizes", [[(1, 3)], [(0, 2), (1, 0)], [], [(0, 1), (2, 1)]])
    def test_mapping_without_a_dimension_is_a_zero_size(self, sizes):
        caps = [4] * (3 if (2, 1) in sizes else 2)
        with pytest.raises(SpecError, match=r"^item 0 has a size component below 1;"):
            gen_ddkp_reduction(caps, [(0, 1, sizes)])

    def test_rejects_single_dimension(self):
        with pytest.raises(SpecError):
            gen_ddkp_reduction([3], [(0, 1, [(0, 1)])])
