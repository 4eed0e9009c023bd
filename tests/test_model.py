import copy
import io
import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcvne.baseline as baseline
import pcvne.cycle_embedding as cycle_embedding
import pcvne.path_embedding as path_embedding
from conftest import make_cycle_request, make_net, make_path_request, path_net, random_connected_graph
from pcvne.baseline import generic_batch, generic_embed
from pcvne.cycle_embedding import greedy_revenue
from pcvne.generators import RequestSpec, SubstrateSpec, gen_requests, gen_substrate
from pcvne.jsonio import dump_instance, load_instance
from pcvne.model import (
    CommitError,
    Embedding,
    EmbeddingBatch,
    MalformedEmbeddingError,
    ModelError,
    Shape,
    VirtualRequest,
    Violation,
    audit_residuals,
    batch_metrics,
    commit,
    edge_key,
    _check,
    footprint,
    validate_embedding,
)
from oracles import check_reference, release, virtual_request_reference
from pcvne.path_embedding import procedure_pe
from test_baseline import sparse_instance


def triangle():
    return make_net([0, 1, 2], [(0, 1), (1, 2), (0, 2)], 10, 10)


class TestSubstrateNetwork:
    def test_rejects_self_loop(self):
        with pytest.raises(ModelError):
            make_net([0, 1], [(0, 0), (0, 1)], 1, 1)

    def test_rejects_parallel_edges(self):
        with pytest.raises(ModelError):
            make_net([0, 1], [(0, 1), (1, 0)], 1, 1)

    def test_rejects_disconnected(self):
        with pytest.raises(ModelError):
            make_net([0, 1, 2, 3], [(0, 1), (2, 3)], 1, 1)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ModelError):
            make_net([0, 1], [(0, 1)], {0: -1, 1: 1}, 1)

    def test_copy_is_independent(self):
        net = triangle()
        dup = net.copy()
        dup.residual_cpu[0] -= 3
        assert net.residual_cpu[0] == 10


class TestHops:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_property_hops_match_networkx(self, seed):
        import networkx as nx

        rng = random.Random(seed)
        n = rng.randint(1, 30)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n))
        net = make_net(list(g.nodes), list(g.edges), 1, 1)
        G = nx.Graph(list(g.edges))
        G.add_nodes_from(g.nodes)
        for dst in g.nodes:
            assert net.hops(dst) == nx.single_source_shortest_path_length(G, dst)

    def test_commit_to_zero_residuals_leaves_hops_unchanged(self):
        net = path_net(4, cpu=2, bw=3)
        before = dict(net.hops(3))
        req = make_path_request("r", [2, 2, 2, 2], [3, 3, 3])
        commit(net, req, Embedding("r", {i: i for i in range(4)},
                                   {(i, i + 1): [(i, i + 1)] for i in range(3)}))
        assert set(net.residual_bw.values()) == {0}
        assert net.hops(3) == before == {3: 0, 2: 1, 1: 2, 0: 3}
        assert net.hops(0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_copy_starts_with_no_rows(self):
        net = triangle()
        net.hops(0)
        dup = net.copy()
        assert dup._hops == {}
        assert dup.hops(0) == net.hops(0) and dup.hops(0) is not net.hops(0)

    def test_set_up_builds_no_row(self):
        # the benchmark times construction and loading as set-up
        net = triangle()
        assert net._hops == {}
        buf = io.StringIO()
        dump_instance(net, [make_path_request("a", [1, 1], [1])], buf)
        buf.seek(0)
        loaded, _ = load_instance(buf)
        assert loaded._hops == {}


class TestVirtualRequest:
    def test_path_link_count(self):
        with pytest.raises(ModelError):
            VirtualRequest(req_id=0, shape=Shape.PATH, vns=[0, 1, 2], vls=[(0, 1)],
                           cpu_demand={0: 1, 1: 1, 2: 1}, bw_demand={(0, 1): 1})

    def test_cycle_needs_three(self):
        with pytest.raises(ModelError):
            make_cycle_request(0, [1, 1], [1, 1])

    def test_demands_strictly_positive(self):
        with pytest.raises(ModelError):
            make_path_request(0, [0, 1], [1])

    def test_missing_demand_is_named(self):
        kwargs = dict(req_id=0, shape=Shape.PATH, vns=[0, 1], vls=[(0, 1)])
        with pytest.raises(ModelError, match=r"^missing cpu demand for 1$"):
            VirtualRequest(cpu_demand={0: 1}, bw_demand={(0, 1): 1}, **kwargs)
        with pytest.raises(ModelError, match=r"^missing bw demand for \(0, 1\)$"):
            VirtualRequest(cpu_demand={0: 1, 1: 1}, bw_demand={}, **kwargs)
        req = VirtualRequest(cpu_demand={0: 1, 1: 1}, bw_demand={(1, 0): 2}, **kwargs)
        assert req.bw_demand == {(0, 1): 2}

    def test_empty_path_request_allowed(self):
        req = VirtualRequest(req_id=0, shape=Shape.PATH, vns=[], vls=[],
                             cpu_demand={}, bw_demand={})
        assert req.n_vns == 0 and req.length == 0


def _quantity(rng, mixed):
    x = rng.randint(1, 6)
    kind = rng.choice(["int", "int", "fraction", "whole-fraction", "p/q"] if mixed else ["int"])
    if kind == "fraction":
        return Fraction(x, rng.randint(2, 4))
    if kind == "whole-fraction":  # coerced to an int
        return Fraction(x)
    if kind == "p/q":
        return f"{x}/{rng.randint(1, 3)}"
    return x


def _request_args(rng):
    """The arguments of a random valid path, cycle or general request: int or
    string VN ids, ascending or not; links in chain order, some reversed, a
    cycle closed in either orientation; int quantities, or int, Fraction and
    "p/q" ones mixed; each BW keyed by its link or the reversed link."""
    shape = rng.choice([Shape.PATH, Shape.PATH, Shape.CYCLE, Shape.CYCLE, Shape.GENERAL])
    n = rng.randint(3 if shape is Shape.CYCLE else 0, 6)
    vns = rng.choice([list(range(n)), sorted(rng.sample(range(-5, 20), n)), [f"v{i}" for i in range(n)]])
    if rng.random() < 0.3:
        rng.shuffle(vns)
    if shape is Shape.GENERAL:
        pairs = list(combinations(vns, 2))
        links = rng.sample(pairs, rng.randint(0, len(pairs)))
    else:
        links = list(zip(vns, vns[1:]))
        if shape is Shape.CYCLE:
            links.append(rng.choice([(vns[0], vns[-1]), (vns[-1], vns[0])]))
    if rng.random() < 0.3:
        links = [l[::-1] if rng.random() < 0.3 else l for l in links]
    mixed = rng.random() < 0.5
    return dict(req_id="r", shape=shape, vns=vns, vls=links,
                cpu_demand={v: _quantity(rng, mixed) for v in vns},
                bw_demand={l if rng.random() < 0.9 else l[::-1]: _quantity(rng, mixed) for l in links},
                revenue=rng.choice([0, 1, 7, _quantity(rng, mixed)]))


_Link = namedtuple("_Link", "u v")


def _corrupt(rng, args):
    """One field of `args` broken or altered, or none."""
    vns, links, cpu, bw = args["vns"], args["vls"], args["cpu_demand"], args["bw_demand"]
    kind = rng.choice(["none", "none", "duplicate-vn", "unhashable-vn", "incomparable-vn", "drop-cpu",
                       "extra-cpu", "drop-bw", "zero", "negative", "bool", "float", "bad-string",
                       "self-loop", "unknown-vn", "list-link", "drop-link", "duplicate-link",
                       "swap-links", "reverse-links", "tuple-links", "named-links", "revenue", "shape",
                       "two-vn-cycle"])
    i = rng.randrange(len(links)) if links else None
    if kind == "duplicate-vn" and vns:
        vns.append(vns[0])
    elif kind == "unhashable-vn" and vns:
        vns[0] = [vns[0]]
    elif kind == "incomparable-vn" and vns:
        vns[-1] = None
    elif kind == "drop-cpu" and cpu:
        del cpu[rng.choice(list(cpu))]
    elif kind == "extra-cpu":
        cpu["extra"] = 1
    elif kind == "drop-bw" and bw:
        del bw[rng.choice(list(bw))]
    elif kind in ("zero", "negative", "bool", "float", "bad-string") and (cpu or bw):
        target = rng.choice([d for d in (cpu, bw) if d])
        value = {"zero": 0, "negative": -2, "bool": True, "float": 2.5, "bad-string": "abc"}[kind]
        target[rng.choice(list(target))] = value
    elif kind == "self-loop" and links:
        links[i] = (links[i][0], links[i][0])
    elif kind == "unknown-vn" and links:
        links[i] = (links[i][0], 99)
    elif kind == "list-link" and links:
        links[i] = list(links[i])
    elif kind == "drop-link" and links:
        del links[i]
    elif kind == "duplicate-link" and links:
        links.append(links[i][::-1])
    elif kind == "swap-links" and len(links) > 1:
        links[0], links[-1] = links[-1], links[0]
    elif kind == "reverse-links":
        links[:] = [l[::-1] for l in links]
    elif kind == "tuple-links":
        args["vls"] = tuple(links)
    elif kind == "named-links":  # equal to plain tuples, which the request keeps instead
        args["vls"] = [_Link(*l) for l in links]
    elif kind == "revenue":
        args["revenue"] = rng.choice([-1, True, "x", Fraction(-1, 2), 2.5])
    elif kind == "shape":
        args["shape"] = rng.choice([s for s in Shape if s is not args["shape"]])
    elif kind == "two-vn-cycle":
        args.update(shape=Shape.CYCLE, vns=vns[:2], vls=links[:1])
    return kind


def _typed(pairs):
    return [(type(k), k, type(v), v) for k, v in pairs]


def _construction(build, args):
    """What `build(**args)` gives, as (shape, links, CPU, BW, revenue) with
    every type, or (exception type, message)."""
    try:
        shape, links, cpu, bw, revenue = build(**copy.deepcopy(args))
    except Exception as exc:  # the reference raises what the parent raised, ModelError or not
        return type(exc), str(exc)
    return (shape, [(type(l), _typed([l])) for l in links], _typed(cpu.items()), _typed(bw.items()),
            (type(revenue), revenue))


def _fields(**args):
    req = VirtualRequest(**args)
    return req.shape, req.vls, req.cpu_demand, req.bw_demand, req.revenue


@settings(max_examples=600, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
@example(337, True)  # named-tuple links on the one pass: the request keeps plain tuples
def test_property_request_checks_match_their_frozen_reference(seed, corrupt):
    # the one pass and the step-by-step checks give the frozen copy's fields,
    # with their types, and raise what it raises with the same message
    rng = random.Random(seed)
    args = _request_args(rng)
    if corrupt:
        _corrupt(rng, args)
    assert _construction(_fields, args) == _construction(virtual_request_reference, args)


def test_generated_and_loaded_requests_take_the_one_pass(monkeypatch):
    # generator output and dumped files (a cycle closed by (0, n - 1)) never
    # need the step-by-step checks
    taken, one_pass = [], VirtualRequest._take_chain
    monkeypatch.setattr(VirtualRequest, "_take_chain", lambda self: taken.append(one_pass(self)) or taken[-1])
    net = gen_substrate(SubstrateSpec(n_nodes=12, n_edges=20), 1)
    for shape in ("path", "cycle"):
        reqs = gen_requests(RequestSpec(shape=shape, count=30, length_range=(3, 6)), 2)
        buf = io.StringIO()
        dump_instance(net, reqs, buf)
        buf.seek(0)
        assert load_instance(buf)[1] == reqs
    assert taken == [True] * 120


class TestValidateEmbedding:
    def test_cpu_violation(self):
        # a demand of 5 landing on a node of capacity 4 must fail
        net = make_net([0, 1], [(0, 1)], {0: 4, 1: 10}, 10)
        req = make_path_request("r", [5, 1], [1])
        emb = Embedding("r", {0: 0, 1: 1}, {(0, 1): [(0, 1)]})
        ok, violations = validate_embedding(net, req, emb)
        assert not ok
        assert any(v.kind == "cpu" for v in violations)

    def test_empty_request_vacuously_valid(self):
        net = triangle()
        req = VirtualRequest(req_id="e", shape=Shape.PATH, vns=[], vls=[],
                             cpu_demand={}, bw_demand={})
        ok, violations = validate_embedding(net, req, Embedding("e", {}, {}))
        assert ok and violations == []

    def test_exhaustive_witness_validates(self):
        # embeddings found by the independent exhaustive search pass the validator
        from conftest import random_connected_graph
        from verify_theory import UniformInstance, find_uniform_path_embedding

        rng = random.Random(11)
        checked = 0
        while checked < 10:
            g = random_connected_graph(rng, 5)
            inst = UniformInstance(g)
            emb = find_uniform_path_embedding(inst)
            if emb is None:
                continue
            ok, violations = validate_embedding(inst.net, inst.request, emb)
            assert ok, violations
            checked += 1

    def test_dangling_vn_is_structural(self):
        net = triangle()
        req = make_path_request("r", [1, 1], [1])
        with pytest.raises(MalformedEmbeddingError):
            validate_embedding(net, req, Embedding("r", {0: 0, 1: 1, 9: 2}, {(0, 1): [(0, 1)]}))

    def test_non_contiguous_path_is_structural(self):
        net = path_net(4)
        req = make_path_request("r", [1, 1], [1])
        emb = Embedding("r", {0: 0, 1: 3}, {(0, 1): [(0, 1), (2, 3)]})
        with pytest.raises(MalformedEmbeddingError):
            validate_embedding(net, req, emb)

    def test_endpoint_mismatch_is_violation(self):
        net = path_net(4)
        req = make_path_request("r", [1, 1], [1])
        emb = Embedding("r", {0: 0, 1: 3}, {(0, 1): [(0, 1), (1, 2)]})
        ok, violations = validate_embedding(net, req, emb)
        assert not ok
        assert any(v.kind == "endpoint" for v in violations)

    def test_injectivity_is_checked_without_capacity_pressure(self):
        net = triangle()  # plenty of capacity
        req = make_path_request("r", [1, 1], [1])
        emb = Embedding("r", {0: 0, 1: 0}, {(0, 1): [(0, 1)]})
        ok, violations = validate_embedding(net, req, emb)
        assert not ok
        assert any(v.kind == "injectivity" for v in violations)

    def test_bw_aggregates_within_one_request(self):
        # two VLs of one request sharing an SL must fit their sum
        net = make_net([0, 1, 2], [(0, 1), (1, 2), (0, 2)], 10, {edge_key(0, 1): 3, edge_key(1, 2): 3, edge_key(0, 2): 3})
        req = make_path_request("r", [1, 1, 1], [2, 2])
        emb = Embedding("r", {0: 0, 1: 1, 2: 2},
                        {(0, 1): [(0, 1)], (1, 2): [(1, 0), (0, 2)]})
        ok, violations = validate_embedding(net, req, emb)
        assert not ok
        assert any(v.kind == "bw" for v in violations)


class TestCommitRelease:
    def _simple(self):
        net = path_net(3, cpu=4, bw=4)
        req = make_path_request("r", [2, 2], [3])
        emb = Embedding("r", {0: 0, 1: 1}, {(0, 1): [(0, 1)]})
        return net, req, emb

    def test_commit_then_release_restores_exactly(self):
        net, req, emb = self._simple()
        before_cpu = dict(net.residual_cpu)
        before_bw = dict(net.residual_bw)
        commit(net, req, emb)
        release(net, req, emb)
        assert net.residual_cpu == before_cpu
        assert net.residual_bw == before_bw

    def test_second_commit_exceeding_bw_rejected_atomically(self):
        net, req, emb = self._simple()
        commit(net, req, emb)
        req2 = make_path_request("r2", [1, 1], [2])
        emb2 = Embedding("r2", {0: 0, 1: 1}, {(0, 1): [(0, 1)]})
        snapshot = dict(net.residual_cpu), dict(net.residual_bw)
        with pytest.raises(CommitError):
            commit(net, req2, emb2)
        assert (dict(net.residual_cpu), dict(net.residual_bw)) == snapshot

    def test_release_without_commit_rejected(self):
        net, req, emb = self._simple()
        with pytest.raises(ModelError):
            release(net, req, emb)

    def test_release_overflowing_at_second_sl_changes_nothing(self):
        net = path_net(3, cpu=4, bw=4)
        req = make_path_request("r", [1, 1, 1], [1, 1])
        emb = Embedding("r", {0: 0, 1: 1, 2: 2}, {(0, 1): [(0, 1)], (1, 2): [(1, 2)]})
        for v in net.nodes:
            net.residual_cpu[v] = 3
        net.residual_bw[(0, 1)] = 3  # room to give back here, none on (1, 2)
        snapshot = dict(net.residual_cpu), dict(net.residual_bw)
        with pytest.raises(ModelError, match=r"bw capacity at \(1, 2\)"):
            release(net, req, emb)
        assert (net.residual_cpu, net.residual_bw) == snapshot

    def test_footprint_sums_pairs_on_canonical_links(self):
        req = make_path_request("r", [2, 3, 1], [4, 5])
        emb = Embedding("r", {0: 0, 1: 1, 2: 2}, {(0, 1): [(1, 0)], (1, 2): [(1, 0), (0, 2)]})
        assert footprint([(req, emb)]) == ({0: 2, 1: 3, 2: 1}, {(0, 1): 9, (0, 2): 5})
        assert footprint([(req, emb)] * 2) == ({0: 4, 1: 6, 2: 2}, {(0, 1): 18, (0, 2): 10})
        assert footprint([]) == ({}, {})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_property_commit_returns_the_residual_drop(self, seed, fractions):
        net, reqs = sparse_instance(random.Random(seed), fractions)
        committed = []
        for req in reqs:
            emb = generic_embed(net, req)
            if emb is None:
                continue
            before = dict(net.residual_cpu), dict(net.residual_bw)
            cpu, bw = commit(net, req, emb)
            assert all(before[0][v] - net.residual_cpu[v] == cpu.get(v, 0) for v in net.nodes)
            assert all(before[1][k] - net.residual_bw[k] == bw.get(k, 0) for k in net.edges)
            assert set(cpu) <= set(net.nodes) and set(bw) <= set(net.edges)
            committed.append((req, emb, before))
        assert committed
        for req, emb, before in reversed(committed):
            release(net, req, emb)
            assert (net.residual_cpu, net.residual_bw) == before

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=12))
    def test_commit_release_conserves_residuals(self, ops):
        net = path_net(5, cpu=10, bw=10)
        reqs = [make_path_request(i, [1, 1, 1], [1, 1]) for i in range(3)]
        offsets = [0, 1, 2]
        embs = [
            Embedding(i, {0: off, 1: off + 1, 2: off + 2},
                      {(0, 1): [(off, off + 1)], (1, 2): [(off + 1, off + 2)]})
            for i, off in zip(range(3), offsets)
        ]
        live = [0, 0, 0]
        for idx, is_commit in ops:
            if is_commit:
                try:
                    commit(net, reqs[idx], embs[idx])
                    live[idx] += 1
                except CommitError:
                    pass
            elif live[idx]:
                release(net, reqs[idx], embs[idx])
                live[idx] -= 1
        batches = []
        for idx in range(3):
            for _ in range(live[idx]):
                b = EmbeddingBatch()
                b.add(reqs[idx], embs[idx])
                batches.append(b)
        audit_residuals(net, batches)
        net.check_residual_bounds()


class TestBatchChecks:
    def _pair(self, req_id, cpu, bw):
        req = make_path_request(req_id, [cpu, 1], [bw])
        return req, Embedding(req_id, {0: 0, 1: 1}, {(0, 1): [(0, 1)]})

    def test_validate_against_reports_aggregate_violations(self):
        # each embedding fits alone, together they overrun SN 0 and SL (0, 1)
        net = path_net(3, cpu=4, bw=4)
        batch = EmbeddingBatch()
        for pair in (self._pair("a", 3, 3), self._pair("b", 2, 2)):
            assert validate_embedding(net, *pair)[0]
            batch.add(*pair)
        ok, violations = batch.validate_against(net)
        assert not ok
        assert violations == [Violation("cpu", "aggregate at SN 0: 5 > 4"),
                              Violation("bw", "aggregate at SL (0, 1): 5 > 4")]

    def test_audit_residuals_catches_a_hand_edit(self):
        net = path_net(4, cpu=4, bw=4)
        batch = EmbeddingBatch()
        for pair in (self._pair("a", 1, 1), self._pair("b", 2, 2)):
            commit(net, *pair)
            batch.add(*pair)
        audit_residuals(net, [batch])
        for residual, key, kind in ((net.residual_cpu, 0, "cpu"), (net.residual_cpu, 3, "cpu"),
                                    (net.residual_bw, (0, 1), "bw"), (net.residual_bw, (2, 3), "bw")):
            residual[key] -= 1
            with pytest.raises(ModelError, match=f"residual {kind} mismatch at"):
                audit_residuals(net, [batch])
            residual[key] += 1
        audit_residuals(net, [batch])


class TestBatchMetrics:
    def test_definition(self):
        batch = EmbeddingBatch()
        for i in range(41):
            req = make_path_request(i, [1], [])
            batch.add(req, Embedding(i, {0: 0}, {}))
        ratio, revenue = batch_metrics(batch, 100)
        assert ratio == Fraction(41, 100)
        assert revenue == 41

    def test_empty(self):
        assert batch_metrics(EmbeddingBatch(), 0) == (Fraction(0), 0)

    def test_revenue_matches_independent_fold(self):
        rng = random.Random(3)
        batch = EmbeddingBatch()
        revenues = []
        for i in range(20):
            # revenue proportional to VN count in [5, 10]
            n = rng.randint(5, 10)
            req = make_path_request(i, [1] * n, [1] * (n - 1), revenue=n)
            emb = Embedding(i, {j: j for j in range(n)},
                            {(j, j + 1): [(j, j + 1)] for j in range(n - 1)})
            batch.add(req, emb)
            revenues.append(n)
        total = 0
        for r in revenues:
            total += r
        assert batch_metrics(batch, 20)[1] == total


def _outcome(thunk):
    """What `thunk()` returns, or (exception type, message) if it raises a ModelError."""
    try:
        return thunk()
    except ModelError as exc:
        return type(exc), str(exc)


def _out_of_bounds(residual, key, value):
    net = path_net(2, cpu=4, bw=4)
    getattr(net, residual)[key] = value
    return net.check_residual_bounds()


def _request(shape=Shape.PATH, vns=(0, 1), vls=((0, 1),), bw=1, revenue=1):
    return VirtualRequest(req_id="r", shape=shape, vns=list(vns), vls=list(vls),
                          cpu_demand=dict.fromkeys(vns, 1), bw_demand=dict.fromkeys(vls, bw),
                          revenue=revenue)


def _validate(node_map, link_map, net=None):
    return validate_embedding(net or path_net(4), make_path_request("r", [1, 1], [1]),
                              Embedding("r", node_map, link_map))


def _shared_sn_batch():
    batch = EmbeddingBatch()
    batch.add(make_path_request("a", [1, 1], [1]), Embedding("a", {0: 0, 1: 0}, {(0, 1): [(0, 1)]}))
    return batch.validate_against(path_net(2, cpu=4, bw=4))


@pytest.mark.parametrize("thunk, expected", [
    # SubstrateNetwork
    (lambda: make_net([0, 0, 1], [(0, 1)], 1, 1), (ModelError, "duplicate node ids")),
    (lambda: make_net([0, 1], [(0, 1)], {0: 1}, 1), (ModelError, "missing cpu capacity for 1")),
    (lambda: make_net([0, 1], [(0, 1)], 1, {}), (ModelError, "missing bw capacity for (0, 1)")),
    (lambda: make_net([0, 1], [(0, 1)], 1, -1), (ModelError, "negative bw capacity at (0, 1)")),
    (lambda: _out_of_bounds("residual_cpu", 0, -1), (ModelError, "residual cpu out of bounds at 0")),
    (lambda: _out_of_bounds("residual_bw", (0, 1), 5), (ModelError, "residual bw out of bounds at (0, 1)")),
    # VirtualRequest
    (lambda: _request(vns=(0, 0, 1)), (ModelError, "duplicate virtual node ids")),
    (lambda: _request(shape=Shape.CYCLE), (ModelError, "cycle request needs at least 3 VNs")),
    (lambda: _request(shape=Shape.CYCLE, vns=(0, 1, 2), vls=((0, 1), (1, 2))),
     (ModelError, "cycle request links must chain VNs and close")),
    (lambda: _request(bw=0), (ModelError, "bw demand must be positive at (0, 1)")),
    (lambda: _request(revenue=-1), (ModelError, "negative revenue")),
    # validate_embedding: structural defects raise, the rest are violations
    (lambda: _validate({0: 0}, {(0, 1): [(0, 1)]}),
     (MalformedEmbeddingError, "node map does not cover exactly the request VNs")),
    (lambda: _validate({0: 0, 1: 1}, {}),
     (MalformedEmbeddingError, "link map does not cover exactly the request VLs")),
    (lambda: _validate({0: 0, 1: 9}, {(0, 1): [(0, 1)]}),
     (MalformedEmbeddingError, "VN 1 mapped to unknown SN 9")),
    (lambda: _validate({0: 0, 1: 1}, {(0, 1): []}),
     (MalformedEmbeddingError, "empty link path for VL (0, 1)")),
    (lambda: _validate({0: 0, 1: 1}, {(0, 1): [(0, 2)]}),
     (MalformedEmbeddingError, "VL (0, 1) routed over unknown SL (0, 2)")),
    (lambda: _validate({0: 0, 1: 3}, {(0, 1): [(0, 1), (2, 3)]}),
     (MalformedEmbeddingError, "link path for VL (0, 1) is not a simple chain")),
    # the path chains from the far end only, and lands on SN 1 instead of SN 0
    (lambda: _validate({0: 0, 1: 3}, {(0, 1): [(2, 3), (1, 2)]}),
     (False, [Violation("endpoint", "VL (0, 1) path does not join 0 and 3")])),
    # EmbeddingBatch.validate_against keeps the non-capacity violations
    (_shared_sn_batch, (False, [Violation("injectivity", "VNs 0 and 1 share SN 0"),
                                Violation("endpoint", "VL (0, 1) path ends at 1, expected 0")])),
    # NaN orders neither way: edge_key(0, nan) and edge_key(nan, 0) used to
    # differ, for a substrate link and for a virtual link alike
    (lambda: make_net([0, math.nan], [(0, math.nan)], 1, {}), (ModelError, "ids 0 and nan are not comparable")),
    (lambda: _request(vns=(0, math.nan), vls=((0, math.nan),)), (ModelError, "ids 0 and nan are not comparable")),
    # an unknown SN raises, though a shared SN came before it in node-map order
    (lambda: validate_embedding(path_net(4), make_path_request("r", [1, 1, 1], [1, 1]),
                                Embedding("r", {0: 0, 1: 0, 2: 9}, {(0, 1): [(0, 1)], (1, 2): [(1, 2)]})),
     (MalformedEmbeddingError, "VN 2 mapped to unknown SN 9")),
    # NaN equals nothing, itself included: two requests or two VNs of NaN id
    # were distinct, and their dump did not load back. The one pass, the one
    # pass at a lone VN (no `lt` test) and the step-by-step checks all refuse
    (lambda: VirtualRequest(float("nan"), "path", [0, 1], [(0, 1)], {0: 1, 1: 1}, {(0, 1): 1}),
     (ModelError, "request id nan is not equal to itself")),
    (lambda: VirtualRequest(float("nan"), "general", [1, 0], [], {0: 1, 1: 1}, {}),
     (ModelError, "request id nan is not equal to itself")),
    (lambda: VirtualRequest("r", "path", [math.nan], [], {math.nan: 1}, {}),
     (ModelError, "virtual node id nan is not equal to itself")),
    (lambda a=float("nan"), b=float("nan"): VirtualRequest("r", "general", [a, b], [], {a: 1, b: 1}, {}),
     (ModelError, "virtual node id nan is not equal to itself")),
    # a NaN SN on no link escapes edge_key's check, alone or beside others
    (lambda: make_net([math.nan], [], 5, {}), (ModelError, "node id nan is not equal to itself")),
    (lambda: make_net([0, 1, math.nan], [(0, 1)], 5, 5), (ModelError, "node id nan is not equal to itself")),
])
def test_refusal_messages(thunk, expected):
    assert _outcome(thunk) == expected


def _walk(net, src, dst):
    """The SL tuples, in walk order, of a BFS path from src to dst."""
    parent, queue = {src: None}, [src]
    for v in queue:
        for w in net.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path, v = [], dst
    while parent[v] is not None:
        path.append((parent[v], v))
        v = parent[v]
    return path[::-1]


def _mutated_embedding(rng):
    """A small substrate with tight residuals, a path or cycle request and an
    embedding of it: hosts drawn with replacement (shared SNs), and each link
    path a BFS walk between its hosts that may be mutated into list-typed or
    reversed SLs, a reversed or cut chain, one SL that ends at the wrong SN or
    misses both hosts, a revisit, an unknown SL, a self-loop, an SL naming an
    unhashable id or an empty path.
    Now and then a map key or an SN is made unknown."""
    g = random_connected_graph(rng, rng.randint(3, 6))
    net = make_net(list(g.nodes), list(g.edges), {v: rng.randint(1, 4) for v in g.nodes},
                   {e: rng.randint(1, 4) for e in g.edges})
    if rng.random() < 0.5:
        for v in net.nodes:
            net.residual_cpu[v] = rng.randint(0, net.cpu_capacity[v])
        for k in net.edges:
            net.residual_bw[k] = rng.randint(0, net.bw_capacity[k])
    if rng.random() < 0.3:
        n = rng.randint(3, 4)
        req = make_cycle_request("r", [rng.randint(1, 3) for _ in range(n)], [rng.randint(1, 3) for _ in range(n)])
    else:
        n = rng.randint(1, 4)
        req = make_path_request("r", [rng.randint(1, 3) for _ in range(n)], [rng.randint(1, 3) for _ in range(n - 1)])
    node_map = {vn: rng.choice(net.nodes) for vn in req.vns}
    link_map = {}
    for vl in req.vls:
        su, sv = node_map[vl[0]], node_map[vl[1]]
        path = _walk(net, su, sv) or [edge_key(su, net.neighbors(su)[0])]
        kind = rng.choice(["keep", "keep", "list", "reverse-sl", "reverse-chain", "cut", "one-sl",
                           "one-sl-off", "revisit", "unknown-sl", "self-loop", "unhashable", "empty"])
        i = rng.randrange(len(path))
        if kind == "list":
            path[i] = list(path[i])
        elif kind == "reverse-sl":
            path[i] = path[i][::-1]
        elif kind == "reverse-chain":
            path.reverse()
        elif kind == "cut" and len(path) > 1:
            del path[i]
        elif kind == "one-sl":
            path = [(su, rng.choice(net.neighbors(su)))]
        elif kind == "one-sl-off":
            path = [rng.choice(net.edges)]
        elif kind == "revisit":
            a, b = path[-1]
            path += [(b, a), (a, b)]
        elif kind == "unknown-sl":
            path[i] = (path[i][0], 99)
        elif kind == "self-loop":
            path[i] = (path[i][0], path[i][0])
        elif kind == "unhashable":
            path[i] = ([path[i][0]], path[i][1])
        elif kind == "empty":
            path = []
        link_map[vl] = path
    if rng.random() < 0.08:
        node_map[rng.choice(req.vns)] = 99
    if rng.random() < 0.08:
        del node_map[rng.choice(req.vns)]
    if rng.random() < 0.08:
        link_map[(97, 98)] = [net.edges[0]]
    return net, req, Embedding("r", node_map, link_map)


def _reference_outcome(net, req, emb, against_residuals):
    try:
        violations, _use = check_reference(net, req, emb, against_residuals)
    except ModelError as exc:
        return type(exc), str(exc)
    return not violations, violations


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(240)  # a VN missing from the node map and an extra VL: the node map is named first
def test_property_check_matches_its_frozen_reference(seed):
    # the one-pass check gives the frozen copy's violations in the same order
    # and text, and raises what it raises with the same message; commit
    # refuses exactly when it finds violations against the residuals
    net, req, emb = _mutated_embedding(random.Random(seed))
    for against_residuals in (False, True):
        expected = _reference_outcome(net, req, emb, against_residuals)
        assert _outcome(lambda: validate_embedding(net, req, emb, against_residuals)) == expected
    dup = net.copy()  # `expected` is now the outcome against the residuals, as commit checks
    got = _outcome(lambda: commit(dup, req, emb))
    if expected[0] is True:
        cpu, bw = footprint([(req, emb)])
        assert got == (cpu, bw)
        assert all(dup.residual_cpu[sn] == net.residual_cpu[sn] - d for sn, d in cpu.items())
        assert all(dup.residual_bw[k] == net.residual_bw[k] - d for k, d in bw.items())
    else:
        refusal = expected if expected[0] is not False else (
            CommitError, "infeasible commit: " + "; ".join(map(str, expected[1])))
        assert got == refusal
        assert dup.residual_cpu == net.residual_cpu and dup.residual_bw == net.residual_bw


def _in_order(use):
    """A (cpu, bw) footprint as its two dicts' item lists, so that order counts."""
    return [list(d.items()) for d in use]


def _commits_of_every_embedder(seed, fractions):
    """Run the path pipeline, the baseline and the ring solver on seeded
    instances with `commit` checked in each module: every commit must return
    `footprint` of its one pair, entry for entry and in the same order.
    Returns the shapes of the committed requests."""
    rng = random.Random(seed)
    shapes = []

    def checking(net, req, emb):
        want = footprint([(req, emb)])
        got = commit(net, req, emb)
        assert _in_order(got) == _in_order(want)
        shapes.append(req.shape)
        return got

    net, reqs = sparse_instance(rng, fractions)
    ring = gen_substrate(SubstrateSpec(n_nodes=rng.randint(8, 16), topology="cycle"), rng.randrange(2 ** 31))
    rings = gen_requests(RequestSpec(shape="cycle", count=12, length_range=(3, 6)), rng.randrange(2 ** 31))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module in (path_embedding, cycle_embedding, baseline):
            monkeypatch.setattr(module, "commit", checking)
        procedure_pe(net.copy(), [req for req in reqs if req.shape is Shape.PATH])
        generic_batch(net.copy(), reqs)
        greedy_revenue(ring, rings, fallback=True)
    return shapes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_property_commit_returns_exactly_the_footprint(seed, fractions):
    # commit sums the footprint inside its check's walks; on the valid
    # embeddings of all three embedders (one SL per VL on paths, arcs of
    # several SLs on rings, BFS routes and shared SLs on general requests)
    # it returns what model.footprint sums for the pair, in the same order
    assert _commits_of_every_embedder(seed, fractions)


def test_commit_returns_the_footprint_for_path_ring_and_general_embeddings():
    shapes = set()
    for seed in range(6):
        shapes.update(_commits_of_every_embedder(seed, seed % 2 == 1))
    assert shapes == {Shape.PATH, Shape.CYCLE, Shape.GENERAL}


def _well_formed_embedding(rng):
    """A substrate with tight residuals and a path or cycle request embedded
    over BFS walks between its hosts, so link paths hold one or several SLs.
    Hosts are distinct or drawn with replacement (shared SNs: injectivity
    violations and one SN's CPU summed over VNs), an SL may be given as a
    list or reversed, and a multi-SL path may be given from its far end."""
    g = random_connected_graph(rng, rng.randint(3, 8))
    net = make_net(list(g.nodes), list(g.edges), {v: rng.randint(1, 8) for v in g.nodes},
                   {e: rng.randint(1, 12) for e in g.edges})
    if rng.random() < 0.5:
        for v in net.nodes:
            net.residual_cpu[v] = rng.randint(0, net.cpu_capacity[v])
        for k in net.edges:
            net.residual_bw[k] = rng.randint(0, net.bw_capacity[k])
    if rng.random() < 0.4:
        n = rng.randint(3, 5)
        req = make_cycle_request("r", [rng.randint(1, 3) for _ in range(n)], [rng.randint(1, 3) for _ in range(n)])
    else:
        n = rng.randint(2, 5)
        req = make_path_request("r", [rng.randint(1, 3) for _ in range(n)], [rng.randint(1, 3) for _ in range(n - 1)])
    if n <= len(net.nodes) and rng.random() < 0.5:
        node_map = dict(zip(req.vns, rng.sample(net.nodes, n)))
    else:
        node_map = {vn: rng.choice(net.nodes) for vn in req.vns}
    link_map = {}
    for vl in req.vls:
        su, sv = node_map[vl[0]], node_map[vl[1]]
        path = _walk(net, su, sv) or [edge_key(su, net.neighbors(su)[0])]
        for i in range(len(path)):
            kind = rng.choice(["keep", "keep", "list", "reverse-sl"])
            if kind == "list":
                path[i] = list(path[i])
            elif kind == "reverse-sl":
                path[i] = path[i][::-1]
        if len(path) > 1 and rng.random() < 0.2:
            path.reverse()
        link_map[vl] = path
    return net, req, Embedding("r", node_map, link_map)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_check_and_its_footprint_match_the_frozen_reference(seed):
    # shared hosts, list-typed and reversed SLs, multi-SL paths: the one-pass
    # check gives the frozen copy's violations in the same order and text and
    # its footprint entry for entry, in the same order, and commit returns
    # that footprint whenever it accepts
    net, req, emb = _well_formed_embedding(random.Random(seed))
    for against_residuals in (False, True):  # the last pass checks as commit does
        want_violations, want_use = check_reference(net, req, emb, against_residuals)
        violations, use = _check(net, req, emb, against_residuals)
        assert violations == want_violations and _in_order(use) == _in_order(want_use)
    dup = net.copy()
    if not violations:
        assert _in_order(commit(dup, req, emb)) == _in_order(use)
    else:
        with pytest.raises(CommitError):
            commit(dup, req, emb)
