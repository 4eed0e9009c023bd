"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria with stated runtime budgets assert them with perf counters. All
numeric comparisons are exact unless a criterion says otherwise.
"""

import csv
import random
import time
import warnings

from conftest import (
    atlas_connected,
    make_cycle_request,
    make_net,
    mask_hosts,
    path_net,
    random_connected_graph,
    exact_solve_mdkp,
    exact_solve_mkp,
    random_ring_instance,
    solve_mkp_by_id,
    uniform_path_request,
)
from oracles import (
    Item,
    brute_force_simplex_cycle,
    cardinality_ddkp_optimum,
    cpu_link_feasible_hosts,
    kp_best_profit,
    mdkp_best_profit,
    mdkp_pairs,
    max_accepted,
    mkp_best_profit,
    read_ring,
    ring_embedding,
    ring_tableaux,
    solve_kp_dp,
    wdag_all_cycles,
)
from pcvne.baseline import generic_batch
from pcvne.cycle_embedding import (
    ANTICLOCKWISE,
    CLOCKWISE,
    CycleView,
    _embedding,
    build_wdag,
    c2ce,
    feasible_sets,
    greedy_revenue,
    min_weight_cycle,
)
from pcvne.experiment import ExperimentConfig, run_experiment
from pcvne.generators import (
    RequestSpec,
    SubstrateSpec,
    gen_requests,
    gen_substrate,
)
from pcvne.knapsack import solve_mdkp
from pcvne.model import audit_residuals, commit
from pcvne.path_embedding import procedure_pe
from reductions import gen_ddkp_reduction, gen_edp_reduction
from verify_theory import (
    UniformInstance,
    find_uniform_path_embedding,
    has_spanning_trail,
    is_supereulerian,
    sg_to_sset_instance,
    sset_to_sg_instances,
)


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def fig_ring_instance():
    net = make_net(
        [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)],
        {0: 5, 1: 5, 2: 1, 3: 4},
        {(0, 1): 2, (1, 2): 3, (2, 3): 3, (0, 3): 3},
    )
    req = make_cycle_request("tri", [5, 5, 2], [1, 2, 3])
    return net, req


def per_direction_minimum(net, req, direction):
    cycle = CycleView(net)
    masks = feasible_sets(cycle, req)
    best = None
    for start in mask_hosts(cycle, masks[0][0]):
        found = min_weight_cycle(build_wdag(cycle, req, start, direction, masks=masks))
        if found and (best is None or found[1] < best):
            best = found[1]
    return best


def test_criterion_01_ring_regression():
    t0 = time.perf_counter()
    net, req = fig_ring_instance()
    cw = per_direction_minimum(net, req, CLOCKWISE)
    acw = per_direction_minimum(net, req, ANTICLOCKWISE)
    emb = c2ce(net, req)
    elapsed = time.perf_counter() - t0
    assert cw == 8
    assert acw == 9
    assert emb is not None and read_ring(net, req, emb).cost == 8
    assert elapsed < 1.0
    report(1, f"clockwise 8, anticlockwise 9, solver picks 8 in {elapsed * 1000:.1f}ms")


def test_criterion_02_ring_solver_optimality():
    rng = random.Random(220022)
    t0 = time.perf_counter()
    instances = feasible = infeasible = 0
    while instances < 200:
        net, req = random_ring_instance(
            rng, m_range=(3, 8), n_range=(3, 5), demand_range=(1, 5),
            cpu_range=(2, 7), bw_range=(2, 7))
        instances += 1
        emb = c2ce(net, req)
        best = brute_force_simplex_cycle(net, req)
        if best is None:
            assert emb is None
            infeasible += 1
        else:
            assert emb is not None and read_ring(net, req, emb).cost == best[1]
            feasible += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert feasible >= 50 and infeasible >= 20
    report(2, f"{instances} instances ({feasible} feasible, {infeasible} infeasible) in {elapsed:.1f}s")


def test_criterion_03_cycle_embedding_bijection():
    rng = random.Random(330033)
    t0 = time.perf_counter()
    instances = cycles_checked = 0
    while instances < 50:
        net, req = random_ring_instance(
            rng, m_range=(4, 7), n_range=(3, 4), demand_range=(1, 5),
            cpu_range=(1, 6), bw_range=(1, 6))
        instances += 1
        cycle = CycleView(net)
        masks = feasible_sets(cycle, req)
        for start in mask_hosts(cycle, masks[0][0]):
            for direction in (CLOCKWISE, ANTICLOCKWISE):
                w = build_wdag(cycle, req, start, direction, masks=masks)
                enumerated = wdag_all_cycles(w)
                # every directed cycle maps to a feasible embedding whose BW
                # total is the cycle's weight
                mapped = set()
                for hosts, cost in enumerated:
                    emb = _embedding(req, w, hosts)
                    assert read_ring(net, req, emb).cost == cost
                    assert emb == ring_embedding(cycle.order, req, direction, hosts)
                    commit(net.copy(), req, emb)  # raises unless it fits the residuals
                    mapped.add(hosts)
                    cycles_checked += 1
                # every feasible embedding for this anchor appears as a cycle
                oracle = {hosts for s, d, hosts, _c in ring_tableaux(net, req)
                          if (s, d) == (start, direction)}
                assert mapped == oracle
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert cycles_checked > 100
    report(3, f"{instances} instances, {cycles_checked} directed cycles checked both ways in {elapsed:.1f}s")


def test_criterion_04_wdag_bounds():
    rng = random.Random(440044)
    nets = [fig_ring_instance()]
    for _ in range(60):
        nets.append(random_ring_instance(rng, m_range=(3, 8), n_range=(3, 5)))
    graphs = 0
    for net, req in nets:
        cycle = CycleView(net)
        masks = feasible_sets(cycle, req)
        m, n = cycle.m, req.n_vns
        for start in mask_hosts(cycle, masks[0][0]):
            for direction in (CLOCKWISE, ANTICLOCKWISE):
                w = build_wdag(cycle, req, start, direction, masks=masks)
                graphs += 1
                assert max(map(len, w.to_json()["layers"])) <= m
                assert w.arc_count() <= m * m * n
    assert graphs > 100
    report(4, f"{graphs} layered graphs within layer<=m and arcs<=m^2*n")


def test_criterion_05_knapsack_oracles():
    rng = random.Random(550055)
    t0 = time.perf_counter()

    for _ in range(100):
        items = [Item(i, rng.randint(0, 8), rng.randint(0, 20)) for i in range(12)]
        capacity = rng.randint(0, 30)
        _, profit = solve_kp_dp(capacity, items)
        assert profit == kp_best_profit(capacity, items)

    for _ in range(100):
        items = [Item(i, rng.randint(0, 6), rng.randint(0, 15)) for i in range(8)]
        caps = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
        _, exact = solve_mkp_by_id(caps, items, exact_solve_mkp)
        assert exact == mkp_best_profit(caps, items)
        g_assign, greedy = solve_mkp_by_id(caps, items)
        assert greedy <= exact
        loads = [0] * len(caps)
        by_id = {it.item_id: it for it in items}
        for item_id, k in g_assign.items():
            if k is not None:
                loads[k] += by_id[item_id].size
        assert all(l <= c for l, c in zip(loads, caps))

    for _ in range(100):
        d = rng.randint(1, 4)
        items = [(i, rng.randint(0, 15), tuple(rng.randint(0, 5) for _ in range(d)))
                 for i in range(12)]
        caps = [rng.randint(0, 12) for _ in range(d)]
        pairs = mdkp_pairs(items)
        selected, exact = exact_solve_mdkp(caps, pairs)
        assert exact == mdkp_best_profit(caps, items)
        g_sel, greedy = solve_mdkp(caps, pairs)
        assert greedy <= exact
        totals = [0] * d
        by_id = {i: s for i, _p, s in items}
        for item_id in g_sel:
            totals = [t + s for t, s in zip(totals, by_id[item_id])]
        assert all(t <= c for t, c in zip(totals, caps))

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"3x100 instances against exhaustive enumeration in {elapsed:.1f}s")


def test_criterion_06_uniform_path_substrate_optimum(exact_pe):
    # the package's decomposition, offsets, funding and commits with the exact stages
    rng = random.Random(660066)
    for trial in range(50):
        size = rng.randint(6, 16)
        net = path_net(size + 1, cpu=2, bw=1)
        reqs = [uniform_path_request(i, rng.randint(1, size), revenue=rng.randint(1, 9))
                for i in range(rng.randint(4, 12))]
        batch = procedure_pe(net, reqs)
        items = [Item(r.req_id, r.length, r.revenue) for r in reqs]
        _, optimum = solve_kp_dp(size, items)
        assert batch.revenue == optimum, f"trial {trial}: {batch.revenue} != {optimum}"
    report(6, "50 uniform path-substrate instances hit the knapsack optimum exactly")


def test_criterion_07_spanning_trail_equivalence():
    graphs = atlas_connected(6)
    assert len(graphs) == 143  # non-isomorphic connected graphs on <= 6 nodes
    for g in graphs:
        inst = UniformInstance(g)
        assert (find_uniform_path_embedding(inst) is not None) == has_spanning_trail(g), g
    report(7, f"{len(graphs)} non-isomorphic connected graphs agree")


def test_criterion_08_reduction_equivalences():
    graphs = atlas_connected(6)
    t0 = time.perf_counter()
    for g in graphs:
        if len(g.nodes) >= 2:
            lhs = has_spanning_trail(g)
            rhs = any(is_supereulerian(h) for h in sset_to_sg_instances(g))
            assert lhs == rhs, g
        expected = is_supereulerian(g)
        for v in g.nodes:
            assert has_spanning_trail(sg_to_sset_instance(g, v)) == expected, (g, v)
    elapsed = time.perf_counter() - t0
    report(8, f"both reduction directions verified on {len(graphs)} graphs in {elapsed:.1f}s")


def test_criterion_09_universal_feasibility():
    rng = random.Random(990099)
    runs = 0
    for _ in range(6):
        # path workload through the pipeline and the baseline
        net = gen_substrate(SubstrateSpec(
            n_nodes=rng.randint(10, 16), topology="random",
            n_edges=rng.randint(20, 30), cpu_capacity=rng.randint(4, 10),
            bw_capacity=rng.randint(3, 8)), rng.randrange(2 ** 30))
        reqs = gen_requests(RequestSpec(
            shape="path", count=12, length_range=(2, 5),
            demand_range=(1, 3)), rng.randrange(2 ** 30))
        for algorithm in (procedure_pe, generic_batch):
            work = net.copy()
            batch = algorithm(work, reqs)
            ok, violations = batch.validate_against(work)
            assert ok, violations
            audit_residuals(work, [batch])
            work.check_residual_bounds()
            runs += 1
    for _ in range(4):
        # cycle workload via the ring embedder with generic fallback
        net = gen_substrate(SubstrateSpec(
            n_nodes=rng.randint(6, 10), topology="cycle",
            cpu_capacity=rng.randint(4, 8), bw_capacity=rng.randint(4, 8)),
            rng.randrange(2 ** 30))
        reqs = gen_requests(RequestSpec(
            shape="cycle", count=8, length_range=(3, 5),
            demand_range=(1, 3)), rng.randrange(2 ** 30))
        work = net.copy()
        batch = greedy_revenue(work, reqs, fallback=True)
        ok, violations = batch.validate_against(work)
        assert ok, violations
        audit_residuals(work, [batch])
        work.check_residual_bounds()
        runs += 1
    report(9, f"{runs} algorithm runs: every commit validated, residual ledgers exact")


TREND_SUBSTRATE = SubstrateSpec(n_nodes=30, topology="random", n_edges=150,
                                cpu_capacity=100, bw_capacity=100)


def _trend_margins(count, trials, seed):
    cfg = ExperimentConfig(
        substrate=TREND_SUBSTRATE,
        requests=RequestSpec(shape="path", count=count, length_range=(5, 10),
                             demand_range=(1, 5), revenue_rule="unit"),
        algorithms=["pe", "generic"],
        trials=trials,
        seed=seed,
    )
    agg = run_experiment(cfg, measure_time=False).aggregates()
    acr_margin = agg["pe"]["acceptance_ratio"][0] - agg["generic"]["acceptance_ratio"][0]
    rev_margin = agg["pe"]["revenue"][0] - agg["generic"]["revenue"][0]
    return acr_margin, rev_margin, agg


def test_criterion_10_directional_trend():
    t0 = time.perf_counter()
    acr_margin, rev_margin, agg = _trend_margins(count=100, trials=50, seed=101010)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[acceptance] criterion 10 data: PE AcR {agg['pe']['acceptance_ratio'][0]:.4f} "
          f"vs generic {agg['generic']['acceptance_ratio'][0]:.4f} "
          f"(margin {100 * acr_margin:+.2f}pp), revenue margin {rev_margin:+.2f}, {elapsed:.0f}s")
    if 0 < acr_margin < 0.05:
        warnings.warn(f"positive but small acceptance margin: {100 * acr_margin:.2f}pp")
    assert acr_margin > 0, (
        "pipeline does not beat the baseline at this workload scale: 100 requests "
        "undersubscribe the 30-node/150-link substrate (demand is about 85% of CPU "
        "supply), the flexible baseline accepts essentially everything, and no "
        "packing method can exceed that; see the oversubscribed companion check"
    )
    assert rev_margin > 0


def test_criterion_10_companion_oversubscribed_regime():
    # same substrate with the workload tripled to 2.5x CPU oversubscription,
    # the regime a packing method is built for; with spare capacity for
    # everyone (the criterion's pinned scale) nothing can beat a baseline
    # that accepts nearly every request
    t0 = time.perf_counter()
    acr_margin, rev_margin, agg = _trend_margins(count=300, trials=50, seed=101010)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    if 0 < acr_margin < 0.05:
        warnings.warn(f"positive but small acceptance margin: {100 * acr_margin:.2f}pp")
    assert acr_margin > 0
    assert rev_margin > 0
    report("10 (companion)",
           f"oversubscribed: PE AcR {agg['pe']['acceptance_ratio'][0]:.4f} vs "
           f"generic {agg['generic']['acceptance_ratio'][0]:.4f} "
           f"({100 * acr_margin:+.2f}pp), revenue {rev_margin:+.1f}, {elapsed:.0f}s")


def test_criterion_11_reduction_generators():
    rng = random.Random(111111)

    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7))
        pairs = []
        for _ in range(rng.randint(0, 3)):
            s, t = rng.sample(list(g.nodes), 2)
            pairs.append((s, t))
        red = gen_edp_reduction(list(g.nodes), list(g.edges), pairs)
        assert len(red.net.edges) == len(g.edges) + len(g.nodes)
        for i, (s, t) in enumerate(pairs):
            req = red.requests[i]
            assert cpu_link_feasible_hosts(red.net, req, 0) == {red.copy_of[s]}
            assert cpu_link_feasible_hosts(red.net, req, 3) == {red.copy_of[t]}

    checked_equal = 0
    for _ in range(12):
        n = rng.randint(1, 8)
        caps = [rng.randint(2, 6), rng.randint(2, 6)]
        # individually packable items: a size beyond its capacity could never
        # pack on either side and would make the feasibility scan vacuous
        items = [(j, 1, (rng.randint(1, caps[0]), rng.randint(1, caps[1])))
                 for j in range(n)]
        red = gen_ddkp_reduction(caps, mdkp_pairs(items))
        cycle = CycleView(red.net)
        for req in red.requests:
            hosts, _bad = feasible_sets(cycle, req)
            for orig_dim, ring_pos in red.dim_position.items():
                if orig_dim >= 1:  # the second original dimension and beyond
                    assert mask_hosts(cycle, hosts[ring_pos]) == [red.net.nodes[ring_pos]]
        expected = cardinality_ddkp_optimum(caps, [s for _j, _p, s in items])
        assert max_accepted(red.net, red.requests) == expected
        checked_equal += 1
    report(11, f"edge counts and end forcing on 25 instances; {checked_equal} exact "
               "acceptance-versus-knapsack equalities")


def test_criterion_12_determinism(tmp_path):
    from pcvne.cli import main

    args = ["experiment", "--nodes", "12", "--edges", "20", "--shape", "path",
            "--count", "10", "--length-min", "3", "--length-max", "6",
            "--algorithms", "pe,generic", "--trials", "4", "--seed", "777",
            "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--no-timing", "--out", str(a)])
    main(args + ["--no-timing", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()

    # with real timing enabled, everything except the wall clock column is
    # still identical
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    main(args + ["--out", str(c)])
    main(args + ["--out", str(d)])

    def strip_wall(path):
        rows = list(csv.reader(path.open()))
        return [row[:-1] for row in rows]

    assert strip_wall(c) == strip_wall(d)
    report(12, "byte-identical CSV under --no-timing; timing column is the only varying field")
