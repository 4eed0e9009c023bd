"""Command line interface: instance generation, the three embedders, the
theory verification sweep, and the experiment runner."""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations

from . import jsonio
from .baseline import generic_batch, generic_embed
from .cycle_embedding import greedy_revenue
from .experiment import ExperimentConfig, run_experiment, write_csv, write_json
from .generators import RequestSpec, SubstrateSpec, gen_requests, gen_substrate
from .model import ModelError, Shape, batch_metrics
from .path_embedding import procedure_pe
from .theory import (
    Graph,
    UniformInstance,
    brute_force_path_embed,
    has_spanning_trail,
    is_supereulerian,
    sg_to_sset_instance,
    sset_to_sg_instances,
)


def _open_out(path):
    return sys.stdout if path in (None, "-") else open(path, "w")


def _load(path):
    if path == "-":
        return jsonio.load_instance(sys.stdin)
    try:
        fp = open(path)
    except OSError as exc:
        raise ModelError(f"cannot open instance {path!r}: {exc.strerror}") from None
    with fp:
        return jsonio.load_instance(fp)


def _emit_batch(args, algorithm, batch, total, extra=None):
    ratio, revenue = batch_metrics(batch, total)
    payload = {
        "algorithm": algorithm,
        "accepted": batch.accepted_ids(),
        "total_requests": total,
        "acceptance_ratio": float(ratio),
        "revenue": float(revenue),
        "embeddings": [jsonio.embedding_to_dict(req, emb) for req, emb in batch.items],
    }
    if extra:
        payload.update(extra)
    out = _open_out(args.out)
    json.dump(payload, out, indent=2)
    out.write("\n")
    if out is not sys.stdout:
        out.close()


def cmd_generate(args):
    sub = SubstrateSpec(
        n_nodes=args.nodes,
        topology=args.topology,
        n_edges=args.edges,
        cpu_capacity=args.cpu_capacity,
        bw_capacity=args.bw_capacity,
    )
    req = RequestSpec(
        shape=args.shape,
        count=args.count,
        length_range=(args.length_min, args.length_max),
        demand_range=(args.demand_min, args.demand_max),
        revenue_rule=args.revenue,
    )
    rng = random.Random(args.seed)
    net = gen_substrate(sub, rng.randrange(2 ** 31))
    requests = gen_requests(req, rng.randrange(2 ** 31))
    out = _open_out(args.out)
    jsonio.dump_instance(net, requests, out)
    if out is not sys.stdout:
        out.close()


def cmd_embed_paths(args):
    net, requests = _load(args.instance)
    for r in requests:
        if r.shape is not Shape.PATH:
            raise ModelError(f"request {r.req_id!r} is not a path; embed-paths handles path requests only")
    trace = [] if args.trace else None
    batch = procedure_pe(net, requests, mkp_mode=args.mkp_mode, mdkp_mode=args.mdkp_mode, trace=trace)
    if args.trace:
        with open(args.trace, "w") as fp:
            for rec in trace:
                fp.write(json.dumps(rec) + "\n")
    _emit_batch(args, "pe", batch, len(requests))


def cmd_embed_cycles(args):
    net, requests = _load(args.instance)
    for r in requests:
        if r.shape is not Shape.CYCLE:
            raise ModelError(f"request {r.req_id!r} is not a cycle; embed-cycles handles cycle requests only")
    dumps = []
    collect = (lambda w: dumps.append(w.to_json())) if args.dump_wdag else None
    fallback = None if args.no_fallback else generic_embed
    batch = greedy_revenue(net, requests, fallback=fallback, collect=collect)
    if args.dump_wdag:
        with open(args.dump_wdag, "w") as fp:
            json.dump(dumps, fp, indent=2)
            fp.write("\n")
    _emit_batch(args, "gr", batch, len(requests))


def cmd_embed_generic(args):
    net, requests = _load(args.instance)
    batch = generic_batch(net, requests, smooth=args.smooth)
    _emit_batch(args, "generic", batch, len(requests))


def _connected_graphs(n):
    nodes = tuple(range(n))
    all_edges = list(combinations(nodes, 2))
    for mask in range(1 << len(all_edges)):
        edges = tuple(e for i, e in enumerate(all_edges) if mask >> i & 1)
        g = Graph.build(nodes, edges)
        if g.is_connected():
            yield g


def _random_connected_graph(n, rng):
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = {tuple(sorted((nodes[i], nodes[rng.randrange(i)]))) for i in range(1, n)}
    extra = rng.randint(0, n * (n - 1) // 2 - (n - 1))
    candidates = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(candidates, min(extra, len(candidates))))
    return Graph.build(range(n), edges)


def _uniform_net(g):
    from .model import SubstrateNetwork

    return SubstrateNetwork(
        nodes=list(g.nodes), edges=list(g.edges),
        cpu_capacity={v: 2 for v in g.nodes},
        bw_capacity={e: 1 for e in g.edges},
    )


def cmd_verify_theory(args):
    rng = random.Random(args.seed)
    rows = []

    count = agree = 0
    for n in range(1, args.max_nodes + 1):
        for g in _connected_graphs(n):
            count += 1
            if brute_force_path_embed(UniformInstance(_uniform_net(g))) == has_spanning_trail(g):
                agree += 1
    rows.append(("spanning-trail equivalence (exhaustive)", count, agree == count))

    count = agree = 0
    for _ in range(args.samples):
        g = _random_connected_graph(args.sample_nodes, rng)
        count += 1
        if brute_force_path_embed(UniformInstance(_uniform_net(g))) == has_spanning_trail(g):
            agree += 1
    rows.append((f"spanning-trail equivalence ({args.sample_nodes}-node samples)", count, agree == count))

    count = agree = 0
    for n in range(2, args.max_nodes + 1):
        for g in _connected_graphs(n):
            count += 1
            if has_spanning_trail(g) == any(is_supereulerian(h) for h in sset_to_sg_instances(g)):
                agree += 1
    rows.append(("trail-to-circuit reduction (exhaustive)", count, agree == count))

    count = agree = 0
    for n in range(1, args.max_nodes + 1):
        for g in _connected_graphs(n):
            for v in g.nodes:
                count += 1
                if is_supereulerian(g) == has_spanning_trail(sg_to_sset_instance(g, v)):
                    agree += 1
    rows.append(("circuit-to-trail reduction (exhaustive)", count, agree == count))

    width = max(len(r[0]) for r in rows)
    ok_all = True
    for name, n_cases, ok in rows:
        ok_all &= ok
        print(f"{name:<{width}}  {n_cases:>6} cases  {'PASS' if ok else 'FAIL'}")
    if not ok_all:
        sys.exit(1)


def cmd_experiment(args):
    cfg = ExperimentConfig(
        substrate=SubstrateSpec(
            n_nodes=args.nodes, topology=args.topology, n_edges=args.edges,
            cpu_capacity=args.cpu_capacity, bw_capacity=args.bw_capacity,
        ),
        requests=RequestSpec(
            shape=args.shape, count=args.count,
            length_range=(args.length_min, args.length_max),
            demand_range=(args.demand_min, args.demand_max),
            revenue_rule=args.revenue,
        ),
        algorithms=args.algorithms.split(","),
        trials=args.trials,
        seed=args.seed,
    )
    result = run_experiment(cfg, measure_time=not args.no_timing)
    out = _open_out(args.out)
    if args.format == "csv":
        write_csv(result, out)
    else:
        write_json(result, out)
    if out is not sys.stdout:
        out.close()


def _add_substrate_args(p, require_edges=False):
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--topology", choices=["random", "complete", "cycle", "path"], default="random")
    p.add_argument("--edges", type=int, default=None, help="edge count (random topology)")
    p.add_argument("--cpu-capacity", type=int, default=100)
    p.add_argument("--bw-capacity", type=int, default=100)


def _add_request_args(p):
    p.add_argument("--shape", choices=["path", "cycle"], default="path")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--length-min", type=int, default=5)
    p.add_argument("--length-max", type=int, default=10)
    p.add_argument("--demand-min", type=int, default=1)
    p.add_argument("--demand-max", type=int, default=5)
    p.add_argument("--revenue", choices=["unit", "proportional"], default="unit")


def build_parser():
    parser = argparse.ArgumentParser(prog="pcvne", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance JSON")
    _add_substrate_args(p)
    _add_request_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed-paths", help="run the path pipeline on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mkp-mode", choices=["greedy", "exact"], default="greedy")
    p.add_argument("--mdkp-mode", choices=["greedy", "exact"], default="greedy")
    p.add_argument("--trace", default=None, help="write per-iteration JSON lines here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_embed_paths)

    p = sub.add_parser("embed-cycles", help="run the ring embedder on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--no-fallback", action="store_true", help="skip the generic fallback pass")
    p.add_argument("--dump-wdag", default=None, help="write every constructed auxiliary graph here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_embed_cycles)

    p = sub.add_parser("embed-generic", help="run the generic baseline on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--smooth", action="store_true", help="one neighbor-averaging round on node scores")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_embed_generic)

    p = sub.add_parser("verify-theory", help="exhaustive small-graph sweeps")
    p.add_argument("--max-nodes", type=int, default=5)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--sample-nodes", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("experiment", help="seeded repeated trials with CI aggregation")
    _add_substrate_args(p)
    _add_request_args(p)
    p.add_argument("--algorithms", default="pe,generic", help="comma list from pe,gr,generic")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--no-timing", action="store_true",
                   help="write 0 for wall_ms so output is byte-reproducible")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
