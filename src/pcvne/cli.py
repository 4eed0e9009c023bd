"""Command line interface: instance generation, the three embedders, and the
experiment runner."""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import contextmanager

from . import jsonio
from .baseline import generic_batch
from .cycle_embedding import greedy_revenue
from .experiment import EMBEDDERS, ExperimentConfig, run_experiment, trial_seeds, write_csv, write_json
from .generators import RequestSpec, SubstrateSpec, gen_requests, gen_substrate
from .model import ModelError, Shape, batch_metrics
from .path_embedding import procedure_pe


@contextmanager
def _open_out(path):
    """The output stream for `path`: stdout for "-", nothing for None, else a
    buffer that goes to the file only once the run succeeds, so a refused run
    leaves the file as it was. Whether the file can be written is tried on
    entry, changing nothing, so an unwritable path fails before any work."""
    if path in (None, "-"):
        yield sys.stdout if path == "-" else None
        return
    try:
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise ModelError(f"cannot write {path!r}: {exc.strerror}") from None
    buf = io.StringIO()
    yield buf
    try:
        with open(path, "w") as fp:
            fp.write(buf.getvalue())
    except OSError as exc:
        raise ModelError(f"cannot write {path!r}: {exc.strerror}") from None


def _refuse_shared_output(out, flag, path):
    """Refuse --out and `flag` naming one file, which would keep only the report."""
    if path not in (None, "-") and out != "-" and os.path.realpath(out) == os.path.realpath(path):
        raise ModelError(f"--out and {flag} name the same file {path!r}")


def _load(path):
    if path == "-":
        return jsonio.load_instance(sys.stdin)
    try:
        fp = open(path)
    except OSError as exc:
        raise ModelError(f"cannot open instance {path!r}: {exc.strerror}") from None
    with fp:
        return jsonio.load_instance(fp)


def _emit_batch(out, algorithm, batch, total):
    ratio, revenue = batch_metrics(batch, total)
    try:
        revenue = float(revenue)
    except OverflowError:  # exact revenues are unbounded; the report's float is not
        raise ModelError("revenue: the accepted requests' total is too large for a float") from None
    payload = {
        "algorithm": algorithm,
        "accepted": batch.accepted_ids(),
        "total_requests": total,
        "acceptance_ratio": float(ratio),
        "revenue": revenue,
        "embeddings": [jsonio.embedding_to_dict(req, emb) for req, emb in batch.items],
    }
    jsonio.dump_json(payload, out)


def _specs(args):
    """The substrate and request specs that the generate and experiment flags name."""
    return (SubstrateSpec(n_nodes=args.nodes, topology=args.topology, n_edges=args.edges,
                          cpu_capacity=args.cpu_capacity, bw_capacity=args.bw_capacity),
            RequestSpec(shape=args.shape, count=args.count,
                        length_range=(args.length_min, args.length_max),
                        demand_range=(args.demand_min, args.demand_max),
                        revenue_rule=args.revenue))


def cmd_generate(args):
    sub, req = _specs(args)
    [(s_sub, s_req)] = trial_seeds(args.seed, 1)
    with _open_out(args.out) as out:
        jsonio.dump_instance(gen_substrate(sub, s_sub), gen_requests(req, s_req), out)


def cmd_embed_paths(args):
    _refuse_shared_output(args.out, "--trace", args.trace)
    net, requests = _load(args.instance)
    for r in requests:
        if r.shape is not Shape.PATH:
            raise ModelError(f"request {r.req_id!r} is not a path; embed-paths handles path requests only")
    with _open_out(args.out) as out, _open_out(args.trace) as trace_fp:
        trace = [] if trace_fp else None
        batch = procedure_pe(net, requests, mkp_mode=args.mkp_mode, mdkp_mode=args.mdkp_mode, trace=trace)
        if trace_fp:
            for rec in trace:
                trace_fp.write(json.dumps(rec) + "\n")
        _emit_batch(out, "pe", batch, len(requests))


def cmd_embed_cycles(args):
    _refuse_shared_output(args.out, "--dump-wdag", args.dump_wdag)
    net, requests = _load(args.instance)
    for r in requests:
        if r.shape is not Shape.CYCLE:
            raise ModelError(f"request {r.req_id!r} is not a cycle; embed-cycles handles cycle requests only")
    with _open_out(args.out) as out, _open_out(args.dump_wdag) as dump_fp:
        trace = [] if dump_fp else None
        batch = greedy_revenue(net, requests, fallback=not args.no_fallback, trace=trace)
        if dump_fp:
            jsonio.dump_json(trace, dump_fp)
        _emit_batch(out, "gr", batch, len(requests))


def cmd_embed_generic(args):
    net, requests = _load(args.instance)
    with _open_out(args.out) as out:
        batch = generic_batch(net, requests)
        _emit_batch(out, "generic", batch, len(requests))


def cmd_experiment(args):
    sub, req = _specs(args)
    cfg = ExperimentConfig(
        substrate=sub, requests=req,
        algorithms=args.algorithms.split(","),
        trials=args.trials,
        seed=args.seed,
    )
    with _open_out(args.out) as out:
        result = run_experiment(cfg, measure_time=not args.no_timing)
        if args.format == "csv":
            write_csv(result, out)
        else:
            write_json(result, out)


def _add_substrate_args(p):
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
    p.add_argument("--no-fallback", action="store_true", help="skip the generic pass over the ring solver's leftovers")
    p.add_argument("--dump-wdag", default=None, help="write every constructed auxiliary graph here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_embed_cycles)

    p = sub.add_parser("embed-generic", help="run the generic baseline on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_embed_generic)

    p = sub.add_parser("experiment", help="seeded repeated trials with CI aggregation")
    _add_substrate_args(p)
    _add_request_args(p)
    p.add_argument("--algorithms", default="pe,generic", help=f"comma list from {','.join(EMBEDDERS)}")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--no-timing", action="store_true",
                   help="write 0 for wall_ms so output is byte-reproducible")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None, parser=None):
    """Run the command that `parser` (pcvne's by default) reads off `argv`."""
    args = (parser or build_parser()).parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:
        # reader gone (`| head`): stdout to devnull, so the exit flush cannot fail (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:
        # stdout write failed (`> /dev/full`): the same devnull swap, then a clean error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
