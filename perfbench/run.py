#!/usr/bin/env python3
"""pcvne benchmark: the three embedders on seeded instances, timed end to end.

    python3 perfbench/run.py --workload path-light --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout; imports `pcvne` from `src/` and
nothing else outside the standard library. One process, one thread.

Set-up (import, generation, JSON dump and load, as the CLI reads instances)
is repeated and its median reported as `setup_s`. Then the run visits the
instances round robin until `--seconds` have passed and every instance was
visited once. A visit calls each of the workload's two embedders (the
paper's method and the generic baseline) on a private `net.copy()`, timing
only the call; cheap calls repeat within a visit to collect samples. Every
call is checked after the clock stops: batch validation against capacities,
exact residual audit, request ids and quantities against the generated
instance, and the same accepted ids as the first call on that instance. A
call that raises or fails a check counts in `failed`; the run never aborts.

Wall times are rescaled to a nominal host speed by `hostspeed.SpeedProbe`.

With `--trace 1` each visit makes one traced call per embedder (the first
visit also an untraced twin, for the overhead ratio), and the per-layer
metrics come from the traced calls' spans.

The last stdout line is the result object; the line before it is a run
record with the environment, sample counts and the accepted-id digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

MIN_VISIT_S = 0.5       # a cheap embedder repeats until its visit lasts this long
MIN_SETUP_REPEATS = 3   # set-up runs at least this often...
MIN_SETUP_S = 1.0       # ...and until this much set-up time has accumulated
MAX_SETUP_REPEATS = 25


def embed_pe(pkg, net, requests, fallback):
    return pkg.path_embedding.procedure_pe(net, requests)


def embed_gr(pkg, net, requests, fallback):
    return pkg.cycle_embedding.greedy_revenue(net, requests, fallback=fallback)


def embed_generic(pkg, net, requests, fallback):
    return pkg.baseline.generic_batch(net, requests)


@dataclass(frozen=True)
class Workload:
    """Instance family plus the paper's embedder for its request shape.
    `substrate` and `requests` are SubstrateSpec / RequestSpec keyword
    arguments; the other spec fields keep the package defaults (lengths
    5-10, demands 1-5, capacity 100)."""

    name: str
    substrate: dict
    requests: dict
    instances: int
    method_name: str
    method: object


WORKLOADS = {
    w.name: w for w in (
        # Under-subscribed: pe stops with free capacity, generic accepts all.
        # Small knapsacks, so per-iteration fixed costs dominate.
        Workload("path-light", dict(n_nodes=30, topology="random", n_edges=150),
                 dict(shape="path", count=100), 12, "pe", embed_pe),
        # Over-subscribed: MDKP over 600 dimensions, about 2900 BFS routes
        # per generic run; dense-vs-sparse knapsack and routing show here.
        Workload("path-oversub", dict(n_nodes=100, topology="random", n_edges=500),
                 dict(shape="path", count=1000), 9, "pe", embed_pe),
        # Ring solver: 6000 layered digraphs per instance, no decomposition
        # and no knapsack, so it bypasses every path-side change.
        Workload("ring", dict(n_nodes=30, topology="cycle"),
                 dict(shape="cycle", count=100, revenue_rule="proportional"), 6, "gr", embed_gr),
    )
}

END_TO_END = {
    "setup_s": "s",
    "method.solve_s": "s",
    "generic.solve_s": "s",
    "method.acceptance": "ratio",
    "generic.acceptance": "ratio",
    "method.revenue": "rev/instance",
    "peak_rss_mb": "MB",
}

# Span names whose self time is reported, in seconds per instance visit.
SELF_TIMED = (
    "path_embedding.procedure_pe", "path_embedding.decompose_paths",
    "path_embedding.pack_mkp", "path_embedding.assign_mdkp",
    "knapsack.solve_mkp", "knapsack.solve_mdkp",
    "cycle_embedding.greedy_revenue", "cycle_embedding.c2ce",
    "cycle_embedding.feasible_sets", "cycle_embedding.build_wdag",
    "cycle_embedding.min_weight_cycle", spans.FALLBACK,
    "baseline.generic_batch", "baseline.generic_embed",
    "baseline.node_scores", "baseline.route", "model.commit",
)
SETUP_PARTS = ("import", "generators", "jsonio.dump_instance", "jsonio.load_instance")

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "path_embedding.iterations": "count",
    "path_embedding.paths": "count",
    "path_embedding.packed": "count",
    "path_embedding.funded": "count",
    "path_embedding.fund_ratio": "ratio",
    "cycle_embedding.build_wdag.calls": "count",
    "cycle_embedding.wdag_arcs": "count",
    "cycle_embedding.min_weight_cycle.calls": "count",
    "cycle_embedding.c2ce.found_ratio": "ratio",
    "cycle_embedding.fallback.calls": "count",
    "cycle_embedding.fallback.found_ratio": "ratio",
    "baseline.route.calls": "count",
    "baseline.generic_embed.found_ratio": "ratio",
    "model.commit.calls": "count",
    **{f"{part}.self_s": "s" for part in SETUP_PARTS},
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program source to import)."""


def import_program():
    """Import `pcvne` afresh from this checkout's `src/`."""
    if not (SRC / "pcvne" / "__init__.py").is_file():
        raise BenchError(f"no pcvne source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pcvne" or m.startswith("pcvne.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pcvne")
    importlib.import_module("pcvne.jsonio")  # not imported by the package itself
    if Path(pkg.__file__).resolve().parent != SRC / "pcvne":
        raise BenchError(f"pcvne imported from {pkg.__file__}, not from {SRC}")
    return pkg


def fingerprint(req):
    return (req.req_id, req.shape.value, tuple(req.vns), tuple(req.vls),
            tuple(req.cpu_demand.items()), tuple(req.bw_demand.items()), req.revenue)


def net_fingerprint(net):
    return (tuple(net.nodes), tuple(net.edges),
            tuple(net.cpu_capacity.items()), tuple(net.bw_capacity.items()))


@dataclass
class Instance:
    net: object          # loaded from JSON; embedders get copies
    requests: list       # loaded from JSON
    originals: dict      # request id -> fingerprint of the generated request
    roundtrip_ok: bool   # JSON load gave back the generated instance


def setup_once(probe, pkg_loader, workload, seed):
    """Import, generate and JSON round-trip every instance of a run. Returns
    the package, the instances and the nominal seconds of each set-up part."""
    parts = dict.fromkeys(SETUP_PARTS, 0.0)

    def timed(part, fn, *args):
        result, start, end, busy = probe.time(fn, *args)
        parts[part] += busy * probe.scale(start, end)
        return result

    pkg = timed("import", pkg_loader)
    sub_spec = pkg.SubstrateSpec(**workload.substrate)
    req_spec = pkg.RequestSpec(**workload.requests)
    rng = random.Random(seed)
    instances = []
    for _ in range(workload.instances):
        s_sub, s_req = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        net, requests = timed("generators", lambda: (pkg.gen_substrate(sub_spec, s_sub),
                                                     pkg.gen_requests(req_spec, s_req)))
        buf = io.StringIO()
        timed("jsonio.dump_instance", pkg.jsonio.dump_instance, net, requests, buf)
        buf.seek(0)
        loaded_net, loaded_requests = timed("jsonio.load_instance", pkg.jsonio.load_instance, buf)
        originals = [fingerprint(r) for r in requests]
        roundtrip_ok = (net_fingerprint(loaded_net) == net_fingerprint(net)
                        and [fingerprint(r) for r in loaded_requests] == originals)
        instances.append(Instance(loaded_net, loaded_requests,
                                  {fp[0]: fp for fp in originals}, roundtrip_ok))
    return pkg, instances, parts


def setup(probe, workload, seed, pkg_loader=import_program):
    """Repeat set-up; keep the last result and the median time of each part
    and of the whole."""
    samples = []
    spent = 0.0
    while len(samples) < MAX_SETUP_REPEATS and (len(samples) < MIN_SETUP_REPEATS or spent < MIN_SETUP_S):
        pkg, instances, parts = setup_once(probe, pkg_loader, workload, seed)
        samples.append(parts)
        spent += sum(parts.values())
    medians = {p: statistics.median(s[p] for s in samples) for p in SETUP_PARTS}
    total = statistics.median(sum(s.values()) for s in samples)
    return pkg, instances, total, medians


def check_call(pkg, inst, net, batch):
    """Problems found in one embedder result, as strings (empty if none)."""
    problems = []
    if not inst.roundtrip_ok:
        problems.append("JSON round trip changed the instance")
    ok, violations = batch.validate_against(net)
    if not ok:
        problems.append(f"validation: {violations[0]}")
    try:
        pkg.model.audit_residuals(net, [batch])
        net.check_residual_bounds()
    except pkg.ModelError as exc:
        problems.append(f"audit: {exc}")
    ids = batch.accepted_ids()
    if len(set(ids)) != len(ids):
        problems.append("a request was accepted twice")
    for req, _emb in batch.items:
        if inst.originals.get(req.req_id) != fingerprint(req):
            problems.append(f"request {req.req_id!r} does not match the generated request")
            break
    return problems


@dataclass
class RoleStats:
    """Results of one embedder role across the instances of a run."""

    calls: list           # per instance: (start, end, busy) of each passing call
    first: list           # per instance: (accepted ids, revenue) of the first passing call
    traced_s: float = 0.0
    untraced_s: float = 0.0

    @classmethod
    def empty(cls, n):
        return cls([[] for _ in range(n)], [None] * n)


class Run:
    """One benchmark run: the instances, the host speed probe and the
    failure counters."""

    def __init__(self, pkg, instances, probe, tracer=None):
        self.pkg = pkg
        self.instances = instances
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, role, stats, k, embed, traced=False):
        """Time one embedder call on a copy of instance k and check it.
        Returns its (start, end, busy) timing, or None if it failed."""
        pkg, inst = self.pkg, self.instances[k]
        net = inst.net.copy()
        self.attempted += 1
        if traced:
            self.tracer.install(pkg)
        fallback = self.tracer.fallback if traced else pkg.baseline.generic_embed
        try:
            batch, *timing = self.probe.time(embed, pkg, net, inst.requests, fallback)
        except Exception:  # noqa: BLE001 - a failing call is counted, not fatal
            return self._fail(role, k, traceback.format_exc(limit=3))
        finally:
            if traced:
                self.tracer.remove()
        try:
            problems = check_call(pkg, inst, net, batch)
            result = (batch.accepted_ids(), batch.revenue)
        except Exception:  # noqa: BLE001 - a broken batch can break the checker
            return self._fail(role, k, traceback.format_exc(limit=3))
        if stats.first[k] is None:
            if not problems:
                stats.first[k] = result
        elif result[0] != stats.first[k][0]:
            problems.append("accepted ids differ from the first call on this instance")
        if problems:
            return self._fail(role, k, "; ".join(problems))
        return tuple(timing)

    def _fail(self, role, k, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{role} on instance {k}: {message}")
        return None

    def visit(self, role, stats, k, embed, trace, twin=False):
        """All calls of one embedder on instance k in one visit. A traced
        visit makes one traced call, preceded by an untraced twin if asked."""
        gc.collect()
        if trace:
            untraced = self.call(role, stats, k, embed) if twin else None
            traced = self.call(role, stats, k, embed, traced=True)
            if traced is not None:
                stats.calls[k].append(traced)
            if untraced is not None and traced is not None:
                stats.untraced_s += untraced[2] * self.probe.scale(*untraced[:2])
                stats.traced_s += traced[2] * self.probe.scale(*traced[:2])
            return
        visit_start = time.perf_counter()
        while True:
            timing = self.call(role, stats, k, embed)
            if timing is not None:
                stats.calls[k].append(timing)
            if time.perf_counter() - visit_start >= MIN_VISIT_S:
                break

    def instance_solve_s(self, stats):
        """Per instance: the median nominal seconds of its calls, or None."""
        return [statistics.median(busy * self.probe.scale(start, end) for start, end, busy in calls)
                if calls else None for calls in stats.calls]


def _mean(values):
    """Mean of the values that are not None; 0.0 if there are none."""
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else 0.0


def _digest(first):
    ids = [None if f is None else f[0] for f in first]
    return hashlib.sha256(json.dumps(ids, default=repr).encode()).hexdigest()


def run_workload(workload, seed, seconds, trace, pkg_loader=import_program):
    """Set up, measure and check one run. Returns (result, record, tracer)."""
    with hostspeed.SpeedProbe() as probe:
        run_start = time.perf_counter()
        pkg, instances, setup_s, setup_parts = setup(probe, workload, seed, pkg_loader)
        tracer = spans.Tracer() if trace else None
        run = Run(pkg, instances, probe, tracer)
        roles = {"method": workload.method, "generic": embed_generic}
        stats = {role: RoleStats.empty(len(instances)) for role in roles}
        visits = 0
        start = time.perf_counter()
        while visits < len(instances) or time.perf_counter() - start < seconds:
            for role, embed in roles.items():
                # the first visit also times an untraced twin for the overhead ratio
                run.visit(role, stats[role], visits % len(instances), embed, trace, twin=visits == 0)
            visits += 1
        run_end = time.perf_counter()

    offered = sum(len(inst.requests) for inst in instances)

    def acceptance(role):
        return sum(len(f[0]) for f in stats[role].first if f is not None) / offered

    scale = probe.scale(run_start, run_end)
    solve_s = {role: run.instance_solve_s(stats[role]) for role in roles}
    if trace:
        metrics = layer_metrics(tracer, visits, stats, setup_parts, len(instances), scale)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "method.solve_s": _mean(solve_s["method"]),
            "generic.solve_s": _mean(solve_s["generic"]),
            "method.acceptance": acceptance("method"),
            "generic.acceptance": acceptance("generic"),
            "method.revenue": _mean([None if f is None else float(f[1]) for f in stats["method"].first]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    keys = {"method": f"{workload.name}/{workload.method_name}", "generic": f"{workload.name}/generic"}
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "instances": len(instances),
        "substrate": workload.substrate,
        "requests": workload.requests,
        "visits": visits,
        "host_scale": scale,
        "probe_samples": len(probe.durations),
        "samples": {keys[r]: sum(map(len, stats[r].calls)) for r in roles},
        "wall_solve_s": {keys[r]: statistics.median(c[2] for calls in stats[r].calls for c in calls)
                         if any(stats[r].calls) else None for r in roles},
        "solve_s": {keys[r]: solve_s[r] for r in roles},
        "accepted": {keys[r]: [None if f is None else len(f[0]) for f in stats[r].first] for r in roles},
        "digests": {keys[r]: _digest(stats[r].first) for r in roles},
        "failures": run.failures,
    }
    return result, record, tracer


def layer_metrics(tracer, visits, stats, setup_parts, n_instances, scale):
    """Per-layer metrics of a traced run, per instance visit (one traced
    call of each embedder) unless they are ratios. Self times are rescaled
    to the nominal host speed by the run's mean scale factor."""
    self_s = {name: t * scale for name, t in tracer.self_seconds().items()}
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1

    def per_visit(x):
        return x / visits

    def ratio(num, den):
        return num / den if den else 0.0

    packed = tracer.count("path_embedding.pack_mkp", "packed")
    funded = tracer.count("path_embedding.assign_mdkp", "funded")
    metrics = {f"{name}.self_s": per_visit(self_s.get(name, 0.0)) for name in SELF_TIMED}
    metrics.update({
        "path_embedding.iterations": per_visit(calls.get("path_embedding.decompose_paths", 0)),
        "path_embedding.paths": per_visit(tracer.count("path_embedding.decompose_paths", "paths")),
        "path_embedding.packed": per_visit(packed),
        "path_embedding.funded": per_visit(funded),
        "path_embedding.fund_ratio": ratio(funded, packed),
        "cycle_embedding.build_wdag.calls": per_visit(calls.get("cycle_embedding.build_wdag", 0)),
        "cycle_embedding.wdag_arcs": per_visit(tracer.count("cycle_embedding.build_wdag", "arcs")),
        "cycle_embedding.min_weight_cycle.calls": per_visit(calls.get("cycle_embedding.min_weight_cycle", 0)),
        "cycle_embedding.c2ce.found_ratio": ratio(tracer.count("cycle_embedding.c2ce", "found"),
                                                  calls.get("cycle_embedding.c2ce", 0)),
        "cycle_embedding.fallback.calls": per_visit(calls.get(spans.FALLBACK, 0)),
        "cycle_embedding.fallback.found_ratio": ratio(tracer.count(spans.FALLBACK, "found"),
                                                      calls.get(spans.FALLBACK, 0)),
        "baseline.route.calls": per_visit(calls.get("baseline.route", 0)),
        "baseline.generic_embed.found_ratio": ratio(tracer.count("baseline.generic_embed", "found"),
                                                    calls.get("baseline.generic_embed", 0)),
        "model.commit.calls": per_visit(calls.get("model.commit", 0)),
        "trace.overhead_ratio": ratio(sum(s.traced_s for s in stats.values()),
                                      sum(s.untraced_s for s in stats.values())),
    })
    # the import happens once per set-up, the other parts once per instance
    for part in SETUP_PARTS:
        metrics[f"{part}.self_s"] = setup_parts[part] / (1 if part == "import" else n_instances)
    return metrics


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record, tracer = run_workload(WORKLOADS[args.workload], args.seed,
                                              args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fp:
            tracer.dump(fp)
        record["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"run": {**record, **environment()}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
