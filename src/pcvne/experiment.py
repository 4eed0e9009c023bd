"""Trial orchestration: seeded instance generation, algorithm runs on private
network copies, per-trial metrics and aggregate 95% confidence intervals."""

from __future__ import annotations

import csv
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .baseline import generic_batch
from .cycle_embedding import greedy_revenue
from .generators import RequestSpec, SpecError, SubstrateSpec, gen_requests, gen_substrate
from .jsonio import dump_json
from .model import Shape, audit_residuals, batch_metrics
from .path_embedding import procedure_pe

# label -> (request shape it embeds, substrate topology it needs, call); None is "any"
EMBEDDERS = {
    "pe": (Shape.PATH, None, procedure_pe),
    "gr": (Shape.CYCLE, "cycle", greedy_revenue),
    "generic": (None, None, generic_batch),
}


class ConfigError(SpecError):
    pass


@dataclass
class ExperimentConfig:
    substrate: SubstrateSpec
    requests: RequestSpec
    algorithms: list
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trial count must be at least 1")
        if not self.algorithms:
            raise ConfigError("select at least one algorithm")
        for a in self.algorithms:
            if a not in EMBEDDERS:
                raise ConfigError(f"unknown algorithm {a!r} (have {tuple(EMBEDDERS)})")
            if self.algorithms.count(a) > 1:
                raise ConfigError(f"algorithm {a!r} given twice")
        try:
            shape = Shape(self.requests.shape)
        except ValueError:
            raise ConfigError(f"unknown request shape {self.requests.shape!r}") from None
        for a in self.algorithms:
            embeds, needs, _call = EMBEDDERS[a]
            if embeds not in (None, shape):
                raise ConfigError(f"{a} embeds {embeds.value} requests only")
            if needs not in (None, self.substrate.topology):
                raise ConfigError(f"{a} needs a {needs} substrate")


@dataclass
class TrialRow:
    trial: int
    algorithm: str
    acceptance_ratio: Fraction
    revenue: object
    wall_ms: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list = field(default_factory=list)

    def aggregates(self):
        """Per algorithm: (metric -> (mean, ci95 half-width)) as floats."""
        out = {}
        for alg in self.config.algorithms:
            sample = [r for r in self.rows if r.algorithm == alg]
            out[alg] = {
                "acceptance_ratio": mean_ci([float(r.acceptance_ratio) for r in sample]),
                "revenue": mean_ci([float(r.revenue) for r in sample]),
                "wall_ms": mean_ci([r.wall_ms for r in sample]),
            }
        return out


# Two-sided 95% Student-t critical values t(0.975, df), df = 1..28 (n < 30 samples).
_T95 = (
    12.70620474, 4.30265273, 3.182446305, 2.776445105, 2.570581836, 2.446911851,
    2.364624252, 2.306004135, 2.262157163, 2.228138852, 2.20098516, 2.17881283,
    2.160368656, 2.144786688, 2.131449546, 2.119905299, 2.109815578, 2.10092204,
    2.093024054, 2.085963447, 2.079613845, 2.073873068, 2.06865761, 2.063898562,
    2.059538553, 2.055529439, 2.051830516, 2.048407142,
)


def mean_ci(values):
    """Sample mean and 95% CI half-width. Student-t below 30 samples, normal
    above; a single sample has half-width 0 by definition."""
    n = len(values)
    if n == 0:
        return (0.0, 0.0)
    mean = statistics.fmean(values)
    if n == 1:
        return (mean, 0.0)
    s = statistics.stdev(values)
    crit = _T95[n - 2] if n < 30 else statistics.NormalDist().inv_cdf(0.975)
    return (mean, crit * s / n ** 0.5)


def trial_seeds(seed, trials):
    """Each trial's (substrate seed, request seed), drawn from the master seed."""
    rng = random.Random(seed)
    return [(rng.randrange(2 ** 31), rng.randrange(2 ** 31)) for _ in range(trials)]


def run_experiment(cfg, measure_time=True):
    """Run cfg.trials independent trials. Each trial generates a fresh
    substrate and workload from its `trial_seeds`, runs every selected
    algorithm on its own residual copy, validates the batch, and audits
    residual conservation. Deterministic given the master seed (wall_ms
    excepted, and zeroed when measure_time is off)."""
    result = ExperimentResult(config=cfg)
    for t, (s_sub, s_req) in enumerate(trial_seeds(cfg.seed, cfg.trials)):
        base_net = gen_substrate(cfg.substrate, s_sub)
        requests = gen_requests(cfg.requests, s_req)
        for alg in cfg.algorithms:
            net = base_net.copy()
            t0 = time.perf_counter()
            batch = EMBEDDERS[alg][2](net, requests)
            wall_ms = (time.perf_counter() - t0) * 1000.0 if measure_time else 0.0
            ok, violations = batch.validate_against(net)
            if not ok:
                raise AssertionError(f"batch failed validation: {violations}")
            audit_residuals(net, [batch])
            ratio, revenue = batch_metrics(batch, len(requests))
            result.rows.append(TrialRow(trial=t, algorithm=alg, acceptance_ratio=ratio,
                                        revenue=revenue, wall_ms=wall_ms))
    return result


def _fmt(x):
    return repr(float(x)) if isinstance(x, Fraction) else str(x)


CSV_COLUMNS = ("trial", "algorithm", "acceptance_ratio", "revenue", "wall_ms")


def write_csv(result, fp):
    """Per-trial rows followed by per-algorithm aggregate rows whose trial
    column reads "mean" and "ci95"."""
    w = csv.writer(fp)
    w.writerow(CSV_COLUMNS)
    for r in result.rows:
        w.writerow([r.trial, r.algorithm, _fmt(r.acceptance_ratio),
                    _fmt(r.revenue), _fmt(round(r.wall_ms, 3))])
    agg = result.aggregates()
    for alg in result.config.algorithms:
        a = agg[alg]
        w.writerow(["mean", alg, _fmt(a["acceptance_ratio"][0]),
                    _fmt(a["revenue"][0]), _fmt(round(a["wall_ms"][0], 3))])
        w.writerow(["ci95", alg, _fmt(a["acceptance_ratio"][1]),
                    _fmt(a["revenue"][1]), _fmt(round(a["wall_ms"][1], 3))])


def write_json(result, fp):
    agg = result.aggregates()
    payload = {
        "rows": [
            {"trial": r.trial, "algorithm": r.algorithm,
             "acceptance_ratio": float(r.acceptance_ratio),
             "revenue": float(r.revenue), "wall_ms": round(r.wall_ms, 3)}
            for r in result.rows
        ],
        "aggregates": {
            alg: {metric: {"mean": v[0], "ci95": v[1]} for metric, v in a.items()}
            for alg, a in agg.items()
        },
    }
    dump_json(payload, fp)
