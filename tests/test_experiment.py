import io
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcvne.baseline import generic_batch
from pcvne.cycle_embedding import greedy_revenue
from pcvne.experiment import (
    EMBEDDERS,
    ConfigError,
    ExperimentConfig,
    _T95,
    mean_ci,
    run_experiment,
    write_csv,
    write_json,
)
from pcvne.generators import RequestSpec, SpecError, SubstrateSpec, gen_requests, gen_substrate
from pcvne.model import ModelError
from pcvne.path_embedding import procedure_pe


def small_cfg(**overrides):
    base = dict(
        substrate=SubstrateSpec(n_nodes=10, topology="random", n_edges=16),
        requests=RequestSpec(shape="path", count=6, length_range=(2, 4)),
        algorithms=["pe", "generic"],
        trials=3,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_CYCLES = RequestSpec(shape="cycle", count=3, length_range=(3, 4))
_RING = SubstrateSpec(n_nodes=8, topology="cycle")


class TestConfig:
    def test_pe_requires_paths(self):
        with pytest.raises(ConfigError):
            small_cfg(requests=RequestSpec(shape="cycle", count=3, length_range=(3, 4)))

    def test_gr_requires_cycle_substrate(self):
        with pytest.raises(ConfigError):
            small_cfg(algorithms=["gr"],
                      requests=RequestSpec(shape="cycle", count=3, length_range=(3, 4)))

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            small_cfg(algorithms=["pe", "magic"])

    def test_unknown_request_shape(self):
        with pytest.raises(ConfigError, match="unknown request shape 'tree'"):
            small_cfg(algorithms=["generic"], requests=RequestSpec(shape="tree"))

    def test_zero_trials(self):
        with pytest.raises(ConfigError):
            small_cfg(trials=0)

    @pytest.mark.parametrize("overrides, message", [
        (dict(algorithms=["pe", "magic"]), "unknown algorithm 'magic' (have ('pe', 'gr', 'generic'))"),
        (dict(requests=_CYCLES), "pe embeds path requests only"),
        (dict(algorithms=["gr"], substrate=_RING), "gr embeds cycle requests only"),
        (dict(algorithms=["gr"], requests=_CYCLES), "gr needs a cycle substrate"),
        (dict(algorithms=[]), "select at least one algorithm"),
        (dict(trials=0), "trial count must be at least 1"),
        # one config, two broken rules: the labels are checked in the order given
        (dict(algorithms=["gr", "pe"], requests=_CYCLES), "gr needs a cycle substrate"),
        (dict(algorithms=["pe", "gr"], requests=_CYCLES), "pe embeds path requests only"),
        # a repeated label used to write its rows twice and pool both copies into one ci95
        (dict(algorithms=["generic", "pe", "generic"]), "algorithm 'generic' given twice"),
    ])
    def test_messages(self, overrides, message):
        with pytest.raises(ConfigError) as exc:
            small_cfg(**overrides)
        assert str(exc.value) == message


class TestMeanCi:
    def test_single_sample_has_zero_halfwidth(self):
        assert mean_ci([4.0]) == (4.0, 0.0)

    def test_small_sample_uses_wider_interval(self):
        # Student-t critical values exceed the normal ones below 30 samples
        small = mean_ci([1.0, 2.0, 3.0, 4.0, 5.0])
        big = mean_ci([1.0, 2.0, 3.0, 4.0, 5.0] * 8)
        assert small[1] > 0
        sd = statistics.stdev([1.0, 2.0, 3.0, 4.0, 5.0])
        assert small[1] == pytest.approx(2.7764451052 * sd / 5 ** 0.5, rel=1e-6)
        assert big[1] < small[1]

    def test_t_table_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        assert len(_T95) == 28
        for df, crit in enumerate(_T95, start=1):
            assert crit == pytest.approx(stats.t.ppf(0.975, df), rel=1e-9)

    @pytest.mark.parametrize("n, crit", [
        (29, 2.048407142),  # t(0.975, 28), the table's last entry
        (30, statistics.NormalDist().inv_cdf(0.975)),
    ])
    def test_t_table_ends_below_30_samples(self, n, crit):
        values = [float(i % 5) for i in range(n)]
        assert mean_ci(values)[1] == crit * statistics.stdev(values) / n ** 0.5


class TestRunExperiment:
    def test_rows_and_aggregates(self):
        result = run_experiment(small_cfg(), measure_time=False)
        assert len(result.rows) == 3 * 2
        agg = result.aggregates()
        assert set(agg) == {"pe", "generic"}
        for metrics in agg.values():
            mean, ci = metrics["acceptance_ratio"]
            assert 0 <= mean <= 1 and ci >= 0

    def test_deterministic_given_seed(self):
        a = run_experiment(small_cfg(), measure_time=False)
        b = run_experiment(small_cfg(), measure_time=False)
        out_a, out_b = io.StringIO(), io.StringIO()
        write_csv(a, out_a)
        write_csv(b, out_b)
        assert out_a.getvalue() == out_b.getvalue()

    def test_single_trial_ci_zero(self):
        result = run_experiment(small_cfg(trials=1), measure_time=False)
        agg = result.aggregates()
        assert agg["pe"]["acceptance_ratio"][1] == 0.0

    def test_gr_on_ring(self):
        cfg = ExperimentConfig(
            substrate=SubstrateSpec(n_nodes=8, topology="cycle"),
            requests=RequestSpec(shape="cycle", count=4, length_range=(3, 5)),
            algorithms=["gr", "generic"],
            trials=2,
            seed=3,
        )
        result = run_experiment(cfg, measure_time=False)
        assert len(result.rows) == 4

    def test_general_shape_stops_at_trial_zero(self, monkeypatch):
        # the config accepts it (generic embeds any shape); gen_requests refuses
        # it before any embedder runs, so no row is written
        cfg = small_cfg(algorithms=["generic"], requests=RequestSpec(shape="general"))
        monkeypatch.setitem(EMBEDDERS, "generic", (None, None, None))
        with pytest.raises(SpecError) as exc:
            run_experiment(cfg, measure_time=False)
        assert str(exc.value) == "gen_requests makes 'path' and 'cycle' requests, not 'general'"

    def test_json_output_shape(self):
        result = run_experiment(small_cfg(trials=2), measure_time=False)
        buf = io.StringIO()
        write_json(result, buf)
        import json

        payload = json.loads(buf.getvalue())
        assert len(payload["rows"]) == 4
        assert "pe" in payload["aggregates"]
        assert "mean" in payload["aggregates"]["pe"]["revenue"]


class TestRequestsReadOnce:
    # every embedder reads `requests` once, so a one-shot iterator embeds
    # what the same list does instead of an empty batch
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(6, 12), st.integers(1, 12))
    def test_property_list_tuple_and_generator_give_one_batch(self, seed, m, count):
        capacity = dict(cpu_capacity=12, bw_capacity=12)
        paths = (gen_substrate(SubstrateSpec(n_nodes=m, n_edges=m + 3, **capacity), seed),
                 gen_requests(RequestSpec(shape="path", count=count, length_range=(1, 4)), seed + 1))
        ring = (gen_substrate(SubstrateSpec(n_nodes=m, topology="cycle", **capacity), seed),
                gen_requests(RequestSpec(shape="cycle", count=count, length_range=(3, 5)), seed + 1))
        embedders = [(procedure_pe, paths), (generic_batch, paths), (generic_batch, ring),
                     (lambda net, reqs: greedy_revenue(net, reqs, fallback=False), ring), (greedy_revenue, ring)]
        for embed, (net, reqs) in embedders:
            views = [[(req.req_id, emb) for req, emb in embed(net.copy(), form).items]
                     for form in (reqs, tuple(reqs), (req for req in reqs))]
            assert views[1] == views[0] and views[2] == views[0]


_EMBEDDERS = {
    "procedure_pe": (procedure_pe, "path"),
    "generic_batch-path": (generic_batch, "path"),
    "generic_batch-cycle": (generic_batch, "cycle"),
    "greedy_revenue": (lambda net, reqs: greedy_revenue(net, reqs, fallback=False), "cycle"),
    "greedy_revenue-fallback": (greedy_revenue, "cycle"),
}


@pytest.mark.parametrize("form", [list, tuple, iter])
@pytest.mark.parametrize("embedder", list(_EMBEDDERS))
def test_every_embedder_refuses_duplicate_request_ids(embedder, form):
    # one rule for all three embedders (model.distinct_ids): two requests
    # with one id are refused before anything is embedded, whatever iterable
    # holds them
    embed, shape = _EMBEDDERS[embedder]
    topology = dict(n_edges=9) if shape == "path" else dict(topology="cycle")
    net = gen_substrate(SubstrateSpec(n_nodes=6, **topology), 1)
    reqs = [*gen_requests(RequestSpec(shape=shape, count=3, length_range=(3, 4)), 2),
            *gen_requests(RequestSpec(shape=shape, count=1, length_range=(3, 4)), 3)]
    assert [req.req_id for req in reqs] == [0, 1, 2, 0]
    residuals = dict(net.residual_cpu), dict(net.residual_bw)
    with pytest.raises(ModelError, match="^duplicate request ids$"):
        embed(net, form(reqs))
    assert (net.residual_cpu, net.residual_bw) == residuals
    assert len(embed(net, form(reqs[:3]))) > 0


def test_experiment_json_golden_output_is_unchanged():
    # the CLI's JSON aggregates for pe and generic over three seeded trials
    # pin the per-trial rows, the CI aggregation and the written layout
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pcvne.cli", "experiment", "--nodes", "12", "--edges", "24",
         "--cpu-capacity", "20", "--bw-capacity", "20", "--shape", "path", "--count", "20",
         "--length-min", "2", "--length-max", "5", "--algorithms", "pe,generic", "--trials", "3",
         "--seed", "3", "--format", "json", "--no-timing"],
        capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout == (root / "tests" / "data" / "experiment.json").read_bytes()
