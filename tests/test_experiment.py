import io

import pytest

from pcvne.experiment import (
    ConfigError,
    ExperimentConfig,
    _T95,
    mean_ci,
    run_experiment,
    write_csv,
    write_json,
)
from pcvne.generators import RequestSpec, SubstrateSpec


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

    def test_zero_trials(self):
        with pytest.raises(ConfigError):
            small_cfg(trials=0)


class TestMeanCi:
    def test_single_sample_has_zero_halfwidth(self):
        assert mean_ci([4.0]) == (4.0, 0.0)

    def test_small_sample_uses_wider_interval(self):
        # Student-t critical values exceed the normal ones below 30 samples
        small = mean_ci([1.0, 2.0, 3.0, 4.0, 5.0])
        big = mean_ci([1.0, 2.0, 3.0, 4.0, 5.0] * 8)
        assert small[1] > 0
        s5 = 0  # spot value: t(0.975, 4) is about 2.776
        import statistics

        sd = statistics.stdev([1.0, 2.0, 3.0, 4.0, 5.0])
        assert small[1] == pytest.approx(2.7764451052 * sd / 5 ** 0.5, rel=1e-6)
        assert big[1] < small[1]

    def test_t_table_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        assert len(_T95) == 29
        for df, crit in enumerate(_T95, start=1):
            assert crit == pytest.approx(stats.t.ppf(0.975, df), rel=1e-9)


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

    def test_json_output_shape(self):
        result = run_experiment(small_cfg(trials=2), measure_time=False)
        buf = io.StringIO()
        write_json(result, buf)
        import json

        payload = json.loads(buf.getvalue())
        assert len(payload["rows"]) == 4
        assert "pe" in payload["aggregates"]
        assert "mean" in payload["aggregates"]["pe"]["revenue"]
