"""Tests for the extensions beyond the paper's core: the Abilene topology,
the heavy-tail value model, the LP-format exporter, and the ablation
experiments."""

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_k_paths_ablation,
    run_limiter_ablation,
    run_seed_stability,
    run_theta_ablation,
    run_value_model_ablation,
)
from repro.experiments.common import ExperimentConfig
from repro.exceptions import WorkloadError
from repro.net.topologies import abilene
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.value_models import HeavyTailValueModel

from tests.oracles.lp.model import Model


class TestAbilene:
    def test_dimensions(self):
        topo = abilene()
        assert topo.num_datacenters == 11
        assert topo.num_edges == 28  # 14 bidirectional links

    def test_uniform_baseline_price(self):
        topo = abilene()
        assert all(e.weight == 1.0 for e in topo.edges)

    def test_usable_end_to_end(self):
        topo = abilene()
        workload = generate_workload(topo, WorkloadConfig(num_requests=10), rng=0)
        from repro.core import Metis, SPMInstance

        instance = SPMInstance.build(topo, workload, k_paths=2)
        outcome = Metis(theta=3, maa_rounds=1).solve(instance, rng=0)
        assert outcome.best.profit >= 0.0


class TestHeavyTailValueModel:
    def test_bids_positive_and_dispersed(self):
        model = HeavyTailValueModel(shape=2.0, scale=0.5)
        topo = abilene()
        rng = np.random.default_rng(0)
        values = [
            model.value(topo, "Seattle", "NewYork", 0.3, 2, rng)
            for _ in range(300)
        ]
        assert all(v > 0 for v in values)
        assert max(values) > 4 * np.median(values), "heavy tail present"

    def test_scale_floors_the_multiplier(self):
        model = HeavyTailValueModel(shape=5.0, scale=0.5)
        topo = abilene()
        rng = np.random.default_rng(1)
        base = 0.3 * 2 * 3.0  # rate x duration x cheapest path price (3 hops)
        floor = 0.5 * base
        values = [
            model.value(topo, "Seattle", "NewYork", 0.3, 2, rng)
            for _ in range(100)
        ]
        assert all(v >= floor - 1e-9 for v in values)

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            HeavyTailValueModel(shape=1.0)
        with pytest.raises(ValueError):
            HeavyTailValueModel(scale=0.0)


class TestLpExport:
    def build(self):
        m = Model("demo")
        x = m.add_var("x", 0, 3)
        b = m.add_binary("b")
        m.add_constr(x + 2 * b <= 4, name="cap")
        m.set_objective(x + 5 * b + 1, maximize=True)
        return m

    def test_sections_present(self):
        text = self.build().to_lp_string()
        assert "Maximize" in text
        assert "Subject To" in text
        assert "Bounds" in text
        assert "Generals" in text
        assert text.rstrip().endswith("End")

    def test_contents(self):
        text = self.build().to_lp_string()
        assert "cap: 1 x + 2 b <= 4" in text
        assert "0 <= x <= 3" in text
        assert "objective constant: 1" in text
        assert " b" in text.split("Generals")[1]

    def test_minimize_and_unbounded_var(self):
        m = Model()
        x = m.add_var("x")
        m.add_constr(x >= 1)
        m.set_objective(x + 0, maximize=False)
        text = m.to_lp_string()
        assert "Minimize" in text
        assert "0 <= x <= +inf" in text


_FAST = ExperimentConfig(
    topology="sub-b4",
    request_counts=(20,),
    theta=4,
    maa_rounds=1,
    time_limit=60.0,
)


class TestAblations:
    def test_theta_ablation_monotone_profit(self):
        result = run_theta_ablation(_FAST, thetas=(1, 4))
        profits = result.column("profit")
        assert profits[1] >= profits[0] - 1e-9, "more rounds never hurt"

    def test_limiter_ablation_rows(self):
        result = run_limiter_ablation(_FAST)
        assert len(result.rows) == 4
        assert all(row[2] >= 0 for row in result.rows)

    def test_value_model_ablation_rows(self):
        cfg = ExperimentConfig(
            topology="sub-b4", request_counts=(20,), theta=4, maa_rounds=1
        )
        result = run_value_model_ablation(cfg)
        assert len(result.rows) == 5
        for row in result.rows:
            assert row[1] >= 0.0, "Metis profit never negative"

    def test_k_paths_ablation_lp_monotone(self):
        result = run_k_paths_ablation(_FAST, path_counts=(1, 3))
        lp_costs = result.column("lp_cost")
        assert lp_costs[1] <= lp_costs[0] + 1e-6, (
            "more candidate paths can only improve the LP optimum"
        )

    def test_seed_stability_rows(self):
        result = run_seed_stability(_FAST, seeds=(1, 2))
        assert len(result.rows) == 2
        assert result.headers[-1] == "ratio"

    def test_seasonality_ablation_rows(self):
        from repro.experiments.ablations import run_seasonality_ablation

        result = run_seasonality_ablation(_FAST)
        assert len(result.rows) == 4
        profiles = result.column("arrival profile")
        assert "uniform" in profiles and "retail calendar" in profiles
        assert all(row[1] >= 0 for row in result.rows)
