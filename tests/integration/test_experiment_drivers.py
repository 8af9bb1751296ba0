"""Smoke tests for the figure drivers, at miniature scale."""

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    run_fig1_mobius,
    run_fig2_vertex_deletion,
    run_fig3_confine_size,
    run_fig4_hgc_comparison,
    run_fig5_rssi_cdf,
    run_trace_confine,
)
from repro.obs import MetricsRegistry, Tracer, observe
from repro.traces.greenorbs import GreenOrbsConfig, generate_greenorbs_trace


def _counting(monkeypatch, name):
    """Replace ``experiments.<name>`` with a wrapper counting its calls."""
    calls = []
    original = getattr(experiments, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, wrapper)
    return calls


class TestFig1:
    def test_exact_paper_outcome(self):
        result = run_fig1_mobius()
        assert result.hgc_relative_betti_1 == 1
        assert not result.hgc_verified
        assert result.dcc_partitionable
        assert "false negative" in result.format_table()


class TestFig2:
    def test_small_run(self):
        result = run_fig2_vertex_deletion(
            count=150, degree=16.0, taus=(3, 4), seed=0
        )
        assert set(result.active_by_tau) == {3, 4}
        for tau in (3, 4):
            assert result.preserved(tau), "Theorem 5 violated"
        assert result.active_by_tau[4] <= result.active_by_tau[3]
        assert "Figure 2" in result.format_table()

    @pytest.mark.parametrize("shards", [None, 2])
    def test_observed_run_builds_the_deployment_once(self, monkeypatch, shards):
        kwargs = dict(count=120, degree=14.0, taus=(3, 4, 5), seed=1, shards=shards)
        plain = run_fig2_vertex_deletion(**kwargs)
        calls = _counting(monkeypatch, "network_for_average_degree")
        tracer = Tracer()
        with observe(tracer, MetricsRegistry()):
            observed = run_fig2_vertex_deletion(**kwargs)
        assert len(calls) == 1
        assert observed.format_table() == plain.format_table()
        assert any(s.name.startswith("scheduler.") for s in tracer.spans())


class TestFig3:
    @pytest.mark.slow
    def test_ratios_normalised_and_decreasing(self):
        result = run_fig3_confine_size(
            count=150, degree=16.0, taus=(3, 4, 5), runs=1, seed=0
        )
        assert result.mean_ratio_by_tau[3] == pytest.approx(1.0)
        assert result.mean_ratio_by_tau[5] <= result.mean_ratio_by_tau[3]
        assert "Figure 3" in result.format_table()


class TestFig4:
    @pytest.mark.slow
    def test_lambda_structure(self):
        # the Fig-4 driver only accepts HGC-verified deployments, which
        # need paper-level density (degree ~25)
        result = run_fig4_hgc_comparison(
            count=150,
            degree=25.0,
            gammas=(2.0, 1.0),
            requirements=(0.0, 1.2),
            runs=1,
            seed=0,
        )
        # infeasible corner: full blanket demanded at gamma = 2
        assert result.saved[(0.0, 2.0)] == 0.0
        assert result.tau_used[(0.0, 2.0)] is None
        # feasible corner: gamma = 1 allows tau = 6
        assert result.tau_used[(0.0, 1.0)] == 6
        assert 0.0 <= result.saved[(0.0, 1.0)] <= 1.0
        # relaxed requirement can only increase the feasible tau
        assert result.tau_used[(1.2, 1.0)] >= result.tau_used[(0.0, 1.0)]
        assert "Figure 4" in result.format_table()


class TestTraceConfine:
    def test_observed_run_builds_the_topology_once(self, monkeypatch):
        config = GreenOrbsConfig(
            node_count=120, clusters=6, epochs=24,
            strip_width=220.0, strip_height=80.0,
        )
        plain = run_trace_confine(taus=(3, 4), config=config, seed=4)
        calls = _counting(monkeypatch, "generate_greenorbs_trace")
        with observe(Tracer(), MetricsRegistry()):
            observed = run_trace_confine(taus=(3, 4), config=config, seed=4)
        assert len(calls) == 1
        assert observed.inner_left_by_tau == plain.inner_left_by_tau
        assert observed.boundary_nodes == plain.boundary_nodes


class TestFig5:
    def test_cdf_rows(self):
        config = GreenOrbsConfig(
            node_count=100, clusters=5, epochs=16,
            strip_width=200.0, strip_height=70.0,
        )
        trace = generate_greenorbs_trace(config, seed=3)
        result = run_fig5_rssi_cdf(trace=trace)
        assert result.fraction_at_least == sorted(result.fraction_at_least)
        assert result.kept_fraction == pytest.approx(0.8, abs=0.05)
        assert "Figure 5" in result.format_table()
