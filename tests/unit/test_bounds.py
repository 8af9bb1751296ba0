"""Unit tests for the repro-bounds front: symbolic radii, stage cutoffs, CLI."""

from __future__ import annotations

import json
import math
import textwrap
from pathlib import Path

from repro.checks.bounds import (
    DECLARED_FLOODS,
    TAU_SAMPLES,
    SymExpr,
    _points,
    _radius_env,
    _ttl_points,
    check_floods,
    run_bounds,
)
from repro.checks.bounds_cli import main as bounds_main
from repro.checks.protocol import FloodSpec, ProtocolContract, extract_contract

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def run_tree(tmp_path: Path, sources: dict) -> tuple:
    """Write ``{rel: source}`` under tmp_path and run the bounds passes."""
    for rel, source in sources.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_bounds([tmp_path], tmp_path)


def rules_of(findings) -> set:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Symbolic expressions
# ----------------------------------------------------------------------
class TestSymbolic:
    def test_radius_env_matches_paper(self):
        for tau in TAU_SAMPLES:
            env = _radius_env(tau)
            assert env["k"] == math.ceil(tau / 2)
            assert env["m"] == env["k"] + 1

    def test_canonicalization_is_pointwise(self):
        drifted = SymExpr(
            "mis_separation(tau) - 1", _points(lambda env: env["m"] - 1)
        )
        assert drifted.canonical() == "k"

    def test_le_and_eq_are_pointwise(self):
        k = SymExpr("k", _points(lambda env: env["k"]))
        m = SymExpr("m", _points(lambda env: env["m"]))
        assert k.le(m) and not m.le(k)
        assert k.eq(SymExpr("other spelling", k.values))
        assert not k.eq(m)


# ----------------------------------------------------------------------
# REPRO401/402: the radius pass on fixture trees
# ----------------------------------------------------------------------
class TestRadiusPass:
    def test_derived_radius_is_proven(self, tmp_path):
        findings, manifest = run_tree(
            tmp_path,
            {
                "repro/topology/fix.py": """
                def verdict(engine, v, tau):
                    return engine.ball(v, neighborhood_radius(tau))
                """
            },
        )
        assert findings == []
        (site,) = manifest.radius_sites
        assert site.status == "proven"
        assert site.radius == "k"  # the derivation canonicalizes

    def test_literal_radius_flagged(self, tmp_path):
        findings, manifest = run_tree(
            tmp_path,
            {
                "repro/topology/fix.py": """
                def verdict(graph, v):
                    return graph.bfs_distances(v, cutoff=3)
                """
            },
        )
        assert rules_of(findings) == {"REPRO401"}
        assert "literal" in findings[0].message
        (site,) = manifest.radius_sites
        assert site.status == "unproven"

    def test_unbounded_traversal_flagged(self, tmp_path):
        findings, __ = run_tree(
            tmp_path,
            {
                "repro/core/fix.py": """
                def sweep(graph, v):
                    return graph.bfs_distances(v)
                """
            },
        )
        assert rules_of(findings) == {"REPRO401"}
        assert "unbounded" in findings[0].message

    def test_radius_beyond_k_flagged(self, tmp_path):
        findings, manifest = run_tree(
            tmp_path,
            {
                "repro/topology/fix.py": """
                def too_far(engine, v, tau):
                    return engine.ball(v, mis_separation(tau))
                """
            },
        )
        assert rules_of(findings) == {"REPRO402"}
        (site,) = manifest.radius_sites
        assert site.status == "exceeds"
        assert site.radius == "m"

    def test_files_outside_scan_dirs_are_exempt(self, tmp_path):
        findings, manifest = run_tree(
            tmp_path,
            {
                "repro/analysis/fix.py": """
                def probe(graph, v):
                    return graph.bfs_distances(v, cutoff=99)
                """
            },
        )
        assert findings == []
        assert manifest.radius_sites == []

    def test_allow_comment_marks_site_allowed(self, tmp_path):
        findings, manifest = run_tree(
            tmp_path,
            {
                "repro/shard/fix.py": """
                def plan_sweep(graph, seeds):
                    # repro: allow[radius-unproven]
                    return graph.bfs_distances(seeds, cutoff=None)
                """
            },
        )
        assert findings == []
        (site,) = manifest.radius_sites
        assert site.status == "allowed"

    def test_parameter_radius_proven_through_caller(self, tmp_path):
        findings, manifest = run_tree(
            tmp_path,
            {
                "repro/core/fix.py": """
                def helper(graph, v, sep):
                    return graph.bfs_distances(v, cutoff=sep - 1)

                def caller(graph, v, tau):
                    return helper(graph, v, mis_separation(tau))
                """
            },
        )
        assert findings == []
        (site,) = manifest.radius_sites
        assert site.status == "proven"
        assert site.radius == "k"  # m - 1 canonicalizes to k
        assert "helper(sep)" in site.via

    def test_uncalled_parameter_radius_is_delegated(self, tmp_path):
        findings, manifest = run_tree(
            tmp_path,
            {
                "repro/core/fix.py": """
                def public_api(graph, v, radius):
                    return graph.bfs_distances(v, cutoff=radius)
                """
            },
        )
        assert findings == []
        (site,) = manifest.radius_sites
        assert site.status == "delegated"
        assert site.radius == "radius"


# ----------------------------------------------------------------------
# REPRO403: halo band radius
# ----------------------------------------------------------------------
class TestHaloBand:
    def test_drifted_shard_plan_radius_flagged(self, tmp_path):
        findings, __ = run_tree(
            tmp_path,
            {
                "repro/shard/plan.py": """
                def build(graph, tau):
                    return ShardPlan(halo_radius=neighborhood_radius(tau) + 1)
                """
            },
        )
        assert "REPRO403" in rules_of(findings)

    def test_exact_k_band_is_clean(self, tmp_path):
        findings, __ = run_tree(
            tmp_path,
            {
                "repro/shard/plan.py": """
                def build(graph, tau):
                    return ShardPlan(halo_radius=halo_radius(tau))
                """
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# REPRO404: flood TTLs
# ----------------------------------------------------------------------
class TestFloodTTL:
    def test_ttl_points_parse_symbolic_text(self):
        assert _ttl_points("k - 1") == tuple(
            _radius_env(tau)["k"] - 1 for tau in TAU_SAMPLES
        )
        assert _ttl_points("self.m - 1") == tuple(
            _radius_env(tau)["m"] - 1 for tau in TAU_SAMPLES
        )
        assert _ttl_points("mystery()") is None

    def _contract(self, spec: FloodSpec) -> ProtocolContract:
        return ProtocolContract(kinds=(spec.kind,), floods={spec.kind: spec})

    def test_correct_flood_is_clean(self):
        spec = FloodSpec("DELETE", "k - 1", "k", True, True, True)
        findings, manifest = check_floods(self._contract(spec), [])
        assert findings == []
        assert manifest["DELETE"]["declared_radius"] == "k"

    def test_over_covering_ttl_flagged(self):
        spec = FloodSpec("DELETE", "k", "k", True, True, True)
        findings, __ = check_floods(self._contract(spec), [])
        assert rules_of(findings) == {"REPRO404"}
        assert "declared radius - 1" in findings[0].message

    def test_missing_guard_flagged(self):
        spec = FloodSpec("PRIORITY", "m - 1", "m", True, False, True)
        findings, __ = check_floods(self._contract(spec), [])
        assert rules_of(findings) == {"REPRO404"}
        assert "guarded" in findings[0].message

    def test_undeclared_flood_kind_flagged(self):
        spec = FloodSpec("MYSTERY", "k - 1", "k", True, True, True)
        contract = ProtocolContract(
            kinds=("MYSTERY",), floods={"MYSTERY": spec}
        )
        findings, __ = check_floods(contract, [])
        assert any("no declared paper radius" in f.message for f in findings)

    def test_real_floods_agree_with_repro_verify(self):
        """The acceptance handshake: the FloodSpecs repro-bounds certifies
        are the same objects repro-verify model-checks."""
        contract, __ = extract_contract(
            [SRC / "repro" / "runtime"], root=REPO_ROOT
        )
        __, manifest = run_bounds([SRC / "repro"], REPO_ROOT)
        for kind, symbol in DECLARED_FLOODS.items():
            assert contract.floods[kind].radius_symbol == symbol
            assert manifest.floods[kind]["radius_symbol"] == symbol
            assert (
                manifest.floods[kind]["initial_ttl"]
                == contract.floods[kind].initial_ttl
            )


# ----------------------------------------------------------------------
# REPRO405: Horton stage cutoffs
# ----------------------------------------------------------------------
class TestCapacities:
    def test_drifted_stage_cutoff_flagged(self, tmp_path):
        findings, __ = run_tree(
            tmp_path,
            {
                "repro/cycles/kernel.py": """
                def stage3(tau):
                    cutoff = tau // 2 + 1
                    return cutoff
                """
            },
        )
        assert "REPRO405" in rules_of(findings)


# ----------------------------------------------------------------------
# REPRO407: traffic envelopes
# ----------------------------------------------------------------------
class TestEnvelopes:
    def test_unknown_routing_category_flagged(self, tmp_path):
        findings, __ = run_tree(
            tmp_path,
            {
                "repro/shard/scheduler.py": """
                def run_round(exchange):
                    exchange.route(1)
                    exchange.side_channel(2)
                """
            },
        )
        assert "REPRO407" in rules_of(findings)
        assert any("side_channel" in f.message for f in findings)

    def test_known_categories_produce_halo_envelopes(self, tmp_path):
        __, manifest = run_tree(
            tmp_path,
            {
                "repro/shard/scheduler.py": """
                def run_round(exchange):
                    exchange.account_broadcast(1)
                    exchange.route(2)
                    exchange.route_deletions(3)
                    exchange.end_round()
                """
            },
        )
        assert manifest.envelopes["halo.rows_per_round"] == "3 * halo_members"
        assert manifest.envelopes["halo.subrounds_per_round"] == "n"


# ----------------------------------------------------------------------
# The real tree and the CLI
# ----------------------------------------------------------------------
class TestRealTree:
    def test_source_tree_is_fully_certified(self):
        findings, manifest = run_bounds([SRC / "repro"], REPO_ROOT)
        assert findings == []
        statuses = {site.status for site in manifest.radius_sites}
        assert statuses <= {"proven", "delegated", "allowed"}
        assert "bfs.max_depth" in manifest.envelopes
        assert "halo.rows_per_round" in manifest.envelopes
        assert "messages.priority.sent" in manifest.envelopes

    def test_manifest_serializes_deterministically(self):
        __, manifest = run_bounds([SRC / "repro"], REPO_ROOT)
        first = json.dumps(manifest.as_dict(), sort_keys=True)
        __, again = run_bounds([SRC / "repro"], REPO_ROOT)
        assert json.dumps(again.as_dict(), sort_keys=True) == first


class TestCLI:
    def test_list_rules(self, capsys):
        assert bounds_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REPRO401", "REPRO404", "REPRO407"):
            assert rule_id in out

    def test_clean_tree_exits_zero(self, capsys):
        code = bounds_main([str(SRC / "repro"), "--root", str(REPO_ROOT)])
        assert code == 0
        assert "repro-bounds: 0 finding(s)" in capsys.readouterr().out

    def test_json_report_and_baseline_flow(self, tmp_path, capsys):
        fixture = tmp_path / "repro" / "topology" / "fix.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text("def f(g, v):\n    return g.bfs_distances(v, cutoff=9)\n")
        argv = [str(tmp_path), "--root", str(tmp_path)]

        assert bounds_main(argv + ["--no-baseline", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "repro-bounds/v1"
        assert report["count"] == 1
        assert report["findings"][0]["rule"] == "REPRO401"
        assert report["manifest"]["format"] == "repro-bounds-manifest/v1"

        assert bounds_main(argv + ["--update-baseline"]) == 0
        capsys.readouterr()
        assert bounds_main(argv) == 0
        assert "(1 baselined)" in capsys.readouterr().out

    def test_manifest_flag_writes_document(self, tmp_path, capsys):
        fixture = tmp_path / "repro" / "core" / "fix.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text(
            "def f(e, v, tau):\n    return e.ball(v, deletion_radius(tau))\n"
        )
        out = tmp_path / "manifest.json"
        code = bounds_main(
            [str(tmp_path), "--root", str(tmp_path), "--no-baseline",
             "--manifest", str(out)]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["format"] == "repro-bounds-manifest/v1"
        assert manifest["radius_sites"][0]["status"] == "proven"
