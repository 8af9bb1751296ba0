"""Smoke tests of the Figure-2 benchmark, at smoke-test scale.

Run from the repository root with ``python3 -m pytest perfbench``.
Every test drives ``run.py`` as a subprocess, the way the benchmark is
run for real.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig2_dense", "fig2_10k", "fig2_10k_sharded")


def run(args, cwd=ROOT, env=None, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny(workload, trace=0, *extra):
    args = ["--workload", workload, "--seed", "0", "--seconds", "0.1"]
    return run([*args, "--trace", str(trace), "--scale", "tiny", *extra])


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(tiny(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_driver_self_time_is_a_small_share_of_the_traced_job():
    proc = tiny("fig2_10k", 1)
    metrics = result_of(proc)["metrics"]
    assert metrics["analysis.driver_self_s"]["value"] >= 0.0
    assert metrics["criterion.calls"]["value"] == 2
    assert "layer table" in proc.stdout


@pytest.mark.parametrize("workload", ("fig2_dense", "fig2_10k_sharded"))
def test_poisoned_reference_fails_every_job(tmp_path, workload):
    refs = json.loads((HERE / "references.json").read_text())
    entry = refs["tiny"][workload]["0"]
    entry["digests"] = {tau: "0" * 16 for tau in entry["digests"]}
    poisoned = tmp_path / "references.json"
    poisoned.write_text(json.dumps(refs))
    proc = tiny(workload, 0, "--references", str(poisoned))
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "error_rate 1.0000" in proc.stdout


def test_refuses_to_run_with_a_knob_set():
    env = dict(os.environ, REPRO_SHM="1")
    proc = run(["--workload", "fig2_10k", "--seed", "0", "--seconds", "1"], env=env)
    assert proc.returncode != 0
    assert "REPRO_SHM" in proc.stderr
    assert proc.stdout.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(
        ["--workload", "fig2_10k", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_hands_imported_spans_to_the_parent():
    sys.path.insert(0, str(ROOT / "src"))
    import fig2bench
    from repro.obs.tracer import Span

    spans = [  # exit order, as a tracer records them
        Span("work", 2, 1.0, 2.0, 0.0, {}),  # imported: ran at 1..3
        Span("work", 2, 2.0, 2.5, 0.0, {}),  # imported, concurrent: 2..4.5
        Span("fanout.task", 1, 5.0, 0.5, 0.0, {}),  # the import itself
        Span("job", 0, 0.0, 6.0, 0.0, {}),
    ]
    rows = fig2bench.layer_table(fig2bench.span_forest(spans))
    assert rows["fanout.task"].self_s == pytest.approx(0.5)
    assert rows["job"].self_s == pytest.approx(6.0 - 3.5 - 0.5)
    assert rows["work"].calls == 2


def test_cpu_rotation_moves_the_thread_and_restores_its_mask():
    sys.path.insert(0, str(ROOT / "src"))
    import fig2bench

    before = os.sched_getaffinity(0)
    if len(before) < 2:
        pytest.skip("needs two CPUs")
    seen = set()
    with fig2bench.RotateCpus(period_s=0.01):
        deadline = time.monotonic() + 2.0
        while seen != before and time.monotonic() < deadline:
            mask = os.sched_getaffinity(0)
            if len(mask) == 1:
                seen |= mask
    assert seen == before
    assert os.sched_getaffinity(0) == before
