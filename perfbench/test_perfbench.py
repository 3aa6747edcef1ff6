"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Pipeline

TINY = Pipeline(
    name="tiny", why="test", n_labeled=300, n_us=60, n_u=60, dim=2, epochs=3, batch=60,
    accuracy_floor=0.0, samplers=("rejection", "paper_case"), n_test=50,
)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_run(tmp_path, name):
    """One benchmark run in trace mode: passes 0-1 untraced, 2-3 traced."""
    workdir = tmp_path / name
    workdir.mkdir()
    passes, _ = run.run_passes(run.load_trisim(), TINY, 7, 0, 1, workdir)
    return passes


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return traced_run(tmp, "a"), traced_run(tmp, "b")


def test_every_check_passes(two_runs):
    for passes in two_runs:
        assert [p["traced"] for p in passes] == [False, False, True, True]
        for p in passes:
            assert p["ok"], p["checks"]
        assert "round_trip:triplets.jsonl" in passes[0]["checks"]
        assert passes[2]["checks"]["same_bytes"]


def test_same_seed_runs_give_identical_counts(two_runs):
    a, b = two_runs
    for pa, pb in zip(a[2:], b[2:]):
        assert {k: pa["layers"][k] for k in run.EXACT} == {k: pb["layers"][k] for k in run.EXACT}
    layers = a[2]["layers"]
    assert layers["trainer.epochs"] == TINY.epochs
    # 3*60 pointwise + 60 unlabeled points in batches of 60: 4 per epoch
    assert layers["trainer.batches"] == layers["risk.grad_calls"] == 4 * TINY.epochs
    assert layers["model.backward_flops"] == 2 * TINY.dim * (3 * 60 + 60) * TINY.epochs
    assert 0 < layers["sampler.acceptance_ratio"] < 1


def test_train_breakdown_sums_to_train_time(two_runs):
    br = two_runs[0][2]["train_breakdown"]
    parts = sum(v for k, v in br.items() if k != "train_s")
    assert parts == pytest.approx(br["train_s"], rel=1e-9)
    assert br["other_s"] == 0


def test_reported_metrics_exist_with_their_units(two_runs):
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    e2e, _, wall = run.end_to_end(TINY, two_runs[0], ([1.0], [1.0]))
    assert wall.keys() <= e2e.keys()
    layers, _ = run.per_layer(two_runs[0], {"trisim.verify": (0.1, 1.0)})
    for group, produced in (("end_to_end", e2e), ("per_layer", layers)):
        for m in SPEC[group]:
            assert m["name"] in produced
            assert m["unit"] == run.unit_of(m["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
    assert not (tmp_path / "perfbench" / "out").exists() or not any(
        Path(tmp_path / "perfbench" / "out").iterdir())
