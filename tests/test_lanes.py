"""Sweep cells run on every CPU: the caller runs lane 0 and a forked child
runs each other lane. These tests pin the CPU count that evaluation._cpus
reports and check that the bytes do not depend on it, that a failing or
dying lane reaches the caller as the one-lane loop would report it, and that
lanes are pinned one per CPU, so no lane's training starts a shuffle helper.
conftest's fixtures check that no child outlives a sweep and that the
caller's CPUs are restored however it ends."""
import hashlib
import os
import signal
import time

import pytest

from trisim import evaluation, trainer
from trisim.cli import EXIT_CONFIG, EXIT_IO, main
from trisim.core import ConfigurationError, TrainingDivergedError
from trisim.evaluation import sweep
from trisim.sampler import make_weak_dataset
from trisim.trainer import TrainConfig, train
from trisim.verify import check_error_trend, default_gaussian_spec

from test_cli import SWEEP_DIGESTS

SPEC = default_gaussian_spec()
QUICK = TrainConfig(prior=SPEC.prior, epochs=3, batch_size=50)
CALLER = os.getpid()


def cpus(monkeypatch, k):
    monkeypatch.setattr(evaluation, "_cpus", lambda: k)


def fake_runs(monkeypatch, outcomes):
    """weak_run returns 0.5 + seed / 100, or acts on the seed's entry in
    outcomes: an exception to raise, or a callable to call."""
    def weak_run(spec, config, n_us, n_u, seed, *args):
        action = outcomes.get(seed)
        if isinstance(action, BaseException):
            raise action
        if action is not None:
            action()
        return 0.5 + seed / 100

    monkeypatch.setattr(evaluation, "weak_run", weak_run)


def run_seeds(n):
    """A one-value sweep whose cell i is seed i."""
    return sweep("fraction", [1.0], list(range(n)), SPEC, QUICK, 40, 60, n_test=100)


@pytest.mark.parametrize("kind", SWEEP_DIGESTS)
def test_sweep_bytes_do_not_depend_on_lane_count(tmp_path, capsys, monkeypatch, kind):
    flags, csv_digest, json_digest = SWEEP_DIGESTS[kind]
    for k in (1, 2, 3):
        cpus(monkeypatch, k)
        out, json_out = tmp_path / f"{k}.csv", tmp_path / f"{k}.json"
        argv = ["sweep", "--kind", kind, "--pi", "0.4", "--seeds", "0,1", "--n-us", "40",
                "--n-u", "60", "--batch", "50", "--epochs", "20", "--n-test", "500", *flags,
                "--out", str(out), "--json-out", str(json_out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest, k
        assert hashlib.sha256(json_out.read_bytes()).hexdigest() == json_digest, k
    capsys.readouterr()


def test_trend_report_does_not_depend_on_lane_count(monkeypatch):
    reports = set()
    for k in (1, 2, 3):
        cpus(monkeypatch, k)
        reports.add(check_error_trend([0.25, 0.5, 1.0], [0, 1, 2], n_us=100, n_u=100).to_json())
    assert len(reports) == 1


def test_one_lane_never_forks(monkeypatch):
    cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    fake_runs(monkeypatch, {})
    assert run_seeds(3).rows[0].per_seed == (0.5, 0.51, 0.52)


def test_sweep_of_skipped_rows_runs_no_cell(monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    fake_runs(monkeypatch, {})
    result = sweep("prior", [0.5], [0, 1], SPEC, QUICK, 40, 60, n_test=100)
    assert [(r.setting, r.n_seeds, r.error) for r in result.rows] == [
        ("0.5", 0, "degenerate prior 0.5 skipped")]


def test_lanes_are_capped_at_the_cell_count(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cpus(monkeypatch, 8)
    fake_runs(monkeypatch, {})
    assert run_seeds(3).rows[0].per_seed == (0.5, 0.51, 0.52)
    assert len(forks) == 2


def test_caller_runs_every_kth_cell(monkeypatch):
    cpus(monkeypatch, 3)
    monkeypatch.setattr(evaluation, "weak_run", lambda *a: float(os.getpid() == CALLER))
    assert run_seeds(7).rows[0].per_seed == (1, 0, 0, 1, 0, 0, 1)


@pytest.mark.parametrize("k", [2, 3])
def test_lanes_are_pinned_one_per_cpu_and_start_no_helper(monkeypatch, k):
    # lane i runs on the (i mod m)-th of the caller's m CPUs, so even a run
    # above the break-even trains inline in every lane
    cpus(monkeypatch, k)
    monkeypatch.setattr(trainer, "PREFETCH_MIN", 0)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    mask = os.sched_getaffinity(0)
    data = make_weak_dataset(SPEC, 40, 60, "rejection", 3)

    def run(i):
        before = len(forks)
        train(QUICK, data)
        return os.sched_getaffinity(0), len(forks) - before

    pinned = [{sorted(mask)[i % k % len(mask)]} for i in range(5)]
    assert evaluation._run_cells(run, 5) == [(cpu, 0) for cpu in pinned]
    assert os.sched_getaffinity(0) == mask


def in_child(action):
    """action, called only in a forked lane, so it cannot end the test run."""
    return lambda: os.getpid() != CALLER and action()


def diverge():
    where = "caller" if os.getpid() == CALLER else "child"
    raise TrainingDivergedError(f"seed 1 diverged in the {where}")


def interrupt():
    raise KeyboardInterrupt


def test_cell_error_in_a_child_lane_reaches_the_caller(monkeypatch):
    cpus(monkeypatch, 2)
    fake_runs(monkeypatch, {1: diverge})
    with pytest.raises(TrainingDivergedError) as exc:
        run_seeds(4)
    assert str(exc.value) == "seed 1 diverged in the child"


@pytest.mark.parametrize(
    "failing,first",
    [({2, 3}, 2), ({1, 2}, 1), ({0, 1, 2}, 0), ({3, 1}, 1), ({5, 4}, 4)],
    ids=["child-before-caller", "two-children", "caller-first", "child-then-caller",
         "caller-then-child"],
)
def test_lowest_failing_cell_wins(monkeypatch, failing, first):
    # three lanes over six cells: the caller runs 0 and 3, the children 1, 4 and 2, 5;
    # even seeds raise one type and odd seeds another
    cpus(monkeypatch, 3)
    kinds = (ConfigurationError, TrainingDivergedError)
    fake_runs(monkeypatch, {s: kinds[s % 2](f"cell {s} failed") for s in failing})
    with pytest.raises(kinds[first % 2]) as exc:
        run_seeds(6)
    assert str(exc.value) == f"cell {first} failed"


def test_cli_exits_config_on_a_child_lane_cell_error(tmp_path, capsys, monkeypatch):
    cpus(monkeypatch, 2)
    fake_runs(monkeypatch, {1: TrainingDivergedError("training diverged at epoch 3")})
    out = tmp_path / "s.csv"
    capsys.readouterr()
    argv = ["sweep", "--kind", "fraction", "--pi", "0.4", "--fractions", "1.0",
            "--seeds", "0,1", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["error: training diverged at epoch 3"]
    assert not out.exists()


@pytest.mark.parametrize(
    "end,status",
    [(lambda: os._exit(1), "exit status 1"),
     (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
     (interrupt, "exit status 1")],
    ids=["exit", "killed", "interrupted"],
)
def test_lane_that_ends_without_results_raises(monkeypatch, end, status):
    cpus(monkeypatch, 2)
    fake_runs(monkeypatch, {1: in_child(end)})
    with pytest.raises(ChildProcessError) as exc:
        run_seeds(4)
    assert str(exc.value) == f"sweep lane 1 of 2 ended ({status}) without sending its results"


def test_cli_exits_io_when_a_lane_dies(tmp_path, capsys, monkeypatch):
    cpus(monkeypatch, 2)
    fake_runs(monkeypatch, {1: in_child(lambda: os._exit(1))})
    out = tmp_path / "s.csv"
    capsys.readouterr()
    argv = ["sweep", "--kind", "fraction", "--pi", "0.4", "--fractions", "1.0",
            "--seeds", "0,1", "--out", str(out)]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err.splitlines() == [
        "I/O error: sweep lane 1 of 2 ended (exit status 1) without sending its results"]
    assert not out.exists()


def test_interrupted_caller_stops_and_reaps_its_lanes(monkeypatch):
    cpus(monkeypatch, 2)
    fake_runs(monkeypatch, {0: KeyboardInterrupt(), 1: lambda: time.sleep(60)})
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_seeds(2)
    assert time.monotonic() - t0 < 30
