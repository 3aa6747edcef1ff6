"""The training shuffle helper: above trainer.PREFETCH_MIN row-epochs, and
when the calling thread may run on two CPUs, a forked helper shuffles the
epochs ahead of the loop and gathers them into a shared ring. These tests
check that it gives the inline loop's bits, also at the benchmark's size,
that it does all the gathering, that it and its caller run on separate
CPUs, that it never outlives train however train ends, that it exits when
its caller is killed, and that a thread on one CPU never forks."""
import itertools
import math
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trisim
from trisim import trainer
from trisim.core import SAMPLERS, ClassPrior, TrainingDivergedError, WeakDataset
from trisim.sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from trisim.trainer import TrainConfig, train

SPEC = GaussianSourceSpec(2, np.array([2.0, 0.0]), np.array([-2.0, 0.0]), 1.0, ClassPrior(0.4))
TWO_CPUS = trainer._cpus() > 1
# an epoch count that is not a multiple of the ring size, nor of half of it
EPOCHS = 3 * trainer.RING + 1


def forks(monkeypatch):
    """The pids os.fork returns to this process from now on."""
    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    return pids


def helper(monkeypatch, on):
    monkeypatch.setattr(trainer, "PREFETCH_MIN", 0 if on else math.inf)


def config(**kw):
    return TrainConfig(SPEC.prior, **{"epochs": EPOCHS, "batch_size": 50, "lr": 0.01,
                                      "hidden": 8, "seed": 1, **kw})


def data(sampler_kind="rejection"):
    """120 similarity rows and 90 unlabeled ones: 5 batches of 50, so an
    epoch makes 12 forward calls."""
    return make_weak_dataset(SPEC, 40, 90, sampler_kind, 3)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("with_eval_set", [True, False], ids=["eval_set", "no_eval_set"])
@pytest.mark.parametrize("model_kind", ["linear", "mlp"])
@pytest.mark.parametrize("sampler_kind", SAMPLERS)
def test_helper_gives_the_inline_bits(monkeypatch, sampler_kind, model_kind, with_eval_set):
    weak = data(sampler_kind)
    eval_set = synth_gaussian_labeled(SPEC, 100, seed=4) if with_eval_set else None
    runs, pids = [], forks(monkeypatch)
    for on in (True, False):
        helper(monkeypatch, on)
        model, log = train(config(model_kind=model_kind), weak, eval_set)
        runs.append((model.theta.tobytes(), log))
        assert len(pids) == TWO_CPUS
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == EPOCHS


def _benchmark_size(dim, sampler_kind):
    """The benchmark's default point at dim features: 2000 triplets and 2000
    unlabeled points, and an eval set of 2000."""
    mu = np.zeros(dim)
    mu[0] = 2.0
    spec = GaussianSourceSpec(dim, mu, -mu, 1.0, ClassPrior(0.4))
    weak = make_weak_dataset(spec, 2000, 2000, sampler_kind, 3)
    return weak, synth_gaussian_labeled(spec, 2000, seed=4)


def _benchmark_run(monkeypatch, on, weak, eval_set):
    helper(monkeypatch, on)
    model, log = train(TrainConfig(ClassPrior(0.4), seed=5), weak, eval_set)
    assert len(log) == 600
    return model.theta.tobytes(), log


@pytest.mark.parametrize("dim", [2, 50])
@pytest.mark.parametrize("sampler_kind", SAMPLERS)
def test_helper_gives_the_inline_bits_at_the_benchmark_size(monkeypatch, sampler_kind, dim):
    weak, eval_set = _benchmark_size(dim, sampler_kind)
    pids = forks(monkeypatch)
    runs = [_benchmark_run(monkeypatch, on, weak, eval_set) for on in (True, False)]
    assert len(pids) == TWO_CPUS
    assert runs[0] == runs[1]


def test_integer_data_trains_to_the_float_data_bits(monkeypatch):
    weak, eval_set = _benchmark_size(2, "rejection")
    tenths = [np.rint(10 * a) for a in (weak.triplets, weak.unlabeled)]
    integer = WeakDataset(*(a.astype(np.int64) for a in tenths), "rejection")
    want = _benchmark_run(monkeypatch, False, WeakDataset(*tenths, "rejection"), eval_set)
    for on in (True, False):
        assert _benchmark_run(monkeypatch, on, integer, eval_set) == want


def _gather_pids(monkeypatch, tmp_path):
    """A file that gets the pid of the process that gathers each epoch of
    trainer._epochs."""
    path, epochs = tmp_path / "gathers", trainer._epochs

    def recording(*args):
        for slot in epochs(*args):
            with open(path, "a") as f:
                f.write(f"{os.getpid()}\n")
            yield slot

    monkeypatch.setattr(trainer, "_epochs", recording)
    return path


def test_inline_the_caller_gathers_once_per_epoch(monkeypatch, tmp_path):
    helper(monkeypatch, False)
    path = _gather_pids(monkeypatch, tmp_path)
    train(config(), data())
    assert path.read_text().split() == [str(os.getpid())] * EPOCHS


@pytest.mark.skipif(not TWO_CPUS, reason="the helper runs on two CPUs only")
def test_with_the_helper_only_the_helper_gathers(monkeypatch, tmp_path):
    helper(monkeypatch, True)
    path, pids = _gather_pids(monkeypatch, tmp_path), forks(monkeypatch)
    train(config(), data())
    assert path.read_text().split() == [str(pids[0])] * EPOCHS


@pytest.mark.parametrize("epochs", [1, trainer.RING // 2 + 1, trainer.RING + 1])
def test_helper_gives_the_inline_bits_for_short_runs(monkeypatch, epochs):
    # fewer epochs than the ring holds, or than one handed-back half of it
    runs = []
    for on in (True, False):
        helper(monkeypatch, on)
        model, log = train(config(epochs=epochs), data())
        runs.append((model.theta.tobytes(), log))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == epochs


@pytest.mark.parametrize("on", [True, False], ids=["helper", "inline"])
def test_consecutive_runs_give_the_same_bits(monkeypatch, on):
    # train binds its step buffers per run, so nothing of one run, nor of a
    # run of another size in between, reaches the next
    helper(monkeypatch, on)
    weak, other = data(), make_weak_dataset(SPEC, 30, 70, "rejection", 4)
    runs = []
    for run_data in (weak, other, weak):
        model, log = train(config(model_kind="mlp" if run_data is other else "linear"), run_data)
        runs.append((model.theta.tobytes(), log))
    assert runs[0] == runs[2] != runs[1]


def test_no_helper_outlives_a_run_that_returns(monkeypatch):
    helper(monkeypatch, True)
    pids = forks(monkeypatch)
    train(config(), data())
    assert len(pids) == TWO_CPUS
    assert_no_child()


@pytest.mark.parametrize("epoch", [1, 2, EPOCHS])
def test_no_helper_outlives_a_diverged_run(monkeypatch, epoch):
    helper(monkeypatch, True)
    pids = forks(monkeypatch)
    ends = itertools.count(1)
    monkeypatch.setattr(trainer, "_divergence", lambda rv, model: next(ends) == epoch and "forced")
    # the raised error holds train's frame, and so its orders, alive
    with pytest.raises(TrainingDivergedError, match=f"diverged at epoch {epoch}: forced$") as exc:
        train(config(), data())
    assert len(pids) == TWO_CPUS
    assert_no_child()
    del exc


def test_no_helper_outlives_a_run_that_raises_mid_epoch(monkeypatch):
    helper(monkeypatch, True)
    pids = forks(monkeypatch)
    calls, forward = itertools.count(1), trainer.forward

    def failing(*args):
        if next(calls) == 13:  # the first batch of epoch 2
            raise KeyError("forward failed")
        return forward(*args)

    monkeypatch.setattr(trainer, "forward", failing)
    with pytest.raises(KeyError, match="forward failed") as exc:
        train(config(), data())
    assert len(pids) == TWO_CPUS
    assert_no_child()
    del exc


@pytest.mark.skipif(not TWO_CPUS, reason="the helper runs on two CPUs only")
def test_helper_and_caller_run_on_separate_cpus(monkeypatch):
    helper(monkeypatch, True)
    pids, seen, forward = forks(monkeypatch), [], trainer.forward
    mask = os.sched_getaffinity(0)

    def watching(*args):
        seen.append((os.sched_getaffinity(0), os.sched_getaffinity(pids[0])))
        return forward(*args)

    monkeypatch.setattr(trainer, "forward", watching)
    train(config(), data())
    assert seen == [(mask - {max(mask)}, {max(mask)})] * len(seen) and seen


@pytest.mark.skipif(not TWO_CPUS, reason="the helper runs on two CPUs only")
def test_a_killed_helper_raises(monkeypatch):
    helper(monkeypatch, True)
    pids = forks(monkeypatch)
    calls, forward = itertools.count(1), trainer.forward

    def killing(*args):
        if next(calls) == 13:
            os.kill(pids[0], signal.SIGKILL)
        return forward(*args)

    monkeypatch.setattr(trainer, "forward", killing)
    with pytest.raises(ChildProcessError, match=r"^the shuffle helper ended before epoch \d+$"):
        train(config(epochs=1000), data())


_KILLED_CALLER = """
import os
from trisim import trainer
from trisim.sampler import make_weak_dataset
from trisim.trainer import TrainConfig, train
from trisim.verify import default_gaussian_spec

spec = default_gaussian_spec()
trainer.PREFETCH_MIN = 0
fork = os.fork

def announce():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announce
data = make_weak_dataset(spec, 40, 90, "rejection", 1)
train(TrainConfig(spec.prior, epochs=10**9, batch_size=50), data)
"""


@pytest.mark.skipif(not TWO_CPUS, reason="the helper runs on two CPUs only")
def test_helper_exits_when_its_caller_is_killed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(trisim.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
    )
    caller = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        assert select.select([caller.stdout], [], [], 30)[0]
        helper = int(caller.stdout.readline())
        assert helper > 0  # the helper's pid: it is running
    finally:
        caller.kill()
        caller.wait()
    # the helper holds the caller's stdout until it exits
    ready, _, _ = select.select([caller.stdout], [], [], 30)
    if not ready:  # still running, and no longer this process's grandchild to reap
        os.kill(helper, signal.SIGKILL)
    assert ready and caller.stdout.read() == b""
    caller.stdout.close()


@pytest.mark.skipif(not TWO_CPUS, reason="the helper runs on two CPUs only")
def test_a_failed_fork_leaves_no_pipe_open(monkeypatch):
    helper(monkeypatch, True)
    monkeypatch.setattr(os, "fork", lambda: (_ for _ in ()).throw(BlockingIOError("no fork")))
    fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="no fork"):
        train(config(), data())
    assert set(os.listdir("/proc/self/fd")) == fds


def test_a_thread_on_one_cpu_never_forks(monkeypatch):
    helper(monkeypatch, True)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        _, log = train(config(), data())
    finally:
        os.sched_setaffinity(0, mask)
    assert len(log) == EPOCHS
