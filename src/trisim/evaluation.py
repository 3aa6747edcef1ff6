"""Desk-scale ablation sweeps. `sweep(kind, values, ...)` runs the three
kinds in SWEEPS: robustness to a misspecified training prior,
accuracy-vs-data-fraction curves, and the correction-function comparison.

Each (setting, seed) cell is an independent weak run, seeded on its own, so
the cells run on every CPU this process may use and the rows do not depend
on how many there are; results are assembled ordered by setting then seed.
"""
from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ClassPrior, ConfigurationError, CorrectionKind
from .model import accuracy
from .sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from .trainer import TrainConfig, _batch_plan, train


@dataclass(frozen=True)
class SweepRow:
    setting: str
    mean: float | None
    std: float | None
    n_seeds: int
    per_seed: tuple[float, ...] = ()
    error: str | None = None


@dataclass
class SweepResult:
    axis: str
    rows: list[SweepRow] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        rows = [{**vars(r), "per_seed": list(r.per_seed)} for r in self.rows]
        return {"axis": self.axis, "rows": rows, "config": self.config}


def derive_seeds(seed: int, n: int) -> list[int]:
    """Expand one seed into n independent sub-seeds."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def _clamped(config: TrainConfig, n_us: int, n_u: int) -> TrainConfig:
    """config with its batch clamped to the pool sizes of a weak run, so one
    config can be swept across data budgets smaller than its nominal batch."""
    return replace(config, batch_size=min(config.batch_size, 3 * n_us, n_u))


def weak_run(
    source_spec: GaussianSourceSpec,
    config: TrainConfig,
    n_us: int,
    n_u: int,
    seed: int,
    n_test: int = 2000,
    sampler_kind: str = "paper_case",
) -> float:
    """One full generate-train-evaluate cycle with the batch clamped to
    the pools; returns test accuracy."""
    data_seed, test_seed = derive_seeds(seed, 2)
    data = make_weak_dataset(source_spec, n_us, n_u, sampler_kind, data_seed)
    test = synth_gaussian_labeled(source_spec, n_test, test_seed)
    model, _ = train(replace(_clamped(config, n_us, n_u), seed=seed), data)
    return accuracy(model, test)


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _lane(run, cells) -> tuple[list, tuple[int, Exception] | None]:
    """run(i) for each cell i in order, up to the first that raises; returns
    the results and that cell's (index, exception), or None."""
    done = []
    for i in cells:
        try:
            done.append(run(i))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _run_cells(run, n: int) -> list:
    """[run(i) for i in range(n)] on k = min(n, CPUs) lanes, at least one:
    cell i runs in lane i mod k. The caller runs lane 0 itself and a forked
    child runs each other lane, sending its results back through a pipe; one
    lane is a plain loop with no fork. Each lane stops at its first failing
    cell, and the failure with the lowest cell index is raised, the one a
    single lane would raise. A child that ends without sending its results
    raises ChildProcessError. Every child is reaped before this returns or
    raises."""
    k = max(1, min(n, _cpus()))  # a sweep of skipped rows has no cells
    children: list[tuple[int, int]] = []  # (pid, read end) of lanes 1 .. k-1
    outcomes, statuses = [], []
    try:
        for lane in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child never returns into the caller's frames
                status = 1
                try:
                    # hold no read end, so a write fails, not blocks, if the caller dies
                    for fd in (r, *(fd for _, fd in children)):
                        os.close(fd)
                    data = pickle.dumps(_lane(run, range(lane, n, k)))
                    with open(w, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        outcomes.append(_lane(run, range(0, n, k)))
        for _, fd in children:
            with open(fd, "rb", closefd=False) as fh:
                outcomes.append(fh.read())
    finally:
        for pid, fd in children:
            os.close(fd)
            if len(outcomes) < k:  # the caller is leaving early: stop the lanes
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    results, failures = [None] * n, []
    for lane, outcome in enumerate(outcomes):
        if lane:
            try:
                outcome = pickle.loads(outcome)
            except Exception:
                code = os.waitstatus_to_exitcode(statuses[lane - 1])
                ended = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise ChildProcessError(
                    f"sweep lane {lane} of {k} ended ({ended}) without sending its results"
                ) from None
        done, failure = outcome
        results[lane : lane + k * len(done) : k] = done
        if failure:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


# each sweep kind and the axis its values are settings of
SWEEPS = {"prior": "given_prior", "fraction": "fraction", "correction": "correction"}


def _cell(kind: str, value, config: TrainConfig, n_us: int, n_u: int):
    """The (config, n_us, n_u) that one axis value trains with, or None for a
    given prior of 0.5, whose row is skipped."""
    if kind == "prior":
        return None if value == 0.5 else (replace(config, prior=ClassPrior(value)), n_us, n_u)
    if kind == "fraction":
        if not 0 < value <= 1:
            raise ConfigurationError(f"fraction must lie in (0, 1], got {value}")
        return config, max(1, round(n_us * value)), max(1, round(n_u * value))
    if value not in {c.value for c in CorrectionKind}:
        raise ConfigurationError(f"unknown correction {value!r}")
    return replace(config, correction=CorrectionKind(value)), n_us, n_u


def sweep(
    kind: str,
    values: list,
    seeds: list[int],
    source_spec: GaussianSourceSpec,
    config: TrainConfig,
    n_us: int,
    n_u: int,
    n_test: int = 2000,
    sampler_kind: str = "paper_case",
) -> SweepResult:
    """One weak run per (value, seed), in that order; a row per value. The
    runs are spread over the CPUs as _run_cells says, with the same rows.

    A prior sweep draws data under the source's prior and trains under each
    given prior; a given prior of 0.5 gets a skipped row. A fraction sweep
    scales both budgets by each fraction in (0, 1], at least one point per
    pool. A correction sweep trains with each named correction. Data depend
    only on the seed and the budgets, so in a prior or correction sweep every
    value sees the same data per seed. The budgets, every value and seed
    (each at most once) and every cell's clamped batch plan are checked
    before the first run.
    """
    axis = SWEEPS.get(kind)
    if axis is None:
        raise ConfigurationError(f"unknown sweep kind {kind!r}")
    # the empty list is named "given priors", "fractions" or "corrections"
    for name, listed in ((axis.replace("_", " ") + "s", values), ("seeds", seeds)):
        if len(listed) == 0:
            raise ConfigurationError(f"no {name} to sweep: the list is empty")
    for name, listed in ((axis, values), ("seed", seeds)):
        for i, value in enumerate(listed):
            if value in listed[:i]:
                raise ConfigurationError(f"{name} {value} is listed more than once")
    for name, n, least in (("n_us", n_us, 1), ("n_u", n_u, 1), ("n_test", n_test, 2)):
        if n < least:
            raise ConfigurationError(f"{name} must be >= {least}, got {n}")
    cells = [(f"{v}", _cell(kind, v, config, n_us, n_u)) for v in values]
    for label, cell in cells:
        if cell is None:
            continue
        cfg, cell_us, cell_u = cell
        try:
            clamped = _clamped(cfg, cell_us, cell_u)
            if clamped.epochs:  # train skips the plan for zero epochs
                _batch_plan((3 * cell_us, cell_u), clamped.batch_size)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{axis} {label}: {exc}") from None
    summary = {"n_us": n_us, "n_u": n_u}
    if kind == "prior":
        summary = {"true_prior": source_spec.prior.pi_plus, **summary}
    runs = [(cell, seed) for _, cell in cells if cell is not None for seed in seeds]
    done = iter(_run_cells(
        lambda i: weak_run(source_spec, *runs[i][0], runs[i][1], n_test, sampler_kind), len(runs)))
    result = SweepResult(axis=axis, config=summary)
    for label, cell in cells:
        if cell is None:
            result.rows.append(SweepRow(label, None, None, 0, error="degenerate prior 0.5 skipped"))
            continue
        accs = [next(done) for _ in seeds]
        std = float(np.std(accs, ddof=1)) if len(accs) >= 2 else None
        result.rows.append(SweepRow(label, float(np.mean(accs)), std, len(accs), tuple(accs)))
    return result
