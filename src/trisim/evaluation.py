"""Desk-scale ablation sweeps: robustness to a misspecified training prior,
accuracy-vs-data-fraction curves, and the correction-function comparison.

Each (setting, seed) cell is an independent training run; results are
assembled deterministically ordered by setting then seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import ClassPrior, ConfigurationError, CorrectionKind
from .model import accuracy
from .sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from .trainer import TrainConfig, _batch_plan, train, train_supervised_oracle


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


def supervised_run(
    source_spec: GaussianSourceSpec,
    config: TrainConfig,
    n_labeled: int,
    seed: int,
    n_test: int = 2000,
) -> float:
    """Supervised-oracle counterpart of weak_run on the same source."""
    data_seed, test_seed = derive_seeds(seed, 2)
    pool = synth_gaussian_labeled(source_spec, n_labeled, data_seed)
    test = synth_gaussian_labeled(source_spec, n_test, test_seed)
    batch = min(config.batch_size, n_labeled)
    model, _ = train_supervised_oracle(replace(config, seed=seed, batch_size=batch), pool)
    return accuracy(model, test)


def _require_values(axis: str, settings, seeds) -> None:
    """Every sweep needs at least one setting on its axis and one seed."""
    for name, values in ((axis, settings), ("seeds", seeds)):
        if len(values) == 0:
            raise ConfigurationError(f"no {name} to sweep: the list is empty")


def _sweep(axis, summary, cells, seeds, source_spec, n_test, sampler_kind) -> SweepResult:
    """Run every cell at every seed, in order; a cell is (label, config,
    n_us, n_u). Every cell's batch plan is checked before the first run."""
    for label, cfg, n_us, n_u in cells:
        # train skips the plan for zero epochs; an empty pool fails in the sampler
        if cfg.epochs and min(n_us, n_u) > 0:
            try:
                _batch_plan((3 * n_us, n_u), _clamped(cfg, n_us, n_u).batch_size)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{axis} {label}: {exc}") from None
    result = SweepResult(axis=axis, config=summary)
    for label, cfg, n_us, n_u in cells:
        accs = [
            weak_run(source_spec, cfg, n_us, n_u, seed, n_test, sampler_kind) for seed in seeds
        ]
        std = float(np.std(accs, ddof=1)) if len(accs) >= 2 else None
        result.rows.append(SweepRow(label, float(np.mean(accs)), std, len(accs), tuple(accs)))
    return result


def prior_sweep(
    true_prior: ClassPrior,
    given_priors: list[float],
    seeds: list[int],
    source_spec: GaussianSourceSpec,
    config: TrainConfig,
    n_us: int,
    n_u: int,
    n_test: int = 2000,
    sampler_kind: str = "paper_case",
) -> SweepResult:
    """Generate data under the true prior, train under each given prior.

    Data generation depends only on (true prior, seed), so every given
    prior sees identical datasets per seed. A given prior of 0.5 gets a
    skipped row.
    """
    _require_values("given priors", given_priors, seeds)
    # every prior is checked before the first run
    cells = [
        (f"{g}", replace(config, prior=ClassPrior(g)), n_us, n_u) for g in given_priors if g != 0.5
    ]
    summary = {"true_prior": true_prior.pi_plus, "n_us": n_us, "n_u": n_u}
    spec = replace(source_spec, prior=true_prior)
    result = _sweep("given_prior", summary, cells, seeds, spec, n_test, sampler_kind)
    skipped = SweepRow("0.5", None, None, 0, error="degenerate prior 0.5 skipped")
    rows = iter(result.rows)
    result.rows = [skipped if g == 0.5 else next(rows) for g in given_priors]
    return result


def fraction_sweep(
    fractions: list[float],
    seeds: list[int],
    source_spec: GaussianSourceSpec,
    config: TrainConfig,
    n_us: int,
    n_u: int,
    n_test: int = 2000,
    sampler_kind: str = "paper_case",
) -> SweepResult:
    """Accuracy at increasing fractions of the full training budget."""
    _require_values("fractions", fractions, seeds)
    for frac in fractions:
        if not 0 < frac <= 1:
            raise ConfigurationError(f"fraction must lie in (0, 1], got {frac}")
    cells = [
        (f"{f}", config, max(1, round(n_us * f)), max(1, round(n_u * f))) for f in fractions
    ]
    summary = {"n_us": n_us, "n_u": n_u}
    return _sweep("fraction", summary, cells, seeds, source_spec, n_test, sampler_kind)


def correction_sweep(
    corrections: list[str],
    seeds: list[int],
    source_spec: GaussianSourceSpec,
    config: TrainConfig,
    n_us: int,
    n_u: int,
    n_test: int = 2000,
    sampler_kind: str = "paper_case",
) -> SweepResult:
    """One training run per (correction, seed), identical data per seed."""
    _require_values("corrections", corrections, seeds)
    for name in corrections:
        if name not in {c.value for c in CorrectionKind}:
            raise ConfigurationError(f"unknown correction {name!r}")
    cells = [(c, replace(config, correction=CorrectionKind(c)), n_us, n_u) for c in corrections]
    summary = {"n_us": n_us, "n_u": n_u}
    return _sweep("correction", summary, cells, seeds, source_spec, n_test, sampler_kind)
