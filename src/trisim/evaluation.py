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
from .trainer import TrainConfig, train, train_supervised_oracle


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


def weak_run(
    source_spec: GaussianSourceSpec,
    config: TrainConfig,
    n_us: int,
    n_u: int,
    seed: int,
    n_test: int = 2000,
    sampler_kind: str = "paper_case",
) -> float:
    """One full generate-train-evaluate cycle; returns test accuracy.

    The batch size is clamped to the pool sizes so a single config can be
    swept across data budgets smaller than its nominal batch.
    """
    data_seed, test_seed = derive_seeds(seed, 2)
    data = make_weak_dataset(source_spec, n_us, n_u, sampler_kind, data_seed)
    test = synth_gaussian_labeled(source_spec, n_test, test_seed)
    batch = min(config.batch_size, 3 * n_us, n_u)
    model, _ = train(replace(config, seed=seed, batch_size=batch), data)
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


def _row(setting: str, accs: list[float]) -> SweepRow:
    std = float(np.std(accs, ddof=1)) if len(accs) >= 2 else None
    return SweepRow(
        setting=setting,
        mean=float(np.mean(accs)),
        std=std,
        n_seeds=len(accs),
        per_seed=tuple(accs),
    )


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
    prior sees identical datasets per seed.
    """
    _require_values("given priors", given_priors, seeds)
    result = SweepResult(
        axis="given_prior",
        config={"true_prior": true_prior.pi_plus, "n_us": n_us, "n_u": n_u},
    )
    spec = replace(source_spec, prior=true_prior)
    # every prior is checked before the first run; 0.5 gets a skipped row
    configs = [None if g == 0.5 else replace(config, prior=ClassPrior(g)) for g in given_priors]
    for given, cfg in zip(given_priors, configs):
        if cfg is None:
            result.rows.append(
                SweepRow(
                    setting=f"{given}",
                    mean=None,
                    std=None,
                    n_seeds=0,
                    error="degenerate prior 0.5 skipped",
                )
            )
            continue
        accs = [
            weak_run(spec, cfg, n_us, n_u, seed, n_test, sampler_kind)
            for seed in seeds
        ]
        result.rows.append(_row(f"{given}", accs))
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
    result = SweepResult(axis="fraction", config={"n_us": n_us, "n_u": n_u})
    # every fraction is checked before the first run
    for frac in fractions:
        if not 0 < frac <= 1:
            raise ConfigurationError(f"fraction must lie in (0, 1], got {frac}")
    for frac in fractions:
        accs = [
            weak_run(
                source_spec,
                config,
                max(1, round(n_us * frac)),
                max(1, round(n_u * frac)),
                seed,
                n_test,
                sampler_kind,
            )
            for seed in seeds
        ]
        result.rows.append(_row(f"{frac}", accs))
    return result


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
    kinds = []
    for name in corrections:
        try:
            kinds.append(CorrectionKind(name))
        except ValueError:
            raise ConfigurationError(f"unknown correction {name!r}") from None
    result = SweepResult(axis="correction", config={"n_us": n_us, "n_u": n_u})
    for kind in kinds:
        cfg = replace(config, correction=kind)
        accs = [
            weak_run(source_spec, cfg, n_us, n_u, seed, n_test, sampler_kind)
            for seed in seeds
        ]
        result.rows.append(_row(kind.value, accs))
    return result
