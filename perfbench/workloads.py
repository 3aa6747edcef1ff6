"""The benchmark's workloads and the checks on their outputs.

A pass is one closed-loop job: the next starts when the previous ends,
because every trisim command is a batch job, not a served request. Each
pass runs in the current directory with relative paths, so the files it
writes (whose config echo holds those paths) do not depend on where the
checkout lives.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def derive_seeds(seed: int, n: int) -> list[int]:
    """n independent program seeds from the benchmark's --seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class Pipeline:
    """``synth -> make-weak -> train -> eval`` through ``trisim.cli.main``."""

    name: str
    why: str
    n_labeled: int
    n_us: int
    n_u: int
    dim: int
    epochs: int
    batch: int
    # Final test accuracy every pass must reach. It is set to catch a broken
    # model (inverted, constant), not a slow optimiser: over seeds 0-39 the
    # default Adam run ends anywhere from 0.64 to 0.98 on small-default and
    # from 0.49 to 0.70 on wide-mlp, whose majority class alone scores 0.6.
    accuracy_floor: float
    model: str = "linear"
    hidden: int = 64
    lr: float = 1e-3
    samplers: tuple[str, ...] = ("rejection",)  # successive passes cycle through these
    n_test: int = 2000
    pi: float = 0.4

    @property
    def variants(self) -> tuple[str, ...]:
        return self.samplers

    @property
    def weak_rows(self) -> int:
        return self.n_us + self.n_u

    def run_pass(self, call, seed: int, sampler: str) -> dict:
        """Run the pipeline; returns {command: (exit code, output, seconds)}."""
        s_pool, s_test, s_weak, s_train = derive_seeds(seed, 4)
        source = ["--pi", self.pi, "--dim", self.dim]
        return {
            "synth": call(["synth", *source, "--n", self.n_labeled, "--seed", s_pool,
                           "--out", "labeled.csv"]),
            "synth-test": call(["synth", *source, "--n", self.n_test, "--seed", s_test,
                                "--out", "test.csv"]),
            "make-weak": call(["make-weak", "--in", "labeled.csv", "--pi", self.pi,
                               "--n-us", self.n_us, "--n-u", self.n_u, "--sampler", sampler,
                               "--seed", s_weak, "--out-dir", "weak"]),
            "train": call(["train", "--us", "weak/triplets.jsonl", "--u", "weak/unlabeled.jsonl",
                           "--pi", self.pi, "--sampler", sampler, "--model", self.model,
                           "--hidden", self.hidden, "--epochs", self.epochs, "--batch", self.batch,
                           "--lr", self.lr, "--seed", s_train, "--test", "test.csv",
                           "--out", "model.json"]),
            "eval": call(["eval", "--model", "model.json", "--test", "test.csv",
                          "--out", "eval.json"]),
        }

    def primary_outputs(self) -> list[str]:
        return ["model.json", "model.json.log.csv", "eval.json"]

    def accuracy(self) -> float:
        return json.loads(Path("eval.json").read_text())["accuracy"]

    def check(self, trisim, steps: dict, seed: int, sampler: str, round_trip: bool) -> dict:
        """Named output checks of one finished pass: True when passed."""
        checks = {"exit_codes": all(rc == 0 for rc, _, _ in steps.values())}
        if not checks["exit_codes"]:
            return checks
        checks["accuracy_floor"] = self.accuracy() >= self.accuracy_floor
        if round_trip:
            checks.update(self._round_trips(trisim, seed, sampler))
        return checks

    def _round_trips(self, trisim, seed: int, sampler_kind: str) -> dict:
        """What the program held in memory equals what its readers give back
        from its files: the pools and weak data are regenerated here from the
        same seeds, the model is re-serialized."""
        dataio, sampler, prior = trisim.dataio, trisim.sampler, trisim.core.ClassPrior(self.pi)
        s_pool, s_test, s_weak, _ = derive_seeds(seed, 4)
        mu = np.zeros(self.dim)
        mu[0] = 2.0  # the CLI's default 4-sigma separation
        spec = sampler.GaussianSourceSpec(self.dim, mu, -mu, 1.0, prior)
        out = {}
        # labeled.csv comes last: its pool is the source of the weak data below
        for path, n, s in (("test.csv", self.n_test, s_test), ("labeled.csv", self.n_labeled, s_pool)):
            pool = sampler.synth_gaussian_labeled(spec, n, s)
            got = dataio.read_labeled_csv(path)
            out[f"round_trip:{path}"] = np.array_equal(pool.x, got.x) and np.array_equal(pool.y, got.y)
        weak = sampler.make_weak_dataset(
            sampler.PoolSource(pool, prior=prior),
            self.n_us, self.n_u, sampler_kind, s_weak,
        )
        out["round_trip:triplets.jsonl"] = np.array_equal(
            weak.triplets, dataio.read_triplets_jsonl("weak/triplets.jsonl"))
        out["round_trip:unlabeled.jsonl"] = np.array_equal(
            weak.unlabeled, dataio.read_unlabeled_jsonl("weak/unlabeled.jsonl"))
        doc = json.loads(Path("model.json").read_text())
        out["round_trip:model.json"] = (
            trisim.model.serialize_model(dataio.read_model("model.json"), doc.get("config")) == doc
        )
        return out


@dataclass(frozen=True)
class VerifyAll:
    """``verify --suite all`` through ``trisim.cli.main``."""

    name: str
    why: str

    variants = ("all",)
    weak_rows = 0

    def run_pass(self, call, seed: int, variant: str) -> dict:
        return {"verify": call(["verify", "--suite", "all", "--seed", seed,
                                "--out", "report.json"])}

    def primary_outputs(self) -> list[str]:
        return ["report.json"]

    def accuracy(self) -> None:
        return None

    def check(self, trisim, steps: dict, seed: int, variant: str, round_trip: bool) -> dict:
        # Exit code 5 means a failed oracle; 0 must agree with the report.
        rc = steps["verify"][0]
        report = trisim.verify.VerifyReport.from_dict(json.loads(Path("report.json").read_text()))
        return {"exit_codes": rc == 0, "assertable_passed": report.assertable_passed}


WORKLOADS = {
    w.name: w
    for w in (
        Pipeline(
            name="small-default",
            why="default point: 2k triplets + 2k unlabeled, d=2, linear, 600 epochs; "
            "tiny arrays, so per-call overhead in trainer, risk and model dominates",
            n_labeled=4000, n_us=2000, n_u=2000, dim=2, epochs=600, batch=2000,
            accuracy_floor=0.55, samplers=("rejection", "paper_case"),
        ),
        Pipeline(
            name="large-io",
            why="100k triplets + 100k unlabeled, d=2, a few large-batch epochs; "
            "dataio writes and reads dominate, per-call overhead does not",
            n_labeled=200_000, n_us=100_000, n_u=100_000, dim=2, epochs=10, batch=20_000,
            lr=1e-2, accuracy_floor=0.9,
        ),
        Pipeline(
            name="wide-mlp",
            why="same trainer as small-default at d=50 with an MLP (hidden 64), "
            "so the matmuls, not Python overhead, bound the epoch",
            n_labeled=4000, n_us=2000, n_u=2000, dim=50, epochs=100, batch=2000,
            model="mlp", accuracy_floor=0.45,
        ),
        VerifyAll(
            name="verify-all",
            why="all seven verify oracles; trend runs 20 small training jobs, "
            "so the verify module and tiny-pool training are measured",
        ),
    )
}
