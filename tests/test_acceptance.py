"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line so a -s run
reads as a checklist. Criterion 9 is a soft comparison: on failure it
prints the full per-seed table and emits a warning instead of failing.
"""
import os
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import trisim
from trisim.core import ClassPrior, CorrectionKind
from trisim.evaluation import correction_sweep, prior_sweep, supervised_run, weak_run
from trisim.risk import DiscreteDomainSpec
from trisim.trainer import TrainConfig
from trisim.verify import (
    check_acceptance_rate,
    check_error_trend,
    check_gradients,
    check_risk_identity,
    check_theta_system,
    constant_scorer_bias_closed_form,
    default_gaussian_spec,
    enumerate_estimator_expectation,
    measure_estimator_bias,
    supervised_risk_discrete,
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_theta_matching_system():
    start = time.monotonic()
    report = check_theta_system()
    elapsed = time.monotonic() - start
    worst = max(c.observed for c in report.checks)
    ok = report.passed and elapsed < 1.0
    _report(1, ok, f"matching residuals, worst {worst:.2e} (< 1e-12), {elapsed:.2f}s")
    assert report.passed, [c for c in report.checks if not c.passed]
    assert elapsed < 1.0


def test_criterion_2_risk_reconstruction_identity():
    start = time.monotonic()
    report = check_risk_identity(n_trials=100, seed=7)
    elapsed = time.monotonic() - start
    worst = report.checks[0].observed
    ok = report.passed and elapsed < 1.0
    _report(2, ok, f"100 random domains, worst gap {worst:.2e} (< 1e-10), {elapsed:.2f}s")
    assert report.passed
    assert elapsed < 1.0


def test_criterion_3_rejection_acceptance_rate():
    start = time.monotonic()
    report = check_acceptance_rate(priors=[0.2, 0.4, 0.6], n_draws=100_000, seed=11)
    elapsed = time.monotonic() - start
    ok = report.passed and elapsed < 5.0
    detail = ", ".join(
        f"pi={c.name.split('=')[1]}: {c.observed:.4f} vs {c.expected:.4f}"
        for c in report.checks
    )
    _report(3, ok, f"{detail} (3 SE at 1e5 draws), {elapsed:.2f}s")
    assert report.passed, [c for c in report.checks if not c.passed]
    assert elapsed < 5.0


def test_criterion_4_estimator_bias_oracle():
    start = time.monotonic()
    prior = ClassPrior(0.4)
    worst_closed = 0.0
    for c in (0.0, 0.5, 1.0, -1.0, -0.3):
        domain = DiscreteDomainSpec(
            p_plus=np.array([0.6, 0.4]),
            p_minus=np.array([0.1, 0.9]),
            prior=prior,
            scores=np.array([c, c]),
        )
        closed = constant_scorer_bias_closed_form(prior, c)
        assert abs(closed - (-2.8 * c)) < 1e-12  # closed form is -2.8c at pi=0.4
        for kind in ("rejection", "paper_case"):
            expectation, total = enumerate_estimator_expectation(domain, kind)
            assert abs(total - 1.0) < 1e-12
            delta = expectation - supervised_risk_discrete(domain)
            worst_closed = max(worst_closed, abs(delta - closed))
    assert worst_closed < 1e-10

    rng = np.random.default_rng(13)
    mc_ok = True
    for trial in range(3):
        domain = DiscreteDomainSpec(
            p_plus=rng.dirichlet(np.ones(4)),
            p_minus=rng.dirichlet(np.ones(4)),
            prior=ClassPrior(float(rng.choice([0.2, 0.4, 0.7]))),
            scores=rng.uniform(-2, 2, size=4),
        )
        for kind in ("rejection", "paper_case"):
            report = measure_estimator_bias(domain, kind, n_mc=50_000, seed=trial)
            mc_ok = mc_ok and report.assertable_passed
            assert report.assertable_passed, report.to_json()
    elapsed = time.monotonic() - start
    ok = worst_closed < 1e-10 and mc_ok and elapsed < 30.0
    _report(
        4,
        ok,
        f"constant-scorer bias matches -2.8c to {worst_closed:.2e}, "
        f"MC within 3 SE of enumeration on K=4 domains, {elapsed:.2f}s",
    )
    assert elapsed < 30.0


def test_criterion_5_gradient_checks():
    start = time.monotonic()
    report = check_gradients(n_trials=50, seed=3)
    elapsed = time.monotonic() - start
    assert len(report.checks) == 50
    worst = max(c.observed for c in report.checks)
    names = {c.name.split("_", 2)[2] for c in report.checks}
    assert {"linear_none", "mlp_max_zero", "linear_abs", "mlp_none",
            "linear_max_zero", "mlp_abs"} <= names
    ok = report.passed and elapsed < 10.0
    _report(5, ok, f"50 trials, worst rel err {worst:.2e} (< 1e-5), {elapsed:.2f}s")
    assert report.passed, [c for c in report.checks if not c.passed]
    assert elapsed < 10.0


def test_criterion_6_end_to_end_learning():
    start = time.monotonic()
    details = []
    ok = True
    for pi in (0.4, 0.6):
        spec = default_gaussian_spec(pi_plus=pi, separation=4.0)
        cfg = TrainConfig(
            prior=spec.prior, correction=CorrectionKind.ABS, model_kind="linear"
        )
        weak = [weak_run(spec, cfg, 2000, 2000, seed) for seed in range(5)]
        sup = [supervised_run(spec, cfg, 4000, seed) for seed in range(5)]
        w_med = statistics.median(weak)
        s_med = statistics.median(sup)
        this_ok = w_med >= 0.95 and s_med - w_med <= 0.04
        ok = ok and this_ok
        details.append(f"pi={pi}: weak median {w_med:.4f}, oracle {s_med:.4f}")
        assert w_med >= 0.95, (pi, weak)
        assert s_med - w_med <= 0.04, (pi, weak, sup)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _report(6, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_7_prior_robustness():
    start = time.monotonic()
    spec = default_gaussian_spec(pi_plus=0.4)
    cfg = TrainConfig(prior=spec.prior)
    result = prior_sweep(
        ClassPrior(0.4), [0.35, 0.4, 0.45], [0, 1, 2, 3, 4], spec, cfg, 8000, 8000
    )
    means = {row.setting: row.mean for row in result.rows}
    baseline = means["0.4"]
    drop = max(baseline - means["0.35"], baseline - means["0.45"])
    elapsed = time.monotonic() - start
    ok = drop <= 0.03 and elapsed < 600.0
    _report(
        7,
        ok,
        f"means 0.35/0.4/0.45 = {means['0.35']:.4f}/{baseline:.4f}/"
        f"{means['0.45']:.4f}, worst drop {drop:.4f} (<= 0.03), {elapsed:.1f}s",
    )
    assert drop <= 0.03, means
    assert elapsed < 600.0


def test_criterion_8_data_fraction_trend():
    start = time.monotonic()
    report = check_error_trend(
        fractions=[0.1, 0.25, 0.5, 1.0], seeds=[0, 1, 2, 3, 4], n_us=2000, n_u=2000
    )
    elapsed = time.monotonic() - start
    by_name = {c.name: c for c in report.checks}
    low = by_name["full_vs_smallest_fraction"].expected
    full = by_name["full_vs_smallest_fraction"].observed
    rho = by_name["spearman_rank_correlation"].observed
    ok = report.passed and elapsed < 900.0
    _report(
        8,
        ok,
        f"mean accuracy 0.1 -> 1.0: {low:.4f} -> {full:.4f}, "
        f"spearman rho {rho:.2f} (> 0), {elapsed:.1f}s",
    )
    assert report.passed, report.to_json()
    assert elapsed < 900.0


def test_criterion_9_correction_comparison_soft():
    start = time.monotonic()
    spec = default_gaussian_spec(pi_plus=0.4)
    cfg = TrainConfig(prior=spec.prior)
    seeds = [0, 1, 2, 3, 4]
    result = correction_sweep(["none", "abs"], seeds, spec, cfg, 200, 2000)
    per = {row.setting: row.per_seed for row in result.rows}
    wins = sum(a > n for a, n in zip(per["abs"], per["none"]))
    elapsed = time.monotonic() - start
    ok = wins >= 3
    table = "\n".join(
        f"  seed {s}: none {n:.4f}  abs {a:.4f}  {'abs' if a > n else 'none'}"
        for s, n, a in zip(seeds, per["none"], per["abs"])
    )
    _report(
        9,
        ok,
        f"abs beats none in {wins}/5 seeds at n_us=200 "
        f"(soft criterion), {elapsed:.1f}s",
    )
    print(table)
    if not ok:
        warnings.warn(
            "soft criterion: abs correction did not beat the uncorrected "
            f"estimator in >= 3/5 seeds (won {wins}/5) at n_us=200; "
            "full table:\n" + table
        )
    assert elapsed < 300.0


# Directory holding the `trisim` package this process imported. CLI children
# run in temp directories, where a relative PYTHONPATH no longer resolves, so
# it goes first on their PYTHONPATH.
_PACKAGE_ROOT = str(Path(trisim.__file__).resolve().parents[1])
_CLI_TIMEOUT_S = 120


def _run_cli(args, cwd, run):
    """Run `python -m trisim.cli <args>` in cwd. On a nonzero exit or a
    timeout, print criterion 10's FAIL line naming the subcommand and run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    try:
        r = subprocess.run(
            [sys.executable, "-m", "trisim.cli", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=_CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        _report(10, False, f"{args[0]} (run {run}) timed out after {_CLI_TIMEOUT_S} s")
        raise
    if r.returncode != 0:
        first = next(iter(r.stderr.strip().splitlines()), "")
        _report(10, False, f"{args[0]} (run {run}) exited {r.returncode}: {first}")
    return r


def test_criterion_10_cli_determinism(tmp_path):
    """Every subcommand twice with identical flags and seed; the primary
    output files must be byte-identical between the runs."""
    results = {}
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        common = dict(cwd=d, run=run)
        r = _run_cli(
            ["synth", "--pi", "0.4", "--n", "400", "--seed", "5", "--out", "data.csv"],
            **common,
        )
        assert r.returncode == 0, r.stderr
        r = _run_cli(
            ["make-weak", "--in", "data.csv", "--n-us", "60", "--n-u", "80",
             "--seed", "5", "--out-dir", "weak"],
            **common,
        )
        assert r.returncode == 0, r.stderr
        r = _run_cli(
            ["train", "--us", "weak/triplets.jsonl", "--u", "weak/unlabeled.jsonl",
             "--pi", "0.4", "--epochs", "5", "--batch", "40", "--seed", "5",
             "--out", "model.json"],
            **common,
        )
        assert r.returncode == 0, r.stderr
        r = _run_cli(
            ["eval", "--model", "model.json", "--test", "data.csv",
             "--out", "eval.json"],
            **common,
        )
        assert r.returncode == 0, r.stderr
        r = _run_cli(
            ["verify", "--suite", "thetas", "--seed", "5", "--out", "verify.json"],
            **common,
        )
        assert r.returncode == 0, r.stderr
        r = _run_cli(
            ["sweep", "--kind", "fraction", "--pi", "0.4", "--fractions", "1.0",
             "--seeds", "0", "--n-us", "60", "--n-u", "80", "--epochs", "3",
             "--batch", "40", "--seed", "5", "--out", "sweep.csv"],
            **common,
        )
        assert r.returncode == 0, r.stderr
        results[run] = {
            p: (d / p).read_bytes()
            for p in (
                "data.csv",
                "weak/triplets.jsonl",
                "weak/unlabeled.jsonl",
                "model.json",
                "model.json.log.csv",
                "eval.json",
                "verify.json",
                "sweep.csv",
            )
        }
    mismatched = [p for p in results["a"] if results["a"][p] != results["b"][p]]
    ok = not mismatched
    _report(10, ok, f"all 6 subcommands byte-identical across reruns "
                    f"({len(results['a'])} files compared)")
    assert not mismatched, mismatched
