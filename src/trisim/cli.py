"""Command-line entry point.

Subcommands: synth, make-weak, train, eval, verify, sweep. Every command is
deterministic under --seed, and every primary output file is paired with a
run manifest (<output>.manifest.json) recording the resolved flags, input
digests, and timing.

Exit codes: 0 success, 2 usage, 3 I/O, 4 invalid configuration or domain
error, 5 failed verification.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    SAMPLERS,
    ClassPrior,
    ConfigurationError,
    CorrectionKind,
    InvalidInputError,
    TrisimError,
)
from .dataio import (
    read_labeled_csv,
    read_weak_dataset,
    read_model,
    write_labeled_csv,
    write_model,
    write_sweep_csv,
    write_sweep_json,
    write_train_log_csv,
    write_triplets_jsonl,
    write_unlabeled_jsonl,
    write_weak_meta,
)
from .evaluation import accuracy, correction_sweep, fraction_sweep, prior_sweep
from .risk import ESTIMATORS
from .sampler import (
    GaussianSourceSpec,
    PoolSource,
    default_gaussian_spec,
    make_weak_dataset,
    synth_gaussian_labeled,
)
from .trainer import TrainConfig, train
from .verify import (
    VerifyReport,
    check_acceptance_rate,
    check_error_trend,
    check_gradients,
    check_matched_calibration,
    check_risk_identity,
    check_theta_system,
    run_bias_suite,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4
EXIT_VERIFY = 5


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _flags(args) -> dict:
    """The resolved flags, sorted by name, for manifests and model files."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _write_manifest(subcommand, args, inputs, outputs, started) -> dict:
    manifest = {
        "subcommand": subcommand,
        "flags": _flags(args),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "duration_s": round(time.monotonic() - started, 3),
    }
    if outputs:
        Path(str(outputs[0]) + ".manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n"
        )
    print(json.dumps(manifest, indent=2))
    return manifest


def _list_of(kind):
    """argparse type for a comma-separated list of kind values; each item is
    stripped, and empty items are dropped."""

    def parse(text: str) -> list:
        return [kind(v.strip()) for v in text.split(",") if v.strip()]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _gaussian_spec(args) -> GaussianSourceSpec:
    if (args.mu_plus is None) != (args.mu_minus is None):
        raise ConfigurationError("--mu-plus and --mu-minus must be given together")
    if args.mu_plus is None:
        return default_gaussian_spec(args.pi, args.sep, args.dim, args.sigma)
    return GaussianSourceSpec(
        dim=args.dim,
        mu_plus=np.array(args.mu_plus),
        mu_minus=np.array(args.mu_minus),
        sigma=args.sigma,
        prior=ClassPrior(args.pi),
    )


def cmd_synth(args) -> int:
    started = time.monotonic()
    pool = synth_gaussian_labeled(_gaussian_spec(args), args.n, args.seed)
    write_labeled_csv(args.out, pool)
    _write_manifest("synth", args, [], [args.out], started)
    return EXIT_OK


def cmd_make_weak(args) -> int:
    started = time.monotonic()
    pool = read_labeled_csv(args.input)
    prior = ClassPrior(args.pi) if args.pi is not None else None
    source = PoolSource(pool, prior=prior)
    data = make_weak_dataset(source, args.n_us, args.n_u, args.sampler, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    triplets_path = out_dir / "triplets.jsonl"
    unlabeled_path = out_dir / "unlabeled.jsonl"
    write_triplets_jsonl(triplets_path, data.triplets)
    write_unlabeled_jsonl(unlabeled_path, data.unlabeled)
    meta_path = write_weak_meta(out_dir, data)
    _write_manifest(
        "make-weak", args, [args.input], [triplets_path, unlabeled_path, meta_path], started
    )
    return EXIT_OK


def _train_config(args, prior: ClassPrior) -> TrainConfig:
    return TrainConfig(
        prior=prior,
        correction=CorrectionKind(args.correction),
        estimator=args.estimator,
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        weight_decay=args.weight_decay,
        model_kind=args.model,
        hidden=args.hidden,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    started = time.monotonic()
    prior = ClassPrior(args.pi)
    config = _train_config(args, prior)
    data = read_weak_dataset(args.us, args.u, prior, sampler_kind=args.sampler)
    eval_set = read_labeled_csv(args.test) if args.test else None
    model, log = train(config, data, eval_set)
    write_model(args.out, model, config_echo=_flags(args))
    log_path = args.log or (args.out + ".log.csv")
    write_train_log_csv(log_path, log)
    inputs = [args.us, args.u] + ([args.test] if args.test else [])
    if eval_set is not None and log.records:
        print(f"final test accuracy: {log.records[-1].test_accuracy}")
    _write_manifest("train", args, inputs, [args.out, log_path], started)
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.monotonic()
    model = read_model(args.model)
    test = read_labeled_csv(args.test)
    payload = json.dumps({"accuracy": accuracy(model, test)})
    print(payload)
    outputs = []
    if args.out:
        Path(args.out).write_text(payload + "\n")
        outputs.append(args.out)
        _write_manifest("eval", args, [args.model, args.test], outputs, started)
    return EXIT_OK


SUITES = ("thetas", "identity", "acceptance", "bias", "matched", "gradients", "trend", "all")


def _run_suite(name: str, seed: int) -> VerifyReport:
    if name == "thetas":
        return check_theta_system()
    if name == "identity":
        return check_risk_identity(seed=seed)
    if name == "acceptance":
        return check_acceptance_rate(seed=seed)
    if name == "bias":
        return run_bias_suite(seed=seed)
    if name == "matched":
        return check_matched_calibration(seed=seed)
    if name == "gradients":
        return check_gradients(seed=seed)
    if name == "trend":
        return check_error_trend()
    reports = [_run_suite(s, seed) for s in SUITES[:-1]]
    return VerifyReport.merge(reports)


def cmd_verify(args) -> int:
    started = time.monotonic()
    report = _run_suite(args.suite, args.seed)
    text = report.to_json()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        _write_manifest("verify", args, [], [args.out], started)
    return EXIT_OK if report.assertable_passed else EXIT_VERIFY


def cmd_sweep(args) -> int:
    started = time.monotonic()
    spec = _gaussian_spec(args)
    config = _train_config(args, spec.prior)
    # every sweep takes these arguments after its own axis, in this order
    common = (args.seeds, spec, config, args.n_us, args.n_u, args.n_test, args.sampler)
    if args.kind == "prior":
        result = prior_sweep(spec.prior, args.given, *common)
    elif args.kind == "fraction":
        result = fraction_sweep(args.fractions, *common)
    else:
        result = correction_sweep(args.corrections, *common)
    write_sweep_csv(args.out, result)
    outputs = [args.out]
    if args.json_out:
        write_sweep_json(args.json_out, result)
        outputs.append(args.json_out)
    _write_manifest("sweep", args, [], outputs, started)
    return EXIT_OK


def _add_source_flags(p, require_pi=True):
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--sep", type=float, default=4.0, help="class means at +-sep/2 on axis 1")
    p.add_argument("--mu-plus", type=_list_of(float), help="comma-separated positive-class mean")
    p.add_argument("--mu-minus", type=_list_of(float), help="comma-separated negative-class mean")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--pi", type=float, required=require_pi, help="positive-class prior")


def _add_train_flags(p):
    p.add_argument("--model", choices=("linear", "mlp"), default="linear")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--correction", choices=[c.value for c in CorrectionKind], default="abs")
    p.add_argument(
        "--estimator",
        choices=ESTIMATORS,
        default="matched",
        help="similarity-term weighting: measure-matched or plain sample mean",
    )
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    p.add_argument("--epochs", type=int, default=600)
    p.add_argument("--batch", type=int, default=2000)


def build_parser() -> argparse.ArgumentParser:
    # flags must be spelled in full: --config is expanded before parsing,
    # and an abbreviation of it would slip past the expansion
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="trisim",
        description="Learn binary classifiers from uncertain-similarity "
        "triplets and unlabeled data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=strict)

    p = sub.add_parser("synth", help="generate a labeled Gaussian-mixture CSV")
    _add_source_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("make-weak", help="build triplets + unlabeled pool from a labeled CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pi", type=float, help="prior to resample the pool to (default: label counts)")
    p.add_argument("--n-us", type=int, required=True)
    p.add_argument("--n-u", type=int, required=True)
    p.add_argument("--sampler", choices=SAMPLERS, default="rejection")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_make_weak)

    p = sub.add_parser("train", help="train on weak data")
    p.add_argument("--us", required=True, help="triplets JSONL")
    p.add_argument("--u", required=True, help="unlabeled JSONL")
    p.add_argument("--pi", type=float, required=True)
    p.add_argument(
        "--sampler",
        choices=SAMPLERS,
        default="rejection",
        help="sampler that produced the triplets (sets the matched weights)",
    )
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test", help="labeled CSV for held-out accuracy")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--log", help="train log CSV path (default: <out>.log.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run verification oracles")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run an ablation sweep on synthetic data")
    p.add_argument("--kind", choices=("prior", "fraction", "correction"), required=True)
    _add_source_flags(p)
    _add_train_flags(p)
    p.add_argument(
        "--given", type=_list_of(float), default="", help="comma list of given priors (kind=prior)"
    )
    p.add_argument("--fractions", type=_list_of(float), default="0.1,0.25,0.5,1.0")
    p.add_argument("--corrections", type=_list_of(str), default="none,max_zero,abs")
    p.add_argument("--seeds", type=_list_of(int), default="0,1,2,3,4")
    p.add_argument("--seed", type=int, default=0, help="recorded only; runs are seeded by --seeds")
    p.add_argument("--n-us", type=int, default=2000)
    p.add_argument("--n-u", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--sampler", choices=SAMPLERS, default="paper_case")
    p.add_argument("--out", required=True)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_sweep)

    for p in sub.choices.values():
        p.add_argument("--config", help="key=value config file, given at most once; flags win")
    return parser


def _config_path(argv: list[str]) -> str | None:
    """The path given by --config, as `--config path` or `--config=path`,
    or None. A second --config raises ConfigurationError."""
    paths = []
    for idx, token in enumerate(argv):
        if token == "--config":
            paths.append(argv[idx + 1] if idx + 1 < len(argv) else None)
        elif token.startswith("--config="):
            paths.append(token.removeprefix("--config="))
    if len(paths) > 1:
        raise ConfigurationError("--config given more than once")
    return paths[0] if paths else None


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config key=value files into flags placed before the
    explicit flags, so command-line values take precedence. A file that is
    not UTF-8 text raises InvalidInputError."""
    path = _config_path(argv)
    if path is None:
        return argv
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    extra: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    # argv[0] is the subcommand; config-derived flags go right after it
    return argv[:1] + extra + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.func(args)
    except TrisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
