"""Command-line entry point.

Subcommands: synth, make-weak, train, eval, verify, sweep. Every command is
deterministic under --seed. Each subparser declares files(args) -> (inputs,
outputs) beside the flags that name them. main adds the --config file to the
inputs, refuses an output on an input or another output, runs cmd_* (the
work; it returns the exit code) on the clock and, when there are outputs,
writes and prints the run manifest beside the first of them
(<output>.manifest.json), recording the resolved flags, input digests, and
timing.

Exit codes: 0 success, 2 usage, 3 I/O, 4 invalid configuration or domain
error, 5 failed verification.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
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
    ShapeError,
    TrisimError,
)
from .dataio import (
    WEAK_META,
    read_labeled_csv,
    read_weak_dataset,
    read_model,
    read_text,
    write_json,
    write_labeled_csv,
    write_model,
    write_sweep_csv,
    write_sweep_json,
    write_train_log_csv,
    write_triplets_jsonl,
    write_unlabeled_jsonl,
    write_weak_meta,
)
from .evaluation import SWEEPS, accuracy, sweep
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
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "files", "parser")}


def _write_manifest(args, inputs, outputs, started) -> None:
    """Write the run's manifest beside its first output, and print it."""
    manifest = {
        "subcommand": args.subcommand,
        "flags": _flags(args),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "duration_s": round(time.monotonic() - started, 3),
    }
    print(write_json(str(outputs[0]) + ".manifest.json", manifest))


def _distinct(inputs, outputs):
    """Raise ConfigurationError when an output, or the manifest beside the
    first one, names the file of an input or of another output; main calls
    this before the command reads or writes anything."""
    seen = {os.path.realpath(p): "an input" for p in inputs}
    for path in [*outputs, *([f"{outputs[0]}.manifest.json"] if outputs else [])]:
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigurationError(
                f"{path}: the same file as {seen[real]}; give each output a path of its own"
            )
        seen[real] = "another output"


def _list_of(kind):
    """argparse type for a comma-separated list of kind values; each item is
    stripped, and empty items are dropped."""

    def parse(text: str) -> list:
        return [kind(v.strip()) for v in text.split(",") if v.strip()]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _seed(text: str) -> int:
    """argparse type for a seed: numpy seeds are non-negative integers."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


_seed.__name__ = "non-negative int"


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


def cmd_synth(args, outputs):
    pool = synth_gaussian_labeled(_gaussian_spec(args), args.n, args.seed)
    write_labeled_csv(args.out, pool)
    return EXIT_OK


def cmd_make_weak(args, outputs):
    pool = read_labeled_csv(args.input)
    prior = ClassPrior(args.pi) if args.pi is not None else None
    source = PoolSource(pool, prior=prior)
    data = make_weak_dataset(source, args.n_us, args.n_u, args.sampler, args.seed)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    write_triplets_jsonl(outputs[0], data.triplets)
    write_unlabeled_jsonl(outputs[1], data.unlabeled)
    write_weak_meta(args.out_dir, data, source.prior)
    return EXIT_OK


def _train_config(args, prior: ClassPrior) -> TrainConfig:
    return TrainConfig(
        prior=prior,
        correction=CorrectionKind(args.correction),
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        weight_decay=args.weight_decay,
        model_kind=args.model,
        hidden=args.hidden,
        seed=args.seed,
    )


def _read_test(path, dim: int, against: str):
    """The labeled CSV at path, which must have the dim of what it is scored against."""
    test = read_labeled_csv(path)
    if test.x.shape[1] != dim:
        raise ShapeError(f"{path}: the test set has {test.x.shape[1]} features, {against} {dim}")
    return test


def cmd_train(args, outputs):
    config = _train_config(args, ClassPrior(args.pi))
    data = read_weak_dataset(args.us, args.u, sampler_kind=args.sampler)
    width = data.triplets.shape[2]
    eval_set = _read_test(args.test, width, "the weak data have") if args.test else None
    model, log = train(config, data, eval_set)
    write_model(args.out, model, config_echo=_flags(args))
    write_train_log_csv(outputs[1], log)
    if eval_set is not None and log:
        print(f"final test accuracy: {log[-1].test_accuracy}")
    return EXIT_OK


def cmd_eval(args, outputs):
    model = read_model(args.model)
    test = _read_test(args.test, model.dim, "the model takes")
    payload = json.dumps({"accuracy": accuracy(model, test)})
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    return EXIT_OK


# each suite by name, in the order `all` merges them; the lambdas look the
# check functions up when called, so a patched module global is honoured
SUITES = {
    "thetas": lambda seed: check_theta_system(),
    "identity": lambda seed: check_risk_identity(seed=seed),
    "acceptance": lambda seed: check_acceptance_rate(seed=seed),
    "bias": lambda seed: run_bias_suite(seed=seed),
    "matched": lambda seed: check_matched_calibration(seed=seed),
    "gradients": lambda seed: check_gradients(seed=seed),
    "trend": lambda seed: check_error_trend(),
}


def _run_suite(name: str, seed: int) -> VerifyReport:
    if name == "all":
        return VerifyReport.merge([run(seed) for run in SUITES.values()])
    return SUITES[name](seed)


def cmd_verify(args, outputs):
    report = _run_suite(args.suite, args.seed)
    print(report.to_json())
    if args.out:
        write_json(args.out, report.to_dict())
    return EXIT_OK if report.assertable_passed else EXIT_VERIFY


def cmd_sweep(args, outputs):
    spec = _gaussian_spec(args)
    config = _train_config(args, spec.prior)
    values = {"prior": args.given, "fraction": args.fractions, "correction": args.corrections}
    result = sweep(args.kind, values[args.kind], args.seeds, spec, config,
                   args.n_us, args.n_u, args.n_test, args.sampler)
    write_sweep_csv(args.out, result)
    if args.json_out:
        write_sweep_json(args.json_out, result)
    return EXIT_OK


def _add_source_flags(p):
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--sep", type=float, default=4.0, help="class means at +-sep/2 on axis 1")
    p.add_argument("--mu-plus", type=_list_of(float), help="comma-separated positive-class mean")
    p.add_argument("--mu-minus", type=_list_of(float), help="comma-separated negative-class mean")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--pi", type=float, required=True, help="positive-class prior")


def _add_train_flags(p):
    p.add_argument("--model", choices=("linear", "mlp"), default=TrainConfig.model_kind)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    corrections = [c.value for c in CorrectionKind]
    p.add_argument("--correction", choices=corrections, default=TrainConfig.correction.value)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)


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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth, files=lambda a: ([], [a.out]))

    p = sub.add_parser("make-weak", help="build triplets + unlabeled pool from a labeled CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pi", type=float, help="prior to resample the pool to (default: label counts)")
    p.add_argument("--n-us", type=int, required=True)
    p.add_argument("--n-u", type=int, required=True)
    p.add_argument("--sampler", choices=SAMPLERS, default=SAMPLERS[0])
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=True)
    weak = ("triplets.jsonl", "unlabeled.jsonl", WEAK_META)
    p.set_defaults(func=cmd_make_weak, files=lambda a: ([a.input], [Path(a.out_dir, n) for n in weak]))

    p = sub.add_parser("train", help="train on weak data")
    p.add_argument("--us", required=True, help="triplets JSONL")
    p.add_argument("--u", required=True, help="unlabeled JSONL")
    p.add_argument("--pi", type=float, required=True)
    p.add_argument(
        "--sampler",
        choices=SAMPLERS,
        default=SAMPLERS[0],
        help="sampler that produced the triplets (sets the matched weights)",
    )
    _add_train_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--test", help="labeled CSV for held-out accuracy")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--log", help="train log CSV path (default: <out>.log.csv)")
    p.set_defaults(func=cmd_train, files=lambda a: (
        [a.us, a.u] + ([a.test] if a.test else []), [a.out, a.log or a.out + ".log.csv"]))

    p = sub.add_parser("eval", help="evaluate a model file on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval, files=lambda a: ([a.model, a.test], [a.out] if a.out else []))

    p = sub.add_parser("verify", help="run verification oracles")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify, files=lambda a: ([], [a.out] if a.out else []))

    p = sub.add_parser("sweep", help="run an ablation sweep on synthetic data")
    p.add_argument("--kind", choices=SWEEPS, required=True)
    _add_source_flags(p)
    _add_train_flags(p)
    p.add_argument(
        "--given", type=_list_of(float), default="", help="comma list of given priors (kind=prior)"
    )
    p.add_argument("--fractions", type=_list_of(float), default="0.1,0.25,0.5,1.0")
    p.add_argument("--corrections", type=_list_of(str), default="none,max_zero,abs")
    p.add_argument("--seeds", type=_list_of(_seed), default="0,1,2,3,4")
    p.add_argument("--seed", type=_seed, default=0, help="recorded only; runs are seeded by --seeds")
    p.add_argument("--n-us", type=int, default=2000)
    p.add_argument("--n-u", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--sampler", choices=SAMPLERS, default="paper_case")
    p.add_argument("--out", required=True)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_sweep,
                   files=lambda a: ([], [a.out] + ([a.json_out] if a.json_out else [])))

    for p in sub.choices.values():
        p.add_argument("--config", help="key=value config file, given at most once; flags win")
        p.set_defaults(parser=p)  # a leftover argument is the subcommand's usage error
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
    explicit flags, so command-line values take precedence. A file that
    read_text rejects, or that names another config file, raises
    InvalidInputError."""
    path = _config_path(argv)
    if path is None:
        return argv
    extra: list[str] = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flag = f"--{key.strip().replace('_', '-')}"
        if flag == "--config":
            raise InvalidInputError(f"{path}: a config file cannot name another config file")
        extra.extend([flag, value.strip()])
    # argv[0] is the subcommand; config-derived flags go right after it
    return argv[:1] + extra + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(_inject_config(argv))
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        inputs, outputs = args.files(args)
        inputs = [*inputs, args.config] if args.config else inputs
        _distinct(inputs, outputs)
        started = time.monotonic()
        code = args.func(args, outputs)
        if outputs:
            _write_manifest(args, inputs, outputs, started)
        return code
    except TrisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size flag numpy cannot allocate; nothing was written
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
