"""The CLI byte ledger: the sha256 of every file a fixed chain of in-process
`trisim` commands writes, run manifests aside, pinned in tests/ledger.sha256.

The chain covers synth at d = 2 and 3, make-weak under both samplers with
and without --pi, train (linear abs, none, plain and no weight decay, an MLP
with max_zero, and zero epochs), eval, and the fast verify suites at four
seeds. A change that keeps the bytes leaves every digest as it is. A change
that moves bytes on purpose rewrites the ledger with

    python tests/test_ledger.py --write

and the ledger's diff lists the outputs that moved. The digests depend on
numpy and the platform's libm, as the sweep digests in test_cli.py do, so the
ledger's header records the numpy version it was written with.
"""
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script from a checkout, without an install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trisim.cli import EXIT_OK, EXIT_VERIFY, SUITES, main  # noqa: E402

LEDGER_PATH = Path(__file__).with_name("ledger.sha256")

_TRAIN = ["--epochs", "40", "--batch", "50", "--lr", "0.01"]
_REJ = ["--us", "rej/triplets.jsonl", "--u", "rej/unlabeled.jsonl", "--pi", "0.4"]

# relative paths only: train writes its flags into the model file
COMMANDS = [
    ["synth", "--pi", "0.4", "--n", "400", "--seed", "3", "--out", "d2.csv"],
    ["synth", "--pi", "0.6", "--dim", "3", "--n", "300", "--seed", "4", "--out", "d3.csv"],
    ["make-weak", "--in", "d2.csv", "--n-us", "60", "--n-u", "100", "--seed", "1",
     "--out-dir", "rej"],
    ["make-weak", "--in", "d2.csv", "--pi", "0.3", "--n-us", "60", "--n-u", "100", "--seed", "2",
     "--out-dir", "rej-pi"],
    ["make-weak", "--in", "d2.csv", "--sampler", "paper_case", "--n-us", "60", "--n-u", "100",
     "--seed", "5", "--out-dir", "case"],
    ["make-weak", "--in", "d3.csv", "--sampler", "paper_case", "--pi", "0.7", "--n-us", "60",
     "--n-u", "100", "--seed", "6", "--out-dir", "case-pi"],
    ["train", *_REJ, *_TRAIN, "--test", "d2.csv", "--out", "abs.json"],
    ["train", *_REJ, *_TRAIN, "--correction", "none", "--out", "none.json"],
    ["train", "--us", "case/triplets.jsonl", "--u", "case/unlabeled.jsonl", "--pi", "0.4",
     "--sampler", "paper_case", "--estimator", "plain", *_TRAIN, "--out", "plain.json"],
    ["train", "--us", "case-pi/triplets.jsonl", "--u", "case-pi/unlabeled.jsonl", "--pi", "0.7",
     "--sampler", "paper_case", "--weight-decay", "0", *_TRAIN, "--seed", "7",
     "--out", "wd0.json"],
    ["train", "--us", "rej-pi/triplets.jsonl", "--u", "rej-pi/unlabeled.jsonl", "--pi", "0.3",
     "--model", "mlp", "--hidden", "8", "--correction", "max_zero", *_TRAIN, "--test", "d2.csv",
     "--out", "mlp.json"],
    ["train", *_REJ, "--epochs", "0", "--out", "epochs0.json"],
    ["eval", "--model", "abs.json", "--test", "d2.csv", "--out", "eval-abs.json"],
    ["eval", "--model", "mlp.json", "--test", "d2.csv", "--out", "eval-mlp.json"],
    *(["verify", "--suite", suite, "--seed", str(seed), "--out", f"verify-{suite}-{seed}.json"]
      for seed in (0, 1, 2, 156) for suite in SUITES if suite != "trend"),
]


def run_commands(directory: Path) -> dict[str, str]:
    """Run COMMANDS in directory and return the sha256 of every file they
    wrote, manifests aside, by its path relative to directory."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                # the bias suite fails at seed 156 by chance; the report's
                # bytes pin each verdict
                assert main(argv) in (EXIT_OK, EXIT_VERIFY), argv
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and not path.name.endswith(".manifest.json")
    }


def read_ledger() -> tuple[str, dict[str, str]]:
    """The numpy version in the ledger's header, and its digests by output;
    nothing before the first --write."""
    if not LEDGER_PATH.exists():
        return "", {}
    header, *lines = LEDGER_PATH.read_text().splitlines()
    digests = dict(reversed(line.split(maxsplit=1)) for line in lines)
    return header.removeprefix("# numpy "), digests


def write_ledger(digests: dict[str, str]) -> None:
    lines = [f"# numpy {np.__version__}", *(f"{d}  {name}" for name, d in digests.items())]
    LEDGER_PATH.write_text("\n".join(lines) + "\n")


LEDGER_NUMPY, LEDGER = read_ledger()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("ledger"))


def test_the_chain_writes_exactly_the_ledger_outputs(digests):
    assert sorted(digests) == sorted(LEDGER)


@pytest.mark.parametrize("output", LEDGER)
def test_output_matches_ledger(digests, output):
    hint = "" if LEDGER_NUMPY == np.__version__ else (
        f" (the ledger was written with numpy {LEDGER_NUMPY}, this is {np.__version__})"
    )
    assert digests.get(output) == LEDGER[output], f"{output} moved{hint}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        new = run_commands(Path(tmp))
    write_ledger(new)
    print(f"wrote {len(new)} digests to {LEDGER_PATH}")
