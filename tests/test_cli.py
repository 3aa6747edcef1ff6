"""Unit tests for the CLI: end-to-end subcommand flows, exit codes,
manifests, and config-file injection."""
import argparse
import csv
import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from trisim import cli, evaluation
from trisim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _inject_config,
    main,
)
from trisim.core import ClassPrior, CorrectionKind
from trisim.dataio import read_labeled_csv, read_triplets_jsonl, read_unlabeled_jsonl
from trisim.trainer import TrainConfig
from trisim.verify import VerifyReport


def _synth(tmp_path, name="data.csv", n=200, seed=1):
    out = tmp_path / name
    rc = main(
        ["synth", "--pi", "0.4", "--n", str(n), "--seed", str(seed), "--out", str(out)]
    )
    assert rc == EXIT_OK
    return out


def _weak(tmp_path, data, seed=1):
    out_dir = tmp_path / "weak"
    rc = main(
        [
            "make-weak", "--in", str(data), "--n-us", "40", "--n-u", "60",
            "--seed", str(seed), "--out-dir", str(out_dir),
        ]
    )
    assert rc == EXIT_OK
    return out_dir / "triplets.jsonl", out_dir / "unlabeled.jsonl"


class TestSynth:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        out = _synth(tmp_path)
        assert out.exists()
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 1
        assert str(out) in manifest["outputs"]
        # the manifest is also printed
        assert "subcommand" in capsys.readouterr().out

    def test_invalid_prior_exits_config(self, tmp_path):
        rc = main(
            ["synth", "--pi", "1.5", "--n", "10", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == EXIT_CONFIG

    def test_missing_required_flag_exits_usage(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--pi", "0.4", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE

    def test_one_mean_without_the_other_exits_config(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["synth", "--pi", "0.4", "--n", "10", "--mu-plus", "1,0", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --mu-plus and --mu-minus must be given together"]

    def test_explicit_means(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(
            [
                "synth", "--pi", "0.4", "--n", "10", "--dim", "3", "--mu-plus", "1,0,2",
                "--mu-minus=-1,0,0", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["flags"]["mu_plus"] == [1.0, 0.0, 2.0]
        assert manifest["flags"]["mu_minus"] == [-1.0, 0.0, 0.0]
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--pi", "0.4", "--n", "10", "--mu-plus", "1,a", "--mu-minus", "0,0"],
        ["sweep", "--kind", "prior", "--pi", "0.4", "--seeds", "a"],
        ["sweep", "--kind", "prior", "--pi", "0.4", "--given", "x"],
        ["sweep", "--kind", "fraction", "--pi", "0.4", "--fractions", "0.5,y"],
    ],
    ids=["mu-plus", "seeds", "given", "fractions"],
)
def test_bad_list_flag_exits_usage(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert "invalid comma-separated" in err[-1]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--sep", "nan"], "class means must be finite"),
        (["--sep", "inf"], "class means must be finite"),
        (["--mu-plus", "1,0", "--mu-minus=-inf,0"], "class means must be finite"),
        (["--sep", "1e308", "--sigma", "1e308"],
         "class +1 draws overflow; use smaller means or sigma"),
    ],
    ids=["nan", "inf", "mu-minus", "overflow"],
)
def test_synth_non_finite_exits_config(tmp_path, capsys, flags, message):
    # these used to write nan/inf features that the CSV reader rejects
    out = tmp_path / "x.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["synth", "--pi", "0.4", "--n", "50", *flags, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--dim", "--n"])
def test_synth_unallocatable_size_exits_config(tmp_path, capsys, flag):
    # 10**15 float64 values are petabytes: numpy refuses before allocating
    out = tmp_path / "x.csv"
    capsys.readouterr()
    rc = main(["synth", "--pi", "0.4", "--n", "2", flag, str(10**15), "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: Unable to allocate"), err
    assert list(tmp_path.iterdir()) == []  # no output, no manifest


class TestMakeWeak:
    def test_produces_both_files(self, tmp_path):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        assert triplets.exists() and unlabeled.exists()
        # the manifest sits next to the first output and lists both files
        # and the weak.json sidecar
        manifest = json.loads((triplets.parent / "triplets.jsonl.manifest.json").read_text())
        names = [Path(p).name for p in manifest["outputs"]]
        assert names == ["triplets.jsonl", "unlabeled.jsonl", "weak.json"]

    def test_declared_prior_changes_rejection_draws(self, tmp_path, capsys):
        # the data are drawn at pi = 0.4 with class means at +-2 on axis 1
        data = _synth(tmp_path, n=400)
        runs = {}
        for pi in (None, "0.2"):
            out_dir = tmp_path / f"weak-{pi}"
            rc = main(
                [
                    "make-weak", "--in", str(data), "--n-us", "500", "--n-u", "500",
                    "--sampler", "rejection", "--out-dir", str(out_dir),
                    *(["--pi", pi] if pi else []),
                ]
            )
            assert rc == EXIT_OK
            runs[pi] = out_dir / "triplets.jsonl", out_dir / "unlabeled.jsonl"
        (t_counts, u_counts), (t_declared, u_declared) = runs[None], runs["0.2"]
        assert t_counts.read_bytes() != t_declared.read_bytes()
        assert u_counts.read_bytes() != u_declared.read_bytes()
        # fewer positives pull both pools toward the negative mean at -2
        shift = (read_triplets_jsonl(t_counts)[:, :, 0].mean()
                 - read_triplets_jsonl(t_declared)[:, :, 0].mean())
        assert shift > 0.3
        assert read_unlabeled_jsonl(u_declared)[:, 0].mean() == pytest.approx(
            0.2 * 2 - 0.8 * 2, abs=0.3
        )
        capsys.readouterr()

    def test_missing_input_exits_io(self, tmp_path):
        rc = main(
            [
                "make-weak", "--in", str(tmp_path / "nope.csv"), "--n-us", "5",
                "--n-u", "5", "--out-dir", str(tmp_path / "w"),
            ]
        )
        assert rc == EXIT_IO


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        model = tmp_path / "model.json"
        rc = main(
            [
                "train", "--us", str(triplets), "--u", str(unlabeled),
                "--pi", "0.4", "--epochs", "5", "--batch", "30",
                "--seed", "2", "--test", str(data), "--out", str(model),
            ]
        )
        assert rc == EXIT_OK
        assert model.exists()
        assert (tmp_path / "model.json.log.csv").exists()
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--test", str(data)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_oversized_batch_exits_config(self, tmp_path):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        rc = main(
            [
                "train", "--us", str(triplets), "--u", str(unlabeled),
                "--pi", "0.4", "--epochs", "1", "--batch", "5000",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag,value,name",
        [
            ("--lr", "nan", "lr"),
            ("--lr", "inf", "lr"),
            ("--lr", "-1", "lr"),
            ("--lr", "0", "lr"),
            ("--weight-decay", "-5", "weight_decay"),
            ("--weight-decay", "nan", "weight_decay"),
            ("--weight-decay", "inf", "weight_decay"),
        ],
    )
    def test_bad_rate_exits_config_naming_the_flag(self, tmp_path, capsys, flag, value, name):
        # a bad rate fails before training: a non-finite one would surface as
        # non-finite scores, and a negative one trains uphill
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        capsys.readouterr()
        rc = main(
            [
                "train", "--us", str(triplets), "--u", str(unlabeled), "--pi", "0.4",
                "--epochs", "5", "--batch", "30", flag, value, "--out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name} must be finite"), err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("epochs", ["0", "3"])
    def test_train_rejects_a_test_set_of_the_wrong_width(self, tmp_path, capsys, epochs):
        # d = 2 weak data, a d = 3 test set: fails right after reading, before
        # any epoch, and writes neither the model nor its log
        triplets, unlabeled = _weak(tmp_path, _synth(tmp_path))
        wide = tmp_path / "t3.csv"
        assert main(["synth", "--pi", "0.4", "--n", "50", "--dim", "3", "--out", str(wide)]) == 0
        model = tmp_path / "m.json"
        capsys.readouterr()
        rc = main(
            [
                "train", "--us", str(triplets), "--u", str(unlabeled), "--pi", "0.4",
                "--epochs", epochs, "--batch", "30", "--test", str(wide), "--out", str(model),
            ]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {wide}: the test set has 3 features, the weak data have 2"
        ]
        assert list(tmp_path.glob("m.json*")) == []

    def test_eval_rejects_a_test_set_of_the_wrong_width(self, tmp_path, capsys):
        triplets, unlabeled = _weak(tmp_path, _synth(tmp_path))
        model = tmp_path / "m.json"
        rc = main(
            [
                "train", "--us", str(triplets), "--u", str(unlabeled), "--pi", "0.4",
                "--epochs", "1", "--batch", "30", "--out", str(model),
            ]
        )
        assert rc == EXIT_OK
        wide = tmp_path / "t3.csv"
        assert main(["synth", "--pi", "0.4", "--n", "50", "--dim", "3", "--out", str(wide)]) == 0
        out = tmp_path / "e.json"
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--test", str(wide), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {wide}: the test set has 3 features, the model takes 2"
        ]
        assert list(tmp_path.glob("e.json*")) == []


class TestMalformedInput:
    @pytest.mark.parametrize(
        "target,bad_line",
        [
            ("test", "+1,0.5,abc"),
            ("unlabeled", '{"x": [1.0]}'),
            ("triplets", '{"anchor": [1.0], "c1": [2.0]}'),
            ("test", "+1,nan,0.5"),
            ("unlabeled", '{"x": [NaN, 1.0]}'),
            ("test", "1" + "0" * 30 + ",0.5,0.5"),  # beyond int64
            ("test", "2,0.5,0.5"),
            pytest.param("unlabeled", "[" * 100_000, id="unlabeled-nested-past-recursion-limit"),
            # "header" puts the bad line first in the test CSV
            pytest.param("header", "y," + "1" * (csv.field_size_limit() + 1), id="header-field-limit"),
        ],
    )
    def test_exits_config_with_one_line(self, tmp_path, capsys, target, bad_line):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        bad = {"test": data, "header": data, "unlabeled": unlabeled, "triplets": triplets}[target]
        lineno = 1 if target == "header" else 6
        lines = bad.read_text().splitlines()
        lines[lineno - 1] = bad_line
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(
            [
                "train", "--us", str(triplets), "--u", str(unlabeled), "--pi", "0.4",
                "--epochs", "1", "--batch", "30", "--test", str(data),
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {bad}:{lineno}: ")

    def test_eval_on_random_bytes(self, tmp_path, capsys):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        model = tmp_path / "m.json"
        train = ["train", "--us", str(triplets), "--u", str(unlabeled), "--pi", "0.4"]
        assert main(train + ["--epochs", "1", "--batch", "30", "--out", str(model)]) == EXIT_OK
        noise = tmp_path / "noise.csv"
        # a leading 0xff byte is never valid UTF-8
        noise.write_bytes(b"\xff" + np.random.default_rng(0).bytes(199))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--test", str(noise)]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {noise}: not UTF-8 text"
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{not json",
            '{"kind": "linear", "dim": 2}',
            '{"kind": "mlp", "dim": 2, "hidden": 1, "activation": "tanh", "params": '
            '{"w1": [1.0, 0.0], "b1": [0.0], "w2": [1.0], "b2": [0.0]}}',
            "[]",
            '{"kind": "linear", "dim": 2, "params": {"weights": [1.0, "a"], "bias": [0.0]}}',
            '{"kind": "mlp", "dim": 2, "hidden": 3, "params": '
            '{"w1": [1.0, 0.0], "b1": [0.0], "w2": [1.0], "b2": [0.0]}}',
        ],
        ids=["empty", "invalid-json", "missing-params", "tanh", "list", "mistyped", "mis-sized"],
    )
    def test_eval_on_bad_model_file(self, tmp_path, capsys, text):
        data = _synth(tmp_path)
        model = tmp_path / "m.json"
        model.write_text(text)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--test", str(data)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {model}: ")


class TestFeaturelessData:
    def test_make_weak_rejects_a_csv_without_features(self, tmp_path, capsys):
        data = tmp_path / "y.csv"
        data.write_text("y\n1\n-1\n1\n")
        out_dir = tmp_path / "w"
        capsys.readouterr()
        rc = main(["make-weak", "--in", str(data), "--n-us", "4", "--n-u", "3",
                   "--out-dir", str(out_dir)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data}: expected a feature column after 'y'"
        ]
        assert not out_dir.exists()

    def test_train_on_empty_vectors_exits_config(self, tmp_path, capsys):
        us, u = tmp_path / "t.jsonl", tmp_path / "u.jsonl"
        us.write_text('{"anchor": [], "c1": [], "c2": []}\n' * 4)
        u.write_text('{"x": []}\n' * 3)
        model = tmp_path / "m.json"
        capsys.readouterr()
        rc = main(["train", "--us", str(us), "--u", str(u), "--pi", "0.6", "--out", str(model)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["error: dim must be >= 1, got 0"]
        assert not model.exists()


class TestWeakMeta:
    def _paper_case_weak(self, tmp_path):
        data = _synth(tmp_path)
        out_dir = tmp_path / "weak"
        rc = main(
            [
                "make-weak", "--in", str(data), "--n-us", "40", "--n-u", "60",
                "--sampler", "paper_case", "--seed", "1", "--out-dir", str(out_dir),
            ]
        )
        assert rc == EXIT_OK
        return out_dir

    def _train(self, out_dir, *flags):
        return main(
            [
                "train", "--us", str(out_dir / "triplets.jsonl"),
                "--u", str(out_dir / "unlabeled.jsonl"), "--pi", "0.4",
                "--epochs", "2", "--batch", "30", "--out", str(out_dir / "m.json"), *flags,
            ]
        )

    def test_other_sampler_exits_config(self, tmp_path, capsys):
        out_dir = self._paper_case_weak(tmp_path)
        capsys.readouterr()
        assert self._train(out_dir) == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {out_dir / 'weak.json'}: sampler is 'paper_case', but training uses 'rejection'"
        ]

    def test_same_sampler_and_other_prior_train(self, tmp_path, capsys):
        out_dir = self._paper_case_weak(tmp_path)
        assert self._train(out_dir, "--sampler", "paper_case", "--pi", "0.35") == EXIT_OK
        capsys.readouterr()

    def test_count_mismatch_exits_config(self, tmp_path, capsys):
        out_dir = self._paper_case_weak(tmp_path)
        triplets = out_dir / "triplets.jsonl"
        triplets.write_text("".join(triplets.read_text().splitlines(True)[:39]))
        capsys.readouterr()
        assert self._train(out_dir, "--sampler", "paper_case") == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {out_dir / 'weak.json'}: n_us is 40, but {triplets} holds 39"]

    @pytest.mark.parametrize("pi", [["--pi", "0.3"], []], ids=["given", "label-counts"])
    @pytest.mark.parametrize("sampler", ["rejection", "paper_case"])
    def test_records_the_prior_the_data_were_drawn_under(self, tmp_path, capsys, sampler, pi):
        data = _synth(tmp_path, n=201)  # 80 positives: a frequency other than synth's --pi
        out_dir = tmp_path / "weak"
        rc = main(["make-weak", "--in", str(data), "--n-us", "40", "--n-u", "60",
                   "--sampler", sampler, *pi, "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        capsys.readouterr()
        # without --pi the pool is drawn under its own label frequency
        want = 0.3 if pi else float(np.mean(read_labeled_csv(data).y == 1))
        assert json.loads((out_dir / "weak.json").read_text())["pi_plus"] == want

    def test_sidecar_not_utf8_exits_config(self, tmp_path, capsys):
        out_dir = self._paper_case_weak(tmp_path)
        (out_dir / "weak.json").write_bytes(b'{"sampler": "paper_case", \xff}\n')
        capsys.readouterr()
        assert self._train(out_dir, "--sampler", "paper_case") == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out_dir / 'weak.json'}: not UTF-8 text"
        ]

    def test_no_sidecar_trains_as_asked(self, tmp_path, capsys):
        out_dir = self._paper_case_weak(tmp_path)
        (out_dir / "weak.json").unlink()
        assert self._train(out_dir) == EXIT_OK
        capsys.readouterr()


class TestDivergence:
    @pytest.mark.parametrize("epochs", ["5", "50"])
    def test_exits_config_naming_the_epoch(self, tmp_path, capsys, epochs):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
            rc = main(
                [
                    "train", "--us", str(triplets), "--u", str(unlabeled), "--pi", "0.4",
                    "--lr", "1e9", "--epochs", epochs, "--batch", "30",
                    "--out", str(tmp_path / "m.json"),
                ]
            )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: training diverged at epoch ")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "flags,op",
        [(["--lr", "1e300"], "multiply"),
         (["--model", "mlp", "--hidden", "4", "--lr", "1e200"], "matmul")],
        ids=["linear", "mlp"],
    )
    def test_an_overflow_exits_config_naming_the_operation(self, tmp_path, capsys, flags, op):
        triplets, unlabeled = _weak(tmp_path, _synth(tmp_path))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--us", str(triplets), "--u", str(unlabeled), "--pi", "0.4",
                       *flags, "--epochs", "5", "--batch", "30", "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: training diverged at epoch 1: overflow encountered in {op}"]
        assert not list(tmp_path.glob("m.json*"))


class TestVerify:
    def test_quick_suites_pass(self, tmp_path, capsys):
        for suite in ("thetas", "identity", "matched"):
            rc = main(["verify", "--suite", suite, "--seed", "0"])
            assert rc == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert doc["passed"]

    def test_verify_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--suite", "thetas", "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["suite"] == "thetas"
        capsys.readouterr()

    @pytest.mark.parametrize(
        "failing,code",
        [(None, EXIT_OK), (True, EXIT_VERIFY), (False, EXIT_OK)],
        ids=["passing", "assertable-fails", "non-assertable-fails"],
    )
    def test_all_merges_every_suite_in_order(self, monkeypatch, capsys, failing, code):
        def stub(name):
            def run(seed):
                report = VerifyReport(suite=name)
                report.add("seed", 7, seed, 0)
                if failing is not None and name == "bias":
                    report.add("forced", 0.0, 1.0, 0.5, assertable=failing)
                return report
            return run

        suites = {name: stub(name) for name in cli.SUITES}
        monkeypatch.setattr(cli, "SUITES", suites)
        assert main(["verify", "--suite", "all", "--seed", "7"]) == code
        doc = json.loads(capsys.readouterr().out)
        names = [f"{name}.seed" for name in suites]
        if failing is not None:
            names.insert(names.index("bias.seed") + 1, "bias.forced")
        assert doc["suite"] == "all"
        assert [c["name"] for c in doc["checks"]] == names
        assert doc["passed"] is (failing is None)


class TestSweep:
    def test_fraction_sweep_outputs(self, tmp_path, capsys):
        out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
        rc = main(
            [
                "sweep", "--kind", "fraction", "--pi", "0.4",
                "--fractions", "1.0", "--seeds", "0", "--n-us", "40",
                "--n-u", "60", "--n-test", "100", "--epochs", "2",
                "--batch", "30", "--out", str(out), "--json-out", str(json_out),
            ]
        )
        assert rc == EXIT_OK
        assert out.exists()
        assert json.loads(json_out.read_text())["axis"] == "fraction"
        capsys.readouterr()

    def test_prior_sweep_skips_half(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc = main(
            [
                "sweep", "--kind", "prior", "--pi", "0.4", "--given", "0.4,0.5",
                "--seeds", "0", "--n-us", "40", "--n-u", "60", "--n-test", "100",
                "--epochs", "2", "--batch", "30", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert "degenerate" in out.read_text()
        capsys.readouterr()


class TestSweepEmptyLists:
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--kind", "prior", "--given", "0.35", "--seeds", ","],
             "no seeds to sweep: the list is empty"),
            (["--kind", "prior"], "no given priors to sweep: the list is empty"),
            (["--kind", "fraction", "--fractions", ","], "no fractions to sweep: the list is empty"),
            (["--kind", "correction", "--seeds", ","], "no seeds to sweep: the list is empty"),
            (["--kind", "correction", "--corrections", ""],
             "no corrections to sweep: the list is empty"),
            # a fraction's one-point floor once turned a negative budget into a run
            (["--kind", "fraction", "--fractions", "1.0", "--n-us", "-5", "--n-u", "3",
              "--batch", "3", "--epochs", "1", "--n-test", "50", "--seeds", "0"],
             "n_us must be >= 1, got -5"),
            (["--kind", "correction", "--n-u", "0"], "n_u must be >= 1, got 0"),
        ],
        ids=["seeds", "given", "fractions", "correction-seeds", "corrections", "n-us", "n-u"],
    )
    def test_exits_config(self, tmp_path, capsys, flags, message):
        out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
        capsys.readouterr()
        argv = ["sweep", "--pi", "0.4", *flags, "--out", str(out), "--json-out", str(json_out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()
        assert not json_out.exists()


class TestSweepValidatesFirst:
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--kind", "fraction", "--fractions", "0.5,1.0,2"],
             "fraction must lie in (0, 1], got 2.0"),
            (["--kind", "prior", "--given", "0.4,1.5"],
             "pi_plus must lie strictly in (0, 1), got 1.5"),
            # pools of 3 and 20 clamp the batch to 3, so no --batch can help
            (["--kind", "fraction", "--fractions", "1.0,0.01", "--seeds", "0,1,2",
              "--n-us", "100", "--n-u", "2000"],
             "fraction 0.01: 8 batches cannot each contain a point from every pool "
             "(pool sizes 3, 20); supply more data"),
            (["--kind", "correction", "--corrections", "none", "--n-us", "100", "--batch", "2"],
             "correction none: 1150 batches cannot each contain a point from every pool "
             "(pool sizes 300, 2000); increase --batch"),
            # pools of 1 and 1 clamp the batch to 1 even when no epoch needs a plan
            (["--kind", "fraction", "--fractions", "0.01", "--epochs", "0", "--n-us", "40",
              "--n-u", "60", "--batch", "30"],
             "fraction 0.01: batch_size must be >= 2, got 1"),
            # a test set of one point once failed inside the first run
            (["--kind", "correction", "--n-test", "1"], "n_test must be >= 2, got 1"),
            # a repeated value once trained its cells again and wrote the row twice
            (["--kind", "fraction", "--fractions", "0.5,1.0,0.50"],
             "fraction 0.5 is listed more than once"),
            (["--kind", "correction", "--corrections", "abs,none,abs"],
             "correction abs is listed more than once"),
            (["--kind", "prior", "--given", "0.35,0.35"],
             "given_prior 0.35 is listed more than once"),
            (["--kind", "fraction", "--fractions", "1.0", "--seeds", "0,0"],
             "seed 0 is listed more than once"),
        ],
        ids=["fraction", "prior", "fraction-batch-plan", "correction-batch-plan",
             "zero-epoch-batch", "n-test", "repeated-fraction", "repeated-correction",
             "repeated-prior", "repeated-seed"],
    )
    def test_bad_late_setting_exits_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                   flags, message):
        calls = []
        monkeypatch.setattr(evaluation, "weak_run", lambda *a, **k: calls.append(a) or 0.9)
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--pi", "0.4", *flags, "--out", str(out)]) == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()


# sha256 of the CSV and JSON each kind writes; guards the bits that
# test_sweep_matches_pinned_result's rel=1e-9 allows
SWEEP_DIGESTS = {
    "prior": (["--given", "0.35,0.5,0.45"],
              "83470931ef4eb92c4370553577206107dd037286df4c22a92c290eb2bc8d81ba",
              "2bcd6d4b678db26b42d1c23cc2dbff870f2869477f57cc8bde186fd76f101baa"),
    "fraction": (["--fractions", "0.5,1.0"],
                 "39f23933ffb020f58fd00e2f463c1540181e15e336d3f2eb59c0ee1b5917b0e9",
                 "b93d1791bb6b9299cf4425b0b625b751665459033165bcce12c34190284b7c53"),
    "correction": (["--corrections", "none,abs"],
                   "d084f60a4bbe141884ad2d092dd919875d3ff70a5cd96baefcdfafe23323ccb4",
                   "59075c22d04e7d81129601e7a76f8c0e459510838ca0abeeacce2903c2d4b77a"),
}


@pytest.mark.parametrize("kind", SWEEP_DIGESTS)
def test_sweep_outputs_match_pinned_digests(tmp_path, capsys, kind):
    flags, csv_digest, json_digest = SWEEP_DIGESTS[kind]
    out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
    argv = ["sweep", "--kind", kind, "--pi", "0.4", "--seeds", "0,1", "--n-us", "40",
            "--n-u", "60", "--batch", "50", "--epochs", "20", "--n-test", "500", *flags,
            "--out", str(out), "--json-out", str(json_out)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(json_out.read_bytes()).hexdigest() == json_digest
    capsys.readouterr()


def test_corrections_list_items_are_stripped(tmp_path, capsys, monkeypatch):
    # one lane: a forked lane's weak_run calls are not seen by this process
    monkeypatch.setattr(evaluation, "_cpus", lambda: 1)
    calls = []
    monkeypatch.setattr(evaluation, "weak_run", lambda *a, **k: calls.append(a) or 0.9)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--kind", "correction", "--pi", "0.4", "--corrections", "none, abs",
            "--seeds", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert [a[1].correction.value for a in calls] == ["none", "abs"]
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["none", "abs"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--pi", "0.4", "--n", "5", "--seed", "-1", "--out", "{out}"],
        ["make-weak", "--in", "{csv}", "--n-us", "5", "--n-u", "5", "--seed", "-1",
         "--out-dir", "{out}"],
        ["train", "--us", "{csv}", "--u", "{csv}", "--pi", "0.4", "--seed", "-1", "--out", "{out}"],
        ["verify", "--suite", "thetas", "--seed", "-1", "--out", "{out}"],
        ["sweep", "--kind", "correction", "--pi", "0.4", "--seed", "-1", "--out", "{out}"],
        ["sweep", "--kind", "correction", "--pi", "0.4", "--seeds", "0,-1", "--out", "{out}"],
    ],
    ids=["synth", "make-weak", "train", "verify", "sweep-seed", "sweep-seeds"],
)
def test_negative_seed_exits_usage(tmp_path, capsys, monkeypatch, argv):
    # numpy seeds must be non-negative; a negative one used to reach
    # SeedSequence and end in a traceback
    calls = []
    monkeypatch.setattr(evaluation, "weak_run", lambda *a, **k: calls.append(a) or 0.9)
    csv, out = _synth(tmp_path), tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([a.format(csv=csv, out=out) for a in argv])
    assert exc.value.code == EXIT_USAGE
    assert "invalid" in capsys.readouterr().err.splitlines()[-1]
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,source,value",
    [
        ("train", "flag", "plain"),
        ("train", "config", "matched"),
        ("sweep", "flag", "plain"),
        ("sweep", "config", "matched"),
    ],
    ids=["flag", "config", "sweep-flag", "sweep-config"],
)
def test_estimator_is_not_an_option(tmp_path, capsys, subcommand, source, value):
    # the matched estimator is not an option: no --estimator flag, no config
    # key; the usage error names the subcommand whose flags were expected
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"estimator={value}\n")
    extra = ["--estimator", value] if source == "flag" else ["--config", str(cfg)]
    required = {
        "train": ["--us", "t.jsonl", "--u", "u.jsonl", "--pi", "0.4"],
        "sweep": ["--kind", "fraction", "--pi", "0.4"],
    }
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *required[subcommand], *extra, "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: trisim {subcommand} [-h] ")
    assert err[-1] == f"trisim {subcommand}: error: unrecognized arguments: --estimator {value}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]  # no output, no manifest


class TestConfigInjection:
    def test_flags_win_over_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pi=0.3\nn=50\n# comment\n")
        out = tmp_path / "c.csv"
        rc = main(
            ["synth", "--config", str(cfg), "--pi", "0.4", "--out", str(out)]
        )
        assert rc == EXIT_OK  # n came from the config, pi from the flag
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["flags"]["pi"] == 0.4
        assert manifest["flags"]["n"] == 50

    def test_inject_config_expansion(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_us=7\n")
        argv = ["make-weak", "--config", str(cfg)]
        expanded = _inject_config(argv)
        assert expanded[:3] == ["make-weak", "--n-us", "7"]

    def test_no_config_is_identity(self):
        argv = ["synth", "--pi", "0.4"]
        assert _inject_config(argv) == argv

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # the mark once glued itself to the first key: `--\ufeffepochs 3` exited 2
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfepochs=3\n")
        triplets, unlabeled = _weak(tmp_path, _synth(tmp_path))
        out = tmp_path / "m.json"
        rc = main(["train", "--config", str(cfg), "--us", str(triplets), "--u", str(unlabeled),
                   "--pi", "0.4", "--batch", "30", "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["config"]["epochs"] == 3
        assert len((tmp_path / "m.json.log.csv").read_text().splitlines()) == 1 + 3
        capsys.readouterr()


class TestDeterminism:
    def test_synth_byte_identical(self, tmp_path, capsys):
        a = _synth(tmp_path, "a.csv", seed=9)
        b = _synth(tmp_path, "b.csv", seed=9)
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_train_byte_identical(self, tmp_path, capsys):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        models = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            rc = main(
                [
                    "train", "--us", str(triplets), "--u", str(unlabeled),
                    "--pi", "0.4", "--epochs", "3", "--batch", "30",
                    "--seed", "4", "--out", str(path),
                ]
            )
            assert rc == EXIT_OK
            models.append(json.loads(path.read_text()))
        # parameter payloads identical; the config echo differs only in the
        # output path flag
        assert models[0]["params"] == models[1]["params"]
        capsys.readouterr()


class TestConfigFile:
    def test_nested_config_exits_config_with_one_line(self, tmp_path, capsys):
        # a config=... line used to become a --config flag that was never
        # expanded, so the nested file's values were silently dropped
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(f"config={b}\n")
        b.write_text("seed=7\n")
        out = tmp_path / "z.csv"
        capsys.readouterr()
        rc = main(["synth", "--config", str(a), "--pi", "0.4", "--n", "5", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {a}: a config file cannot name another config file"
        ]
        assert not out.exists()
        assert not (tmp_path / "z.csv.manifest.json").exists()

    def test_not_utf8_exits_config_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.bin"
        cfg.write_bytes(b"\xff\xfe" + bytes(range(256)))
        rc = main(
            ["synth", "--config", str(cfg), "--pi", "0.4", "--n", "10",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"
        assert not (tmp_path / "x.csv").exists()

    def test_equals_form_is_expanded(self, tmp_path, capsys):
        cfg = tmp_path / "cfg2.txt"
        cfg.write_text("seed=5\n")
        out = tmp_path / "z.csv"
        rc = main(["synth", f"--config={cfg}", "--pi", "0.4", "--n", "5", "--out", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "z.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["flags"]["config"] == str(cfg)
        direct = tmp_path / "direct.csv"
        rc = main(["synth", "--seed", "5", "--pi", "0.4", "--n", "5", "--out", str(direct)])
        assert rc == EXIT_OK
        assert out.read_bytes() == direct.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("second", ["--config", "--config="], ids=["spaced", "equals"])
    def test_repeated_config_exits_config_with_one_line(self, tmp_path, capsys, second):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("seed=5\n")
        b.write_text("seed=7\n")
        out = tmp_path / "z.csv"
        tail = [second, str(b)] if second == "--config" else [f"--config={b}"]
        capsys.readouterr()
        rc = main(["synth", "--config", str(a), *tail, "--pi", "0.4", "--n", "5",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --config given more than once\n"
        assert not out.exists()
        assert not (tmp_path / "z.csv.manifest.json").exists()

    @pytest.mark.parametrize(
        "flag", [["--conf", "{cfg}"], ["--conf={cfg}"], ["--see", "5"]],
        ids=["conf", "conf-equals", "see"],
    )
    def test_abbreviated_flag_exits_usage(self, tmp_path, capsys, flag):
        # an abbreviation used to parse as the full flag, and --conf was
        # recorded as the config file without being expanded
        cfg = tmp_path / "a.txt"
        cfg.write_text("seed=5\n")
        out = tmp_path / "z.csv"
        argv = ["synth", *(f.format(cfg=cfg) for f in flag), "--pi", "0.4", "--n", "5",
                "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "z.csv.manifest.json").exists()


@dataclass(frozen=True)
class _OtherDefaults(TrainConfig):
    """TrainConfig with every training flag's default changed."""

    correction: CorrectionKind = CorrectionKind.NONE
    epochs: int = 7
    batch_size: int = 30
    lr: float = 0.25
    weight_decay: float = 0.0
    model_kind: str = "mlp"
    hidden: int = 3


class TestRunRecord:
    """main writes one manifest per run that wrote files, beside the first
    of them, and prints it; it lists exactly what the subcommand declares it
    reads and writes, and the --config file as an input."""

    _TRAIN = ["train", "--us", "weak/triplets.jsonl", "--u", "weak/unlabeled.jsonl",
              "--pi", "0.4", "--epochs", "2", "--batch", "30", "--out", "m.json"]
    _SWEEP = ["sweep", "--kind", "fraction", "--pi", "0.4", "--fractions", "1.0", "--seeds", "0",
              "--n-us", "40", "--n-u", "60", "--n-test", "100", "--epochs", "2", "--batch", "30",
              "--out", "s.csv"]

    @pytest.fixture
    def run_dir(self, tmp_path, monkeypatch, capsys):
        """tmp_path as the working directory, holding data.csv, weak/ and
        model.json, with their manifests removed, and the config file c.txt."""
        monkeypatch.chdir(tmp_path)
        _weak(Path("."), _synth(Path(".")))
        assert main([*self._TRAIN[:-1], "model.json"]) == EXIT_OK
        for path in tmp_path.rglob("*.manifest.json"):
            path.unlink()
        Path("c.txt").write_text("seed=3\n")
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize(
        "argv,inputs,outputs",
        [
            (["synth", "--pi", "0.4", "--n", "20", "--out", "x.csv"], [], ["x.csv"]),
            (["make-weak", "--in", "data.csv", "--n-us", "40", "--n-u", "60", "--out-dir", "w"],
             ["data.csv"], ["w/triplets.jsonl", "w/unlabeled.jsonl", "w/weak.json"]),
            (_TRAIN, ["weak/triplets.jsonl", "weak/unlabeled.jsonl"], ["m.json", "m.json.log.csv"]),
            ([*_TRAIN, "--test", "data.csv"],
             ["weak/triplets.jsonl", "weak/unlabeled.jsonl", "data.csv"],
             ["m.json", "m.json.log.csv"]),
            (_SWEEP, [], ["s.csv"]),
            ([*_SWEEP, "--json-out", "s.json"], [], ["s.csv", "s.json"]),
            (["eval", "--model", "model.json", "--test", "data.csv", "--out", "e.json"],
             ["model.json", "data.csv"], ["e.json"]),
            (["verify", "--suite", "thetas", "--out", "r.json"], [], ["r.json"]),
            (["synth", "--config", "c.txt", "--pi", "0.4", "--n", "20", "--out", "x.csv"],
             ["c.txt"], ["x.csv"]),
            ([*_TRAIN, "--test", "data.csv", "--config=c.txt"],
             ["weak/triplets.jsonl", "weak/unlabeled.jsonl", "data.csv", "c.txt"],
             ["m.json", "m.json.log.csv"]),
        ],
        ids=["synth", "make-weak", "train", "train-test", "sweep", "sweep-json", "eval", "verify",
             "synth-config", "train-test-config"],
    )
    def test_manifest_lists_exactly_what_was_read_and_written(self, run_dir, capsys, argv,
                                                              inputs, outputs):
        before = {p for p in run_dir.rglob("*") if p.is_file()}
        assert main(argv) == EXIT_OK
        written = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*")
                   if p.is_file() and p not in before}
        manifest_path = Path(outputs[0] + ".manifest.json")
        assert written == {*outputs, manifest_path.as_posix()}
        text = manifest_path.read_text()
        manifest = json.loads(text)
        assert manifest["subcommand"] == argv[0]
        assert list(manifest["inputs"].items()) == [
            (str(Path(p)), hashlib.sha256(Path(p).read_bytes()).hexdigest()) for p in inputs
        ]
        assert manifest["outputs"] == [str(Path(p)) for p in outputs]
        assert capsys.readouterr().out.endswith(text)  # printed last, as written

    def test_flags_leave_out_the_declaration(self, run_dir):
        # the model's config echo and the manifest's flags are the parsed
        # flags alone; an unset --log stays null
        assert main(self._TRAIN) == EXIT_OK
        manifest = json.loads(Path("m.json.manifest.json").read_text())
        assert json.loads(Path("m.json").read_text())["config"] == manifest["flags"]
        assert {"func", "files", "parser"}.isdisjoint(manifest["flags"])
        assert manifest["flags"]["log"] is None and manifest["flags"]["config"] is None

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--model", "model.json", "--test", "data.csv"], ["verify", "--suite", "thetas"]],
        ids=["eval", "verify"],
    )
    def test_no_out_prints_only_the_payload_and_writes_nothing(self, run_dir, capsys, argv):
        before = sorted(run_dir.rglob("*"))
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2 if argv[0] == "verify" else None) + "\n"
        assert sorted(run_dir.rglob("*")) == before

    def test_failed_verify_still_records_its_run(self, tmp_path, monkeypatch, capsys):
        report = VerifyReport(suite="thetas")
        report.add("forced", 0.0, 1.0, 1e-12)
        monkeypatch.setattr(cli, "check_theta_system", lambda: report)
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "thetas", "--out", "r.json"]) == EXIT_VERIFY
        assert json.loads(Path("r.json").read_text()) == report.to_dict()
        manifest = json.loads(Path("r.json.manifest.json").read_text())
        assert manifest["outputs"] == ["r.json"]
        printed = [report.to_json(), json.dumps(manifest, indent=2)]
        assert capsys.readouterr().out == "\n".join(printed) + "\n"

    @pytest.mark.parametrize(
        "argv,path,other",
        [
            ([*_TRAIN, "--log", "m.json"], "m.json", "another output"),
            ([*_TRAIN[:-1], "weak/unlabeled.jsonl"], "weak/unlabeled.jsonl", "an input"),
            ([*_TRAIN[:-1], "weak/../weak/triplets.jsonl"], "weak/../weak/triplets.jsonl",
             "an input"),
            ([*_TRAIN, "--test", "data.csv", "--log", "alias.csv"], "alias.csv", "an input"),
            ([*_TRAIN, "--log", "m.json.manifest.json"], "m.json.manifest.json", "another output"),
            (["make-weak", "--in", "weak/weak.json", "--n-us", "40", "--n-u", "60",
              "--out-dir", "weak"], "weak/weak.json", "an input"),
            (["eval", "--model", "model.json", "--test", "data.csv", "--out", "model.json"],
             "model.json", "an input"),
            ([*_SWEEP, "--json-out", "./s.csv"], "./s.csv", "another output"),
            (["synth", "--pi", "0.4", "--n", "20", "--config", "x.csv.manifest.json",
              "--out", "x.csv"], "x.csv.manifest.json", "an input"),
            (["verify", "--suite", "thetas", "--config", "c.txt", "--out", "./c.txt"], "./c.txt",
             "an input"),
        ],
        ids=["train-log-is-out", "train-out-is-input", "train-out-is-input-respelled",
             "train-log-is-a-link-to-input", "train-log-is-manifest", "make-weak",
             "eval", "sweep", "synth-manifest-is-config", "verify-out-is-config"],
    )
    def test_an_output_on_an_input_or_output_exits_before_writing(self, run_dir, capsys, argv,
                                                                  path, other):
        (run_dir / "alias.csv").symlink_to(run_dir / "data.csv")
        (run_dir / "x.csv.manifest.json").write_text("seed=3\n")
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: the same file as {other}; give each output a path of its own"
        ]
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "argv,config,text",
        [
            (["synth", "--pi", "0.4", "--n", "20", "--out", "c.txt"], "c.txt", "seed=2"),
            (["make-weak", "--in", "data.csv", "--n-us", "40", "--n-u", "60", "--out-dir", "w"],
             "w/unlabeled.jsonl", "seed=2"),
            ([*_TRAIN[:-1], "c.txt"], "c.txt", "seed=2"),
            (["eval", "--model", "model.json", "--out", "c.txt"], "c.txt", "test=data.csv"),
            (["verify", "--suite", "thetas", "--out", "c.txt"], "c.txt", "seed=2"),
            ([*_SWEEP, "--json-out", "c.txt"], "c.txt", "seed=2"),
        ],
        ids=["synth", "make-weak", "train", "eval", "verify", "sweep"],
    )
    def test_an_output_on_the_config_file_exits_before_writing(self, run_dir, capsys, argv,
                                                               config, text):
        config = Path(config)
        config.parent.mkdir(exist_ok=True)
        config.write_text(text + "\n")
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        assert main([*argv[:1], "--config", str(config), *argv[1:]]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: the same file as an input; give each output a path of its own"
        ]
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before

    def test_every_subcommand_declares_its_files_and_runs_a_cmd(self):
        # main checks and records only what a subparser declares, so a
        # subparser without a declaration, or a cmd_* no subparser runs,
        # would skip the check
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        declared = {name: callable(p.get_default("files")) for name, p in sub.choices.items()}
        assert [name for name, ok in declared.items() if not ok] == []
        # each func is a lambda that calls its cmd_* by name
        run = {n for p in sub.choices.values() for n in p.get_default("func").__code__.co_names}
        assert {name for name in dir(cli) if name.startswith("cmd_")} <= run

    @pytest.mark.parametrize("defaults", [TrainConfig, _OtherDefaults], ids=["default", "other"])
    @pytest.mark.parametrize(
        "argv",
        [["train", "--us", "t", "--u", "u", "--pi", "0.4", "--out", "m"],
         ["sweep", "--kind", "prior", "--pi", "0.4", "--out", "s"]],
        ids=["train", "sweep"],
    )
    def test_training_flags_default_to_train_config(self, monkeypatch, argv, defaults):
        # the flags read their defaults from the config class, so changing
        # the class's defaults changes the parsed config with them
        monkeypatch.setattr(cli, "TrainConfig", defaults)
        args = cli.build_parser().parse_args(argv)
        prior = ClassPrior(0.4)
        assert cli._train_config(args, prior) == defaults(prior, seed=args.seed)


class TestParserCache:
    """main builds its parser once per process, parses with it as a fresh
    parser would, and runs the cmd_* and trainer globals as they are when
    it is called."""

    _SYNTH = ["synth", "--pi", "0.4", "--n", "20", "--out", "x.csv"]
    _TRAIN = ["train", "--us", "weak/triplets.jsonl", "--u", "weak/unlabeled.jsonl",
              "--pi", "0.4", "--epochs", "2", "--batch", "30", "--out", "m.json"]

    def test_three_runs_build_one_parser(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        builds, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(self._SYNTH) == EXIT_OK
        assert len(builds) == 1

    def test_a_patch_before_the_first_run_is_what_it_calls(self, tmp_path, monkeypatch, capsys):
        # the parser is then built with the patch in place, and a later run
        # must not keep calling it once the patch is undone
        monkeypatch.chdir(tmp_path)
        _weak(Path("."), _synth(Path(".")))
        assert main(self._TRAIN) == EXIT_OK
        original = cli.cmd_eval
        eval_argv = ["eval", "--model", "m.json", "--test", "data.csv"]
        cli._parser.cache_clear()
        calls = []
        monkeypatch.setattr(cli, "cmd_eval", lambda *args: calls.append(args) or original(*args))
        assert main(eval_argv) == EXIT_OK
        assert len(calls) == 1
        monkeypatch.setattr(cli, "cmd_eval", original)
        assert main(eval_argv) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["cmd_eval", "train"])
    def test_a_patch_after_the_first_run_is_what_the_next_run_calls(
        self, tmp_path, monkeypatch, capsys, name
    ):
        monkeypatch.chdir(tmp_path)
        _weak(Path("."), _synth(Path(".")))
        assert main(self._TRAIN) == EXIT_OK
        calls, original = [], getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or original(*args))
        argv = ["eval", "--model", "m.json", "--test", "data.csv"] if name == "cmd_eval" else self._TRAIN
        assert main(argv) == EXIT_OK
        assert len(calls) == 1

    def test_the_reused_parser_parses_as_a_fresh_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(TestRunRecord._SWEEP) == EXIT_OK
        # a command that changed its parsed lists in place must not change a later parse
        sweep = ["sweep", "--kind", "prior", "--pi", "0.4", "--out", "s.csv"]
        args, _ = cli._parser().parse_known_args(sweep)
        for value in vars(args).values():
            if isinstance(value, list):
                value.append(None)
        argvs = [
            self._SYNTH,
            ["make-weak", "--in", "data.csv", "--n-us", "40", "--n-u", "60", "--out-dir", "w"],
            self._TRAIN,
            [*self._TRAIN, "--test", "data.csv", "--log", "l.csv"],
            ["eval", "--model", "m.json", "--test", "data.csv"],
            ["verify"],
            sweep,
            [*TestRunRecord._SWEEP, "--json-out", "s.json"],
        ]
        for argv in argvs:
            reused, extra = cli._parser().parse_known_args(argv)
            fresh, fresh_extra = cli.build_parser().parse_known_args(argv)
            assert extra == fresh_extra == []
            assert cli._flags(reused) == cli._flags(fresh), argv
            assert reused.files(reused) == fresh.files(fresh)
            assert reused.parser.prog == fresh.parser.prog
