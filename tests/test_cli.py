"""Unit tests for the CLI: end-to-end subcommand flows, exit codes,
manifests, and config-file injection."""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from trisim import evaluation
from trisim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _inject_config,
    main,
)
from trisim.dataio import read_triplets_jsonl, read_unlabeled_jsonl


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


class TestMalformedInput:
    @pytest.mark.parametrize(
        "target,bad_line",
        [
            ("test", "+1,0.5,abc"),
            ("unlabeled", '{"x": [1.0]}'),
            ("triplets", '{"anchor": [1.0], "c1": [2.0]}'),
            ("test", "+1,nan,0.5"),
            ("unlabeled", '{"x": [NaN, 1.0]}'),
        ],
    )
    def test_exits_config_with_one_line(self, tmp_path, capsys, target, bad_line):
        data = _synth(tmp_path)
        triplets, unlabeled = _weak(tmp_path, data)
        bad = {"test": data, "unlabeled": unlabeled, "triplets": triplets}[target]
        lines = bad.read_text().splitlines()
        lines[5] = bad_line
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
        assert err[0].startswith(f"error: {bad}:6: ")

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
            (["--kind", "prior", "--given", "0.35", "--seeds", ","], "no seeds to sweep"),
            (["--kind", "prior"], "no given priors to sweep"),
            (["--kind", "fraction", "--fractions", ","], "no fractions to sweep"),
            (["--kind", "correction", "--seeds", ","], "no seeds to sweep"),
            (["--kind", "correction", "--corrections", ""], "no corrections to sweep"),
        ],
        ids=["seeds", "given", "fractions", "correction-seeds", "corrections"],
    )
    def test_exits_config(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert main(["sweep", "--pi", "0.4", *flags, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {message}: the list is empty"
        ]
        assert not out.exists()


class TestSweepValidatesFirst:
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--kind", "fraction", "--fractions", "0.5,1.0,2"],
             "fraction must lie in (0, 1], got 2.0"),
            (["--kind", "prior", "--given", "0.4,1.5"],
             "pi_plus must lie strictly in (0, 1), got 1.5"),
        ],
        ids=["fraction", "prior"],
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


def test_corrections_list_items_are_stripped(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(evaluation, "weak_run", lambda *a, **k: calls.append(a) or 0.9)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--kind", "correction", "--pi", "0.4", "--corrections", "none, abs",
            "--seeds", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert [a[1].correction.value for a in calls] == ["none", "abs"]
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["none", "abs"]
    capsys.readouterr()


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
