"""Unit tests for file formats: round trips, byte-stability, and error
reporting on malformed inputs."""
import numpy as np
import pytest

from trisim.core import ClassPrior, InvalidInputError, LabeledPool
from trisim.dataio import (
    read_labeled_csv,
    read_model,
    read_triplets_jsonl,
    read_unlabeled_jsonl,
    read_weak_dataset,
    write_labeled_csv,
    write_model,
    write_sweep_csv,
    write_sweep_json,
    write_train_log_csv,
    write_triplets_jsonl,
    write_unlabeled_jsonl,
)
from trisim.evaluation import SweepResult, SweepRow
from trisim.model import init_model
from trisim.trainer import EpochRecord, TrainLog


def _pool():
    rng = np.random.default_rng(0)
    return LabeledPool(
        x=rng.normal(size=(10, 3)), y=rng.choice([1, -1], size=10)
    )


class TestLabeledCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        pool = _pool()
        write_labeled_csv(path, pool)
        back = read_labeled_csv(path)
        np.testing.assert_array_equal(back.x, pool.x)
        np.testing.assert_array_equal(back.y, pool.y)

    def test_header(self, tmp_path):
        path = tmp_path / "data.csv"
        write_labeled_csv(path, _pool())
        assert path.read_text().splitlines()[0] == "y,f1,f2,f3"

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2.0\n")
        with pytest.raises(InvalidInputError):
            read_labeled_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y,f1\n")
        with pytest.raises(InvalidInputError):
            read_labeled_csv(path)

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pool = _pool()
        write_labeled_csv(a, pool)
        write_labeled_csv(b, pool)
        assert a.read_bytes() == b.read_bytes()


class TestJsonl:
    def test_triplets_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = np.random.default_rng(1).normal(size=(5, 3, 2))
        write_triplets_jsonl(path, t)
        np.testing.assert_array_equal(read_triplets_jsonl(path), t)

    def test_unlabeled_round_trip(self, tmp_path):
        path = tmp_path / "u.jsonl"
        x = np.random.default_rng(2).normal(size=(7, 2))
        write_unlabeled_jsonl(path, x)
        np.testing.assert_array_equal(read_unlabeled_jsonl(path), x)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_text('{"x": [1.0]}\n\n{"x": [2.0]}\n')
        np.testing.assert_array_equal(read_unlabeled_jsonl(path), [[1.0], [2.0]])

    def test_empty_files_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            read_triplets_jsonl(path)
        with pytest.raises(InvalidInputError):
            read_unlabeled_jsonl(path)

    def test_read_weak_dataset(self, tmp_path):
        tp, up = tmp_path / "t.jsonl", tmp_path / "u.jsonl"
        rng = np.random.default_rng(3)
        write_triplets_jsonl(tp, rng.normal(size=(4, 3, 2)))
        write_unlabeled_jsonl(up, rng.normal(size=(6, 2)))
        data = read_weak_dataset(tp, up, ClassPrior(0.4), sampler_kind="paper_case")
        assert data.n_triplets == 4
        assert data.n_unlabeled == 6
        assert data.sampler_kind == "paper_case"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "reader,text,message",
        [
            (read_labeled_csv, "y,f1,f2\n+1,0.5,1.0\n+1,0.5,abc\n", ":3: could not convert"),
            (read_labeled_csv, "y,f1,f2\n+1,0.5,1.0\n1.5,0.5,1.0\n", ":3: invalid literal"),
            (read_labeled_csv, "y,f1,f2\n+1,0.5,1.0\n-1,0.5\n", ":3: expected 3 fields, got 2"),
            (read_unlabeled_jsonl, '{"x": [1.0, 2.0]}\n{"x": [1.0]}\n', ":2: ragged row"),
            (read_unlabeled_jsonl, '{"x": [1.0, "abc"]}\n', ":1: could not convert"),
            (read_unlabeled_jsonl, '{"x": [1.0]}\n{"x": [1.0,\n', ":2: invalid JSON"),
            (read_unlabeled_jsonl, "[1.0, 2.0]\n", ":1: expected a JSON object with keys x"),
            (read_triplets_jsonl, '{"anchor": [1.0], "c1": [2.0]}\n', ":1: expected a JSON object"),
            (
                read_triplets_jsonl,
                '{"anchor": [1.0], "c1": [2.0], "c2": [3.0]}\n'
                '{"anchor": [1.0], "c1": [2.0], "c2": [1.0, 2.0]}\n',
                ":2: ",
            ),
            (read_labeled_csv, "y,f1,f2\n+1,0.5,1.0\n-1,nan,1.0\n", ":3: non-finite value"),
            (read_labeled_csv, "y,f1\n+1,-inf\n", ":2: non-finite value"),
            (read_unlabeled_jsonl, '{"x": [1.0, 2.0]}\n\n{"x": [NaN, 2.0]}\n', ":3: non-finite"),
            (
                read_triplets_jsonl,
                '{"anchor": [1.0], "c1": [2.0], "c2": [Infinity]}\n',
                ":1: non-finite value",
            ),
            (read_labeled_csv, b"y,f1\n+1,0.5\n-1,\xff\xfe\n", ": not UTF-8"),
            (read_unlabeled_jsonl, b'{"x": [1.0]}\n\x80\x81\n', ": not UTF-8"),
        ],
        ids=[
            "csv-bad-number", "csv-bad-label", "csv-ragged", "jsonl-ragged",
            "jsonl-bad-number", "jsonl-invalid-json", "jsonl-not-object",
            "triplet-missing-key", "triplet-ragged", "csv-nan", "csv-inf",
            "jsonl-nan", "triplet-inf", "csv-not-utf8", "jsonl-not-utf8",
        ],
    )
    def test_names_path_and_line(self, tmp_path, reader, text, message):
        path = tmp_path / "bad.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(InvalidInputError) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}:")
        assert message in str(exc.value)


class TestModelFile:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_round_trip(self, tmp_path, kind):
        path = tmp_path / "model.json"
        model = init_model(kind, 3, hidden=4, seed=5)
        write_model(path, model, config_echo={"seed": 5})
        back = read_model(path)
        for k in model.params():
            np.testing.assert_array_equal(model.params()[k], back.params()[k])

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "invalid JSON"),
            ('{"kind": "linear",', "invalid JSON"),
            ('{"kind": "linear", "dim": 2}', "missing key 'params'"),
            (
                '{"kind": "mlp", "dim": 1, "hidden": 1, "activation": "tanh", '
                '"params": {"w1": [1.0], "b1": [0.0], "w2": [1.0], "b2": [0.0]}}',
                "unsupported activation 'tanh'",
            ),
        ],
        ids=["empty", "invalid-json", "missing-params", "tanh"],
    )
    def test_bad_file_names_path(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as exc:
            read_model(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)


class TestLogsAndSweeps:
    def test_train_log_csv(self, tmp_path):
        path = tmp_path / "log.csv"
        log = TrainLog(
            records=[
                EpochRecord(1, 0.5, 0.5, 0.2, 0.3, 0.9),
                EpochRecord(2, -0.1, 0.1, -0.2, 0.1, None),
            ]
        )
        write_train_log_csv(path, log)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("epoch,raw_risk")
        assert len(lines) == 3
        assert lines[2].endswith(",")  # missing accuracy serializes empty

    def test_sweep_csv_and_json(self, tmp_path):
        result = SweepResult(
            axis="fraction",
            rows=[
                SweepRow("0.5", 0.9, 0.01, 2, (0.89, 0.91)),
                SweepRow("bad", None, None, 0, (), error="skipped"),
            ],
            config={"n_us": 10},
        )
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        write_sweep_csv(csv_path, result)
        write_sweep_json(json_path, result)
        text = csv_path.read_text()
        assert "0.89" in text and "skipped" in text
        import json

        doc = json.loads(json_path.read_text())
        assert doc["config"]["n_us"] == 10
        assert doc["rows"][1]["error"] == "skipped"
