"""Unit tests for file formats: round trips, byte-stability, error
reporting on malformed inputs, and the batched writers and readers against
the per-row writers and the line-loop readers they replaced."""
import csv
import json
import math
from dataclasses import fields
from itertools import chain

import numpy as np
import pytest

from trisim import dataio
from trisim.core import ClassPrior, InvalidInputError, LabeledPool, WeakDataset
from trisim.dataio import (
    TRIPLET_KEYS,
    WEAK_META,
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
    write_weak_meta,
)
from trisim.evaluation import SweepResult, SweepRow
from trisim.model import init_model
from trisim.trainer import EpochRecord


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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "a.csv", tmp_path / "b.csv"
        write_labeled_csv(plain, _pool())
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = read_labeled_csv(plain), read_labeled_csv(marked)
        assert (a.x.tobytes(), a.y.tobytes()) == (b.x.tobytes(), b.y.tobytes())


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

    @pytest.mark.parametrize("write,read,arr", [
        (write_triplets_jsonl, read_triplets_jsonl, np.arange(12.0).reshape(2, 3, 2)),
        (write_unlabeled_jsonl, read_unlabeled_jsonl, np.arange(6.0).reshape(3, 2)),
    ], ids=["triplets", "unlabeled"])
    def test_byte_order_mark_is_dropped(self, tmp_path, write, read, arr):
        # json.loads once refused the mark: `Unexpected UTF-8 BOM`
        plain, marked = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write(plain, arr)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read(marked).tobytes() == read(plain).tobytes()

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
        data = read_weak_dataset(tp, up, sampler_kind="paper_case")
        assert data.n_triplets == 4
        assert data.n_unlabeled == 6
        assert data.sampler_kind == "paper_case"


class TestWeakMeta:
    def _write(self, tmp_path, sampler="paper_case"):
        rng = np.random.default_rng(3)
        data = WeakDataset(rng.normal(size=(4, 3, 2)), rng.normal(size=(6, 2)), sampler)
        tp, up = tmp_path / "triplets.jsonl", tmp_path / "unlabeled.jsonl"
        write_triplets_jsonl(tp, data.triplets)
        write_unlabeled_jsonl(up, data.unlabeled)
        return tp, up, write_weak_meta(tmp_path, data, ClassPrior(0.3))

    def test_records_how_the_data_was_made(self, tmp_path):
        _, _, meta = self._write(tmp_path)
        assert meta == tmp_path / WEAK_META
        assert json.loads(meta.read_text()) == {
            "sampler": "paper_case", "pi_plus": 0.3, "d": 2, "n_us": 4, "n_u": 6,
        }

    def test_matching_request_reads(self, tmp_path):
        tp, up, _ = self._write(tmp_path)
        # the recorded prior is not read: misspecification is studied on purpose
        data = read_weak_dataset(tp, up, sampler_kind="paper_case")
        assert data.n_triplets == 4

    def test_other_sampler_raises(self, tmp_path):
        tp, up, meta = self._write(tmp_path)
        with pytest.raises(InvalidInputError) as exc:
            read_weak_dataset(tp, up, sampler_kind="rejection")
        assert str(exc.value) == f"{meta}: sampler is 'paper_case', but training uses 'rejection'"

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"n_us": 5}, "n_us is 5, but "),
            ({"n_u": 7}, "n_u is 7, but "),
            ({"d": 3}, "d is 3, but the files have 2"),
            ({"sampler": None}, "sampler is None"),
        ],
    )
    def test_mismatch_raises(self, tmp_path, edit, message):
        tp, up, meta = self._write(tmp_path)
        meta.write_text(json.dumps({**json.loads(meta.read_text()), **edit}))
        with pytest.raises(InvalidInputError) as exc:
            read_weak_dataset(tp, up, sampler_kind="paper_case")
        assert str(exc.value).startswith(f"{meta}: {message}")

    @pytest.mark.parametrize("text", [
        "", "[]", '{"sampler": "paper_case"}', b"\xff",
        pytest.param(b"[" * 100_000, id="nested-past-recursion-limit"),
    ])
    def test_malformed_sidecar_raises(self, tmp_path, text):
        tp, up, meta = self._write(tmp_path)
        meta.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(InvalidInputError) as exc:
            read_weak_dataset(tp, up, sampler_kind="paper_case")
        assert str(exc.value).startswith(f"{meta}: ")


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
            (read_model, b'{"kind": "linear", \xff}\n', ": not UTF-8 text"),
            (read_labeled_csv, "y,f1\n+1,0.5\n-1," + "1" * 200_000 + "\n", ":3: field larger"),
            (read_unlabeled_jsonl, '{"x": [1.0]}\n{"x": [1' + "0" * 400 + "]}\n", ":2: int too large"),
            (read_unlabeled_jsonl, '{"x": [' + "9" * 5000 + "]}\n", ":1: invalid JSON: Exceeds"),
            (read_labeled_csv, "y," + "1" * 200_000 + "\n+1,0.5\n", ":1: field larger"),
            (read_labeled_csv, "y,f1\n1" + "0" * 30 + ",0.5\n", ":2: labels must be +1 or -1"),
            (read_labeled_csv, "y,f1\n+1,0.5\n2,0.5\n", ":3: labels must be +1 or -1"),
            (read_unlabeled_jsonl, "[" * 100_000, ":1: invalid JSON: maximum recursion depth"),
            (read_unlabeled_jsonl, '{"x": [1.0], "k": 1}\n', ":1: expected a JSON object with keys x"),
            (read_unlabeled_jsonl, '{"x": 1.5}\n', ":1: expected a list of JSON numbers"),
            (read_triplets_jsonl, '{"anchor": [[1.0]], "c1": [[2.0]], "c2": [[3.0]]}\n',
             ":1: could not convert: not a JSON number"),
            (read_unlabeled_jsonl, '{"x": {}}\n', ":1: could not convert: not a JSON number"),
            # the first bad line is named, whatever its defect
            (read_labeled_csv, "y,f1\n2,0.5\n+1,abc\n", ":2: labels must be +1 or -1"),
            (read_unlabeled_jsonl, '{"x": [NaN]}\n{"x": [1.0]\n', ":1: non-finite value"),
            (read_unlabeled_jsonl, '{"x": [1.0]}\n{"x": [1.0, 2.0]}\n{"x"\n', ":2: ragged row"),
        ],
        ids=[
            "csv-bad-number", "csv-bad-label", "csv-ragged", "jsonl-ragged",
            "jsonl-bad-number", "jsonl-invalid-json", "jsonl-not-object",
            "triplet-missing-key", "triplet-ragged", "csv-nan", "csv-inf",
            "jsonl-nan", "triplet-inf", "csv-not-utf8", "jsonl-not-utf8",
            "model-not-utf8",
            "csv-field-limit", "jsonl-int-overflow", "jsonl-int-too-long",
            "csv-header-field-limit", "csv-label-beyond-int64", "csv-label-2",
            "jsonl-nested-past-recursion-limit", "jsonl-extra-key", "jsonl-scalar",
            "triplet-nested", "jsonl-empty-object", "csv-first-bad-line",
            "jsonl-non-finite-before-invalid", "jsonl-ragged-before-invalid",
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
            ("[]", "must be a JSON object"),
            (
                '{"kind": "linear", "dim": 2, "params": {"weights": [1.0, "a"], "bias": [0.0]}}',
                "'weights' is not a list of numbers",
            ),
            (
                '{"kind": "linear", "dim": 2, "params": {"weights": [1.0], "bias": [0.0]}}',
                "'weights' needs 2 finite numbers",
            ),
            (
                '{"kind": "mlp", "dim": 2, "hidden": 2, '
                '"params": {"w1": [1.0, 0.0, 1.0], "b1": [0.0, 0.0], "w2": [1.0, 1.0], "b2": [0.0]}}',
                "'w1' needs 4 finite numbers",
            ),
            (
                '{"kind": "linear", "dim": 1, "params": {"weights": [Infinity], "bias": [0.0]}}',
                "'weights' needs 1 finite numbers",
            ),
            (
                '{"kind": "mlp", "dim": 100000, "hidden": 100000, "params": {"w1": [1.0]}}',
                "must be integers that fit the parameters",
            ),
            ('{"kind": "linear", "dim": "2", "params": {}}', "must be integers"),
            ('{"kind": "linear", "dim": 1, "params": []}', "'params' must be a JSON object"),
            ('{"kind": "linear", "dim": 1, "params": {"bias": [0.0]}}', "missing parameter 'weights'"),
            ("[" * 100_000, "invalid JSON: maximum recursion depth"),
            # line ends are kept, so the offset is the file's own
            ('{\r\n  "kind": \r\n}', "invalid JSON: Expecting value: line 3 column 1 (char 15)"),
        ],
        ids=[
            "empty", "invalid-json", "missing-params", "tanh", "not-object", "mistyped-param",
            "short-param", "mlp-size", "non-finite", "oversized-dims", "string-dim",
            "params-not-object", "missing-weights", "nested-past-recursion-limit", "crlf-offset",
        ],
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
        log = [
            EpochRecord(1, 0.5, 0.5, 0.2, 0.3, 0.9),
            EpochRecord(2, -0.1, 0.1, -0.2, 0.1, None),
        ]
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
        doc = json.loads(json_path.read_text())
        assert doc["config"]["n_us"] == 10
        assert doc["rows"][1]["error"] == "skipped"


# The per-row writers that the batched ones replaced, kept as references:
# the batched writers must give their bytes.
def reference_labeled_csv(path, pool):
    d = pool.x.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"f{i + 1}" for i in range(d)])
        for yi, xi in zip(pool.y, pool.x):
            writer.writerow([f"{yi:+d}"] + [repr(float(v)) for v in xi])


def reference_jsonl(path, keys, arr):
    with open(path, "w") as fh:
        for row in np.asarray(arr, dtype=float):
            fh.write(json.dumps(dict(zip(keys, row.tolist()))) + "\n")


def reference_train_log_csv(path, log):
    names = [f.name for f in fields(EpochRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for record in log:
            values = (getattr(record, name) for name in names)
            writer.writerow(["" if v is None else repr(v) for v in values])


def reference_sweep_csv(path, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([result.axis, "mean", "std", "n_seeds", "per_seed", "error"])
        for row in result.rows:
            writer.writerow(
                [
                    row.setting,
                    "" if row.mean is None else repr(row.mean),
                    "" if row.std is None else repr(row.std),
                    row.n_seeds,
                    ";".join(repr(a) for a in row.per_seed),
                    row.error or "",
                ]
            )


EDGE = [-0.0, 5e-324, 1e308, 0.1, 1 / 3]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _floats(n, d, edge, seed=0):
    """n x d floats over many magnitudes, starting with the edge values (as
    many as fit)."""
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=n * d) * 10.0 ** rng.integers(-30, 30, size=n * d)
    flat[: len(edge)] = edge[: flat.size]
    return flat.reshape(n, d)


def _same_bytes(tmp_path, write, reference, *args):
    write(tmp_path / "batched", *args)
    reference(tmp_path / "reference", *args)
    return (tmp_path / "batched").read_bytes() == (tmp_path / "reference").read_bytes()


class TestWriterBytes:
    @pytest.mark.parametrize("n", [0, 1, 3000])
    @pytest.mark.parametrize("d", [1, 2, 50])
    def test_labeled_csv(self, tmp_path, n, d):
        pool = LabeledPool(_floats(n, d, EDGE), np.random.default_rng(1).choice([1, -1], size=n))
        assert _same_bytes(tmp_path, write_labeled_csv, reference_labeled_csv, pool)

    @pytest.mark.parametrize("n", [0, 1, 3000])
    @pytest.mark.parametrize("d", [1, 2, 50])
    def test_jsonl(self, tmp_path, n, d):
        triplets = _floats(n * 3, d, EDGE + NON_FINITE).reshape(n, 3, d)
        unlabeled = _floats(n, d, NON_FINITE + EDGE, seed=1)
        assert _same_bytes(
            tmp_path, write_triplets_jsonl,
            lambda path, t: reference_jsonl(path, TRIPLET_KEYS, t), triplets,
        )
        assert _same_bytes(
            tmp_path, write_unlabeled_jsonl,
            lambda path, x: reference_jsonl(path, ("x",), x[:, None]), unlabeled,
        )

    @pytest.mark.parametrize("values", [EDGE, EDGE + NON_FINITE], ids=["finite", "non-finite"])
    def test_jsonl_every_value_in_every_slot(self, tmp_path, values):
        x = np.array(values)[:, None] * np.ones(2)
        assert _same_bytes(
            tmp_path, write_unlabeled_jsonl,
            lambda path, x: reference_jsonl(path, ("x",), x[:, None]), x,
        )

    @pytest.mark.parametrize("accuracy", ["none", "all", "some"])
    def test_train_log(self, tmp_path, accuracy):
        records = [
            EpochRecord(
                i, EDGE[i % 5], -EDGE[(i + 1) % 5], 0.1 * i, 1e-5 * i,
                None if accuracy == "none" or (accuracy == "some" and i % 2) else 1 / i,
            )
            for i in range(1, 601)
        ]
        for log in (records, []):
            assert _same_bytes(tmp_path, write_train_log_csv, reference_train_log_csv, log)

    def test_sweep_csv(self, tmp_path):
        result = SweepResult(
            axis="prior",
            rows=[
                SweepRow("0.35", 1 / 3, 0.0, 2, (5e-324, 1e308)),
                SweepRow("0.5", None, None, 0, (), error='degenerate, "skipped"\nprior'),
            ],
            config={},
        )
        assert _same_bytes(tmp_path, write_sweep_csv, reference_sweep_csv, result)


def _outcome(reader, path):
    """What a reader gives for a file: its arrays bit for bit, or its error."""
    try:
        got = reader(path)
    except Exception as exc:  # any error, so a reference's traceback shows as one
        return type(exc).__name__, str(exc)
    arrays = (got.x, got.y) if isinstance(got, LabeledPool) else (got,)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# The line loops that read_labeled_csv and _read_jsonl fell back on when their
# batched pass could not prove a file valid, kept as references: the readers,
# now one parse each, accept no file these reject and read the files both
# accept into equal arrays (tests/test_fuzz.py). The JSONL format is narrower
# than this loop's: exactly the named keys, each a flat list of numbers.
def reference_read_labeled_csv(path) -> LabeledPool:
    with open(path, newline="", encoding="utf-8") as fh:  # the line loop
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "y":
            raise InvalidInputError(f"{path}: expected header starting with 'y'")
        ys, xs = [], []
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InvalidInputError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    ys.append(int(row[0]))
                    xs.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
                if not all(map(math.isfinite, xs[-1])):
                    raise InvalidInputError(f"{path}:{reader.line_num}: non-finite value")
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
    if not ys:
        raise InvalidInputError(f"{path}: no data rows")
    return LabeledPool(x=np.array(xs), y=np.array(ys))


def reference_read_jsonl(path, keys: tuple[str, ...], what: str) -> np.ndarray:
    rows, linenos = [], []
    with open(path, encoding="utf-8") as fh:  # the line loop
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
                raise InvalidInputError(
                    f"{path}:{lineno}: invalid JSON: {getattr(exc, 'msg', exc)}"
                ) from None
            if not isinstance(rec, dict) or not all(k in rec for k in keys):
                raise InvalidInputError(
                    f"{path}:{lineno}: expected a JSON object with keys {', '.join(keys)}"
                )
            rows.append([rec[k] for k in keys])
            linenos.append(lineno)
            if not _reference_numbers_only(rows[-1]):
                raise InvalidInputError(f"{path}:{lineno}: could not convert: not a JSON number")
    if not rows:
        raise InvalidInputError(f"{path}: no {what}")
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        error = exc
    else:
        finite = np.isfinite(arr.reshape(len(rows), -1)).all(axis=1)
        if not finite.all():
            raise InvalidInputError(f"{path}:{linenos[np.argmin(finite)]}: non-finite value")
        return arr
    # name the first line that is not numeric or not shaped like line one
    first_shape = None
    for lineno, row in zip(linenos, rows):
        try:
            shape = np.array(row, dtype=float).shape
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
        first_shape = first_shape or shape
        if shape != first_shape:
            raise InvalidInputError(
                f"{path}:{lineno}: ragged row: values of shape {shape[1:]}, "
                f"line {linenos[0]} has {first_shape[1:]}"
            )
    raise InvalidInputError(f"{path}: {error}")


def _reference_numbers_only(values: list) -> bool:
    """Whether every leaf of these nested lists is a JSON number (a bool is not)."""
    while any(type(v) is list for v in values):
        values = list(chain.from_iterable(v if type(v) is list else [v] for v in values))
    return all(type(v) in (int, float) for v in values)


SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestBatchedReaders:
    """What each reader's one parse gives for the files that set a whole-file
    parse apart from a line loop: the arrays, or the error naming the line."""

    def _check(self, tmp_path, reader, text, expected):
        path = tmp_path / "f.txt"
        path.write_bytes(text.encode())
        got = _outcome(reader, path)
        if isinstance(expected, str):
            assert got == ("InvalidInputError", f"{path}:{expected}")
        else:
            assert got == _outcome(lambda p: expected, path)

    def test_written_files_take_the_batched_pass(self, tmp_path):
        # written files need no second join: their raw text passes the proof
        t, u = _floats(6, 2, EDGE).reshape(2, 3, 2), _floats(4, 2, EDGE)
        write_triplets_jsonl(tmp_path / "t.jsonl", t)
        write_unlabeled_jsonl(tmp_path / "u.jsonl", u)
        for name, keys, arr in (("t.jsonl", TRIPLET_KEYS, t), ("u.jsonl", ("x",), u[:, None])):
            np.testing.assert_array_equal(dataio._joined((tmp_path / name).read_text(), keys), arr)

    @pytest.mark.parametrize("text", [
        None, '{"x": [1.0]}\r\n\r\n{"x": [2.0]}\r\n', '{"x": [1.0]}\n{"x": [1.0,\n',
    ], ids=["written", "cr-and-blank-line", "bad-line"])
    def test_jsonl_file_is_read_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "u.jsonl"
        if text is None:
            write_unlabeled_jsonl(path, _floats(4, 2, EDGE))
        else:
            path.write_bytes(text.encode())
        reads, read_text = [], dataio.read_text
        monkeypatch.setattr(dataio, "read_text", lambda p: reads.append(p) or read_text(p))
        _outcome(read_unlabeled_jsonl, path)
        assert reads == [path]

    @pytest.mark.parametrize(
        "text,expected",
        [
            ('y,f1\n+1,"0.5"\n-1,"2"\n', LabeledPool(np.array([[0.5], [2.0]]), np.array([1, -1]))),
            ('y,f1\n+1,"0,5"\n', "2: could not convert string to float: '0,5'"),
            ('y,f1\n"+1\n",0.5\n', LabeledPool(np.array([[0.5]]), np.array([1]))),
        ],
        ids=["quoted", "quoted-comma", "quoted-line-break"],
    )
    def test_csv_quoting(self, tmp_path, text, expected):
        self._check(tmp_path, read_labeled_csv, text, expected)

    def test_csv_nul(self, tmp_path):
        # csv reads NUL as a character from Python 3.11 and refused it before;
        # either way the error names line 2
        path = tmp_path / "f.csv"
        path.write_text("y,f1\n+1,0.5\x00\n")
        got = _outcome(read_labeled_csv, path)
        assert got[0] == "InvalidInputError" and got[1].startswith(f"{path}:2: ")

    def test_csv_lone_cr_ends_a_row(self, tmp_path):
        pool = LabeledPool(np.array([[0.5], [2.0]]), np.array([1, -1]))
        self._check(tmp_path, read_labeled_csv, "y,f1\r\n+1,0.5\r-1,2\n", pool)

    def test_csv_field_over_limit(self, tmp_path):
        text = "y,f1\n+1,0.5\n-1," + "1" * (csv.field_size_limit() + 1) + "\n"
        self._check(tmp_path, read_labeled_csv, text,
                    f"3: field larger than field limit ({csv.field_size_limit()})")

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_csv_splitlines_characters_do_not_end_a_row(self, tmp_path, char):
        self._check(tmp_path, read_labeled_csv, f"y,f1\n+1,0.5{char}-1,2\n",
                    "2: expected 2 fields, got 3")

    def test_csv_field_counts_are_checked_per_line(self, tmp_path):
        # 4 + 2 fields balance to 2 x 3 over the two lines
        self._check(tmp_path, read_labeled_csv, "y,f1,f2\n+1,0.5,1,2\n-1,0.5\n",
                    "2: expected 3 fields, got 4")

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        pool = LabeledPool(np.array([[0.5], [2.0]]), np.array([1, -1]))
        self._check(tmp_path, read_labeled_csv, "y,f1\n\n+1,0.5\r\n\r\n-1,2\n\n", pool)
        # but a blank first line is a missing header
        self._check(tmp_path, read_labeled_csv, "\ny,f1\n+1,0.5\n",
                    " expected header starting with 'y'")

    def test_jsonl_two_lines_that_join_into_valid_json(self, tmp_path):
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [1, 2]}, {"x": [3\n4]}\n',
                    "1: invalid JSON: Extra data")

    def test_jsonl_two_objects_on_one_line(self, tmp_path):
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [1]}, {"x": [2]}\n',
                    "1: invalid JSON: Extra data")

    def test_jsonl_braces_inside_extra_keys(self, tmp_path):
        # joined, the three lines are three objects that each hold "x"
        text = '{"x": [1], "k": [{}\n{}]}\n{"x": [2]}, {"x": [3]}\n'
        self._check(tmp_path, read_unlabeled_jsonl, text, "1: invalid JSON: Expecting ',' delimiter")
        # valid JSON lines with extra keys: an object holds exactly the named keys
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [1], "k": {"a": {}}}\n{"x": [2]}\n',
                    "1: expected a JSON object with keys x")

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_jsonl_splitlines_characters_do_not_end_a_line(self, tmp_path, char):
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [1.0]}' + char + '{"x": [2.0]}\n',
                    "1: invalid JSON: Extra data")

    def test_jsonl_cr_ends_a_line(self, tmp_path):
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [1]}\r\n{"x": [2]}\r{"x": [3]}',
                    np.array([[1.0], [2.0], [3.0]]))
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [1,\r2]}\n',
                    "1: invalid JSON: Expecting value")

    def test_jsonl_integers_read_as_json_reads_them(self, tmp_path):
        # -0 is the integer 0, so +0.0; 10**400 is too large for a float
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [-0, 3]}\n', np.array([[0.0, 3.0]]))
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [1' + "0" * 400 + ']}\n',
                    "1: int too large to convert to float")

    def test_jsonl_shapes_the_line_loop_accepts(self, tmp_path):
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": []}\n{"x": []}\n', np.empty((2, 0)))
        # a scalar or nested value is no list of numbers, though the line loop read both
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": 1.5}\n',
                    "1: expected a list of JSON numbers at each key")
        self._check(tmp_path, read_unlabeled_jsonl, '{"x": [[1.5]]}\n',
                    "1: could not convert: not a JSON number")

    @pytest.mark.parametrize("value", ["true", '"2.5"', "null"])
    @pytest.mark.parametrize("reader", [read_unlabeled_jsonl, read_triplets_jsonl])
    def test_jsonl_accepts_only_json_numbers(self, tmp_path, reader, value):
        # np.array(..., dtype=float) used to read true as 1.0, "2.5" as 2.5
        # and null as nan
        keys = ("x",) if reader is read_unlabeled_jsonl else TRIPLET_KEYS
        lines = ["{" + ", ".join(f'"{k}": [{v}, 2.5]' for k in keys) + "}\n" for v in (value, 1)]
        self._check(tmp_path, reader, "".join(lines), "1: could not convert: not a JSON number")
