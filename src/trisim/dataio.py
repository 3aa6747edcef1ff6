"""Stable file formats: labeled CSV, triplet/unlabeled JSONL, model files,
training-log CSV, and sweep exports.

Floats are written with repr-precision so identical runs produce
byte-identical files; the CSV writers give csv.writer's bytes, and every
JSON document (model, weak.json, sweep, report, manifest) is write_json's.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from .core import ClassPrior, InvalidInputError, LabeledPool, WeakDataset
from .evaluation import SweepResult
from .model import Model, deserialize_model, serialize_model
from .trainer import EpochRecord

TRIPLET_KEYS = ("anchor", "c1", "c2")
WEAK_META = "weak.json"  # beside the two JSONL files: how the weak data was made


def write_json(path, doc) -> str:
    """Write doc to path as JSON indented by 2, ending in a newline; returns
    the text without that newline."""
    text = json.dumps(doc, indent=2)
    Path(path).write_text(text + "\n")
    return text


def write_labeled_csv(path, pool: LabeledPool) -> None:
    n, d = pool.x.shape  # csv.writer's bytes: no label, name or float repr needs quotes
    header = ",".join(["y"] + [f"f{i + 1}" for i in range(d)]) + "\r\n"
    values = chain.from_iterable(zip(pool.y.tolist(), *pool.x.T.tolist()))
    Path(path).write_text(header + ("%+d" + ",%r" * d + "\r\n") * n % tuple(values), newline="")


def read_text(path) -> str:
    """The file's UTF-8 text, line ends as they are and a leading byte-order
    mark dropped; a file that is not UTF-8 raises InvalidInputError naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None


def _read_json(path):
    """The one JSON document in the file; text that is not one raises
    InvalidInputError naming the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer too long to parse, or nesting
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from None


def read_labeled_csv(path) -> LabeledPool:
    """Labeled pool from a CSV with a 'y' column first, by one csv.reader pass
    over the open file; a file that pass rejects gets _csv_error's bad line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header, *rows = csv.reader(fh)
        rows = list(filter(None, rows))  # blank data rows are skipped, a blank header is not
        if len(header) > 1 and header[0] == "y" and set(map(len, rows)) == {len(header)}:
            cells = list(chain.from_iterable(rows))
            labels = list(map(int, cells[:: len(header)]))
            del cells[:: len(header)]
            x = np.fromiter(map(float, cells), float, len(cells)).reshape(len(rows), len(header) - 1)
            if set(labels) <= {1, -1} and np.isfinite(x).all():
                return LabeledPool(x=x, y=np.array(labels))
    except (ValueError, csv.Error):  # not UTF-8 or a number, no header, a field over csv's limit
        pass
    raise _csv_error(path)


def _csv_error(path) -> InvalidInputError:
    """The error naming the first bad line of a CSV that read_labeled_csv
    rejects; a file with a header and no bad line has no data rows."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if not header or header[0] != "y":
            return InvalidInputError(f"{path}: expected header starting with 'y'")
        if len(header) == 1:
            return InvalidInputError(f"{path}: expected a feature column after 'y'")
        for row in filter(None, reader):
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                return InvalidInputError(f"{where}: expected {len(header)} fields, got {len(row)}")
            label, features = int(row[0]), [float(v) for v in row[1:]]
            if not all(map(math.isfinite, features)):
                return InvalidInputError(f"{where}: non-finite value")
            if label not in (1, -1):
                return InvalidInputError(f"{where}: labels must be +1 or -1")
    except (ValueError, csv.Error) as exc:  # not a number, or a field over csv's size limit
        return InvalidInputError(f"{path}:{reader.line_num}: {exc}")
    return InvalidInputError(f"{path}: no data rows")


def _write_jsonl(path, keys: tuple[str, ...], arr: np.ndarray) -> None:
    """One JSON object per row of an (n, len(keys), d) array, each key holding
    its member's float vector, as json.dumps writes it; the mirror of _read_jsonl."""
    arr = np.asarray(arr, dtype=float)
    line = json.dumps(dict.fromkeys(keys, [0.0] * arr.shape[2])).replace("0.0", "%s") + "\n"
    values = arr.ravel().tolist()  # for %s, as str(float) is repr(float)
    if not np.isfinite(arr).all():  # as json writes them: NaN, Infinity, -Infinity
        values = list(map(json.dumps, values))
    Path(path).write_text(line * len(arr) % tuple(values))


def write_triplets_jsonl(path, triplets: np.ndarray) -> None:
    _write_jsonl(path, TRIPLET_KEYS, triplets)


def _read_jsonl(path, keys: tuple[str, ...], what: str) -> np.ndarray:
    """The named fields of every non-blank line as one (lines, len(keys), d) float
    array, from one read of the file; text _joined rejects, raw and re-joined,
    gets _jsonl_error's bad line."""
    text = read_text(path)
    arr = _joined(text, keys)
    if arr is None:  # CR line ends, blank lines or spaces around an object, or a bad line
        lines = io.StringIO(text, newline=None).readlines()  # \r\n and \r end a line too
        # strip JSON's whitespace only: str.strip would also take \x0c, which JSON refuses
        arr = _joined("\n".join(line.strip(" \t\r\n") for line in lines if line.strip()), keys)
        if arr is None:
            raise _jsonl_error(path, lines, keys, what)
    return arr


def _joined(text: str, keys: tuple[str, ...]) -> np.ndarray | None:
    """The array of one json.loads of text's lines joined into an array; None
    unless that proves each line one object: no CR, '}' and '{' around each line
    break, and exactly the named keys, each a list of finite JSON numbers of one
    length. Such objects hold no other brace, so no join can fall inside one."""
    breaks = text.count("\n") - text.endswith("\n")  # a last line break stays whitespace
    try:
        recs = json.loads("[" + text.replace("\n", ",", breaks) + "]")
        vectors = [rec[k] for rec in recs for k in keys]
        flat = list(chain.from_iterable(vectors))
        arr = np.array(flat, dtype=float).reshape(len(recs), len(keys), len(vectors[0]))
    except (ValueError, LookupError, TypeError, OverflowError, RecursionError):
        return None  # not JSON, no objects, or an integer beyond float range
    proven = ("\r" not in text and text.count("}\n{") == breaks == len(recs) - 1
              and set(map(len, recs)) == {len(keys)} and set(map(type, vectors)) == {list}
              and len(set(map(len, vectors))) == 1 and set(map(type, flat)) <= {int, float})
    return arr if proven and np.isfinite(arr).all() else None


def _jsonl_error(path, lines: list[str], keys: tuple[str, ...], what: str) -> InvalidInputError:
    """The error naming the first bad line of the lines of a JSONL file that
    _read_jsonl rejects; a file with no bad line has no non-blank lines."""
    first = None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a list
            return InvalidInputError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}")
        if type(rec) is not dict or rec.keys() != set(keys):
            return InvalidInputError(f"{where}: expected a JSON object with keys {', '.join(keys)}")
        values = [rec[k] for k in keys]
        leaves = chain.from_iterable(v if type(v) is list else [v] for v in values)
        if not all(type(n) in (int, float) for n in leaves):
            return InvalidInputError(f"{where}: could not convert: not a JSON number")
        if not all(type(v) is list for v in values):  # a number, not a list of them
            return InvalidInputError(f"{where}: expected a list of JSON numbers at each key")
        try:
            row = np.array(values, dtype=float)
        except (ValueError, OverflowError) as exc:  # lists of two lengths, or an int too large
            return InvalidInputError(f"{where}: {exc}")
        first = first or (lineno, row.shape)
        if row.shape != first[1]:
            return InvalidInputError(f"{where}: ragged row: values of shape {row.shape[1:]}, "
                                     f"line {first[0]} has {first[1][1:]}")
        if not np.isfinite(row).all():
            return InvalidInputError(f"{where}: non-finite value")
    return InvalidInputError(f"{path}: no {what}")


def read_triplets_jsonl(path) -> np.ndarray:
    return _read_jsonl(path, TRIPLET_KEYS, "triplets")


def write_unlabeled_jsonl(path, x: np.ndarray) -> None:
    _write_jsonl(path, ("x",), np.asarray(x)[:, None])


def read_unlabeled_jsonl(path) -> np.ndarray:
    return _read_jsonl(path, ("x",), "unlabeled points")[:, 0]


def write_weak_meta(out_dir, data: WeakDataset, prior: ClassPrior) -> Path:
    """Write WEAK_META into out_dir: the sampler, the prior the data were
    drawn under (the caller's source prior), d and the two counts. Returns
    its path."""
    meta = {
        "sampler": data.sampler_kind,
        "pi_plus": prior.pi_plus,
        "d": data.triplets.shape[2],
        "n_us": data.n_triplets,
        "n_u": data.n_unlabeled,
    }
    path = Path(out_dir) / WEAK_META
    write_json(path, meta)
    return path


def _check_weak_meta(path, data: WeakDataset, triplets_path, unlabeled_path) -> None:
    meta = _read_json(path)
    if not isinstance(meta, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    for key, value, where in (
        ("sampler", data.sampler_kind, "training uses"),
        ("d", data.triplets.shape[2], "the files have"),
        ("n_us", data.n_triplets, f"{triplets_path} holds"),
        ("n_u", data.n_unlabeled, f"{unlabeled_path} holds"),
    ):
        if key not in meta:
            raise InvalidInputError(f"{path}: missing key {key!r}")
        if meta[key] != value:
            raise InvalidInputError(f"{path}: {key} is {meta[key]!r}, but {where} {value!r}")


def read_weak_dataset(triplets_path, unlabeled_path, sampler_kind: str) -> WeakDataset:
    """The two JSONL files as a WeakDataset. When WEAK_META sits beside the
    triplets file, its sampler, d and counts must match sampler_kind and
    the files; its prior is not read, because training takes the prior it
    is given, and training under a misspecified prior is studied on purpose."""
    data = WeakDataset(
        triplets=read_triplets_jsonl(triplets_path),
        unlabeled=read_unlabeled_jsonl(unlabeled_path),
        sampler_kind=sampler_kind,
    )
    meta_path = Path(triplets_path).with_name(WEAK_META)
    if meta_path.exists():
        _check_weak_meta(meta_path, data, triplets_path, unlabeled_path)
    return data


def write_model(path, model: Model, config_echo: dict | None = None) -> None:
    write_json(path, serialize_model(model, config_echo))


def read_model(path) -> Model:
    """Model from a JSON model file; undecodable, invalid or incomplete
    documents raise InvalidInputError naming the path."""
    doc = _read_json(path)
    try:
        return deserialize_model(doc)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def write_train_log_csv(path, log: list[EpochRecord]) -> None:
    """One row per EpochRecord, its fields in order, values in repr form and
    a missing test accuracy as an empty cell."""
    names = [f.name for f in fields(EpochRecord)]
    line = ",".join(["%s"] * len(names)) + "\r\n"
    values = (getattr(record, name) for record in log for name in names)
    cells = ["" if v is None else repr(v) for v in values]
    Path(path).write_text(line % tuple(names) + line * len(log) % tuple(cells), newline="")


def write_sweep_csv(path, result: SweepResult) -> None:
    header = [result.axis, "mean", "std", "n_seeds", "per_seed", "error"]
    rows = [[r.setting, *("" if v is None else repr(v) for v in (r.mean, r.std)), r.n_seeds,
             ";".join(map(repr, r.per_seed)), r.error or ""] for r in result.rows]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_sweep_json(path, result: SweepResult) -> None:
    write_json(path, result.to_dict())
