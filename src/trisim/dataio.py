"""Stable file formats: labeled CSV, triplet/unlabeled JSONL, model files,
training-log CSV, and sweep exports.

Floats are written with repr-precision so identical runs produce
byte-identical files.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import ClassPrior, InvalidInputError, LabeledPool, WeakDataset
from .evaluation import SweepResult
from .model import Model, deserialize_model, serialize_model
from .trainer import EpochRecord, TrainLog

TRIPLET_KEYS = ("anchor", "c1", "c2")
WEAK_META = "weak.json"  # beside the two JSONL files: how the weak data was made


def write_labeled_csv(path, pool: LabeledPool) -> None:
    d = pool.x.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"f{i + 1}" for i in range(d)])
        for yi, xi in zip(pool.y, pool.x):
            writer.writerow([f"{yi:+d}"] + [repr(float(v)) for v in xi])


def _utf8_only(read):
    """A reader whose UnicodeDecodeError becomes an InvalidInputError
    naming the file."""

    @functools.wraps(read)
    def wrapper(path, *args):
        try:
            return read(path, *args)
        except UnicodeDecodeError:
            raise InvalidInputError(f"{path}: not UTF-8 text") from None

    return wrapper


@_utf8_only
def read_labeled_csv(path) -> LabeledPool:
    """Labeled pool from a CSV with a 'y' column first; a malformed row or
    a non-finite feature raises InvalidInputError naming its line."""
    with open(path, newline="", encoding="utf-8") as fh:
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


def _write_jsonl(path, keys: tuple[str, ...], arr: np.ndarray) -> None:
    """One JSON object per row of an (n, len(keys), d) array, each key
    holding its member's float vector; the mirror of _read_jsonl."""
    with open(path, "w") as fh:
        for row in np.asarray(arr, dtype=float):
            fh.write(json.dumps(dict(zip(keys, row.tolist()))) + "\n")


def write_triplets_jsonl(path, triplets: np.ndarray) -> None:
    _write_jsonl(path, TRIPLET_KEYS, triplets)


@_utf8_only
def _read_jsonl(path, keys: tuple[str, ...], what: str) -> np.ndarray:
    """The named fields of every non-blank line as one float array of shape
    (lines, len(keys), d). A line that is not a JSON object with those keys,
    or whose values are not finite numeric vectors of the first line's
    shape, raises InvalidInputError naming the line."""
    rows, linenos = [], []
    with open(path, encoding="utf-8") as fh:
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


def read_triplets_jsonl(path) -> np.ndarray:
    return _read_jsonl(path, TRIPLET_KEYS, "triplets")


def write_unlabeled_jsonl(path, x: np.ndarray) -> None:
    _write_jsonl(path, ("x",), np.asarray(x)[:, None])


def read_unlabeled_jsonl(path) -> np.ndarray:
    return _read_jsonl(path, ("x",), "unlabeled points")[:, 0]


def write_weak_meta(out_dir, data: WeakDataset) -> Path:
    """Write WEAK_META into out_dir: the sampler, the prior used, d and the
    two counts. Returns its path."""
    meta = {
        "sampler": data.sampler_kind,
        "pi_plus": data.prior.pi_plus,
        "d": data.triplets.shape[2],
        "n_us": data.n_triplets,
        "n_u": data.n_unlabeled,
    }
    path = Path(out_dir) / WEAK_META
    path.write_text(json.dumps(meta, indent=2) + "\n")
    return path


@_utf8_only
def _check_weak_meta(path, data: WeakDataset, triplets_path, unlabeled_path) -> None:
    try:
        meta = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from None
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


def read_weak_dataset(
    triplets_path, unlabeled_path, prior: ClassPrior, sampler_kind: str = "rejection"
) -> WeakDataset:
    """The two JSONL files as a WeakDataset. When WEAK_META sits beside the
    triplets file, its sampler, d and counts must match sampler_kind and
    the files; its prior is not compared, because training under a
    misspecified prior is studied on purpose."""
    data = WeakDataset(
        triplets=read_triplets_jsonl(triplets_path),
        unlabeled=read_unlabeled_jsonl(unlabeled_path),
        prior=prior,
        sampler_kind=sampler_kind,
    )
    meta_path = Path(triplets_path).with_name(WEAK_META)
    if meta_path.exists():
        _check_weak_meta(meta_path, data, triplets_path, unlabeled_path)
    return data


def write_model(path, model: Model, config_echo: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(serialize_model(model, config_echo), indent=2) + "\n"
    )


@_utf8_only
def read_model(path) -> Model:
    """Model from a JSON model file; undecodable, invalid or incomplete
    documents raise InvalidInputError naming the path."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from None
    try:
        return deserialize_model(doc)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def write_train_log_csv(path, log: TrainLog) -> None:
    """One row per EpochRecord, its fields in order, floats in repr form
    and a missing test accuracy as an empty cell."""
    names = [f.name for f in fields(EpochRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for record in log.records:
            values = (getattr(record, name) for name in names)
            writer.writerow(["" if v is None else repr(v) for v in values])


def write_sweep_csv(path, result: SweepResult) -> None:
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


def write_sweep_json(path, result: SweepResult) -> None:
    Path(path).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
