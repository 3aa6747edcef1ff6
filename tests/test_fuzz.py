"""Property tests of the failure contract on fuzzed input files: a reader
returns a value or raises InvalidInputError, and `eval` and `train` exit
with a documented code (0, 2, 3 or 4), print at most one stderr line and
let no traceback or numpy warning escape.

The inputs are arbitrary bytes, plus text built from the tokens each format
is made of (numbers, edge values, JSON values), so the search reaches the
parsers' deeper branches. Runs are derandomized, so every run tries the same
examples."""
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trisim.cli import main
from trisim.core import InvalidInputError
from trisim.dataio import read_labeled_csv, read_model, read_triplets_jsonl, read_unlabeled_jsonl

FUZZ = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
READER_FUZZ = settings(FUZZ, max_examples=150)  # readers are cheap: search deeper

# numbers as text, including the ones float() and json.loads() stumble on
NUMBERS = st.sampled_from(
    ["1", "-1", "+1", "0.5", "-2.5e3", "nan", "inf", "-Infinity", "NaN", "1e999",
     "1" + "0" * 400, "9" * 5000, "", "abc", '"1"', "true", "null", "[]", "{}"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _lines(line):
    return st.lists(line, min_size=1, max_size=6).map(lambda ls: "\n".join(ls) + "\n")


CSV_TEXT = _lines(st.lists(NUMBERS, max_size=4).map(",".join)).map(lambda t: "y,f1,f2\n" + t)
VECTOR = st.lists(NUMBERS, max_size=3).map(lambda v: "[" + ",".join(v) + "]") | NUMBERS
JSONL_TEXT = _lines(
    st.one_of(
        VECTOR.map(lambda v: f'{{"x": {v}}}'),
        st.tuples(VECTOR, VECTOR, VECTOR).map(
            lambda v: '{"anchor": %s, "c1": %s, "c2": %s}' % v
        ),
        st.lists(st.tuples(st.sampled_from(["x", "anchor", "c1", "c2"]), VECTOR), max_size=4).map(
            lambda kv: "{" + ",".join(f'"{k}": {v}' for k, v in kv) + "}"
        ),
        JSON_VALUES.map(json.dumps),
    )
)
VALID_MODEL = {"kind": "linear", "dim": 2, "params": {"weights": [1.0, 0.0], "bias": [0.0]}}
MODEL_TEXT = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.tuples(st.sampled_from(["kind", "dim", "hidden", "params", "activation"]), JSON_VALUES).map(
        lambda kv: json.dumps({**VALID_MODEL, kv[0]: kv[1]})
    ),
    st.tuples(st.sampled_from(["weights", "bias", "w1"]), JSON_VALUES).map(
        lambda kv: json.dumps({**VALID_MODEL, "params": {**VALID_MODEL["params"], kv[0]: kv[1]}})
    ),
)
META_TEXT = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.tuples(st.sampled_from(["sampler", "d", "n_us", "n_u"]), JSON_VALUES).map(
        lambda kv: json.dumps(
            {"sampler": "rejection", "pi_plus": 0.4, "d": 2, "n_us": 20, "n_u": 30, kv[0]: kv[1]}
        )
    ),
)


def _content(text):
    """Bytes of the given text strategy, or arbitrary bytes."""
    return st.one_of(text.map(lambda t: t.encode("utf-8", "surrogatepass")), st.binary(max_size=200))


def _write(path, data: bytes):
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "reader,text",
    [
        (read_labeled_csv, CSV_TEXT),
        (read_unlabeled_jsonl, JSONL_TEXT),
        (read_triplets_jsonl, JSONL_TEXT),
        (read_model, MODEL_TEXT),
    ],
    ids=["csv", "unlabeled", "triplets", "model"],
)
def test_reader_returns_or_raises_invalid_input(tmp_path, reader, text):
    @READER_FUZZ
    @given(data=_content(text))
    def check(data):
        try:
            reader(_write(tmp_path / "fuzzed", data))
        except InvalidInputError:
            pass

    check()


def _valid_files(tmp_path):
    """A labeled CSV, weak data with its sidecar, and a model, via the CLI."""
    csv, weak, model = tmp_path / "data.csv", tmp_path / "weak", tmp_path / "model.json"
    assert main(["synth", "--pi", "0.4", "--n", "100", "--seed", "1", "--out", str(csv)]) == 0
    assert main(["make-weak", "--in", str(csv), "--n-us", "20", "--n-u", "30",
                 "--out-dir", str(weak)]) == 0
    assert main(["train", "--us", str(weak / "triplets.jsonl"), "--u", str(weak / "unlabeled.jsonl"),
                 "--pi", "0.4", "--epochs", "1", "--batch", "10", "--out", str(model)]) == 0
    return csv, weak, model


def _run_main(capsys, argv):
    """main()'s exit code and its stderr lines; no warning may escape."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("target", ["model", "test"])
def test_eval_exits_with_a_documented_code(tmp_path, capsys, target):
    csv, _, model = _valid_files(tmp_path)
    files = {"model": model, "test": csv}

    @FUZZ
    @given(data=_content(MODEL_TEXT if target == "model" else CSV_TEXT))
    def check(data):
        paths = {**files, target: _write(tmp_path / f"fuzzed-{target}", data)}
        rc, err = _run_main(capsys, ["eval", "--model", str(paths["model"]), "--test", str(paths["test"])])
        assert rc in (0, 2, 3, 4) and len(err) <= 1, (rc, err)

    check()


@pytest.mark.parametrize("target", ["us", "u", "meta"])
def test_train_exits_with_a_documented_code(tmp_path, capsys, target):
    _, weak, _ = _valid_files(tmp_path)
    valid = {"us": weak / "triplets.jsonl", "u": weak / "unlabeled.jsonl", "meta": weak / "weak.json"}
    originals = {k: p.read_bytes() for k, p in valid.items() if p.exists()}

    @FUZZ
    @given(data=_content(META_TEXT if target == "meta" else JSONL_TEXT))
    def check(data):
        for key, original in originals.items():
            valid[key].write_bytes(original)
        valid[target].write_bytes(data)
        rc, err = _run_main(capsys, [
            "train", "--us", str(valid["us"]), "--u", str(valid["u"]), "--pi", "0.4",
            "--epochs", "1", "--batch", "10", "--out", str(tmp_path / "m.json"),
        ])
        assert rc in (0, 2, 3, 4) and len(err) <= 1, (rc, err)

    check()
