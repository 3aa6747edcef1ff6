"""Property tests of the failure contract on fuzzed input files: a reader
returns a value or raises InvalidInputError, and `eval` and `train` exit
with a documented code (0, 2, 3 or 4), print at most one stderr line and
let no traceback or numpy warning escape. `synth` is fuzzed over its
numeric flags the same way, and what it writes must read back.

The inputs are arbitrary bytes, plus text built from the tokens each format
is made of (numbers, edge values, JSON values), so the search reaches the
parsers' deeper branches. On that text, and on mostly valid text with stray
line breaks, each reader must accept no file that the line loop it replaced
rejects, and give that loop's arrays where both accept. Runs are
derandomized, so every run tries the same examples, and the inputs that once
ended in a traceback are tried first."""
import csv
import json
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_dataio import _outcome, reference_read_jsonl, reference_read_labeled_csv

from trisim.cli import main
from trisim.core import InvalidInputError
from trisim.dataio import (
    TRIPLET_KEYS,
    read_labeled_csv,
    read_model,
    read_triplets_jsonl,
    read_unlabeled_jsonl,
)

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


def _once_a_traceback(check):
    """check, given first the files that ended in a traceback before their
    readers caught them: a CSV header field over csv's size limit, a label
    beyond int64, and a line nested past the recursion limit."""
    for data in (
        b"y," + b"1" * (csv.field_size_limit() + 1) + b"\n+1,0.5\n",
        b"y,f1,f2\n1" + b"0" * 30 + b",0.5,0.5\n",
        b"[" * 100_000,
    ):
        check = example(data=data)(check)
    return check


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
    @_once_a_traceback
    @given(data=_content(text))
    def check(data):
        try:
            reader(_write(tmp_path / "fuzzed", data))
        except InvalidInputError:
            pass

    check()


# Files that are mostly valid, so the readers accept some of them, with the
# breaks and characters that set a whole-file parse apart from a line loop.
BREAKS = st.sampled_from(
    ["\n"] * 30 + ["\r\n", "\r", "\n\n", "\x0c", "\x1c", "\x85", "\u2028", " \n", "\x00", ""]
)
CSV_CELL = st.sampled_from(
    ["0.5", "-2.5e3", "1", "-0.0", "5e-324", "1e308"] * 10
    + ["nan", "1e999", " 1", "1_0", "", '"1"', '"0,5"', '"1\n"', "abc", "1" + "0" * 400]
)
CSV_LABEL = st.sampled_from(["+1", "-1"] * 20 + ["1", "2", "0.5", '"+1"', "", "1" + "0" * 400])
JSON_NUMBER = st.sampled_from(
    ["0.5", "-2.5e3", "1", "-0", "5e-324", "1e308"] * 10
    + ["NaN", "1e999", "true", '"2.5"', "null", "[1]", "{}", "1" + "0" * 400, ""]
)
JSON_VECTOR = st.lists(JSON_NUMBER, min_size=2, max_size=2).map(lambda v: "[" + ", ".join(v) + "]")


def _broken_lines(line):
    """Lines, each followed by a break drawn from BREAKS."""
    return st.lists(st.tuples(line, BREAKS), min_size=1, max_size=6).map(
        lambda parts: "".join(a + b for a, b in parts)
    )


CSV_ROW = st.tuples(CSV_LABEL, st.lists(CSV_CELL, min_size=2, max_size=2) | st.lists(CSV_CELL)).map(
    lambda row: ",".join([row[0], *row[1]])
)
X_LINE = JSON_VECTOR.map(lambda v: f'{{"x": {v}}}') | JSON_VECTOR.map(
    lambda v: f'{{"x": {v}, "k": {{}}}}'
)
TRIPLET_LINE = st.tuples(JSON_VECTOR, JSON_VECTOR, JSON_VECTOR).map(
    lambda v: '{"anchor": %s, "c1": %s, "c2": %s}' % v
)
BATCHABLE = {  # reader, the line loop it replaced, its files
    "csv": (read_labeled_csv, reference_read_labeled_csv,
            _broken_lines(CSV_ROW).map("y,f1,f2\n".__add__) | CSV_TEXT),
    "unlabeled": (read_unlabeled_jsonl,
                  lambda path: reference_read_jsonl(path, ("x",), "unlabeled points")[:, 0],
                  _broken_lines(X_LINE) | JSONL_TEXT),
    "triplets": (read_triplets_jsonl,
                 lambda path: reference_read_jsonl(path, TRIPLET_KEYS, "triplets"),
                 _broken_lines(TRIPLET_LINE) | JSONL_TEXT),
}
# what a reader alone rejects: a JSONL object holds exactly the named keys,
# each a flat list of numbers, where the line loop took extra keys, a scalar
# or nested lists
NARROWER = ("expected a JSON object with keys", "expected a list of JSON numbers",
            "could not convert: not a JSON number")


@pytest.mark.parametrize("kind", sorted(BATCHABLE))
def test_batched_reader_matches_its_line_loop(tmp_path, kind):
    reader, line_loop, text = BATCHABLE[kind]
    accepted = []

    @READER_FUZZ
    @given(data=text)
    def check(data):
        path = _write(tmp_path / "fuzzed", data.encode("utf-8", "surrogatepass"))
        got, expected = _outcome(reader, path), _outcome(line_loop, path)
        accepted.append(isinstance(got, list))
        if accepted[-1]:
            assert got == expected
        else:
            assert got[0] == "InvalidInputError" and got[1].startswith(f"{path}:"), got
            assert not isinstance(expected, list) or (
                kind != "csv" and any(m in got[1] for m in NARROWER)
            ), (got, expected)

    check()
    assert any(accepted) and not all(accepted)  # both outcomes were tried


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
    @_once_a_traceback
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
    @_once_a_traceback
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


# numeric flag values, a valid one first, then negative, zero, non-finite
# and overflowing ones
SYNTH_FLAGS = {
    "--seed": ["0", "3", "-1", "nan"],
    "--n": ["2", "50", "1", "0", "-5", "inf"],
    "--dim": ["1", "4", "0", "-1", "nan"],
    "--sep": ["4", "0", "-2", "nan", "inf", "-inf", "1e308"],
    "--sigma": ["1", "0.5", "0", "-1", "nan", "inf", "1e308"],
    "--pi": ["0.4", "0.9", "0", "-0.4", "1", "nan", "inf", "1e308"],
}


@st.composite
def _synth_flags(draw):
    """Every flag at its valid first value except one or two drawn from the
    whole list, so most runs get past the flags that are not fuzzed."""
    fuzzed = draw(st.sets(st.sampled_from(sorted(SYNTH_FLAGS)), min_size=1, max_size=2))
    return {k: draw(st.sampled_from(v)) if k in fuzzed else v[0] for k, v in SYNTH_FLAGS.items()}


def test_synth_numeric_flags_keep_the_contract(tmp_path, capsys):
    out = tmp_path / "synth.csv"

    @settings(FUZZ, max_examples=100)  # synth is cheap
    @given(values=_synth_flags())
    def check(values):
        out.unlink(missing_ok=True)
        # the = form keeps argparse from reading a leading minus as a flag
        argv = ["synth", *(f"{k}={v}" for k, v in values.items()), "--out", str(out)]
        try:
            rc, err = _run_main(capsys, argv)
        except SystemExit as exc:
            rc, err = exc.code, []
        assert rc in (0, 2, 4), (rc, err)
        if rc == 4:
            assert len(err) == 1, err
        if rc == 0:
            pool = read_labeled_csv(out)
            assert len(pool) == int(values["--n"])
        else:
            assert not out.exists()

    check()
