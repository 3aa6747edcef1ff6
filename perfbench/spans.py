"""Timers and spans recorded from outside the package.

Both classes patch trisim's public functions at the module attribute their
callers resolve (``trisim.cli.train`` for the CLI's call, ``trisim.evaluation
.train`` for the sweeps' call, ...), so nothing under ``src/`` changes.

``Probe`` is the always-on, near-free part: it times each ``train`` call and
marks each epoch, and samples the machine's speed. ``Tracer`` is the traced
run: one span per call at every module boundary, plus exact work counts, all
kept in memory.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter

_REF_X = np.random.default_rng(0).standard_normal((2000, 2))
_REF_PERM = np.random.default_rng(1).permutation(2000)
_REF_W = np.array([0.5, -0.25])


def reference_job() -> float:
    """Fixed work that uses no trisim code, in the same mix as a training
    step (small numpy kernels, gathers, an interpreter loop); it takes about
    4 ms here. Its time measures how fast the machine runs at that moment."""
    acc = 0.0
    for _ in range(25):
        s = _REF_X @ _REF_W
        acc += float((np.where(s > 0, 1.0, -1.0) * s).mean())
        x = _REF_X[_REF_PERM]
        acc += float(np.concatenate([x, _REF_X]).sum()) + float(np.array_split(x, 4)[0].sum())
    n = 0
    for i in range(20_000):
        n += i * i
    return acc + n


def _patch(table):
    """Replace each (module, attr) with a wrapper; return the undo list."""
    undo = []
    for module, attr, make in table:
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, make(original))
    return undo


def _unpatch(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def percentile_for(n: int) -> float:
    """The highest percentile, at most 98, that keeps ten samples beyond it;
    never below the median."""
    return max(50.0, min(98.0, 100.0 * (1.0 - 10.0 / n))) if n else 50.0


def quantile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Probe:
    """Wall time of every ``train`` call and of every epoch inside it, and
    the machine's speed while they run.

    An epoch boundary is the entry to the per-epoch ``empirical_risk`` call,
    so the gap between two boundaries is one whole epoch: its batches, the
    full-pool risk and the accuracy pass. The first epoch of each call also
    holds the call's set-up and is left out.

    While ``sampling`` is on, an epoch boundary at least ``interval`` seconds
    after the last sample runs ``reference_job`` once. Every interval is read
    from ``clock()``, which stops while the job runs, so no measured time
    holds it.
    """

    interval = 0.25

    def __init__(self, trisim):
        self.trisim = trisim
        self.undo = []
        self.sampling = True
        self.ref_spent = 0.0
        self.reset()

    def reset(self):
        self.train_s = 0.0
        self.train_rows = 0  # epochs x (3 n_triplets + n_unlabeled), summed
        self.epoch_s: list[float] = []
        self.read_weak_s = 0.0
        self.ref_s: list[float] = []
        self._marks: list[float] | None = None
        self._next_sample = 0.0

    def clock(self) -> float:
        return perf() - self.ref_spent

    def sample(self):
        t0 = perf()
        reference_job()
        t1 = perf()
        self.ref_s.append(t1 - t0)
        self.ref_spent += t1 - t0
        self._next_sample = t1 + self.interval

    def _train(self, fn):
        def train(config, data, *args, **kwargs):
            outer, self._marks = self._marks, []
            t0 = self.clock()
            try:
                return fn(config, data, *args, **kwargs)
            finally:
                self.train_s += self.clock() - t0
                marks, self._marks = self._marks, outer
                self.train_rows += config.epochs * (3 * data.n_triplets + data.n_unlabeled)
                self.epoch_s.extend(b - a for a, b in zip(marks, marks[1:]))

        return train

    def _risk(self, fn):
        def empirical_risk(*args, **kwargs):
            if self.sampling and perf() >= self._next_sample:
                self.sample()
            if self._marks is not None:
                self._marks.append(self.clock())
            return fn(*args, **kwargs)

        return empirical_risk

    def _read_weak(self, fn):
        def read_weak_dataset(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.read_weak_s += self.clock() - t0

        return read_weak_dataset

    def install(self):
        t = self.trisim
        self.undo = _patch(
            [
                (t.cli, "train", self._train),
                (t.evaluation, "train", self._train),
                (t.trainer, "empirical_risk", self._risk),
                (t.cli, "read_weak_dataset", self._read_weak),
            ]
        )

    def uninstall(self):
        _unpatch(self.undo)
        self.undo = []


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 1


class Tracer:
    """Spans (name, start, end, parent, pass id) and per-pass work counts."""

    def __init__(self, trisim):
        self.trisim = trisim
        self.passes: dict[int, list[tuple]] = {}
        self.counts: dict[int, dict[str, float]] = {}
        self.undo = []

    def span(self, name, count=None):
        """Wrapper factory: record a span around each call, then let
        ``count(counts, args, result)`` add the call's work counts."""
        spans, stack, counts = self.spans, self.stack, self.counts[self.pass_id]
        pass_id = self.pass_id

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    spans[idx] = (name, t0, t1, parent, pass_id)
                counts[name + ".calls"] += 1
                if count is not None:
                    count(counts, args, out)
                return out

            return wrapper

        return make

    def install(self, pass_id: int):
        """Start the spans and counts of one pass and patch every boundary."""
        self.pass_id = pass_id
        self.spans, self.stack = [], []
        self.passes[pass_id] = self.spans
        self.counts[pass_id] = defaultdict(int)
        t = self.trisim
        span = self.span
        table = [(t.cli, f"cmd_{cmd}", span(f"cli.{cmd.replace('_', '-')}"))
                 for cmd in ("synth", "make_weak", "train", "eval", "verify")]
        table += [
            (t.cli, "main", span("cli.main")),
            (t.cli, "_write_manifest", span("cli.manifest")),
            (t.cli, "_digest", span("cli.digest", _count_digest)),
            (t.trainer, "forward", span("model.forward", _count_forward)),
            (t.trainer, "backward", span("model.backward", _count_backward)),
            (t.trainer, "adam_step", span("model.adam")),
            (t.trainer, "empirical_risk_grad", span("risk.grad")),
            (t.trainer, "empirical_risk", span("risk.eval")),
            (t.trainer, "_accuracy", span("trainer.accuracy")),
            (t.evaluation, "weak_run", span("evaluation.weak_run")),
            (t.cli, "write_labeled_csv", span("dataio.write_csv", _count_write(1))),
            (t.cli, "read_labeled_csv", span("dataio.read_csv", _count_read)),
            (t.cli, "write_triplets_jsonl", span("dataio.write_jsonl", _count_write(1))),
            (t.cli, "write_unlabeled_jsonl", span("dataio.write_jsonl", _count_write(1))),
            (t.cli, "read_weak_dataset", span("dataio.read_weak")),
            (t.dataio, "read_triplets_jsonl", span("dataio.read_jsonl", _count_read)),
            (t.dataio, "read_unlabeled_jsonl", span("dataio.read_jsonl", _count_read)),
            (t.cli, "write_model", span("dataio.write_model", _count_write(0))),
            (t.cli, "read_model", span("dataio.read_model")),
            (t.cli, "write_train_log_csv", span("dataio.write_log", _count_write(0))),
        ]
        for module in (t.cli, t.evaluation):
            table += [
                (module, "train", span("trainer.train")),
                (module, "accuracy", span("evaluation.accuracy")),
                (module, "synth_gaussian_labeled", span("sampler.synth")),
                (module, "make_weak_dataset", span("sampler.make_weak")),
            ]
        for module in (t.sampler, t.verify):
            table += [
                (module, "sample_triplets_rejection", span("sampler.rejection", _count_rejection)),
                (module, "sample_triplets_paper_case", span("sampler.paper_case", _count_paper_case)),
            ]
        table += [(t.cli, fn, span(f"verify.{suite}")) for suite, fn in VERIFY_SUITES]
        self.undo = _patch(table)

    def uninstall(self):
        _unpatch(self.undo)
        self.undo = []


# The suite functions as cli._run_suite resolves them, in its order.
VERIFY_SUITES = (
    ("thetas", "check_theta_system"),
    ("identity", "check_risk_identity"),
    ("acceptance", "check_acceptance_rate"),
    ("bias", "run_bias_suite"),
    ("matched", "check_matched_calibration"),
    ("gradients", "check_gradients"),
    ("trend", "check_error_trend"),
)


def _model_shape(model, x):
    n = _rows(x) if getattr(x, "ndim", 1) > 1 else 1
    hidden = model.w1.shape[0] if model.kind == "mlp" else 0
    return n, model.dim, hidden


def _count_forward(counts, args, out):
    # FLOPs computed from shapes: 2 per multiply-add of each matrix product.
    n, d, h = _model_shape(args[0], args[1])
    counts["model.forward_flops"] += 2 * n * d * h + 2 * n * h if h else 2 * n * d


def _count_backward(counts, args, out):
    # Both MLP layer products are recomputed or transposed once each, plus
    # the outer product that spreads the upstream over the hidden units.
    n, d, h = _model_shape(args[0], args[1])
    counts["model.backward_flops"] += 4 * n * d * h + 3 * n * h if h else 2 * n * d


def _count_write(data_arg):
    def count(counts, args, out):
        counts["dataio.bytes_written"] += os.path.getsize(args[0])
        if data_arg:
            data = args[data_arg]
            counts["dataio.rows"] += len(data) if hasattr(data, "y") else _rows(data)

    return count


def _count_read(counts, args, out):
    counts["dataio.rows"] += len(out) if hasattr(out, "y") else _rows(out)


def _count_digest(counts, args, out):
    counts["cli.digest_bytes"] += os.path.getsize(args[0])


def _count_rejection(counts, args, out):
    _, stats = out
    counts["sampler.triplets"] += stats.n_accepted
    counts["sampler.accepted"] += stats.n_accepted
    counts["sampler.raw_draws"] += stats.n_raw


def _count_paper_case(counts, args, out):
    counts["sampler.triplets"] += _rows(out)


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover
    (children of one span never overlap, the program being single-threaded)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def pass_layers(spans, counts):
    """Per-layer metrics of one traced pass, and its ``train`` breakdown:
    batch forward, risk+grad, backward, Adam, per-epoch eval (pool forwards,
    full-pool risk, accuracy) and the loop's own time, which sum to the
    ``train`` spans' duration."""
    selfs = self_times(spans)
    dur = defaultdict(float)
    self_by_module = defaultdict(float)
    for (name, t0, t1, _, _), own in zip(spans, selfs):
        dur[name] += t1 - t0
        self_by_module[name.split(".")[0]] += own

    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[3]].append(i)
    part = {"model.forward": "forward", "risk.grad": "risk_grad",
            "model.backward": "backward", "model.adam": "adam"}
    train = dict.fromkeys(
        ("forward", "risk_grad", "backward", "adam", "eval", "other", "loop_self"), 0.0
    )
    epochs = batches = 0
    for i, (name, *_) in enumerate(spans):
        if name != "trainer.train":
            continue
        train["loop_self"] += selfs[i]
        kids = [spans[j] for j in children[i]]
        # The per-epoch eval is the full-pool risk, the pool forwards that
        # feed it, and the accuracy pass after it; everything else is a batch.
        in_eval = [k[0] in ("risk.eval", "trainer.accuracy") for k in kids]
        for j, k in enumerate(kids):
            if k[0] == "risk.eval":
                epochs += 1
                back = j - 1
                while back >= 0 and kids[back][0] == "model.forward":
                    in_eval[back] = True
                    back -= 1
            elif k[0] == "model.adam":
                batches += 1
        for k, ev in zip(kids, in_eval):
            train["eval" if ev else part.get(k[0], "other")] += k[2] - k[1]

    c = counts
    train_s = dur["trainer.train"]
    dataio_top = sum(
        t1 - t0 for name, t0, t1, parent, _ in spans
        if name.startswith("dataio.") and (parent < 0 or not spans[parent][0].startswith("dataio."))
    )
    sampler_s = dur["sampler.rejection"] + dur["sampler.paper_case"]
    cells = c.get("evaluation.weak_run.calls", 0)
    m = {
        "risk.grad_calls": c.get("risk.grad.calls", 0),
        "risk.grad_s": dur["risk.grad"],
        "risk.eval_calls": c.get("risk.eval.calls", 0),
        "risk.eval_s": dur["risk.eval"],
        "model.forward_calls": c.get("model.forward.calls", 0),
        "model.forward_s": dur["model.forward"],
        "model.forward_flops": c.get("model.forward_flops", 0),
        "model.backward_calls": c.get("model.backward.calls", 0),
        "model.backward_s": dur["model.backward"],
        "model.backward_flops": c.get("model.backward_flops", 0),
        "model.adam_steps": c.get("model.adam.calls", 0),
        "model.adam_s": dur["model.adam"],
        "trainer.train_s": train_s,
        "trainer.epochs": epochs,
        "trainer.batches": batches,
        "trainer.loop_self_s": train["loop_self"],
        "trainer.eval_share": train["eval"] / train_s if train_s else 0.0,
        "dataio.write_csv_s": dur["dataio.write_csv"],
        "dataio.read_csv_s": dur["dataio.read_csv"],
        "dataio.write_jsonl_s": dur["dataio.write_jsonl"],
        "dataio.read_jsonl_s": dur["dataio.read_jsonl"],
        "dataio.rows_per_s": c.get("dataio.rows", 0) / dataio_top if dataio_top else 0.0,
        "dataio.bytes_written": c.get("dataio.bytes_written", 0),
        "dataio.write_model_s": dur["dataio.write_model"],
        "dataio.write_log_s": dur["dataio.write_log"],
        "sampler.synth_s": dur["sampler.synth"],
        "sampler.make_weak_s": dur["sampler.make_weak"],
        "sampler.triplets_per_s": c.get("sampler.triplets", 0) / sampler_s if sampler_s else 0.0,
        "sampler.acceptance_ratio": (
            c["sampler.accepted"] / c["sampler.raw_draws"]
            if c.get("sampler.raw_draws") else 0.0
        ),
        "cli.manifest_s": dur["cli.manifest"],
        "cli.digest_bytes": c.get("cli.digest_bytes", 0),
        "evaluation.accuracy_s": dur["evaluation.accuracy"],
        "evaluation.sweep_cells": cells,
        "evaluation.sweep_cell_s": dur["evaluation.weak_run"] / cells if cells else 0.0,
        "trace.spans": len(spans),
    }
    for suite, _ in VERIFY_SUITES:
        m[f"verify.{suite}_s"] = dur[f"verify.{suite}"]
    for module in MODULES:
        m[f"{module}.self_s"] = self_by_module[module]
    breakdown = {"train_s": train_s, **{f"{k}_s": v for k, v in train.items()}}
    return m, breakdown


MODULES = ("cli", "sampler", "dataio", "trainer", "risk", "model", "evaluation", "verify")

