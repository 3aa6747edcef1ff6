"""trisim benchmark: end-to-end and per-module speed of the CLI pipelines and
the verification oracles, with checks on every output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-default --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0   # every workload

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json with no
spans recorded. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics; tracing overhead is traced minus untraced
``pass_s``. Every run prints a readable report, writes it with the spans and
the environment under perfbench/out/, and ends with one JSON line.

Times are scaled to one machine speed. On a shared 2-vCPU sandbox the same
code runs up to 1.5x slower for seconds to minutes at a time, so each run
also times a fixed reference job (``spans.reference_job``, no trisim code)
before every pass and every quarter second of training, and multiplies its
times by ``REF_S`` / (the job's mean time in that run). Over ten seeds the
quartile spread of ``pass_s`` fell from 0.13 of the median as wall time to
0.024 scaled on small-default, and from 0.13 to 0.047 on verify-all. The wall
times are printed beside the scaled ones. Per-layer times are wall times of
the traced passes.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0))
# BLAS threads never exceed the CPUs this process may use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(NPROC, int(os.environ.get(_var) or NPROC)))

import numpy as np  # noqa: E402

from spans import Probe, Tracer, pass_layers, percentile_for, quantile, reference_job  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SETUP_CHILDREN = 5
REF_S = 0.004  # the reference job's time at the speed all times are scaled to
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import trisim.cli; trisim.cli.build_parser()"

# Counts that must repeat exactly for the same seed; reported from the first
# traced pass, and checked against every later traced pass of its variant.
EXACT = (
    "risk.grad_calls", "risk.eval_calls", "model.forward_calls", "model.forward_flops",
    "model.backward_calls", "model.backward_flops", "model.adam_steps", "trainer.epochs",
    "trainer.batches", "dataio.bytes_written", "sampler.acceptance_ratio", "cli.digest_bytes",
    "evaluation.sweep_cells", "trace.spans",
)


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_flops", "flop"), ("_bytes", "B"),
                         ("bytes_written", "B"), ("_share", "ratio"), ("_ratio", "ratio"),
                         ("_mb", "MB"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ms" if "_ms_" in name else "count"


def load_trisim():
    if not (SRC / "trisim" / "cli.py").is_file():
        raise SystemExit(f"error: trisim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import trisim.cli
    import trisim.dataio
    import trisim.evaluation
    import trisim.model
    import trisim.sampler
    import trisim.trainer
    import trisim.verify

    return trisim


def blas_threads() -> int | None:
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(trisim, workload, seed, seconds, trace) -> dict:
    import scipy

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = res.stdout.strip() or rev
    src = hashlib.sha256()
    for path in sorted((SRC / "trisim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "workload": workload.name,
        "sizes": {k: v for k, v in vars(workload).items() if k != "why"},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, one process, one pass at a time",
    }


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_job()
    return time.perf_counter() - t0


def setup_runs(trace: bool) -> tuple[list[float], list[float], dict]:
    """Fresh interpreters that import trisim.cli and build its parser; returns
    their wall times, the same scaled by the reference job timed right before
    and after each, and, with tracing, where the children run under -X
    importtime, the import tree {module: (self s, cumulative s)} of the first."""
    flags = ["-X", "importtime"] if trace else []
    times, scaled, imports = [], [], {}
    for _ in range(SETUP_CHILDREN):
        before = timed_reference()
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * 2 * REF_S / (before + timed_reference()))
        if res.returncode != 0:
            raise SystemExit(f"error: importing trisim.cli failed:\n{res.stderr}")
        if trace and not imports:
            for line in res.stderr.splitlines():
                parts = line.removeprefix("import time:").split("|")
                if len(parts) == 3 and parts[0].strip().isdigit():
                    imports.setdefault(parts[2].strip(),
                                       (int(parts[0]) / 1e6, int(parts[1]) / 1e6))
    return times, scaled, imports


def make_call(trisim, clock):
    def call(argv):
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = trisim.cli.main([str(a) for a in argv])
        return rc, buf.getvalue(), clock() - t0

    return call


def run_passes(trisim, workload, seed, seconds, trace, workdir):
    """Closed loop until the next pass would overrun --seconds, but at least
    two passes of every variant, so each has a same-seed repeat."""
    probe, tracer = Probe(trisim), Tracer(trisim)
    call = make_call(trisim, probe.clock)
    variants = workload.variants
    first_outputs, first_counts = {}, {}
    passes = []
    start = time.perf_counter()
    last = 0.0
    probe.install()
    try:
        while len(passes) < 2 * len(variants) or time.perf_counter() - start + last <= seconds:
            i = len(passes)
            variant = variants[i % len(variants)]
            traced = bool(trace) and (i // len(variants)) % 2 == 1
            pass_dir = workdir / variant
            pass_dir.mkdir(exist_ok=True)
            os.chdir(pass_dir)
            probe.reset()
            for _ in range(3):
                probe.sample()
            probe.sampling = not traced  # spans stay free of the reference job
            wall0 = time.perf_counter()
            t0 = probe.clock()
            if traced:
                tracer.install(i)
            try:
                steps = workload.run_pass(call, seed, variant)
            except Exception as exc:  # an operation that crashes fails its pass
                steps = {f"raised {type(exc).__name__}: {exc}": (None, "", 0.0)}
            finally:
                if traced:
                    tracer.uninstall()
            pass_s = probe.clock() - t0
            rec = {
                "index": i, "variant": variant, "traced": traced, "pass_s": pass_s,
                "steps": {k: s for k, (_, _, s) in steps.items()},
                "exit_codes": {k: rc for k, (rc, _, _) in steps.items()},
                "train_s": probe.train_s, "train_rows": probe.train_rows,
                "epoch_s": list(probe.epoch_s), "read_weak_s": probe.read_weak_s,
                "ref_s": list(probe.ref_s),
            }
            try:
                checks = workload.check(trisim, steps, seed, variant, variant not in first_outputs)
                if all(checks.values()):
                    rec["accuracy"] = workload.accuracy()
                    outputs = {p: digest(p) for p in workload.primary_outputs()}
                    checks["same_bytes"] = first_outputs.setdefault(variant, outputs) == outputs
            except Exception as exc:  # a malformed output is a failed check, not a crash
                checks = {f"check raised {type(exc).__name__}: {exc}": False}
            if traced:
                rec["layers"], rec["train_breakdown"] = pass_layers(tracer.passes[i], tracer.counts[i])
                exact = {k: rec["layers"][k] for k in EXACT}
                checks["same_counts"] = first_counts.setdefault(variant, exact) == exact
            rec["checks"] = checks
            rec["ok"] = all(checks.values())
            passes.append(rec)
            last = time.perf_counter() - wall0
    finally:
        probe.uninstall()
        os.chdir(ROOT)
    return passes, tracer


def end_to_end(workload, passes, setup) -> tuple[dict, dict, dict]:
    """Timings come from the untraced passes whose outputs checked out; each
    is returned scaled to the reference speed, and as wall time."""
    setup_wall, setup_scaled = setup
    plain = [p for p in passes if not p["traced"] and p["ok"]]
    refs = [r for p in plain for r in p["ref_s"]]
    speed = REF_S / statistics.mean(refs)  # > 1 when the machine ran fast
    epochs = [s * 1e3 for p in plain for s in p["epoch_s"]]
    pct = percentile_for(len(epochs))
    n = len(plain)
    wall = {
        "setup_s": statistics.median(setup_wall),
        "pass_s": sum(p["pass_s"] for p in plain) / n,
        "epoch_ms_p50": quantile(epochs, 50),
        "epoch_ms_p98": quantile(epochs, pct),
        "train_rows_per_s": sum(p["train_rows"] for p in plain) / sum(p["train_s"] for p in plain),
    }
    if workload.weak_rows:
        wall["weak_rows_per_s"] = n * workload.weak_rows / sum(
            p["steps"]["make-weak"] + p["read_weak_s"] for p in plain)
    m = {k: v / speed if k.endswith("per_s") else v * speed for k, v in wall.items()}
    m["setup_s"] = statistics.median(setup_scaled)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["fail_ratio"] = sum(not p["ok"] for p in passes) / len(passes)
    m["reference_ms"] = 1e3 * statistics.mean(refs)
    notes = {
        "setup_s": f"median of {len(setup_wall)} fresh interpreters",
        "pass_s": f"mean of {n} passes",
        "epoch_ms_p50": f"{len(epochs)} epochs",
        "epoch_ms_p98": f"p{pct:g} of {len(epochs)} epochs",
        "train_rows_per_s": "epochs x (3 triplets + unlabeled) / train time",
        "weak_rows_per_s": "triplets + unlabeled / (make-weak + weak read in train)",
        "peak_rss_mb": "peak resident set of this process",
        "fail_ratio": f"{sum(not p['ok'] for p in passes)} of {len(passes)} passes failed a check",
        "reference_ms": f"mean of {len(refs)} timings; the other times are scaled by {speed:.4g}",
    }
    for k, v in wall.items():
        notes[k] += f"; wall {fmt(v)}"
    return m, notes, wall


def per_layer(passes, imports) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"] and p["ok"]]
    plain = [p for p in passes if not p["traced"] and p["ok"]]
    first = traced[0]["layers"]
    m = {k: first[k] if k in EXACT else statistics.median(p["layers"][k] for p in traced)
         for k in first}
    traced_s = statistics.mean(p["pass_s"] for p in traced)
    m["trace.overhead_s"] = traced_s - statistics.mean(p["pass_s"] for p in plain)
    m["verify.import_s"] = imports.get("trisim.verify", (0, 0))[1]
    breakdown = {k: statistics.median(p["train_breakdown"][k] for p in traced)
                 for k in traced[0]["train_breakdown"]}
    modules = {k.removesuffix(".self_s"): v for k, v in m.items() if k.endswith(".self_s")}
    extra = {
        "train_breakdown_s": breakdown,
        "train_breakdown_share": {k: v / breakdown["train_s"] for k, v in breakdown.items()
                                  if breakdown["train_s"] and k != "train_s"},
        "pass_share_by_module_self": {k: v / traced_s for k, v in modules.items()},
        "imports_s": {
            "trisim.cli cumulative": imports.get("trisim.cli", (0, 0))[1],
            "trisim.verify cumulative": imports.get("trisim.verify", (0, 0))[1],
            "numpy cumulative": imports.get("numpy", (0, 0))[1],
            "scipy.* self, summed": sum(v[0] for k, v in imports.items()
                                        if k == "scipy" or k.startswith("scipy.")),
        },
        "imports_top_self_s": dict(sorted(((k, v[0]) for k, v in imports.items()),
                                          key=lambda kv: -kv[1])[:12]),
    }
    return m, extra


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    trisim = load_trisim()
    *setup, imports = setup_runs(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        passes, tracer = run_passes(trisim, workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not p["ok"] for p in passes)
    for p in passes:
        if not p["ok"]:
            print(f"   pass {p['index']} ({p['variant']}) failed: "
                  + ", ".join(k for k, ok in p["checks"].items() if not ok))
    for traced in {False, bool(args.trace)}:
        if not any(p["ok"] and p["traced"] == traced for p in passes):
            raise SystemExit(f"error: no {'traced ' * traced}pass of {workload.name} passed its checks")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    e2e, notes, wall = end_to_end(workload, passes, setup)
    result = {"env": environment(trisim, workload, args.seed, args.seconds, args.trace),
              "end_to_end": e2e, "end_to_end_wall": wall, "notes": notes}
    metrics = e2e
    if args.trace:
        metrics, extra = per_layer(passes, imports)
        result.update(per_layer=metrics, **extra)
    result["passes"] = [{k: v for k, v in p.items() if k not in ("epoch_s", "layers")}
                        for p in passes]
    stem = f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"spans_{workload.name}_seed{args.seed}.csv", "w") as fh:
            fh.write("name,start,end,parent,pass_id\n")
            for spans in tracer.passes.values():
                fh.writelines(f"{n},{a!r},{b!r},{p},{i}\n" for n, a, b, p, i in spans)

    print(f"== {workload.name}  seed {args.seed}  trace {args.trace}: {len(passes)} passes, "
          f"{failed} failed; {NPROC} CPUs, {result['env']['blas_threads']} BLAS threads")
    for name, value in metrics.items():
        print(f"   {name:28s} {fmt(value):>14s} {unit_of(name):6s} {notes.get(name, '')}")
    if args.trace:
        for key in ("train_breakdown_share", "pass_share_by_module_self", "imports_s"):
            print(f"   {key}: " + ", ".join(f"{k} {v:.3g}" for k, v in result[key].items()))
    print(f"   report: {(OUT / stem).relative_to(ROOT)}.json")
    line = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process), then
    one table of every metric the runs computed."""
    rows = {}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        report = json.loads((OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json").read_text())
        rows[name] = report["per_layer" if args.trace else "end_to_end"]
    names = list(dict.fromkeys(k for r in rows.values() for k in r))
    print(f"{'metric':28s} {'unit':6s}" + "".join(f"{w:>15s}" for w in rows))
    for n in names:
        print(f"{n:28s} {unit_of(n):6s}" + "".join(f"{fmt(r[n]) if n in r else '-':>15s}"
                                                   for r in rows.values()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
