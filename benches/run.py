"""groupfx benchmark.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a groupfx checkout: the library is imported from its
``src`` directory, never from an installed copy. One process drives one
workload in a closed loop with a single client. Op ``i``'s inputs come from
the generator seeded by (N, i) and are built outside the timer; every result
is checked by the workload's oracle, and an op that raises or fails its
oracle counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced blocks of ops and prints the per-layer metrics, writing
the spans to ``benches/out/trace-NAME-seedN.jsonl``. The last line of
stdout is the JSON result; the lines before it list every metric with its
unit and record the environment. See benches/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "out"

WORKLOAD_NAMES = ("mc_suite", "effects_sweep", "clr_cv", "cli_cold")
END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
# Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
BLAS_THREADS = 1


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    problems: list = field(default_factory=list)
    warnings: int = 0
    apc_warnings: int = 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="groupfx benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def configure_environment() -> dict:
    """Pin the load caps before numpy is imported; children inherit them.

    BLAS gets one thread. The matrices here are at most 2000 x 21, and a
    second OpenBLAS thread only spins: it doubled the CPU time of clr_cv
    without shortening it, and busied the core that other work would use.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("GROUPFX_THREADS", None)
    sys.path.insert(0, str(SRC))
    return {"nproc": nproc, "blas_threads": min(BLAS_THREADS, nproc),
            "GROUPFX_THREADS": None}


def warmup_index(workload) -> int:
    """An op index no timed op reaches, of the same kind as op 0."""
    return workload.cycle * 10**6


def run_op(workload, seed: int, i: int, tracer=None) -> OpRecord:
    """Build op i's inputs, time the op, then check its result."""
    import numpy as np

    inp = workload.make_input(np.random.default_rng([seed, i]), i)
    traced_here = tracer is not None and workload.in_process
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced_here:
                tracer.op = i
                tracer.install()
            error = None
            t0 = time.perf_counter()
            try:
                result = workload.run(inp, tracer)
            except Exception:  # a raising op is a failed op; the run goes on
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            if traced_here:
                tracer.uninstall()
        record = OpRecord(elapsed, tracer is not None, warnings=len(caught),
                          apc_warnings=sum("APC condition" in str(w.message) for w in caught))
        if error is not None:
            record.problems = [f"op {i} raised: {error}"]
        else:
            try:
                record.problems = workload.check(inp, result)
            except Exception:  # a result the oracle cannot read is wrong
                record.problems = [f"op {i}: oracle failed: {traceback.format_exc(limit=3)}"]
    finally:
        workload.cleanup(inp)
    return record


def measure(workload, seed: int, seconds: float, tracer=None) -> list[OpRecord]:
    """Run whole cycles of ops until ``seconds`` have passed. With a tracer,
    each round is one untraced and one traced cycle."""
    blocks = (None, tracer) if tracer is not None else (None,)
    records, i, rounds = [], 0, 0
    start = time.perf_counter()
    while True:
        for block_tracer in blocks:
            for _ in range(workload.cycle):
                records.append(run_op(workload, seed, i, block_tracer))
                i += 1
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop when another round would end nearer past the deadline than
        # stopping now ends before it.
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return records


def time_setup(args) -> list[float]:
    """Wall time from spawning a fresh process to its first timed op:
    interpreter start, imports, input generation and one untimed warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    err_path = WORK_DIR / f"probe-stderr-{os.getpid()}.txt"
    times = []
    try:
        for _ in range(SETUP_PROBES):
            with open(err_path, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
                with proc.stdout:
                    line = proc.stdout.readline()
                    elapsed = time.perf_counter() - t0
                    proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            if code != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed (exit {code}): "
                                   f"{err_path.read_text(errors='replace')[-2000:]}")
            times.append(elapsed)
    finally:
        err_path.unlink(missing_ok=True)
    return times


def environment(args, caps: dict) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), **caps}


def end_to_end(records: list[OpRecord], setup: list[float], peak_rss_kb: int) -> dict:
    import numpy as np

    seconds = [r.seconds for r in records]
    ok = sum(not r.problems for r in records)
    return {
        "op_p50_ms": statistics.median(seconds) * 1e3,
        "op_p90_ms": float(np.percentile(seconds, 90)) * 1e3,
        "ops_per_s": ok / sum(seconds),
        "setup_s": statistics.median(setup),
        "ok_frac": ok / len(records),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(records: list[OpRecord], tracer, workload) -> dict:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    meta = getattr(workload, "child_meta", [])
    apc = sum(r.apc_warnings for r in traced) + sum(m["apc_warnings"] for m in meta)
    external = {
        "effects.apc_warnings": apc / len(traced),
        "cli.interpreter_ms": sum(m["interpreter_ms"] for m in meta) / len(traced),
        "cli.import_ms": sum(m["import_ms"] for m in meta) / len(traced),
        "trace.overhead_frac": statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in plain) - 1.0,
    }
    return tracing.layer_metrics(tracer.spans, len(traced), external)


def write_spans(path: Path, env: dict, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "span_fields": [
            "op", "id", "parent", "name", "start", "end", "nested_s", "failed",
            "counts"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupfx" / "__init__.py").is_file():
        print(f"run.py: no groupfx sources at {SRC}; run from a groupfx checkout",
              file=sys.stderr)
        return 2
    caps = configure_environment()
    WORK_DIR.mkdir(exist_ok=True)

    import groupfx
    import workloads

    if SRC not in Path(groupfx.__file__).resolve().parents:
        print(f"run.py: imported groupfx from {groupfx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    if args.setup_probe:
        record = run_op(workload, args.seed, warmup_index(workload))
        if record.problems:
            print("\n".join(record.problems), file=sys.stderr)
            return 1
        print("ready", flush=True)
        return 0

    try:
        setup = [] if args.trace else time_setup(args)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    warm = run_op(workload, args.seed, warmup_index(workload))
    if warm.problems:
        print("warm-up op failed:\n" + "\n".join(warm.problems), file=sys.stderr)
        return 1

    tracer = tracing.Tracer() if args.trace else None
    records = measure(workload, args.seed, args.seconds, tracer)
    failed = [r for r in records if r.problems]
    for r in failed[:5]:
        print("\n".join(r.problems), file=sys.stderr)

    env = environment(args, caps)
    env["warnings"] = sum(r.warnings for r in records)
    if args.trace:
        metrics = per_layer(records, tracer, workload)
        units = {name: tracing.metric_unit(name) for name in metrics}
        env["spans"] = str((WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
                           .relative_to(ROOT))
        write_spans(ROOT / env["spans"], env, tracer.spans)
    else:
        # cli_cold reports its largest child; the others this process.
        peak = getattr(workload, "peak_rss_kb", None)
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(records, setup, peak)
        units = END_TO_END_UNITS
        env["setup_s_samples"] = setup
    env["ops"] = len(records)

    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':45s} {len(failed) / len(records):14.6g} frac")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
