"""Run one gradefactor benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload ml-full --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The run generates its inputs from
--seed in a child process, then repeats the workload's operation until
--seconds have passed (at least once, twice for cli-pipeline so its
determinism check has a pair).  Before the first operation and again
before every operation it times a set-up sample.  It checks every
operation's outputs and prints a report.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 traces one set-up
pass, then alternates untraced and traced operations, and reports the
per-layer metrics plus the tracing overhead.  BLAS runs single-threaded; only
cli-pipeline's `--threads 2` adds a second compute thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
# a set-up sample repeats whole set-up passes for at least this long
SETUP_SAMPLE_S = 0.5

# (name, unit) of the gated end-to-end metrics, printed with --trace 0
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("obj_ratio", "ratio"),
    ("heldout_ll", "prob"),
]
# printed and recorded but not gated: iter_ms and n_iter are wall_s over a
# constant and the constant, fixed by the workload; the others spread
# across seeds wider than any bound may be (README.md)
UNGATED = [
    ("iter_ms", "ms"),
    ("n_iter", "count"),
    ("final_obj", "nats"),
    ("e_w", "ratio"),
    ("e_c", "ratio"),
    ("e_mu", "ratio"),
]
TRACE_EXTRA = [("trace.wall_s", "s"), ("trace.overhead_s", "s")]


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "seed": seed,
    }


def prepare(workload, seed, workdir):
    """Draw and write the workload's inputs in a child process, so that
    their memory does not count in this process's peak."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed),
                    str(workdir)], env=env, check=True)


def setup_sample(workload):
    """Seconds per set-up pass over every instance, timed over whole
    passes lasting at least SETUP_SAMPLE_S together."""
    passes = 0
    start = time.perf_counter()
    while True:
        for b in range(workload.n_instances):
            workload.setup(b)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_SAMPLE_S:
            return elapsed / passes


def run_ops(workload, seconds, min_ops, tracer, setup_times=None):
    """Repeat the operation for `seconds`; with a tracer, alternate
    untraced and traced operations.  With `setup_times`, append a set-up
    sample before each operation.  Returns (ops, first output)."""
    ops, first = [], None
    deadline = time.perf_counter() + seconds
    while True:
        if len(ops) >= min_ops and time.perf_counter() >= deadline:
            break
        if setup_times is not None:
            setup_times.append(setup_sample(workload))
        traced = tracer is not None and len(ops) % 2 == 1
        op = {"traced": traced, "fails": []}
        start = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    out = workload.run_op()
            else:
                out = workload.run_op()
        except Exception as exc:  # a crashing operation is a failed one
            op["wall_s"] = time.perf_counter() - start
            traceback.print_exc()
            op["fails"].append(f"{type(exc).__name__}: {exc}")
            ops.append(op)
            continue
        op["wall_s"] = time.perf_counter() - start
        op["n_iter"] = sum(o["n_iter"] for o in out)
        op["fails"] += workload.check(out)
        if first is None and not op["fails"]:
            first = out
        ops.append(op)
    return ops, first


def summarize(ops, setup_s, peak_rss_mb, quality, per_iteration):
    """Gated and ungated end-to-end metrics of an untraced run."""
    good = [op for op in ops if not op["fails"]]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(op["wall_s"] for op in good),
        "iter_ms": statistics.median(1e3 * op["wall_s"] / op["n_iter"] for op in good),
        "n_iter": statistics.median(op["n_iter"] for op in good),
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }
    if not per_iteration:
        del metrics["iter_ms"]
    return [{name: {"value": float(metrics[name]), "unit": unit}
             for name, unit in names if name in metrics}
            for names in (END_TO_END, UNGATED)]


def main(argv=None):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "gradefactor" / "__init__.py").is_file():
        print(f"error: no gradefactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = ROOT / ".bench_work" / tag
    results = ROOT / ".bench_results"
    workdir.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        prepare(args.workload, args.seed, workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        prep_s = time.perf_counter() - started
        setup_times = [setup_sample(workload)]
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.phase = "setup"
            with tracer.installed():
                for b in range(workload.n_instances):
                    workload.setup(b)
            tracer.phase = "op"
        workload.after_setup()
        min_ops = 2 if (tracer or args.workload == "cli-pipeline") else 1
        ops, first = run_ops(workload, args.seconds, min_ops, tracer, setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = sum(1 for op in ops if op["fails"])
        if first is None:
            raise RuntimeError("every operation failed: " + "; ".join(ops[0]["fails"]))
        if tracer:
            traced = [op["wall_s"] for op in ops if op["traced"] and not op["fails"]]
            untraced = [op["wall_s"] for op in ops if not op["traced"] and not op["fails"]]
            metrics = tracer.layer_metrics(len(traced), workload.n_observed)
            extra = {"trace.wall_s": statistics.median(traced),
                     "trace.overhead_s": statistics.median(traced)
                     - statistics.median(untraced)}
            metrics.update({name: {"value": extra[name], "unit": unit}
                            for name, unit in TRACE_EXTRA})
            tracer.write_spans(results / f"{tag}-spans.jsonl")
            ungated = {}
        else:
            metrics, ungated = summarize(ops, statistics.median(setup_times), peak_rss_mb,
                                         workload.quality(first), workload.per_iteration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "prep_s": prep_s, "setup_samples_s": setup_times,
              "elapsed_s": time.perf_counter() - started,
              "op_wall_s": [op["wall_s"] for op in ops],
              "failures": [f for op in ops for f in op["fails"]], "metrics": metrics,
              "ungated": ungated}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, trace {args.trace}, {len(ops)} operations, "
          f"{failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for fail in record["failures"]:
        print(f"FAILED CHECK: {fail}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for name, metric in ungated.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}  (not gated)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
