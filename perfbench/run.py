"""dgconv benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a dgconv source tree and imports the package from
its ``src`` directory.  BLAS is capped at one thread before numpy loads.
After set-up, whole rounds of the workload repeat until ``--seconds``
have passed; then the outputs of the last round are checked.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
See README.md in this directory for the workloads and metrics.
"""

import time

START = time.perf_counter()

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train_desk", "eval_headwise", "eval_global", "layer_b1")


def process_age() -> float:
    """Seconds since this process started, from /proc (10 ms ticks), or
    since this file began running where /proc is missing."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    return age if 0.0 <= age < 3600.0 else time.perf_counter() - START


def blas_report() -> tuple[str, int]:
    """BLAS name and version as numpy was built with, and the thread count
    read back from the OpenBLAS in the numpy wheel (0: not readable)."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    pkg = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(pkg + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                return name, get()
    return name, 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import dgconv from this tree's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    try:
        import dgconv
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dgconv from {SRC}: {exc}")
    where = os.path.realpath(dgconv.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: dgconv was imported from {where}, not {SRC}")
    return dgconv


def per_layer_metrics(tracer, workload, timed, rounds):
    """Seconds, calls and bytes per round of the timed part; set-up-only
    layers (threshold calibration, plan build) per run."""
    spans = tracer.summary(*timed)
    setup = tracer.summary(0.0, timed[0])
    counts = tracer.counts

    def per_round(value):
        return value / rounds

    out = {}
    for name in ("core.im2col", "core.col2im", "core.conv2d_forward"):
        out[f"{name}_s"] = (per_round(spans[name]["s"]), "s/round")
        out[f"{name}_calls"] = (per_round(spans[name]["calls"]), "count/round")
    out["core.im2col_mb"] = (per_round(counts["core.im2col_bytes"]) / 1e6, "MB/round")
    for name in ("core.batchnorm", "core.sgd_step", "dgc.forward",
                 "dgc.backward", "model.forward", "model.backward",
                 "train.epoch", "train.evaluate", "data.batches",
                 "checkpoint.save", "runtime.execute_plan"):
        out[f"{name}_s"] = (per_round(spans[name]["s"]), "s/round")
    for name in ("dgc.forward", "dgc.backward"):
        out[f"{name}_self_s"] = (per_round(spans[name]["self_s"]), "s/round")
    layers = len(tracer.gated_layers)
    samples = counts["dgc.samples"]
    out["dgc.kept_per_image"] = (
        counts["dgc.kept"] * layers / samples if samples else 0.0, "count")
    out["dgc.empty_heads"] = (per_round(counts["dgc.empty_heads"]), "count/round")
    out["checkpoint.save_mb"] = (per_round(counts["checkpoint.save_bytes"]) / 1e6,
                                 "MB/round")
    out["global_threshold.calibrate_s"] = (
        setup["global_threshold.calibrate"]["s"], "s")
    out["runtime.plan_build_s"] = (setup["runtime.plan_build"]["s"], "s")
    out["trace.round_s"] = (per_round(timed[1] - timed[0]), "s/round")
    out["host.probe_ms"] = (workload.probe.median_s() * 1e3, "ms")
    from workloads import B1_METRICS
    b1 = workload.per_layer() if hasattr(workload, "per_layer") else {}
    for name, unit in B1_METRICS.items():
        out[name] = (b1.get(name, 0.0), unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    import_program()
    blas, threads = blas_report()
    if threads > 1:
        sys.exit(f"perfbench: BLAS runs {threads} threads, not 1")
    import workloads
    from tracing import Tracer

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = process_age()

        rounds = attempted = failed = 0
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.reset_counts()
        while True:
            attempted += workload.ops
            try:
                workload.run_round()
                rounds += 1
            except Exception:
                failed += workload.ops
                traceback.print_exc()
            if time.perf_counter() - t0 >= args.seconds:
                break
        t1 = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        errors = workload.check() if rounds else ["no round completed"]
        for err in errors:
            print(f"perfbench: check failed: {err}", file=sys.stderr)
        images_per_s = workload.images_per_s() if rounds else 0.0
        probe_s = workload.probe.median_s() if rounds else 0.0
        print(f"# {args.workload} seed={args.seed} trace={args.trace} "
              f"rounds={rounds} timed_s={t1 - t0:.3f} setup_s={setup_s:.3f} "
              f"images_per_s={images_per_s:.4g} "
              f"probe_ms={probe_s * 1e3:.3f} "
              f"nproc={os.cpu_count()} blas={blas!r} blas_threads={threads}",
              file=sys.stderr)

        if tracer is not None:
            tracer.write(os.path.join(
                out_dir, f"trace_{args.workload}_seed{args.seed}.csv"))
            metrics = per_layer_metrics(tracer, workload, (t0, t1), max(rounds, 1))
        else:
            metrics = {
                "images_per_probe": (images_per_s * probe_s, "images/probe"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
