"""Command-line tools: train, evaluate, benchmark, visualize.

Each command prints a header line naming the command and the active
seed, so any output can be attributed to a reproducible run; train also
prints one progress line per epoch to stderr. Without --dataset the
commands operate on the built-in synthetic image set; --dataset accepts
a binary batch file (3073-byte records) or a directory of them. eval and
visualize standardize images with the training statistics stored in the
checkpoint.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 assertion
failure (benchmark ordering).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import time

import numpy as np

from .checkpoint import load_checkpoint, restore_network, restore_threshold
from .config import TrainConfig, parse_config_file
from .data import DatasetSource, load_cifar10, synth_dataset
from .runtime import (
    BENCH_CSV_HEADER,
    bench_csv_rows,
    run_benchmark,
)
from .runtime import _limit_threads as limit_threads
from .train import METRICS_HEADER, evaluate, fit, inference_gating
from .vis import collect_bundle, export_bundle

__all__ = ["main", "build_parser",
           "EXIT_OK", "EXIT_USAGE", "EXIT_NUMERIC", "EXIT_ASSERT"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ASSERT = 3

_SHAPE_RE = re.compile(r"^(\d+)x(\d+)x(\d+)k(\d+)$")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; scripted callers expect 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="dgconv",
                     description="Dynamic group convolution toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, *, seed_default=None):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="override the run seed (default: from config)")
        p.add_argument("--threads", type=positive_int, default=1,
                       help="BLAS thread cap (default 1)")

    p = sub.add_parser("train",
                       help="train a model and stream epoch metrics")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--out", default="run", help="output directory")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--dataset", help="binary batch file or directory")
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.add_argument("--train-count", type=positive_int, default=2000,
                   help="synthetic training images (default 2000)")
    p.add_argument("--eval-count", type=positive_int, default=400,
                   help="synthetic held-out images (default 400)")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval",
                       help="evaluate a checkpoint and print a metrics table")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", help="binary batch file or directory")
    p.add_argument("--out", help="also write the table to this CSV file")
    p.add_argument("--train-count", type=positive_int, default=2000)
    p.add_argument("--eval-count", type=positive_int, default=400)
    p.add_argument("--batch-size", type=positive_int, default=256)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench",
                       help="time dense/SGC/DGC batch-1 forwards")
    p.add_argument("--shapes", nargs="+", default=["16x32x16k3", "32x32x8k3"],
                   help="shape tokens CxC'xSkK, e.g. 64x64x32k3")
    p.add_argument("--variants", nargs="+", default=["dense", "sgc", "dgc"])
    p.add_argument("--repeats", type=positive_int, default=30)
    p.add_argument("--warmup", type=non_negative_int, default=5)
    p.add_argument("--out", help="also write the table to this CSV file")
    p.add_argument("--assert-ordering", action="store_true",
                   help="fail (exit 3) unless sgc <= dgc <= dense medians")
    common(p, seed_default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("visualize",
                       help="export saliency/decision/statistics data files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dataset", help="binary batch file or directory")
    p.add_argument("--count", type=positive_int, default=8,
                   help="number of images to trace (default 8)")
    p.add_argument("--contributions", nargs="*", type=int, default=[],
                   help="block indices to export contribution matrices for")
    p.add_argument("--train-count", type=positive_int, default=2000)
    p.add_argument("--eval-count", type=positive_int, default=400)
    common(p)
    p.set_defaults(func=cmd_visualize)
    return parser


def _binary_paths(path: str) -> list[str]:
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".bin"))
        if not names:
            raise CliError(f"no .bin files in dataset directory {path}")
        return [os.path.join(path, n) for n in names]
    if os.path.exists(path):
        return [path]
    raise CliError(f"dataset path not found: {path}")


def _synth_splits(classes: int, seed: int, train_count: int,
                  eval_count: int) -> tuple[DatasetSource, DatasetSource]:
    src = synth_dataset(seed, classes=classes,
                        count=train_count + eval_count)
    return src.split(train_count)


def _train_data(args, cfg: TrainConfig) -> DatasetSource:
    if args.dataset:
        return load_cifar10(_binary_paths(args.dataset))
    return _synth_splits(cfg.classes, cfg.seed, args.train_count,
                         args.eval_count)[0]


def _eval_data(args, cfg: TrainConfig, seed: int,
               stats: tuple[np.ndarray, np.ndarray]) -> DatasetSource:
    """The evaluation images, standardized with the training statistics
    stats stored in the checkpoint."""
    if args.dataset:
        return load_cifar10(_binary_paths(args.dataset), stats)
    held = _synth_splits(cfg.classes, seed, args.train_count,
                         args.eval_count)[1]
    return DatasetSource.from_arrays(held.images, held.labels, stats)


def _progress_printer(epochs: int):
    """fit's epoch_hook for cmd_train: one line per finished epoch on
    stderr; seconds run from the previous line (the first from the call
    to fit) and include the epoch's checkpoint write."""
    last = [time.perf_counter()]

    def hook(epoch, metrics, _net) -> None:
        now = time.perf_counter()
        print(f"epoch {epoch + 1}/{epochs}: loss={metrics.loss_total:.6g} "
              f"realized_prune_rate={metrics.realized_prune_rate:.4f} "
              f"seconds={now - last[0]:.2f}", file=sys.stderr, flush=True)
        last[0] = now

    return hook


def cmd_train(args) -> int:
    cfg = parse_config_file(args.config)
    if args.epochs is not None:
        cfg = dataclasses.replace(cfg, epochs=args.epochs)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    data = _train_data(args, cfg)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.csv")
    checkpoint_path = os.path.join(args.out, "model.ckpt")
    print(f"# dgconv train seed={cfg.seed} config={args.config} "
          f"epochs={cfg.epochs} images={data.images.shape[0]}")
    with limit_threads(args.threads):
        result = fit(cfg, data, metrics_path=metrics_path,
                     checkpoint_path=checkpoint_path,
                     resume_from=args.resume,
                     epoch_hook=_progress_printer(cfg.epochs))
    print(METRICS_HEADER)
    for m in result.history[-1:]:
        print(m.csv_line())
    print(f"metrics: {metrics_path}")
    print(f"checkpoint: {checkpoint_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    net = restore_network(ckpt)
    cfg = ckpt.config
    seed = args.seed if args.seed is not None else cfg.seed
    threshold_state = restore_threshold(ckpt) \
        if cfg.gating == "global" else None
    data = _eval_data(args, cfg, seed, ckpt.stats)
    with limit_threads(args.threads):
        metrics = evaluate(net, data, threshold_state,
                           batch_size=args.batch_size)
    header = (f"# dgconv eval seed={seed} checkpoint={args.checkpoint} "
              f"epoch={ckpt.epoch}")
    lines = [header] + metrics.csv_lines()
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _check_ordering(results) -> None:
    by_shape: dict[str, dict[str, float]] = {}
    for r in results:
        by_shape.setdefault(r.shape, {})[r.variant] = r.median_s
    for shape, medians in by_shape.items():
        missing = [v for v in ("dense", "sgc", "dgc") if v not in medians]
        if missing:
            raise CliError("ordering assertion needs dense, sgc, and dgc "
                           f"variants; missing {missing} for {shape}")
        if not medians["sgc"] <= medians["dgc"] <= medians["dense"]:
            raise CliError(
                f"median ordering violated for {shape}: "
                f"sgc={medians['sgc']:.3e} dgc={medians['dgc']:.3e} "
                f"dense={medians['dense']:.3e}", EXIT_ASSERT)


def _reject_repeats(flag: str, tokens: list[str], keys: list) -> None:
    """Exit 1 naming the first token whose key an earlier token had: a
    repeat would time its rows twice and --assert-ordering read one."""
    seen = set()
    for token, key in zip(tokens, keys):
        if key in seen:
            raise CliError(f"{flag} repeats {token!r}")
        seen.add(key)


def cmd_bench(args) -> int:
    shapes = []
    for token in args.shapes:
        m = _SHAPE_RE.match(token)
        if not m:
            raise CliError(f"bad shape token {token!r}, expected CxC'xSkK")
        shapes.append(tuple(int(g) for g in m.groups()))
    _reject_repeats("--shapes", args.shapes, shapes)
    _reject_repeats("--variants", args.variants, args.variants)
    if args.repeats == 1:
        print("warning: --repeats 1 gives no dispersion estimate",
              file=sys.stderr)
    results = run_benchmark(shapes, variants=args.variants,
                            threads=args.threads, repeats=args.repeats,
                            warmup=args.warmup, seed=args.seed)
    threads = results[0].threads if results else 0
    lines = [f"# dgconv bench seed={args.seed} threads={threads} "
             f"repeats={args.repeats}", BENCH_CSV_HEADER]
    lines += bench_csv_rows(results)
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.assert_ordering:
        _check_ordering(results)
    return EXIT_OK


def cmd_visualize(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    net = restore_network(ckpt)
    cfg = ckpt.config
    seed = args.seed if args.seed is not None else cfg.seed
    gating = inference_gating(
        cfg, restore_threshold(ckpt) if cfg.gating == "global" else None)
    data = _eval_data(args, cfg, seed, ckpt.stats)
    count = min(args.count, data.images.shape[0])
    images = data.standardized(data.images[:count])
    with limit_threads(args.threads):
        bundle = collect_bundle(net, images, gating,
                                contribution_blocks=tuple(args.contributions))
    written = export_bundle(bundle, args.out, seed)
    print(f"# dgconv visualize seed={seed} checkpoint={args.checkpoint} "
          f"images={count}")
    for i in bundle.block_indices:
        print(f"block {i}: realized_prune_rate={bundle.realized_rates[i]!r}")
    for path in written:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
