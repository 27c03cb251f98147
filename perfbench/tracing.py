"""Span tracing of dgconv's layers from outside the program.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent span).  The wrapper is installed under every name the
function is bound to in a ``dgconv`` module, because ``dgc.py``,
``model.py`` and ``runtime.py`` import kernels by name: replacing
``dgconv.core.im2col`` alone would miss their calls.  Methods are
replaced on their class.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import collections
import os
import sys
import time

# (span name, module, attribute) -- the attribute is a function, or
# "Class.method" for a method.
TARGETS = (
    ("core.im2col", "dgconv.core", "im2col"),
    ("core.col2im", "dgconv.core", "col2im"),
    ("core.conv2d_forward", "dgconv.core", "conv2d_forward"),
    ("core.batchnorm", "dgconv.core", "BatchNorm2d.forward"),
    ("core.batchnorm", "dgconv.core", "BatchNorm2d.backward"),
    ("core.sgd_step", "dgconv.core", "SGD.step"),
    ("dgc.forward", "dgconv.dgc", "dgc_forward"),
    ("dgc.backward", "dgconv.dgc", "dgc_backward"),
    ("model.forward", "dgconv.model", "DgcNetwork.forward"),
    ("model.backward", "dgconv.model", "DgcNetwork.backward"),
    ("train.epoch", "dgconv.train", "train_epoch"),
    ("train.evaluate", "dgconv.train", "evaluate"),
    ("data.batches", "dgconv.data", "DatasetSource.batches"),
    ("checkpoint.save", "dgconv.checkpoint", "save_checkpoint"),
    ("global_threshold.calibrate", "dgconv.global_threshold",
     "compute_global_threshold"),
    ("runtime.plan_build", "dgconv.runtime", "plan_from_forward"),
    ("runtime.execute_plan", "dgconv.runtime", "execute_plan"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.gated_layers: set[int] = set()     # ids of layers seen in inference
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        def traced_generator(*args, **kwargs):
            # Only the time spent producing each item is the layer's.
            gen = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                yield item

        return traced_generator if name == "data.batches" else traced

    def reset_counts(self) -> None:
        self.counts.clear()
        self.gated_layers.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "dgconv" or n.startswith("dgconv.")]
        for name, module, attr in TARGETS:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is not None:
                    self._set(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results ------------------------------------------------------------

    def summary(self, since: float, until: float) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and calls of the
        spans that started inside [since, until)."""
        child = collections.defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = collections.defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            if since <= start < until:
                rec = out[name]
                rec["s"] += end - start
                rec["self_s"] += end - start - child[i]
                rec["calls"] += 1
        return out

    def write(self, path: str) -> None:
        """Spans as CSV: id, parent, name, start and end in ns from the
        first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{round((start - t0) * 1e9)},"
                         f"{round((end - t0) * 1e9)}\n")


def _count_im2col(tracer, args, kwargs, out):
    tracer.counts["core.im2col_bytes"] += out[0].nbytes


def _count_save(tracer, args, kwargs, out):
    tracer.counts["checkpoint.save_bytes"] += os.path.getsize(args[0])


def _count_gated(tracer, args, kwargs, out):
    """Kept channel slices and empty head slices of inference passes
    (training passes convolve every channel, masked)."""
    if kwargs.get("training", True):
        return
    tracer.gated_layers.add(id(args[1]))
    tracer.counts["dgc.samples"] += out.output.shape[0]
    for mask in out.masks:
        kept = mask.sum(axis=1)
        tracer.counts["dgc.kept"] += int(kept.sum())
        tracer.counts["dgc.empty_heads"] += int((kept == 0).sum())


_COUNTERS = {
    "core.im2col": _count_im2col,
    "checkpoint.save": _count_save,
    "dgc.forward": _count_gated,
}
