"""Span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of each poolbench module
from outside the program: it replaces a module attribute or a class
attribute by a wrapper that records a span (name, start, end, parent) and
puts the original back when the run ends.  Spans stay in memory; a span's
self time is its duration minus the time its child spans cover.

``PER_LAYER`` is the catalogue of per-layer metrics.  ``per_layer_metrics``
turns the recorded spans of one traced run into those metrics; a metric
whose layer the workload never calls reads 0.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from weakref import WeakKeyDictionary

METHODS = (
    "MP", "AP", "NN", "CONV", "GP", "OP", "LNP", "LSE",
    "SMP_fixed", "SMP_trainable", "SESMP", "SEMP",
)
SE_METHODS = ("SESMP", "SEMP")

# window-level operators and their analytic gradients, as gradcheck calls them
WINDOW_OPS = (
    "max_pool", "avg_pool", "nearest_pool", "conv_pool", "gated_pool",
    "ordinal_pool", "learned_norm_pool", "lse_pool", "smooth_max_pool",
)
WINDOW_GRADS = tuple(f"{op}_grad" for op in WINDOW_OPS)
REPORT_WRITERS = (
    "write_run_csv", "write_params_json", "write_summary_csv", "write_params_report_csv",
)


def _catalogue():
    out = []
    for slot in ("pool1", "pool2"):
        for m in METHODS:
            out += [(f"layers.{slot}.{m}.fwd_us", "us", "lower"), (f"layers.{slot}.{m}.bwd_us", "us", "lower")]
    for m in SE_METHODS:
        out += [(f"layers.block.{m}.fwd_us", "us", "lower"), (f"layers.block.{m}.bwd_us", "us", "lower")]
    for slot in ("conv1", "conv2", "head"):
        out += [(f"layers.{slot}.fwd_us", "us", "lower"), (f"layers.{slot}.bwd_us", "us", "lower")]
    out += [(f"train.{m}.step_us", "us", "lower") for m in METHODS]
    out += [
        ("train.evaluate_ms", "ms", "lower"),
        ("train.samples", "count", "higher"),
        ("optim.step_us", "us", "lower"),
        ("optim.steps", "count", "lower"),
        ("data.make_synthetic_ms", "ms", "lower"),
        ("data.make_synthetic_calls", "count", "lower"),
        ("reports.write_ms", "ms", "lower"),
        ("reports.bytes_written", "bytes", "lower"),
    ]
    out += [(f"gradcheck.{m}.check_ms", "ms", "lower") for m in METHODS]
    out += [
        ("grads.fd_check_calls", "count", "lower"),
        ("grads.fd_check_us", "us", "lower"),
        ("grads.analytic_calls", "count", "lower"),
        ("gradcheck.points_per_draw", "ratio", "higher"),
        ("ops.window_calls", "count", "lower"),
        ("ops.window_call_us", "us", "lower"),
        ("bench.trace_overhead_pct", "%", "lower"),
    ]
    return tuple(out)


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = _catalogue()


class Tracer:
    """Records spans around patched callables; ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, child_ns]
        self.counts = defaultdict(int)
        self.slots = WeakKeyDictionary()  # layer object -> its ToyNet slot name
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name_of(args), 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                if record[3] >= 0:
                    spans[record[3]][4] += end - record[1]
            if after is not None:
                after(args)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper_of):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def _span(self, owner, attr, name_of, after=None):
        if isinstance(name_of, str):
            fixed = name_of
            name_of = lambda args: fixed  # noqa: E731
        self._patch(owner, attr, lambda fn: self._wrap(fn, name_of, after))

    def tag_net(self, net):
        """Name the layers of a ToyNet after their slots (conv1, pool1, ...)."""
        for slot in ("conv1", "pool1", "conv2", "pool2", "head"):
            self.slots[getattr(net, slot)] = slot

    # -- installation -------------------------------------------------------

    def install(self, pb):
        """Wrap the public calls of every poolbench module in ``pb``."""
        layers, train, slots = pb.layers, pb.train, self.slots
        for cls in (layers.Conv2D, layers.Linear):
            for attr, tag in (("forward", "fwd"), ("backward", "bwd")):
                self._span(cls, attr, lambda a, tag=tag: f"layers.{slots.get(a[0], 'unnamed')}.{tag}")
        for attr, tag in (("forward", "fwd"), ("backward", "bwd")):
            self._span(
                layers.PoolingBlock, attr,
                lambda a, tag=tag: f"layers.{slots.get(a[0], 'block')}.{a[0].method}.{tag}",
            )

        def tagging_init(init):
            @functools.wraps(init)
            def wrapper(net, *args, **kwargs):
                init(net, *args, **kwargs)
                self.tag_net(net)
            return wrapper

        self._patch(layers.ToyNet, "__init__", tagging_init)

        def count_samples(args):
            self.counts["train.samples"] += len(args[1])

        self._span(train, "forward_backward", lambda a: f"train.{a[0].method}.forward_backward", count_samples)
        self._span(train, "evaluate", "train.evaluate")
        self._span(pb.optim.Adam, "step", "optim.step")
        # run_single calls data.make_synthetic through the name bound in train
        self._span(train, "make_synthetic", "data.make_synthetic")

        def count_bytes(args):
            self.counts["reports.bytes_written"] += os.path.getsize(args[1])

        for attr in REPORT_WRITERS:
            self._span(pb.reports, attr, "reports.write", count_bytes)
        self._span(pb.gradcheck, "check_method", lambda a: f"gradcheck.{a[0]}.check")
        # gradcheck binds fd_check by name; grads keeps the module's own
        self._span(pb.gradcheck, "fd_check", "grads.fd_check")
        self._span(pb.grads, "fd_check", "grads.fd_check")
        for attr in WINDOW_GRADS:
            self._span(pb.grads, attr, "grads.analytic")
        for attr in WINDOW_OPS:
            self._span(pb.ops, attr, "ops.window")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """One tab-separated line per span: index, name, start, end, parent, self (ns)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tself_ns\n")
            for i, (name, start, end, parent, child) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{end - start - child}\n")

    def fd_checks_per_method(self):
        """fd_check calls made inside each gradcheck.<method>.check span."""
        spans = self.spans
        out = defaultdict(int)
        for name, _, _, parent, _ in spans:
            if name != "grads.fd_check":
                continue
            while parent >= 0 and not spans[parent][0].startswith("gradcheck."):
                parent = spans[parent][3]
            if parent >= 0:
                out[spans[parent][0].split(".")[1]] += 1
        return dict(out)


def per_layer_metrics(tracer, rounds, points_per_round, overhead_pct):
    """Every metric of ``PER_LAYER`` from the spans of ``rounds`` traced rounds.

    Times are medians per call: self time for leaf calls and for fd_check,
    inclusive time for evaluate, make_synthetic, report writes and a whole
    method's gradient check.  ``train.<M>.step_us`` is forward_backward plus
    the optimizer step that follows it.  Counts are per round.
    """
    self_ns = defaultdict(list)
    incl_ns = defaultdict(list)
    steps = defaultdict(list)
    pending = {}
    for name, start, end, parent, child in tracer.spans:
        self_ns[name].append(end - start - child)
        incl_ns[name].append(end - start)
        if name.endswith(".forward_backward"):
            pending[parent] = (name.split(".")[1], end - start)
        elif name == "optim.step" and parent in pending:
            method, fb = pending.pop(parent)
            steps[method].append(fb + end - start)

    def med(values, scale):
        return statistics.median(values) / scale if values else 0.0

    def per_round(n):
        return n // rounds

    values = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith("layers."):
            values[name] = med(self_ns[name[: -len("_us")]], 1e3)
    for m in METHODS:
        values[f"train.{m}.step_us"] = med(steps[m], 1e3)
        values[f"gradcheck.{m}.check_ms"] = med(incl_ns[f"gradcheck.{m}.check"], 1e6)
    analytic = len(self_ns["grads.analytic"])
    block_backward = sum(len(self_ns[f"layers.block.{m}.bwd"]) for m in SE_METHODS)
    values.update({
        "train.evaluate_ms": med(incl_ns["train.evaluate"], 1e6),
        "train.samples": per_round(tracer.counts["train.samples"]),
        "optim.step_us": med(incl_ns["optim.step"], 1e3),
        "optim.steps": per_round(len(incl_ns["optim.step"])),
        "data.make_synthetic_ms": med(incl_ns["data.make_synthetic"], 1e6),
        "data.make_synthetic_calls": per_round(len(incl_ns["data.make_synthetic"])),
        "reports.write_ms": med(incl_ns["reports.write"], 1e6),
        "reports.bytes_written": per_round(tracer.counts["reports.bytes_written"]),
        "grads.fd_check_calls": per_round(len(self_ns["grads.fd_check"])),
        "grads.fd_check_us": med(self_ns["grads.fd_check"], 1e3),
        "grads.analytic_calls": per_round(analytic),
        "gradcheck.points_per_draw": (
            points_per_round * rounds / (analytic + block_backward) if analytic + block_backward else 0.0
        ),
        "ops.window_calls": per_round(len(self_ns["ops.window"])),
        "ops.window_call_us": med(self_ns["ops.window"], 1e3),
        "bench.trace_overhead_pct": overhead_pct,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
