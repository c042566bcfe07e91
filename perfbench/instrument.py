"""Per-layer attribution measured from outside the program.

:class:`Instrumentation` wraps the public entry points of each layer in
``repro.obs`` spans for the traced repetitions only, and counts GEMM FLOPs
at the backend ``matmul`` boundary.  Nothing under ``src/`` changes: the
wrappers are installed on the classes and modules at run time and removed
afterwards.  Pool workers forked while they are installed inherit them, and
their spans ride back in the shard envelopes ``repro.exec`` already merges.

:func:`layer_metrics` turns the span records and metric-registry deltas of
the traced repetitions into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys

import numpy as np

from repro.obs import get_registry, span

from perfbench.measure import percentile, reportable_percentile, self_times

#: Registry counter the matmul wrapper adds GEMM FLOPs to.
GEMM_FLOPS = "perfbench.gemm_flops"


def _size_of_result(result, *args, **kwargs) -> dict:
    return {"cells": int(np.size(result))}


def _channel_read(result, channel, *args, **kwargs) -> dict:
    return {"cells": int(np.size(result)), "backend": type(channel).__name__}


def _ldpc_batch(results, *args, **kwargs) -> dict:
    return {"codewords": len(results),
            "iterations": int(sum(result.iterations for result in results)),
            "converged": int(sum(bool(result.success) for result in results))}


# (module, "Class.method" or "function", span name, attributes of the result)
ENTRY_POINTS = (
    ("repro.core.trainer", "Trainer.train_step", "core.train_step", None),
    ("repro.channel.protocol", "ChannelModel.read_voltages", "channel.read",
     _channel_read),
    ("repro.channel.adapters", "GenerativeChannel.read_repeated",
     "channel.read", _channel_read),
    ("repro.flash.channel", "FlashChannel.read", "flash.read",
     _size_of_result),
    ("repro.ecc.ldpc", "LDPCCode.decode_min_sum_batch", "ecc.ldpc_decode",
     _ldpc_batch),
    ("repro.ecc.bch", "BCHCode.decode", "ecc.bch_decode", None),
    ("repro.ecc.llr", "page_llrs", "ecc.llr", None),
    ("repro.baselines.models", "StatisticalChannelModel.fit", "baselines.fit",
     None),
    ("repro.eval.histograms", "conditional_pdfs", "eval.histogram", None),
    ("repro.eval.error_counts", "error_counts_from_samples",
     "eval.error_counts", None),
)


def _spanned(fn, name: str, result_attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name) as handle:
            result = fn(*args, **kwargs)
            if result_attrs is not None:
                handle.set(**result_attrs(result, *args, **kwargs))
            return result
    return wrapper


def gemm_flops(a_shape, b_shape) -> int:
    """FLOPs of ``np.matmul`` on operands of these shapes (2 per MAC)."""
    a_shape = (1, *a_shape) if len(a_shape) == 1 else tuple(a_shape)
    b_shape = (*b_shape, 1) if len(b_shape) == 1 else tuple(b_shape)
    batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    m, k = a_shape[-2:]
    n = b_shape[-1]
    return 2 * math.prod(batch) * m * k * n


def _counting_matmul(fn):
    @functools.wraps(fn)
    def matmul(self, a, b, *args, **kwargs):
        get_registry().inc(GEMM_FLOPS, gemm_flops(np.shape(a), np.shape(b)))
        return fn(self, a, b, *args, **kwargs)
    return matmul


class Instrumentation:
    """Installs the layer wrappers; a context manager that undoes them."""

    def __init__(self, backend_class: type):
        self.backend_class = backend_class
        self._undo: list = []

    def _replace(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had_own, original))

    def __enter__(self) -> "Instrumentation":
        for module_name, target, name, result_attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in target:
                class_name, method = target.split(".")
                owner = getattr(module, class_name)
                self._replace(owner, method, _spanned(
                    getattr(owner, method), name, result_attrs))
                continue
            # A function is bound by name in every module that imported it.
            original = getattr(module, target)
            wrapped = _spanned(original, name, result_attrs)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") \
                        and getattr(loaded, target, None) is original:
                    self._replace(loaded, target, wrapped)
        self._replace(self.backend_class, "matmul",
                      _counting_matmul(self.backend_class.matmul))
        return self

    def __exit__(self, *exc) -> bool:
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False


# ---------------------------------------------------------------------- #
# Registry deltas
# ---------------------------------------------------------------------- #
def registry_delta(before: dict, after: dict) -> dict:
    """``after - before`` for counters and histogram count/total."""
    delta = {}
    for name, entry in after.items():
        prior = before.get(name, {})
        if entry["type"] == "histogram":
            delta[name] = {"count": entry["count"] - prior.get("count", 0),
                           "total": entry["total"] - prior.get("total", 0.0)}
        elif entry["type"] == "counter":
            delta[name] = {"count": entry["value"] - prior.get("value", 0),
                           "total": float(entry["value"]
                                          - prior.get("value", 0))}
    return delta


def merge_deltas(deltas) -> dict:
    merged: dict = {}
    for delta in deltas:
        for name, entry in delta.items():
            slot = merged.setdefault(name, {"count": 0, "total": 0.0})
            slot["count"] += entry["count"]
            slot["total"] += entry["total"]
    return merged


def _total(delta: dict, *names: str) -> float:
    return sum(delta.get(name, {}).get("total", 0.0) for name in names)


def _kernels(delta: dict, field: str = "total") -> float:
    return sum(entry[field] for name, entry in delta.items()
               if name.startswith("nn.kernel."))


# Kernel histograms grouped the way the per-layer metrics report them.
IM2COL = ("nn.kernel.im2col", "nn.kernel.im2col_into",
          "nn.kernel.expand_cols_into")
FUSED = ("nn.kernel.fused_elementwise", "nn.kernel.fused_elementwise_bwd",
         "nn.kernel.bn_bwd_dx", "nn.kernel.bn_bwd_reductions",
         "nn.kernel.leaky_relu")
OPTIM = ("nn.kernel.adam_update", "nn.kernel.sgd_update")


def _spans(records, name: str):
    return [record for record in records
            if record.get("type") == "span" and record["name"] == name]


def layer_metrics(*, setup_records, setup_delta, body_records, body_delta,
                  train_delta, reps: int, cache_hits: int, cache_misses: int,
                  overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced repetitions, plus notes.

    Every metric is per timed repetition (body total / ``reps``), except
    ``data.dataset_s``, ``nn.compile_s``, ``flash.read_s`` and
    ``flash.cells``, which also describe set-up work and add the traced
    set-up's total to the per-repetition figure.
    """
    notes: dict = {}

    def span_total(name, records=body_records):
        return sum(record["dur"] for record in _spans(records, name))

    def span_attr(name, attr, records=body_records):
        return sum(record.get("attrs", {}).get(attr, 0)
                   for record in _spans(records, name))

    per_rep = 1.0 / reps
    steps = [record["dur"] for record in _spans(body_records,
                                                "core.train_step")]
    metrics: dict = {}
    metrics["core.train_steps"] = len(steps) * per_rep
    metrics["core.train_step_ms_p50"] = \
        percentile(steps, 50.0) * 1e3 if steps else 0.0
    # The tail is reported only where ten samples lie beyond it.
    tail = reportable_percentile(len(steps))
    if tail is not None and tail >= 90.0:
        metrics["core.train_step_ms_p90"] = percentile(steps, 90.0) * 1e3
        notes["core.train_step_tail"] = \
            f"p{tail:g} = {percentile(steps, tail) * 1e3:.3f} ms"
    else:
        metrics["core.train_step_ms_p90"] = 0.0
        notes["core.train_step_ms_p90"] = (
            f"not reported: {len(steps)} train steps leave fewer than 10 "
            "samples beyond it")
    notes["core.train_step_samples"] = len(steps)

    metrics["nn.matmul_s"] = _total(body_delta, "nn.kernel.matmul") * per_rep
    metrics["nn.im2col_s"] = _total(body_delta, *IM2COL) * per_rep
    metrics["nn.col2im_s"] = _total(body_delta, "nn.kernel.col2im") * per_rep
    metrics["nn.fused_s"] = _total(body_delta, *FUSED) * per_rep
    metrics["nn.adam_s"] = _total(body_delta, *OPTIM) * per_rep
    metrics["nn.kernel_calls"] = _kernels(body_delta, "count") * per_rep
    metrics["nn.realize_s"] = _total(body_delta, "nn.phase.realize") * per_rep
    metrics["nn.compile_s"] = (
        _total(setup_delta, "nn.phase.cjit_compile")
        + _total(body_delta, "nn.phase.cjit_compile") * per_rep)
    train_kernels = _kernels(train_delta)
    metrics["nn.python_s"] = max(0.0, sum(steps) - train_kernels) * per_rep
    flops = _total(train_delta, GEMM_FLOPS)
    metrics["nn.gflop_per_step"] = flops / len(steps) / 1e9 if steps else 0.0
    train_matmul = _total(train_delta, "nn.kernel.matmul")
    metrics["nn.achieved_gflops"] = (flops / train_matmul / 1e9
                                     if train_matmul > 0 else 0.0)

    reads = _spans(body_records, "channel.read")
    metrics["channel.read_s"] = span_total("channel.read") * per_rep
    metrics["channel.read_calls"] = len(reads) * per_rep
    metrics["channel.cells_per_call"] = (
        span_attr("channel.read", "cells") / len(reads) if reads else 0.0)
    lookups = cache_hits + cache_misses
    metrics["channel.cache_hit_ratio"] = cache_hits / lookups if lookups \
        else 0.0

    codewords = span_attr("ecc.ldpc_decode", "codewords")
    metrics["ecc.ldpc_decode_s"] = span_total("ecc.ldpc_decode") * per_rep
    metrics["ecc.ldpc_iterations_mean"] = (
        span_attr("ecc.ldpc_decode", "iterations") / codewords
        if codewords else 0.0)
    metrics["ecc.ldpc_converged_ratio"] = (
        span_attr("ecc.ldpc_decode", "converged") / codewords
        if codewords else 0.0)
    metrics["ecc.bch_decode_s"] = span_total("ecc.bch_decode") * per_rep
    metrics["ecc.bch_decodes"] = len(_spans(body_records, "ecc.bch_decode")) \
        * per_rep
    metrics["ecc.llr_s"] = span_total("ecc.llr") * per_rep

    plans = _spans(body_records, "exec.plan")
    shards = _spans(body_records, "exec.shard")
    busy = sum(record["dur"] for record in shards)
    capacity = sum(record.get("attrs", {}).get("workers", 1) * record["dur"]
                   for record in plans)
    metrics["exec.plans"] = len(plans) * per_rep
    metrics["exec.shards"] = len(shards) * per_rep
    metrics["exec.shard_busy_s"] = busy * per_rep
    metrics["exec.parallel_efficiency"] = busy / capacity if capacity else 0.0
    metrics["exec.merge_caches_s"] = span_total("exec.merge_caches") * per_rep
    metrics["exec.reduce_s"] = span_total("exec.reduce") * per_rep

    metrics["flash.read_s"] = (span_total("flash.read", setup_records)
                               + span_total("flash.read") * per_rep)
    metrics["flash.cells"] = (span_attr("flash.read", "cells", setup_records)
                              + span_attr("flash.read", "cells") * per_rep)

    metrics["data.dataset_s"] = (span_total("data.dataset", setup_records)
                                 + span_total("data.dataset") * per_rep)
    metrics["baselines.fit_s"] = span_total("baselines.fit") * per_rep
    metrics["eval.histogram_s"] = span_total("eval.histogram") * per_rep
    metrics["eval.error_counts_s"] = span_total("eval.error_counts") * per_rep
    for figure in ("fig2", "fig4", "fig5", "fig6"):
        metrics[f"experiments.{figure}_s"] = \
            span_total(f"experiments.{figure}") * per_rep
    metrics["obs.overhead_frac"] = overhead_frac
    return metrics, notes


def channel_reads(records, reps: int) -> dict[str, dict]:
    """Channel reads per backend and repetition: calls, seconds, and how
    many calls read each size (how finely a sweep slices its reads)."""
    table: dict[str, dict] = {}
    for record in _spans(records, "channel.read"):
        attrs = record.get("attrs", {})
        row = table.setdefault(attrs.get("backend", "?"),
                               {"calls": 0, "seconds": 0.0, "cells": {}})
        row["calls"] += 1
        row["seconds"] += record["dur"]
        cells = attrs.get("cells", 0)
        row["cells"][cells] = row["cells"].get(cells, 0) + 1
    return {backend: {"calls": row["calls"] / reps,
                      "seconds": row["seconds"] / reps,
                      "calls_by_cells": {size: count / reps for size, count
                                         in sorted(row["cells"].items())}}
            for backend, row in table.items()}


def self_time_table(records, reps: int) -> dict[str, float]:
    """Self seconds per span name and repetition, largest first."""
    table = {name: seconds / reps
             for name, seconds in self_times(records).items()}
    return dict(sorted(table.items(), key=lambda item: -item[1]))
