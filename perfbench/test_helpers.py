"""Tests of the benchmark's own helpers (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench.instrument import (gemm_flops, layer_metrics, merge_deltas,
                                  registry_delta)
from perfbench.measure import (RssSampler, peak_tree_rss_kb, percentile,
                               reportable_percentile, self_times)


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_reportable_percentile_needs_ten_samples_beyond(count, expected):
    assert reportable_percentile(count) == expected


def test_percentile_matches_numpy_linear_rule():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for pct in (0, 25, 50, 90, 100):
        assert percentile(values, pct) == pytest.approx(
            np.percentile(values, pct))


def test_peak_rss_adds_the_largest_set_of_concurrent_workers():
    # Two workers alive together outweigh three that never overlap.
    samples = [[300], [200, 250], [100], []]
    assert peak_tree_rss_kb(1000, samples) == 1000 + 450
    assert peak_tree_rss_kb(1000, []) == 1000


def test_rss_sampler_counts_a_live_child_process():
    allocate = ("import sys, time; block = bytearray(64 << 20); "
                "sys.stdout.write('ready\\n'); sys.stdout.flush(); "
                "time.sleep(0.5)")
    with RssSampler(interval=0.02) as sampler:
        child = subprocess.Popen([sys.executable, "-c", allocate],
                                 stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline().strip() == "ready"
            time.sleep(0.2)
        finally:
            child.wait(timeout=10)
            child.stdout.close()
    assert child.returncode == 0
    child_peak_mb = max(sum(sample) for sample in sampler.samples) / 1024.0
    assert child_peak_mb >= 64
    assert sampler.peak_mb >= child_peak_mb


def _span(name, span_id, parent, t0, dur):
    return {"type": "span", "name": name, "span": span_id, "parent": parent,
            "t0": t0, "dur": dur}


def test_self_time_subtracts_children_and_counts_overlap_once():
    records = [
        _span("plan", "p", None, 0.0, 10.0),
        # Two shards in parallel workers, overlapping on [2, 5].
        _span("shard", "a", "p", 1.0, 4.0),
        _span("shard", "b", "p", 2.0, 4.0),
        _span("read", "r", "a", 1.5, 1.0),
        {"type": "event", "name": "ignored"},
    ]
    totals = self_times(records)
    assert totals["plan"] == pytest.approx(10.0 - 5.0)  # [1, 6] covered
    assert totals["shard"] == pytest.approx(4.0 - 1.0 + 4.0)
    assert totals["read"] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent_interval():
    records = [_span("outer", "o", None, 0.0, 2.0),
               _span("late", "l", "o", 1.5, 2.0)]
    assert self_times(records)["outer"] == pytest.approx(1.5)


def test_gemm_flops_of_batched_and_vector_operands():
    assert gemm_flops((3, 4), (4, 5)) == 2 * 3 * 4 * 5
    assert gemm_flops((2, 3, 4), (4, 5)) == 2 * 2 * 3 * 4 * 5
    assert gemm_flops((4,), (4, 5)) == 2 * 4 * 5


def test_registry_delta_subtracts_histograms_and_counters():
    before = {"h": {"type": "histogram", "count": 2, "total": 1.0},
              "c": {"type": "counter", "value": 5},
              "g": {"type": "gauge", "value": 9}}
    after = {"h": {"type": "histogram", "count": 5, "total": 4.0},
             "c": {"type": "counter", "value": 8},
             "g": {"type": "gauge", "value": 9},
             "new": {"type": "histogram", "count": 1, "total": 0.5}}
    delta = registry_delta(before, after)
    assert delta == {"h": {"count": 3, "total": 3.0},
                     "c": {"count": 3, "total": 3.0},
                     "new": {"count": 1, "total": 0.5}}
    assert merge_deltas([delta, delta])["h"] == {"count": 6, "total": 6.0}


def test_layer_metrics_from_synthetic_records():
    steps = [_span("core.train_step", f"s{i}", None, float(i), 0.1)
             for i in range(4)]
    plan = _span("exec.plan", "p", None, 10.0, 2.0)
    plan["attrs"] = {"workers": 2}
    shards = [_span("exec.shard", "a", "p", 10.0, 2.0),
              _span("exec.shard", "b", "p", 10.0, 1.0)]
    read = _span("channel.read", "r", "a", 10.0, 0.5)
    read["attrs"] = {"cells": 768, "backend": "GenerativeChannel"}
    train = {"nn.kernel.matmul": {"count": 8, "total": 0.2},
             "perfbench.gemm_flops": {"count": 4e9, "total": 4e9}}
    metrics, notes = layer_metrics(
        setup_records=[], setup_delta={},
        body_records=[*steps, plan, *shards, read],
        body_delta={**train, "nn.phase.cjit_compile": {"count": 1,
                                                       "total": 0.4}},
        train_delta=train, reps=2, cache_hits=1, cache_misses=3,
        overhead_frac=0.02)
    assert metrics["core.train_steps"] == 2
    assert metrics["core.train_step_ms_p50"] == pytest.approx(100.0)
    assert metrics["core.train_step_ms_p90"] == 0.0
    assert "core.train_step_ms_p90" in notes
    assert metrics["nn.python_s"] == pytest.approx((0.4 - 0.2) / 2)
    assert metrics["nn.gflop_per_step"] == pytest.approx(1.0)
    assert metrics["nn.achieved_gflops"] == pytest.approx(20.0)
    assert metrics["nn.compile_s"] == pytest.approx(0.2)
    assert metrics["exec.parallel_efficiency"] == pytest.approx(3.0 / 4.0)
    assert metrics["channel.cells_per_call"] == 768
    assert metrics["channel.cache_hit_ratio"] == pytest.approx(0.25)
    assert metrics["obs.overhead_frac"] == 0.02
