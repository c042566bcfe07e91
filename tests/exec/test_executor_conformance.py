"""One conformance battery over every executor backend.

The determinism contract of ``repro.exec`` says the executor is a pure
throughput knob: for a fixed seed, every backend — serial, thread pool,
process pool, remote fleet — must produce bit-identical per-unit results,
identical reductions, the same merged condition-cache state, and must be
invariant under the ``shards_per_worker`` oversharding knob.  This battery
runs the same assertions over all four registered backends so a new
executor cannot land without honouring the contract.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro.channel import build_channel
from repro.exec import (
    MeanReducer,
    MonteCarloPlan,
    RecordReducer,
    RemoteExecutor,
    TallyReducer,
    build_executor,
    run_plan,
)
from repro.flash import BlockGeometry

BACKENDS = ("serial", "thread", "process", "remote")
WORKERS = 2


def _draw_unit(unit, rng, *, scale):
    """A toy Monte-Carlo task: deterministic per-unit random draws."""
    return scale * float(unit) + float(rng.standard_normal(3).sum())


def _record_unit(unit, rng):
    """Array-valued results, for the stacking reducer."""
    return rng.integers(0, 100, size=3)


def _cached_draw(unit, rng, *, channel):
    """A task exercising the channel's per-condition LRU cache.

    The computed artifact is anchored to the unit rng (unlike e.g.
    ``level_error_rate_estimate``, which draws from the channel's own
    generator), so both the values and the cache traffic must be identical
    for every backend.
    """
    return channel.cache.get_or_compute(
        ("conformance", int(unit)), lambda: float(rng.random()))


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    """One long-lived executor per backend; the remote fleet (worker
    subprocesses) is spawned once for the whole battery."""
    if request.param == "remote":
        executor = RemoteExecutor(workers=WORKERS, straggler_wait=5.0)
    else:
        executor = build_executor(request.param, workers=WORKERS)
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def plan():
    return MonteCarloPlan(task=_draw_unit, units=tuple(range(12)), seed=42,
                          context={"scale": 0.5})


@pytest.fixture(scope="module")
def reference(plan):
    return run_plan(plan, executor="serial")


class TestReducerConformance:
    def test_per_unit_results_bit_identical(self, backend, plan, reference):
        assert run_plan(plan, executor=backend) == reference

    def test_tally_and_mean_reductions_identical(self, backend, plan,
                                                 reference):
        assert run_plan(plan, reducer=TallyReducer(),
                        executor=backend) == sum(reference)
        assert run_plan(plan, reducer=MeanReducer(),
                        executor=backend) == np.mean(reference)

    def test_stacked_records_identical(self, backend):
        plan = MonteCarloPlan(task=_record_unit, units=tuple(range(9)),
                              seed=5)
        expected = run_plan(plan, reducer=RecordReducer(stack=True),
                            executor="serial")
        stacked = run_plan(plan, reducer=RecordReducer(stack=True),
                           executor=backend)
        np.testing.assert_array_equal(stacked, expected)


class TestCacheConformance:
    def _run(self, backend):
        channel = build_channel("simulator", geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(0))
        plan = MonteCarloPlan(task=_cached_draw, units=tuple(range(4)),
                              seed=3, context={"channel": channel})
        results = run_plan(plan, executor=backend, num_shards=2)
        return results, channel.cache.stats()

    def test_results_and_final_cache_state_identical(self, backend):
        results, stats = self._run(backend)
        serial_results, _ = self._run("serial")
        assert results == serial_results
        # Whatever the topology, the parent ends up with every condition
        # computed exactly once and adopted into its cache.
        assert stats["size"] == 4
        assert stats["misses"] == 4
        assert stats["hits"] == 0

    def test_merge_counters_identical_across_isolating_backends(self,
                                                                backend):
        _, stats = self._run(backend)
        if backend.shares_memory:
            # Serial shards mutate the parent cache in place: no merges.
            assert stats["merges"] == 0
            assert stats["merged_entries"] == 0
        else:
            # Thread, process and remote all fold one snapshot per shard
            # back into the parent — identical counters for all three.
            assert stats["merges"] == 2
            assert stats["merged_entries"] == 4


class TestOvershardingConformance:
    @pytest.mark.parametrize("factor", [1, 3])
    def test_output_invariant_for_any_factor(self, backend, plan, reference,
                                             factor):
        oversharded = dataclasses.replace(plan, shards_per_worker=factor)
        assert run_plan(oversharded, executor=backend) == reference


class TestServeModeFleet:
    def test_hosts_fleet_matches_serial(self, plan, reference):
        """A pre-started ``--serve`` worker (the multi-host shape) conforms
        too."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--serve", "127.0.0.1:0", "--once"],
            stdout=subprocess.PIPE, text=True)
        try:
            address = process.stdout.readline().split()[-1]
            executor = RemoteExecutor(hosts=[address], connect_timeout=5.0)
            try:
                assert run_plan(plan, executor=executor) == reference
            finally:
                executor.close()
        finally:
            process.terminate()
            process.wait(timeout=10)
