"""Elastic-scheduler battery: work stealing, heartbeats, grow/shrink.

The contract under test is the same as everywhere else in ``tests/exec/``:
**bit-identical reducers under any stealing schedule** — forced steals,
heartbeat-timed-out (SIGSTOPped) workers, and a fleet that grows via
:meth:`RemoteExecutor.attach` and shrinks via a mid-run kill must all leave
the output exactly equal to the serial reference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

from repro.exec import MonteCarloPlan, RemoteExecutor, run_plan


def _tail_heavy(unit, rng, *, heavy_from, heavy_seconds):
    """An imbalanced plan: units past ``heavy_from`` are slow."""
    if int(unit) >= int(heavy_from):
        time.sleep(float(heavy_seconds))
    else:
        time.sleep(0.001)
    return float(unit) + float(rng.random())


def _stall_once(unit, rng, *, flag):
    """Silence the hosting worker the first time unit 0 runs anywhere.

    The worker's transport is patched to drop every outbound frame — the
    process stays alive and its socket open, but heartbeats and results
    stop flowing, the shape of a network partition or a preempted spot
    instance.  (A literal SIGSTOP would be the same shape, but this
    container's supervisor SIGCONTs stopped processes, so the partition is
    simulated at the transport layer instead.)  Only the heartbeat timeout
    can unstick the sweep.
    """
    value = float(unit) + float(rng.random())
    if int(unit) == 0 and not os.path.exists(flag):
        open(flag, "w").close()
        from repro.exec import transport

        def _blackhole(self, message):
            return None  # frames vanish; the socket stays open and silent

        transport.Connection.send = _blackhole
    return value


def _sleepy(unit, rng, *, seconds):
    time.sleep(float(seconds))
    return float(unit) + float(rng.random())


def _sync_value(unit, rng):
    return float(unit) + float(rng.random())


def _serve_worker():
    """Start a --serve worker; returns (process, address)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.exec.worker", "--serve",
         "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True)
    address = process.stdout.readline().split()[-1]
    return process, address


class TestWorkStealing:
    def test_forced_steal_stays_bit_identical(self):
        """Two static shards, all the weight in the second: the idle worker
        must steal the heavy tail, and the reduced output must not move."""
        plan = MonteCarloPlan(task=_tail_heavy, units=tuple(range(12)),
                              seed=29, context={"heavy_from": 6,
                                                "heavy_seconds": 0.1})
        reference = run_plan(plan, executor="serial")
        executor = RemoteExecutor(workers=2, steal=True, steal_wait=0.05,
                                  heartbeat_interval=0.05,
                                  straggler_wait=30.0)
        try:
            results = run_plan(plan, executor=executor, num_shards=2)
        finally:
            executor.close()
        assert results == reference
        assert executor.last_run_stats["steals"] >= 1
        assert executor.last_run_stats["heartbeats"] >= 1

    def test_steal_disabled_never_splits(self):
        plan = MonteCarloPlan(task=_tail_heavy, units=tuple(range(8)),
                              seed=29, context={"heavy_from": 4,
                                                "heavy_seconds": 0.05})
        reference = run_plan(plan, executor="serial")
        executor = RemoteExecutor(workers=2, steal=False,
                                  straggler_wait=30.0)
        try:
            results = run_plan(plan, executor=executor, num_shards=2)
        finally:
            executor.close()
        assert results == reference
        assert executor.last_run_stats["steals"] == 0
        assert executor.last_run_stats["steal_requests"] == 0

    def test_worker_death_under_stealing_schedule(self, tmp_path):
        """Post-ack death with aggressive stealing enabled: the retry and
        split machinery compose without double-counting a unit."""
        flag = tmp_path / "died"
        plan = MonteCarloPlan(task=_die_once_heavy, units=tuple(range(10)),
                              seed=31, context={"flag": str(flag)})
        flag.touch()
        reference = run_plan(plan, executor="serial")
        flag.unlink()
        executor = RemoteExecutor(workers=2, max_retries=2, steal=True,
                                  steal_wait=0.05, heartbeat_interval=0.05,
                                  straggler_wait=30.0)
        try:
            results = run_plan(plan, executor=executor, num_shards=2)
        finally:
            executor.close()
        assert results == reference
        assert executor.last_run_stats["worker_deaths"] >= 1


def _die_once_heavy(unit, rng, *, flag):
    """Slow units plus one worker suicide, to overlap retries with steals."""
    value = float(unit) + float(rng.random())
    if int(unit) == 3 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(17)
    time.sleep(0.02)
    return value


class TestHeartbeatTimeout:
    def test_silent_worker_drained_and_output_identical(self, tmp_path):
        """A silently stalled (partitioned) worker is detected by heartbeat
        timeout and drained like a death; the sweep completes bit-identical
        on the survivor — under a stealing schedule."""
        flag = tmp_path / "stalled"
        plan = MonteCarloPlan(task=_stall_once, units=tuple(range(8)),
                              seed=37, context={"flag": str(flag)})
        flag.touch()
        reference = run_plan(plan, executor="serial")
        flag.unlink()
        executor = RemoteExecutor(workers=2, max_retries=2, steal=True,
                                  steal_wait=0.05, heartbeat_interval=0.05,
                                  heartbeat_timeout=0.75,
                                  straggler_wait=30.0)
        try:
            results = run_plan(plan, executor=executor, num_shards=2)
        finally:
            executor.close()
        assert results == reference
        assert executor.last_run_stats["heartbeat_timeouts"] >= 1
        assert executor.last_run_stats["worker_deaths"] >= 1


class TestElasticFleet:
    def test_fleet_grows_and_shrinks_mid_run(self):
        """A --serve worker attached into an in-flight map_shards takes
        work (grow), is killed mid-run (shrink), and the output never
        moves."""
        plan = MonteCarloPlan(task=_sleepy, units=tuple(range(10)),
                              seed=41, context={"seconds": 0.2})
        reference = run_plan(plan, executor="serial")
        process, address = _serve_worker()
        executor = RemoteExecutor(workers=1, max_retries=3,
                                  heartbeat_interval=0.05,
                                  straggler_wait=30.0)
        failures = []

        def grow_then_shrink():
            try:
                time.sleep(0.2)
                executor.attach(address)
                time.sleep(0.4)
                process.kill()
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        helper = threading.Thread(target=grow_then_shrink)
        try:
            helper.start()
            results = run_plan(plan, executor=executor,
                               num_shards=plan.num_units)
            helper.join()
        finally:
            executor.close()
            process.kill()
            process.wait(timeout=10)
        assert not failures
        assert results == reference
        assert executor.last_run_stats["joins"] >= 1
        assert executor.last_run_stats["worker_deaths"] >= 1

    def test_attach_between_runs_joins_next_fleet(self):
        plan = MonteCarloPlan(task=_sync_value, units=tuple(range(6)),
                              seed=43)
        reference = run_plan(plan, executor="serial")
        process, address = _serve_worker()
        executor = RemoteExecutor(workers=1, straggler_wait=30.0)
        try:
            executor.attach(address)  # no run in flight: joins the fleet
            results = run_plan(plan, executor=executor)
            assert results == reference
        finally:
            executor.close()
            process.kill()
            process.wait(timeout=10)
