"""Pluggable shard executors, selected by name like channel backends.

``build_executor(name, workers)`` mirrors :func:`repro.channel.build_channel`:
consumers name an execution backend in configuration and never touch pool
plumbing.  Four backends exist:

* ``"serial"`` — run every shard in-process (the reference path);
* ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor` pool,
  useful when the task releases the GIL (BLAS-heavy workloads);
* ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor` pool;
  shards are pickled to workers, and cache snapshots travel back for the
  engine to merge;
* ``"remote"`` — a worker fleet over the socket transport
  (:class:`repro.exec.RemoteExecutor`): spawned localhost subprocesses by
  default, or pre-started ``python -m repro.exec.worker --serve`` hosts,
  with per-shard acknowledgement, bounded retry, work stealing, heartbeats
  and straggler re-dispatch.

``"auto"`` picks ``"serial"`` for one worker and ``"process"`` otherwise.
Because plan randomness is anchored per unit, every backend produces
bit-identical results — the choice is purely a throughput decision.
"""

from __future__ import annotations

import concurrent.futures
import copy
import dataclasses
import os
from typing import Callable

from repro.exec.plan import ShardResult, ShardSpec

__all__ = ["Executor", "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
           "EXECUTOR_REGISTRY", "register_executor", "build_executor"]


class Executor:
    """Base class of every shard executor.

    Attributes
    ----------
    shares_memory:
        True when shards run against the caller's own objects (serial,
        threads); the engine then skips cache merging because the parent's
        caches were updated in place.
    """

    name = "base"
    shares_memory = True

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers if workers is not None \
            else max(1, os.cpu_count() or 1)

    def default_shards(self) -> int:
        """How many shards to cut a plan into (one per worker)."""
        return max(1, self.workers)

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources.  Pool executors keep their worker pool
        alive across :func:`~repro.exec.run_plan` calls (a selector schedule
        issues one plan per operating point — re-forking every time would
        dominate small sweeps), so a long-lived caller that builds its own
        executor should close it when done.  The engine closes executors it
        built itself from a name."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Run every shard in the calling process (the reference path)."""

    name = "serial"

    def __init__(self, workers: int | None = None):
        super().__init__(1 if workers is None else workers)

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        return [shard.run() for shard in shards]


class ThreadExecutor(Executor):
    """Thread-pool execution; worthwhile when the task releases the GIL.

    Context objects are not generally thread-safe (e.g. the simulator
    adapter swaps its internal generator around each read), so every shard
    runs against a private deep copy of the context — the same isolation a
    process pool gets from pickling — and the engine merges the per-shard
    cache snapshots back, keeping thread execution bit-identical to serial.
    """

    name = "thread"
    shares_memory = False

    def __init__(self, workers: int | None = None):
        super().__init__(workers)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers)
        return list(self._pool.map(_run_shard_isolated, shards))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def _isolated_copy(shard: ShardSpec) -> ShardSpec:
    """The shard with a private deep copy of its context (if it has one)."""
    if len(shard.context) > 0:
        shard = dataclasses.replace(shard,
                                    context=copy.deepcopy(shard.context))
    return shard


def _snapshot_ref_caches(shard: ShardSpec, result: ShardResult) -> None:
    """Snapshot caches of :class:`ChannelRef`-bearing shards in place.

    ChannelRef resolution is shared per *thread*, so a later shard on the
    same pool thread would reset/mutate the very cache object this result
    references (process workers are insulated by pickling).  Snapshot
    copies keep every ShardResult self-consistent for the engine's merge.
    """
    from repro.exec.plan import ChannelRef

    if any(isinstance(value, ChannelRef)
           for value in shard.context.values()):
        result.caches = {key: copy.deepcopy(cache)
                         for key, cache in result.caches.items()}


def _run_shard_isolated(shard: ShardSpec) -> ShardResult:
    """Thread-pool entry point: run on a private copy of the context."""
    isolated = _isolated_copy(shard)
    result = isolated.run(collect_caches=True)
    _snapshot_ref_caches(shard, result)
    return result


def _run_shard_collecting(shard: ShardSpec) -> ShardResult:
    """Process-pool entry point: snapshot caches for the parent to merge."""
    return shard.run(collect_caches=True)


class ProcessExecutor(Executor):
    """Process-pool execution via :mod:`concurrent.futures`.

    Each shard is pickled to a worker together with its context; the worker
    returns per-unit results plus snapshots of every condition cache the
    context carries, which the engine folds back into the parent objects
    through :meth:`repro.channel.ConditionCache.merge`.
    """

    name = "process"
    shares_memory = False

    def __init__(self, workers: int | None = None):
        super().__init__(workers)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        if len(shards) == 1 and self._pool is None:
            # One shard gains nothing from a pool; skip the fork entirely.
            return [shards[0].run()]
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers)
        return list(self._pool.map(_run_shard_collecting, shards))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


#: Executor classes keyed by backend name (mirrors ``CHANNEL_REGISTRY``).
EXECUTOR_REGISTRY: dict[str, Callable[..., Executor]] = {}


def register_executor(name: str):
    """Decorator registering an executor class under ``name``."""
    def decorator(factory: Callable[..., Executor]):
        if name in EXECUTOR_REGISTRY:
            raise ValueError(f"executor backend {name!r} already registered")
        EXECUTOR_REGISTRY[name] = factory
        return factory
    return decorator


register_executor("serial")(SerialExecutor)
register_executor("thread")(ThreadExecutor)
register_executor("process")(ProcessExecutor)
# "remote" registers itself at the bottom of repro.exec.remote (which
# imports this module, so the registration cannot live here); the package
# __init__ imports both, keeping the registry complete for any consumer.


def build_executor(name: str = "auto",
                   workers: int | None = None) -> Executor:
    """Instantiate an execution backend by registry name.

    ``"auto"`` resolves to :class:`SerialExecutor` when ``workers`` is absent
    or 1 (no pool overhead for the common case) and to
    :class:`ProcessExecutor` otherwise.  An already-built :class:`Executor`
    passes through unchanged, so every ``executor=`` argument accepts either
    spelling.
    """
    if isinstance(name, Executor):
        return name
    if name == "auto":
        name = "serial" if workers is None or workers <= 1 else "process"
    if name not in EXECUTOR_REGISTRY:
        raise ValueError(f"unknown executor backend {name!r}; available: "
                         f"{sorted(EXECUTOR_REGISTRY)} (or 'auto')")
    return EXECUTOR_REGISTRY[name](workers=workers)
