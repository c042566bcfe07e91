"""Monte-Carlo plans and deterministic shard specifications.

Every quantitative result in this repository is a Monte-Carlo sweep: draw
random blocks (or codewords, or latent samples), push them through a channel
backend, and aggregate statistics.  A :class:`MonteCarloPlan` captures such a
sweep as data — a picklable *task* applied to a sequence of *units*, a seed,
and a shared *context* — so the same plan can run serially, across threads,
or across worker processes with **bit-identical** results.

Determinism is anchored per *unit*, not per shard: unit ``i`` always draws
from ``np.random.SeedSequence(seed, spawn_key=(i,))`` no matter which shard
(or worker process) executes it, and reducers consume the per-unit results in
unit order.  Changing the executor or the worker count therefore never
changes the numbers — only the wall-clock time.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.channel.cache import ConditionCache

__all__ = ["MonteCarloPlan", "ShardSpec", "ShardResult", "ChannelRef",
           "stable_seed"]


def stable_seed(*components: Any) -> tuple[int, ...]:
    """Deterministic :class:`numpy.random.SeedSequence` entropy from values.

    Non-negative integers pass through unchanged; everything else is hashed
    with CRC-32 of its ``repr``, which — unlike Python's salted ``hash`` — is
    stable across interpreter runs and worker processes.  Use this to derive
    a plan seed from a condition tuple such as ``(seed, pe_cycles, metric)``.
    """
    entropy = []
    for component in components:
        if isinstance(component, (int, np.integer)) and component >= 0:
            entropy.append(int(component))
        else:
            entropy.append(zlib.crc32(repr(component).encode()))
    return tuple(entropy)


#: Channels cold-started from :class:`ChannelRef`\ s, keyed by
#: ``(ref key, thread id)``.  The thread key gives each worker process (and
#: each thread-pool thread) a private backend — checkpoints load once per
#: worker instead of once per shard, without ever sharing one stateful
#: channel across concurrent shards.  A capped LRU: when a long-lived
#: parent cycles many thread pools or checkpoints, the least recently used
#: resolutions are dropped (the next use simply reloads) instead of pinning
#: every model ever resolved for the life of the process.  Accesses refresh
#: recency, so an entry in active use — notably the parent thread's, which
#: the engine's cache merge peeks at after every pool thread has resolved —
#: is not evicted by a burst of per-thread resolutions.
_RESOLVED_CHANNELS: "OrderedDict[tuple, Any]" = OrderedDict()
_RESOLVE_LOCK = threading.Lock()
_RESOLVE_CACHE_MAX = 64


def _freeze_option(value: Any) -> str:
    """A stable identity string for one :class:`ChannelRef` kwarg.

    ``repr`` alone would truncate large arrays (two refs differing only in
    the summarized middle would collide and serve the wrong memoized
    channel), so arrays are identified by shape/dtype plus a content
    checksum.
    """
    if isinstance(value, np.ndarray):
        return (f"ndarray(shape={value.shape}, dtype={value.dtype}, "
                f"crc32={zlib.crc32(np.ascontiguousarray(value).tobytes())})")
    return repr(value)


class ChannelRef:
    """A cheaply-picklable checkpoint reference standing in for a channel.

    Put one in a plan's ``context`` instead of a live backend and every
    shard — serial, thread, process pool or remote fleet — resolves it to a
    channel via ``build_channel(name, checkpoint=path)`` at run time
    (:mod:`repro.artifacts`).  The wire then carries a registry name and a
    path instead of megabytes of pickled model state, and workers cold-start
    from the on-disk zoo, raising the zoo's typed errors
    (:class:`repro.artifacts.CheckpointError` family) when the checkpoint is
    corrupt rather than computing garbage tallies.

    Resolution is memoized per ``(reference, thread)``: a pool worker
    running many shards loads the checkpoint once, while concurrent
    thread-pool shards never share one stateful backend.  The memo is a
    small bounded cache — and it means a checkpoint rewritten *at the same
    path mid-process* may be served stale; write new checkpoints to new
    directories (the zoo convention) to re-resolve.
    """

    def __init__(self, name: str, checkpoint: str | os.PathLike, **kwargs):
        self.name = str(name)
        self.checkpoint = os.fspath(checkpoint)
        self.kwargs = kwargs
        self._key: tuple | None = None

    @classmethod
    def from_checkpoint(cls, checkpoint: str | os.PathLike,
                        **kwargs) -> "ChannelRef":
        """Reference a checkpoint by path alone (registry name from its
        manifest)."""
        from repro.artifacts.registry_io import checkpoint_registry_name

        return cls(checkpoint_registry_name(checkpoint), checkpoint, **kwargs)

    def key(self) -> tuple:
        """Identity of the referenced build (name, path, frozen kwargs).

        Computed once — freezing checksums array-valued kwargs, and the key
        is consulted on every resolve/peek.
        """
        if self._key is None:
            options = tuple(sorted((name, _freeze_option(value))
                                   for name, value in self.kwargs.items()))
            self._key = (self.name, self.checkpoint, options)
        return self._key

    def resolve(self):
        """The live backend, built from the checkpoint on this thread's
        first use."""
        channel = self.peek()
        if channel is None:
            from repro.channel.registry import build_channel

            key = (self.key(), threading.get_ident())
            channel = build_channel(self.name, checkpoint=self.checkpoint,
                                    **self.kwargs)
            with _RESOLVE_LOCK:
                channel = _RESOLVED_CHANNELS.setdefault(key, channel)
                _RESOLVED_CHANNELS.move_to_end(key)
                while len(_RESOLVED_CHANNELS) > _RESOLVE_CACHE_MAX:
                    _RESOLVED_CHANNELS.popitem(last=False)
        return channel

    def peek(self):
        """The backend this thread already resolved, or None (no load)."""
        key = (self.key(), threading.get_ident())
        with _RESOLVE_LOCK:
            channel = _RESOLVED_CHANNELS.get(key)
            if channel is not None:
                _RESOLVED_CHANNELS.move_to_end(key)
            return channel

    @property
    def cache(self):
        """The resolved backend's condition cache (None until resolved).

        Exposing the cache of an *already-resolved* reference lets
        :func:`collect_cache_bearers` fold worker snapshots into the parent
        whenever the parent itself has used the channel, without forcing a
        checkpoint load purely for bookkeeping.
        """
        return getattr(self.peek(), "cache", None)

    def __repr__(self) -> str:
        options = "".join(f", {name}={value!r}"
                          for name, value in self.kwargs.items())
        return (f"ChannelRef({self.name!r}, "
                f"checkpoint={self.checkpoint!r}{options})")


def collect_cache_bearers(context: Mapping[str, Any]
                          ) -> dict[str, ConditionCache]:
    """Condition caches reachable from a plan context, keyed by context key.

    A context value participates if it *is* a :class:`ConditionCache` or
    carries one as its ``cache`` attribute (every
    :class:`repro.channel.ChannelModel` does; a :class:`ChannelRef` does
    once this thread has resolved it).  The engine uses this map to fold
    per-worker cache entries back into the parent objects.
    """
    bearers: dict[str, ConditionCache] = {}
    for key, value in context.items():
        if isinstance(value, ConditionCache):
            bearers[key] = value
        else:
            cache = getattr(value, "cache", None)
            if isinstance(cache, ConditionCache):
                bearers[key] = cache
    return bearers


@dataclass
class ShardResult:
    """Per-unit results (in unit order) and cache snapshots of one shard."""

    index: int
    start: int
    results: list
    caches: dict[str, ConditionCache] = field(default_factory=dict)
    #: Observability envelope (worker-side spans + metrics snapshots) set by
    #: :meth:`ShardSpec.run` when the spec carries a trace context and runs
    #: outside the tracing process; merged by the engine exactly like the
    #: cache snapshots above.  ``None`` on untraced or same-process runs.
    obs: dict[str, Any] | None = None


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous slice of a plan's units, runnable in any process.

    The spec is self-contained and picklable: it carries the task, the shared
    context, the plan seed and the global index of its first unit, so a
    worker process reconstructs every unit's generator exactly as the serial
    path would.
    """

    index: int
    start: int
    units: tuple
    task: Callable[..., Any]
    seed: tuple[int, ...]
    context: Mapping[str, Any]
    #: Trace context (:class:`repro.obs.context.TraceContext`) stamped by the
    #: engine when tracing is enabled; ``None`` otherwise.  Tiny and
    #: picklable, so it rides the remote transport with the spec.
    trace: Any = None

    def unit_rng(self, offset: int) -> np.random.Generator:
        """The generator of the unit at ``offset`` within this shard."""
        sequence = np.random.SeedSequence(
            self.seed, spawn_key=(self.start + offset,))
        return np.random.default_rng(sequence)

    def subspec(self, lo: int, hi: int, index: int | None = None
                ) -> "ShardSpec":
        """A spec covering units ``[lo, hi)`` of this shard.

        The work-stealing scheduler splits an in-flight shard by cutting its
        unexecuted tail into a new spec.  Global unit positions are preserved
        (``start`` shifts by ``lo``), so per-unit seeding — and therefore the
        reduced output — is identical under any split schedule.
        """
        if not 0 <= lo <= hi <= len(self.units):
            raise ValueError(
                f"subspec bounds [{lo}, {hi}) outside shard of "
                f"{len(self.units)} units")
        return ShardSpec(index=self.index if index is None else index,
                         start=self.start + lo, units=self.units[lo:hi],
                         task=self.task, seed=self.seed, context=self.context,
                         trace=self.trace)

    def resolved_context(self) -> Mapping[str, Any]:
        """The context with every :class:`ChannelRef` replaced by its live
        backend (cold-started from the on-disk zoo on first use)."""
        if not any(isinstance(value, ChannelRef)
                   for value in self.context.values()):
            return self.context
        return {key: value.resolve() if isinstance(value, ChannelRef)
                else value
                for key, value in self.context.items()}

    def run(self, collect_caches: bool = False,
            control: Any = None) -> ShardResult:
        """Execute the units of this shard in order.

        ``collect_caches=True`` (used by process executors, whose shard runs
        on a pickled copy of the context) resets the cache counters first so
        the returned snapshots report this shard's activity only, then
        attaches the caches for the engine to merge back into the parent.

        ``control`` is an optional cooperation hook for the elastic worker:
        an object with ``stop_before(offset) -> bool`` (consulted before each
        unit — returning True ends the run early, e.g. because the tail was
        stolen) and ``completed(offset)`` (called after each unit, feeding
        heartbeat progress).  A truncated run returns only the units actually
        executed; callers own reconciling that with the stolen boundary.

        When the spec carries a trace context the run is wrapped in an
        ``exec.shard`` span; in a foreign process the span/metric records
        come back in ``ShardResult.obs`` (see :mod:`repro.obs.context`).
        """
        if self.trace is None:
            return self._run(collect_caches, control)
        from repro.obs.context import observe_shard

        with observe_shard(self) as obs_box:
            result = self._run(collect_caches, control)
        if obs_box.envelope is not None:
            result.obs = obs_box.envelope
        return result

    def _run(self, collect_caches: bool, control: Any = None) -> ShardResult:
        context = self.resolved_context()
        caches = collect_cache_bearers(context) if collect_caches else {}
        for cache in caches.values():
            cache.reset_stats()
        results = []
        for offset, unit in enumerate(self.units):
            if control is not None and control.stop_before(offset):
                break
            results.append(self.task(unit, self.unit_rng(offset), **context))
            if control is not None:
                control.completed(offset)
        return ShardResult(index=self.index, start=self.start,
                           results=results, caches=caches)


@dataclass(frozen=True)
class MonteCarloPlan:
    """A Monte-Carlo sweep described as data.

    Parameters
    ----------
    task:
        A picklable callable ``task(unit, rng, **context) -> result``.  It
        must draw all randomness from the passed generator — that is what
        makes sharded execution bit-identical to serial.
    units:
        One entry per Monte-Carlo unit (block index, codeword group,
        ``(pe, block)`` pair, ...).  Units are independent by construction.
    seed:
        :class:`numpy.random.SeedSequence` entropy (an int or a tuple of
        ints, e.g. from :func:`stable_seed`).
    context:
        Keyword arguments shared by every task call (channel backends, code
        objects, parameters).  Pickled once per shard, not once per unit.
        A :class:`ChannelRef` value ships as a checkpoint path and is
        cold-started from the on-disk model zoo on the executing worker —
        the cheap way to move channels to process pools and remote fleets.
    shards_per_worker:
        Oversharding factor: the engine's default shard count becomes
        ``workers * shards_per_worker`` instead of one shard per worker.
        Contiguous splits are balanced by unit *count*, not by unit *cost*;
        cutting more, smaller shards lets a pool executor absorb per-unit
        cost variance (a cheap form of work stealing).  Purely a throughput
        knob — per-unit seeding keeps the output bit-identical for any
        value (test-enforced).
    """

    task: Callable[..., Any]
    units: tuple
    seed: int | tuple[int, ...] = 0
    context: Mapping[str, Any] = field(default_factory=dict)
    shards_per_worker: int = 1

    def __post_init__(self):
        if not callable(self.task):
            raise TypeError("task must be callable")
        object.__setattr__(self, "units", tuple(self.units))
        if not self.units:
            raise ValueError("a plan needs at least one unit")
        if (not isinstance(self.shards_per_worker, (int, np.integer))
                or self.shards_per_worker < 1):
            raise ValueError("shards_per_worker must be a positive integer")

    @property
    def num_units(self) -> int:
        return len(self.units)

    def unit_rng(self, index: int) -> np.random.Generator:
        """The generator unit ``index`` receives under any sharding."""
        if not 0 <= index < self.num_units:
            raise IndexError(f"unit index {index} out of range")
        sequence = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return np.random.default_rng(sequence)

    def shards(self, num_shards: int = 1) -> list[ShardSpec]:
        """Split the units into at most ``num_shards`` contiguous shards.

        The split is deterministic and balanced (shard sizes differ by at
        most one unit); because randomness is anchored per unit, the shard
        count is a pure throughput knob.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        num_shards = min(num_shards, self.num_units)
        bounds = np.linspace(0, self.num_units, num_shards + 1).astype(int)
        return [ShardSpec(index=shard, start=int(bounds[shard]),
                          units=self.units[bounds[shard]:bounds[shard + 1]],
                          task=self.task, seed=self.seed, context=self.context)
                for shard in range(num_shards)]
