"""Sharded Monte-Carlo execution engine (plan -> shard -> reduce).

Every sweep loop in this repository — constrained-code schedules, ECC
frame-error campaigns, the figure drivers — runs through this package:

1. describe the sweep as a :class:`MonteCarloPlan` (a picklable task over
   independent units plus a seed and shared context);
2. pick an execution backend by name via :func:`build_executor`
   (``"serial"``, ``"thread"``, ``"process"``, ``"remote"`` or
   ``"auto"``);
3. :func:`run_plan` shards the units, runs them, folds worker cache entries
   back into the parent, and reduces the per-unit results with a mergeable
   :class:`Reducer`.

Randomness is anchored per unit (``SeedSequence(seed, spawn_key=(i,))``), so
sharded execution is **bit-identical** to serial for a fixed seed — the
worker count is a pure throughput knob.  See README.md for the architecture
diagram and a scaling how-to.
"""

from repro.exec.plan import (
    ChannelRef,
    MonteCarloPlan,
    ShardResult,
    ShardSpec,
    stable_seed,
)
from repro.exec.reducers import (
    HistogramReducer,
    MeanReducer,
    RecordReducer,
    Reducer,
    TallyReducer,
)
from repro.exec.executors import (
    EXECUTOR_REGISTRY,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    build_executor,
    register_executor,
)
from repro.exec.remote import RemoteExecutor, RemoteExecutorError
from repro.exec.transport import (
    TransportClosedError,
    TransportConnectError,
    TransportError,
    TransportTimeoutError,
)
from repro.exec.engine import run_plan

__all__ = [
    "MonteCarloPlan",
    "ShardSpec",
    "ShardResult",
    "ChannelRef",
    "stable_seed",
    "Reducer",
    "TallyReducer",
    "MeanReducer",
    "RecordReducer",
    "HistogramReducer",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "RemoteExecutor",
    "RemoteExecutorError",
    "TransportError",
    "TransportConnectError",
    "TransportClosedError",
    "TransportTimeoutError",
    "EXECUTOR_REGISTRY",
    "register_executor",
    "build_executor",
    "run_plan",
]
