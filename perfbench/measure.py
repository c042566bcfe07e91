"""Measurement helpers: order statistics, process-tree RSS and span self time.

Everything here is pure Python over plain numbers and span records, so it is
unit-tested on its own (``perfbench/test_helpers.py``) and imports neither
numpy nor ``repro``.
"""

from __future__ import annotations

import math
import os
import threading
from pathlib import Path

#: Percentiles a timing series may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty series")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty series")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def reportable_percentile(count: int, candidates=PERCENTILES,
                          min_beyond: int = 10) -> float | None:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    ``count`` samples put ``count * (1 - p / 100)`` of them above the p-th
    percentile; a tail percentile resting on fewer than ten samples is noise,
    so it is not reported.  Returns ``None`` when not even the median has
    ``min_beyond`` samples beyond it.
    """
    best = None
    for pct in candidates:
        # Round away float error: 100 samples have exactly 10 beyond p90.
        if round(count * (100.0 - pct) / 100.0, 9) >= min_beyond:
            best = pct
    return best


# ---------------------------------------------------------------------- #
# Resident memory of the benchmark process and its pool workers
# ---------------------------------------------------------------------- #
def _status_kb(pid: int, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 once the process ends)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's ``children`` list)."""
    pids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        pids.extend(int(token) for token in text.split())
    return pids


def peak_tree_rss_kb(own_peak_kb: int, worker_samples) -> int:
    """Peak RSS of a process and its pool workers.

    ``own_peak_kb`` is the process's own high-water mark (``VmHWM``).  Each
    entry of ``worker_samples`` lists the high-water marks of the workers
    alive at one sampling instant; the largest such sum is the workers'
    share.  High-water marks only grow, so a worker's peak between samples
    is not lost, and pages a forked worker shares with its parent count
    once per process, as ``top`` shows them.
    """
    workers = max((sum(int(value) for value in sample)
                   for sample in worker_samples), default=0)
    return int(own_peak_kb) + workers


class RssSampler:
    """Samples the high-water RSS of this process's children on a thread.

    The thread only reads ``/proc``; it takes no lock a forked pool worker
    could inherit held.  :meth:`stop` ends sampling and fixes
    :attr:`peak_mb`, the process itself plus its pool workers; leaving the
    ``with`` block stops it if nothing did before.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[list[int]] = []
        self.peak_mb: float | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-rss")

    def _sample(self) -> list[int]:
        return [_status_kb(child, "VmHWM")
                for child in child_pids(os.getpid())]

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(self._sample())

    def stop(self) -> None:
        if self.peak_mb is not None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.samples.append(self._sample())
        peak_kb = peak_tree_rss_kb(_status_kb(os.getpid(), "VmHWM"),
                                   self.samples)
        self.peak_mb = peak_kb / 1024.0

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    covered = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(records) -> dict[str, float]:
    """Self time per span name, summed over all spans of that name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; children that overlap each other (shards running
    in parallel workers) are counted once.
    """
    spans = [record for record in records if record.get("type") == "span"]
    children: dict[str, list[tuple[float, float]]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (record["t0"], record["t0"] + record["dur"]))
    totals: dict[str, float] = {}
    for record in spans:
        start = record["t0"]
        end = start + record["dur"]
        covered = _covered(children.get(record["span"], ()), start, end)
        totals[record["name"]] = totals.get(record["name"], 0.0) \
            + max(0.0, record["dur"] - covered)
    return totals
