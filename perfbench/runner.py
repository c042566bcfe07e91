"""One benchmark run: set-up, warm-up, timed window, checks, report."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.nn import get_backend
from repro.obs import disable_tracing, enable_tracing, process_registry

from perfbench import host
from perfbench.instrument import (Instrumentation, channel_reads,
                                  layer_metrics, merge_deltas,
                                  registry_delta, self_time_table)
from perfbench.measure import RssSampler, median
from perfbench.workloads import WORKLOADS, OpFailed, Ops, Phases

#: Warm-up stops once two consecutive repetitions agree this closely.
STEADY_TOLERANCE = 0.05
#: Peak RSS covers set-up and this many repetitions (warm-up or timed), a
#: fixed amount of work: memory that grows with repetitions would otherwise
#: grow with the speed of the program.
MEMORY_REPS = 4



def declared_units() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and the per-layer metrics that
    ``BENCHMARK.json`` declares."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    declared = json.loads(path.read_text())
    return tuple({metric["name"]: metric["unit"] for metric in declared[kind]}
                 for kind in ("end_to_end", "per_layer"))


@dataclass
class Rep:
    index: int
    traced: bool
    wall: float
    phases: dict
    rates: dict
    records: list = field(default_factory=list, repr=False)
    delta: dict = field(default_factory=dict, repr=False)
    train_delta: dict = field(default_factory=dict, repr=False)
    cache: tuple = (0, 0)


def _cache_stats(channels) -> dict:
    return {id(channel): (channel.cache.hits, channel.cache.misses)
            for channel in channels}


def _cache_delta(before: dict, channels) -> tuple[int, int]:
    hits = misses = 0
    for channel in channels:
        prior = before.get(id(channel), (0, 0))
        hits += channel.cache.hits - prior[0]
        misses += channel.cache.misses - prior[1]
    return hits, misses


def run_rep(workload, index: int, ops: Ops, traced: bool) -> Rep:
    """One repetition; traced ones run with spans, kernel profiling and the
    layer wrappers, and keep their records and registry delta."""
    phases = Phases(traced=traced)
    if not traced:
        start = time.perf_counter()
        rates = workload.rep(index, ops, phases)
        return Rep(index, False, time.perf_counter() - start,
                   dict(phases.seconds), rates)
    caches = _cache_stats(workload.channels)
    before = process_registry().snapshot()
    tracer = enable_tracing()
    try:
        with Instrumentation(type(get_backend())):
            start = time.perf_counter()
            rates = workload.rep(index, ops, phases)
            wall = time.perf_counter() - start
    finally:
        disable_tracing()
    return Rep(index, True, wall, dict(phases.seconds), rates,
               records=tracer.records,
               delta=registry_delta(before, process_registry().snapshot()),
               train_delta=merge_deltas(phases.deltas.get("train", [])),
               cache=_cache_delta(caches, workload.channels))


def warm_up(workload, ops: Ops, budget: float, after_rep) -> list[float]:
    """Untimed repetitions until two in a row agree within
    ``STEADY_TOLERANCE``, ``workload.warmup_reps`` ran, or ``budget``
    seconds passed."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < workload.warmup_reps:
        walls.append(run_rep(workload, len(walls), ops, traced=False).wall)
        after_rep()
        if len(walls) >= 2 \
                and abs(walls[-1] - walls[-2]) <= STEADY_TOLERANCE * walls[-2]:
            break
        if time.perf_counter() - start >= budget:
            break
    return walls


def timed_window(workload, ops: Ops, seconds: float, first_index: int,
                 traced: bool, after_rep) -> list[Rep]:
    """Repetitions for ``seconds``: another starts only if it is expected to
    end in the window, and at least one runs.  A traced run alternates
    untraced and traced repetitions and runs at least one of each.  A
    workload's ``probe``, if it has one, runs after each repetition, outside
    its wall time."""
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = traced and len(reps) % 2 == 1
        rep = run_rep(workload, first_index + len(reps), ops, trace_this)
        after_rep()
        if hasattr(workload, "probe"):
            rep.rates.update(workload.probe(rep.index, ops))
        reps.append(rep)
        if traced and len(reps) < 2:
            continue
        expected = median(rep.wall for rep in reps)
        if time.perf_counter() + expected > deadline:
            return reps


def end_to_end(names, reps, setups, peak_rss_mb, extra) -> dict:
    metrics = {"wall_s": median(rep.wall for rep in reps),
               "setup_s": median(setups), "peak_rss_mb": peak_rss_mb}
    for name in names:
        if name in metrics:
            continue
        values = [rep.rates[name] for rep in reps if name in rep.rates]
        metrics[name] = median(values) if values else extra[name]
    return metrics


def per_layer(reps, setup_records, setup_delta) -> tuple[dict, dict]:
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    records = [record for rep in traced for record in rep.records]
    hits = sum(rep.cache[0] for rep in traced)
    misses = sum(rep.cache[1] for rep in traced)
    overhead = median(rep.wall for rep in traced) \
        / median(rep.wall for rep in plain) - 1.0
    metrics, notes = layer_metrics(
        setup_records=setup_records, setup_delta=setup_delta,
        body_records=records, body_delta=merge_deltas(r.delta for r in traced),
        train_delta=merge_deltas(r.train_delta for r in traced),
        reps=len(traced), cache_hits=hits, cache_misses=misses,
        overhead_frac=overhead)
    breakdown = {"notes": notes,
                 "self_time_s": self_time_table(records, len(traced)),
                 "channel_reads": channel_reads(records, len(traced))}
    return metrics, breakdown


def _format(report: dict) -> str:
    lines = [f"perfbench {report['workload']} seed={report['seed']} "
             f"trace={report['trace']}",
             "host: " + ", ".join(f"{key}={value}"
                                  for key, value in report["host"].items()),
             "set-up seconds: " + ", ".join(f"{value:.3f}"
                                            for value in report["setups"]),
             "warm-up walls: " + ", ".join(f"{value:.3f}"
                                           for value in report["warmup"])]
    for rep in report["reps"]:
        lines.append(f"rep {rep['index']} traced={rep['traced']} "
                     f"wall={rep['wall']:.3f}s phases="
                     + json.dumps({key: round(value, 3) for key, value
                                   in rep["phases"].items()}))
    for name, entry in report["metrics"].items():
        lines.append(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    for name, note in report.get("notes", {}).items():
        lines.append(f"  note {name}: {note}")
    for backend, row in report.get("channel_reads", {}).items():
        sizes = ", ".join(f"{calls:g} x {cells} cells" for cells, calls
                          in row["calls_by_cells"].items())
        lines.append(f"  channel reads on {backend} per repetition: "
                     f"{row['seconds']:.3f} s in {row['calls']:g} calls "
                     f"({sizes})")
    if report.get("self_time_s"):
        lines.append("self time per repetition (s):")
        for name, value in report["self_time_s"].items():
            lines.append(f"  {name:28s} {value:.4f}")
    return "\n".join(lines)


def run(args, probes: list[dict], work, start: float) -> int:
    workload_cls = WORKLOADS[args.workload]
    ops = Ops()
    traced = bool(args.trace)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds}
    setup_records, setup_delta = [], {}
    reps: list[Rep] = []
    warm: list[float] = []
    extra: dict = {}
    with RssSampler() as rss:
        reps_done = 0

        def after_rep():
            nonlocal reps_done
            reps_done += 1
            if reps_done >= MEMORY_REPS:
                rss.stop()

        try:
            if traced:
                before = process_registry().snapshot()
                tracer = enable_tracing()
                try:
                    with Instrumentation(type(get_backend())):
                        workload = ops.call("setup", workload_cls, args.seed)
                finally:
                    disable_tracing()
                setup_records = tracer.records
                setup_delta = registry_delta(before,
                                             process_registry().snapshot())
            else:
                workload = ops.call("setup", workload_cls, args.seed)
            setup_s = time.perf_counter() - start
            warm = warm_up(workload, ops, args.seconds / 3, after_rep)
            reps = timed_window(workload, ops, args.seconds, len(warm),
                                traced, after_rep)
            extra = workload.finish(ops)
            # Rates measured while setting up: the median over every set-up.
            for name, value in getattr(workload, "setup_rates", {}).items():
                extra[name] = median([value, *(probe[name]
                                               for probe in probes)])
        except OpFailed:
            setup_s = time.perf_counter() - start
    report["host"] = host.stamp(workload_cls.executor, workload_cls.workers)
    report["setups"] = [setup_s, *(probe["setup_s"] for probe in probes)]
    report["warmup"] = warm
    report["reps"] = [{"index": rep.index, "traced": rep.traced,
                       "wall": rep.wall, "phases": rep.phases,
                       "rates": rep.rates} for rep in reps]
    report["failures"] = ops.failures
    correct = ops.failed == 0 and bool(reps)
    metrics: dict = {}
    end_to_end_units, per_layer_units = declared_units()
    if correct and traced:
        values, breakdown = per_layer(reps, setup_records, setup_delta)
        report.update(breakdown)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units.items()}
    elif correct:
        values = end_to_end(end_to_end_units, [rep for rep in reps
                                               if not rep.traced],
                            report["setups"], rss.peak_mb, extra)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end_units.items()}
    report["metrics"] = metrics
    path = work / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(_format(report))
    print(f"breakdown stored in {path.relative_to(work.parent)}")
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1
