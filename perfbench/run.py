"""Benchmark of record: ``python3 perfbench/run.py --workload <name> ...``.

Runs one workload of ``BENCHMARK.json`` in this process, checks its outputs
and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, and the breakdown behind them is printed above that
line and stored in ``.perfbench/`` next to the numbers.  Exits 1 when a
check fails and 2 when the program is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads per process of each workload, fixed before numpy loads.
#: ``None`` keeps the library default of one thread per core; the pooled
#: workload takes one, so its two workers do not oversubscribe the cores.
BLAS_THREADS = {"figure_run": None, "mc_campaign": 1, "paper_scale": None}
#: Set-ups per run: this process's own plus fresh-process probes.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BLAS_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def configure_environment(workload: str, work: Path) -> Path:
    """Fresh kernel cache and BLAS threads; must run before numpy loads."""
    cache = Path(tempfile.mkdtemp(prefix="kernel-cache-", dir=work))
    os.environ["REPRO_KERNEL_CACHE"] = str(cache)
    threads = BLAS_THREADS[workload]
    if threads is not None:
        for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS"):
            os.environ[variable] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return cache


def probe_setups(args, count: int) -> list[dict]:
    """Set-ups measured in ``count`` fresh processes, one at a time: their
    seconds and any rates the workload measures while setting up."""
    setups = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            capture_output=True, text=True, timeout=150, cwd=os.getcwd())
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise RuntimeError("set-up probe failed")
        setups.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return setups


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench"
    work.mkdir(exist_ok=True)
    cache = configure_environment(args.workload, work)
    try:
        if args.setup_probe:
            start = time.perf_counter()
            from perfbench.workloads import WORKLOADS
            workload = WORKLOADS[args.workload](args.seed)
            print(json.dumps({"setup_s": time.perf_counter() - start,
                              **getattr(workload, "setup_rates", {})}))
            return 0
        probes = [] if args.trace else probe_setups(args, SETUP_SAMPLES - 1)
        start = time.perf_counter()
        from perfbench.runner import run
        return run(args, probes, work, start)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
