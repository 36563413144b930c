"""End-to-end benchmark of the ``mlcache run`` pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Each invocation is one fresh process running one workload (see
``suite.py`` and README.md): it builds the traces from ``--seed``, then
repeats the workload's experiments -- ``run_recorded`` with a journal,
report and manifest written, as ``mlcache run <ID> -o <dir>`` does --
until ``--seconds`` have passed, and reports medians over the
repetitions in scaled seconds (see ``calibrate.py``).  Outputs are
checked against committed digests and a few cells are re-run on the
reference simulator.  ``--trace 1`` adds serial untraced and traced
passes and one pooled pass, and reports per-layer metrics instead of the
end-to-end ones.  The last line of standard output is
one JSON object; everything the run writes goes under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

import calibrate

ROOT = Path(__file__).resolve().parent.parent

#: Worker count of the timed passes.  One: the calibration sampler
#: (calibrate.py) times the host in this process only, so only work done
#: in this process is scaled by what it reads.
WORKERS = 1

#: Workloads whose work is mostly numpy (the stack-distance and fast
#: engines): their calibration kernel has a numpy part (calibrate.py).
NUMPY_WORKLOADS = ("grid",)


def pin_environment() -> Dict[str, str]:
    """Clear every inherited ``REPRO_*`` knob, so registry defaults apply,
    and pin the ones the measurement depends on.  ``REPRO_AUDIT`` is
    pinned off because audit turns itself on under pytest.

    ``OPENBLAS_NUM_THREADS=1`` stops numpy's BLAS from starting a thread
    pool at import.  The program makes no BLAS call, so its work and
    results are unchanged, but on a 2-CPU host the idle pool competes
    with the import it is part of and makes the import time erratic.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    pinned = {
        "REPRO_AUDIT": "0",
        "REPRO_TELEMETRY": "0",
        "REPRO_SWEEP_WORKERS": str(WORKERS),
        "OPENBLAS_NUM_THREADS": "1",
    }
    os.environ.update(pinned)
    return pinned


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the mlcache run pipeline."
    )
    parser.add_argument("--workload", required=True,
                        choices=["grid", "timing", "reference"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=run_seconds(),
        help="how long the timed passes run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json, which the noise bounds were set on."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(declared["run_seconds"])


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    pinned = pin_environment()
    sampler = calibrate.Sampler(with_numpy=args.workload in NUMPY_WORKLOADS)
    try:
        return measure(args, pinned, sampler)
    finally:
        sampler.stop()
        stop_resource_tracker()


def measure(
    args: argparse.Namespace, pinned: Dict[str, str], sampler: calibrate.Sampler
) -> int:
    started = sampler.checkpoint()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.experiments.cli  # noqa: F401  (what `mlcache` imports)
    except ModuleNotFoundError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    imported = sampler.checkpoint()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import bench

    return bench.run(
        args, pinned, sampler, bench.Timing(*imported) - bench.Timing(*started)
    )


def stop_resource_tracker() -> None:
    """End the resource-tracker process that the program's shared-memory
    trace handoff starts, and wait for it, so that no process outlives
    the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
