"""The benchmark's workloads: which experiments run, on which traces.

Each workload maps to one cost class of ``mlcache run all`` (see
README.md): ``grid`` is many cheap functional cells through the
stack-distance and fast engines and the memo, ``timing`` is the
per-access timing simulator, ``reference`` is functional cells that
fall back to the reference simulator.  Sizes are chosen so that one
repetition of a workload takes a few seconds on a 2-CPU host, which
lets a run report the median of several repetitions.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, List, Tuple

from repro.experiments.baseline import base_machine
from repro.experiments.workloads import build_trace
from repro.sim.config import SystemConfig
from repro.trace.record import Trace
from repro.trace.store import STORE_SUFFIX, StoreCorruptError, TraceStore
from repro.units import KB

#: Trace indices per seed: seed ``s`` builds ``index = s * 8 + i``, so
#: seed 0 is the ``paper_trace_suite()`` prefix and seeds never share a
#: trace.
TRACES_PER_SEED = 8


@dataclasses.dataclass(frozen=True)
class Sample:
    """One cell compared exactly against the reference simulator."""

    kind: str  # "functional" or "timing"
    trace_index: int
    config: Callable[[], SystemConfig]
    label: str


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    records: int
    traces: int
    #: Open the traces from a warmed trace store (memmap views, verified
    #: on open, handed to workers as paths) instead of building them.
    stored: bool
    samples: Tuple[Sample, ...]
    #: The layer (as ``spans.LAYERS`` names it) this workload exists to
    #: exercise; the traced run fails if it makes no call to it.
    layer: str


WORKLOADS = {
    "grid": Workload(
        name="grid",
        experiments=(
            "F3-1", "F3-2", "F4-1", "F4-2", "F4-3", "F4-4", "F5-1", "F5-2",
            "F5-3", "E-EQ2", "E-EQ3", "E-L1OPT", "A-BLOCK",
        ),
        # Eight traces, not four: the engines' cost varies from trace to
        # trace, and more traces average it out, so seeds differ less.
        # Long traces keep the journal's and manifests' fsyncs, whose
        # latency the host's disk sets, a small share of the pass.
        records=100_000,
        traces=8,
        stored=False,
        samples=(
            Sample("functional", 0, lambda: base_machine(l2_size=64 * KB),
                   "F3-1 64K direct-mapped L2"),
            Sample("functional", 1,
                   lambda: base_machine(l2_size=128 * KB, l2_associativity=8),
                   "F5-3 128K 8-way L2 (stack-distance member)"),
            Sample("functional", 2,
                   lambda: base_machine(l2_size=64 * KB).with_level(
                       1, block_bytes=128),
                   "A-BLOCK 128-byte L2 blocks"),
        ),
        layer="sim.stackdist",
    ),
    "timing": Workload(
        name="timing",
        experiments=("E-EQ1", "A-WPOL"),
        records=100_000,
        traces=4,
        stored=False,
        samples=(
            Sample("timing", 0, lambda: base_machine(l2_size=128 * KB),
                   "E-EQ1 base machine, 128K L2"),
            Sample("timing", 1,
                   lambda: base_machine(l2_size=64 * KB).with_level(
                       0, write_policy="write-through"),
                   "A-WPOL write-through L1"),
        ),
        layer="sim.timing",
    ),
    "reference": Workload(
        name="reference",
        experiments=("A-PREF", "A-INCL"),
        records=100_000,
        traces=2,
        stored=True,
        samples=(
            Sample("functional", 0,
                   lambda: base_machine(l2_size=64 * KB).with_level(
                       1, prefetch="tagged", prefetch_distance=1),
                   "A-PREF tagged prefetch"),
            Sample("functional", 1,
                   lambda: dataclasses.replace(
                       base_machine(l2_size=8 * KB), enforce_inclusion=True),
                   "A-INCL inclusive 8K L2"),
        ),
        layer="sim.functional",
    ),
}

#: Every experiment any workload runs, in workload order.
ALL_EXPERIMENTS = tuple(
    experiment_id
    for workload in WORKLOADS.values()
    for experiment_id in workload.experiments
)


def trace_specs(workload: Workload, seed: int) -> List[Tuple[str, int, bool]]:
    """``(name, index, kernel)`` of each trace, as ``paper_trace_suite``
    names and alternates them."""
    specs = []
    for i in range(workload.traces):
        kernel = i % 2 == 0
        name = f"{'vms' if kernel else 'mix'}{i}"
        specs.append((name, seed * TRACES_PER_SEED + i, kernel))
    return specs


def build_traces(workload: Workload, seed: int) -> List[Trace]:
    return [
        build_trace(name, index=index, records=workload.records, kernel=kernel)
        for name, index, kernel in trace_specs(workload, seed)
    ]


def store_paths(workload: Workload, seed: int, cache: Path) -> List[Path]:
    return [
        cache / f"seed{seed}-{name}-{workload.records}{STORE_SUFFIX}"
        for name, _, _ in trace_specs(workload, seed)
    ]


def warm_stores(workload: Workload, seed: int, cache: Path) -> None:
    """Build and save any store that is missing or fails verification."""
    cache.mkdir(parents=True, exist_ok=True)
    specs = trace_specs(workload, seed)
    for (name, index, kernel), path in zip(specs, store_paths(workload, seed, cache)):
        try:
            TraceStore.open(path, verify=True)
            continue
        except (FileNotFoundError, StoreCorruptError):
            pass
        trace = build_trace(name, index=index, records=workload.records,
                            kernel=kernel)
        TraceStore.save(trace, path)


def open_traces(workload: Workload, seed: int, cache: Path) -> List[Trace]:
    return [
        TraceStore.open(path, verify=True).as_trace()
        for path in store_paths(workload, seed, cache)
    ]
