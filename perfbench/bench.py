"""Measurement, checks and reporting for one benchmark run."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.manifest import RunManifest
from repro.core import envcfg
from repro.core import sweep as core_sweep
from repro.experiments.base import ExperimentReport
from repro.experiments.registry import make_experiment
from repro.experiments.workloads import build_trace
from repro.resilience.integrity import atomic_write_text
from repro.resilience.journal import SweepJournal
from repro.sim import memo, stackdist
from repro.sim.fast import fast_eligible, run_functional
from repro.sim.functional import FunctionalSimulator
from repro.sim.timing import TimingSimulator
from repro.trace.record import Trace
from repro.trace.store import TraceStore

import calibrate
import checks
import spans
import suite
from suite import ALL_EXPERIMENTS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

#: Worker count of the timed passes, as run.py pinned it.
WORKERS = int(os.environ["REPRO_SWEEP_WORKERS"])
#: Worker count of the traced run's one pooled pass: the product default
#: on a 2-CPU host.  It supplies the pool's per-layer metrics.
POOLED_WORKERS = 2
#: The traced run fails if the ``(unattributed)`` rows -- time inside
#: no wrapped layer -- exceed this share of the traced wall time: the
#: wrappers would then no longer say where the time goes.
UNATTRIBUTED_CAP = 0.10
#: The trace set-up is repeated this many times per run and setup_s
#: takes the median.  The program imports once per process, so its
#: import is the single sample run.py takes.
SETUP_REPEATS = 5

UNVALIDATED = (
    "accuracy: unvalidated -- the repository holds no hardware reference "
    "results, so no error figure is given; 'correct' means agreement with "
    "the reference simulator and with the committed digests"
)


@dataclasses.dataclass(frozen=True)
class Timing:
    """Host and scaled (see calibrate.py) wall and CPU seconds."""

    host_s: float
    scaled_s: float
    cpu_s: float
    scaled_cpu_s: float

    def __sub__(self, other: "Timing") -> "Timing":
        return Timing(*(a - b for a, b in zip(
            dataclasses.astuple(self), dataclasses.astuple(other))))


def host_clock() -> Timing:
    """An uncalibrated clock: scaled seconds are host seconds."""
    now, cpu = time.perf_counter(), _cpu_s()
    return Timing(now, now, cpu, cpu)


@dataclasses.dataclass
class Pass:
    """One execution of a workload's experiment list."""

    timings: Dict[str, Timing]
    reports: Dict[str, ExperimentReport]
    manifests: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)
    digests: Dict[str, str] = dataclasses.field(default_factory=dict)

    def seconds(self, field: str) -> float:
        """``field`` of :class:`Timing`, summed over the experiments."""
        return sum(getattr(t, field) for t in self.timings.values())

    def harvest(self, out: Path, capture: checks.SweepCapture) -> "Pass":
        """Read back the manifests and digest the outputs (untimed)."""
        for experiment_id, report in self.reports.items():
            self.manifests[experiment_id] = json.loads(
                (out / f"{experiment_id}.manifest.json").read_text()
            )
            self.digests[experiment_id] = checks.experiment_digest(
                report.render() + "\n", out / f"{experiment_id}.journal.jsonl",
                capture.take(experiment_id),
            )
        return self

    def total(self, field: str) -> int:
        return sum(m["sweep_totals"][field] for m in self.manifests.values())

    def cells_of(self, experiment_id: str) -> int:
        return self.manifests[experiment_id]["sweep_totals"]["cells"]


def _cpu_s() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def ready_traces(workload: Workload, seed: int, cache: Path) -> List[Trace]:
    """The workload's traces, fingerprinted (ready to key the memo)."""
    if workload.stored:
        traces = suite.open_traces(workload, seed, cache)
    else:
        traces = suite.build_traces(workload, seed)
    for trace in traces:
        memo.trace_fingerprint(trace)
    return traces


def run_pass(
    workload: Workload, traces: Sequence[Trace], out: Path,
    capture: checks.SweepCapture, tracer: Optional[spans.Tracer] = None,
    clock: Callable[[], Timing] = host_clock,
) -> Pass:
    """Run every experiment of ``workload`` from a cold memo, writing each
    report and manifest as ``mlcache run <ID> -o <out>`` does, and time
    each experiment by ``clock``.  The caller harvests the pass before
    the next one overwrites its files."""
    memo.clear_memo_cache()
    stackdist.clear_front_cache()
    timings: Dict[str, Timing] = {}
    reports = {}
    for experiment_id in workload.experiments:
        capture.current = experiment_id
        began = clock()
        with tracer.span("experiment." + experiment_id) if tracer else nullcontext():
            report, recorder = make_experiment(experiment_id).run_recorded(
                traces, journal=out / f"{experiment_id}.journal.jsonl"
            )
            atomic_write_text(out / f"{experiment_id}.txt", report.render() + "\n")
            recorder.write(out / f"{experiment_id}.manifest.json")
        timings[experiment_id] = clock() - began
        reports[experiment_id] = report
    return Pass(timings, reports)


# -- the traced run -----------------------------------------------------------


def _records(trace: Trace, *args: Any, **kwargs: Any) -> Tuple[int, bool]:
    return len(trace), False


def _timing_records(simulator: TimingSimulator, trace: Trace) -> Tuple[int, bool]:
    return len(trace), fast_eligible(simulator.config)


def _method_records(instance: Any, trace: Trace) -> Tuple[int, bool]:
    return len(trace), False


def install_wrappers(tracer: spans.Tracer) -> None:
    """Wrap each layer entry point at the binding its callers use."""
    tracer.wrap_function(core_sweep.sweep_functional, "sweep")
    tracer.wrap_function(core_sweep.sweep_timing, "sweep")
    tracer.wrap_function(memo.lookup, "memo")
    tracer.wrap_function(stackdist.run_stackdist_grid, "stackdist", _records)
    tracer.wrap_function(run_functional, "fast", _records)
    tracer.wrap_method(FunctionalSimulator, "run", "reference", _method_records)
    tracer.wrap_method(TimingSimulator, "run", "timing", _timing_records)
    tracer.wrap_method(SweepJournal, "record_cell", "journal")
    tracer.wrap_method(SweepJournal, "record_cells", "journal")
    tracer.wrap_method(RunManifest, "write", "manifest")
    tracer.wrap_function(build_trace, "build", also=(suite,))
    tracer.wrap_method(TraceStore, "open", "store")


def untimed_pass(
    workload: Workload, seed: int, cache: Path, out: Path,
    capture: checks.SweepCapture, workers: int = 1,
    tracer: Optional[spans.Tracer] = None,
) -> Tuple[Pass, float]:
    """Trace set-up plus the experiments with ``workers`` sweep workers,
    outside the sampler.  Returns the pass and its host wall time."""
    os.environ["REPRO_SWEEP_WORKERS"] = str(workers)
    if tracer is not None:
        install_wrappers(tracer)
    try:
        started = time.perf_counter()
        with tracer.span("run") if tracer else nullcontext():
            traces = ready_traces(workload, seed, cache)
            result = run_pass(workload, traces, out, capture, tracer)
        wall_s = time.perf_counter() - started
        if tracer is not None:
            wall_s = tracer.spans[0].duration_ns / 1e9
        return result.harvest(out, capture), wall_s
    finally:
        if tracer is not None:
            tracer.unwrap()
        os.environ["REPRO_SWEEP_WORKERS"] = str(WORKERS)


def span_metrics(tracer: spans.Tracer) -> Dict[str, float]:
    """Per-layer busy times, call counts and host ns per record."""
    fallback = {s.parent for s in tracer.spans if s.name == "reference"}
    groups: Dict[str, List[spans.Span]] = {}
    for index, span in enumerate(tracer.spans):
        name = span.name
        if name == "fast" and index in fallback:
            continue  # dispatch to the reference simulator, counted there
        groups.setdefault(name, []).append(span)

    def busy(name: str, only=lambda s: True) -> Tuple[int, float, float]:
        chosen = [s for s in groups.get(name, []) if only(s)]
        self_ns = sum(s.self_ns for s in chosen)
        records = sum(s.records for s in chosen)
        return len(chosen), self_ns / 1e9, self_ns / records if records else 0.0

    _, busy_s, per = busy("stackdist")
    metrics = {"stackdist.busy_s": busy_s, "stackdist.ns_per_record": per}
    for layer in ("fast", "reference", "timing"):
        calls, busy_s, per = busy(layer)
        metrics.update({f"{layer}.calls": calls, f"{layer}.busy_s": busy_s,
                        f"{layer}.ns_per_record": per})
    metrics["timing.eligible_busy_s"] = busy("timing", lambda s: s.eligible)[1]
    metrics["sweep.self_s"] = busy("sweep")[1]
    metrics["journal.busy_s"] = busy("journal")[1]
    metrics["manifest.write_s"] = busy("manifest")[1]
    return metrics


def parallel_efficiency(pooled: Pass, serial: Pass) -> float:
    """Serial busy time of the sweeps that ran pooled, over workers times
    their pooled wall time."""
    pooled_s = serial_s = 0.0
    for experiment_id, manifest in pooled.manifests.items():
        pairs = zip(manifest["sweeps"], serial.manifests[experiment_id]["sweeps"])
        for pooled_sweep, serial_sweep in pairs:
            if pooled_sweep["pooled"]:
                pooled_s += pooled_sweep["seconds"]
                serial_s += serial_sweep["seconds"]
    return serial_s / (POOLED_WORKERS * pooled_s) if pooled_s else 0.0


@dataclasses.dataclass
class TracedRun:
    """Interleaved untraced and traced serial passes (S T T S), then one
    pass with the product's pool."""

    serial: List[Pass]
    serial_s: List[float]
    traced: List[Pass]
    traced_s: List[float]
    tracer: spans.Tracer  # of the first traced pass
    pooled: Pass

    @property
    def overhead(self) -> float:
        return sum(self.traced_s) / sum(self.serial_s) - 1

    @property
    def overhead_halfrange(self) -> float:
        """Half the gap between the two pairs' overheads: the overhead is
        unresolved when it is smaller than this."""
        first = self.traced_s[0] / self.serial_s[0] - 1
        second = self.traced_s[1] / self.serial_s[1] - 1
        return abs(first - second) / 2


def traced_run(
    workload: Workload, seed: int, cache: Path, out: Path,
    capture: checks.SweepCapture,
) -> TracedRun:
    tracers = [spans.Tracer(), spans.Tracer()]
    results: Dict[str, List[Tuple[Pass, float]]] = {"serial": [], "traced": []}
    for kind in ("serial", "traced", "traced", "serial"):
        tracer = tracers[len(results["traced"])] if kind == "traced" else None
        results[kind].append(
            untimed_pass(workload, seed, cache, out, capture, tracer=tracer)
        )
    pooled, _ = untimed_pass(
        workload, seed, cache, out, capture, workers=POOLED_WORKERS
    )
    return TracedRun(
        serial=[p for p, _ in results["serial"]],
        serial_s=[s for _, s in results["serial"]],
        traced=[p for p, _ in results["traced"]],
        traced_s=[s for _, s in results["traced"]],
        tracer=tracers[0],
        pooled=pooled,
    )


def coverage_problems(
    workload: Workload, rows: List[Tuple[str, int, float]], wall_s: float
) -> List[str]:
    """Problems with how the traced run attributes its time: too much of
    it unattributed, or no call at all to the workload's own layer."""
    problems = []
    unattributed = sum(s for name, _, s in rows if name.endswith(spans.UNATTRIBUTED))
    if unattributed > UNATTRIBUTED_CAP * wall_s:
        problems.append(
            f"{unattributed / wall_s:.1%} of the traced wall time is "
            f"unattributed (cap {UNATTRIBUTED_CAP:.0%})"
        )
    if not any(name == workload.layer and calls for name, calls, _ in rows):
        problems.append(f"the traced run made no call to {workload.layer}")
    return problems


def layer_report(
    workload: Workload, rows: List[Tuple[str, int, float]], traced: TracedRun,
    efficiency: float,
) -> str:
    total = sum(self_s for _, _, self_s in rows)
    lines = [
        f"per-layer self time, traced serial run of '{workload.name}' "
        f"(REPRO_SWEEP_WORKERS=1)",
        f"{'layer':<28}{'calls':>8}{'self_s':>11}{'share':>8}",
    ]
    for name, calls, self_s in rows:
        lines.append(f"{name:<28}{calls:>8}{self_s:>11.4f}{self_s / total:>8.1%}")
    lines.append(f"{'sum of rows':<28}{'':>8}{total:>11.4f}")
    lines.append(f"{'traced wall':<28}{'':>8}{traced.traced_s[0]:>11.4f}")
    own = sum(s for name, _, s in rows if name == workload.layer)
    lines.append(f"{workload.layer} share of the traced wall: "
                 f"{own / traced.traced_s[0]:.1%}")
    serial = ", ".join(f"{s:.3f}" for s in traced.serial_s)
    traced_walls = ", ".join(f"{s:.3f}" for s in traced.traced_s)
    lines.append(
        f"tracing.overhead: {traced.overhead:+.2%} +/- "
        f"{traced.overhead_halfrange:.2%} (traced {traced_walls} s vs "
        f"untraced {serial} s, interleaved S T T S)"
    )
    lines.append(
        f"pool.parallel_efficiency: {efficiency:.3f} ({POOLED_WORKERS} workers)"
    )
    return "\n".join(lines)


def check_outputs(
    workload: Workload, seed: int, passes: List[Pass],
    samples: List[Tuple[str, bool, str]],
) -> Tuple[int, int, List[str], bool]:
    """``(attempted, failed, problems, committed)`` over every pass.

    A pass's experiment whose digest differs from the committed one (or,
    for a seed outside ``checks.COMMITTED_SEEDS``, from the first pass) counts
    all of that experiment's cells as failed; so does a failed sweep
    cell or a sample that differs from the reference simulator.
    """
    problems: List[str] = []
    for manifest in passes[0].manifests.values():
        if manifest["audit_enabled"] or manifest["workers_env"] != str(WORKERS):
            problems.append(
                f"{manifest['name']}: environment not pinned (audit "
                f"{manifest['audit_enabled']}, workers {manifest['workers_env']})"
            )
    expected, stale = checks.load_expected(workload, seed)
    if stale is not None:
        problems.append(stale)
    reference = expected if expected is not None else passes[0].digests
    attempted = sum(p.total("cells") for p in passes) + len(samples)
    failed = sum(p.total("failed") for p in passes)
    for number, result in enumerate(passes):
        for experiment_id, digest in result.digests.items():
            if digest != reference.get(experiment_id):
                failed += result.cells_of(experiment_id)
                problems.append(
                    f"pass {number}: {experiment_id} digest {digest[:12]} "
                    f"differs from the expected one"
                )
    for label, ok, detail in samples:
        if not ok:
            failed += 1
            problems.append(f"sample {label}: {detail}")
    return attempted, failed, problems, expected is not None


def layer_metrics(
    workload: Workload, passes: List[Pass], traced: TracedRun,
    import_s: float, traces_s: float, kernel_s: List[float],
) -> Dict[str, float]:
    """Per-layer metrics: manifests of the timed passes plus the spans of
    the traced run."""
    last = passes[-1]
    metrics: Dict[str, float] = {
        f"experiments.{i}.wall_s": (
            statistics.median(p.timings[i].scaled_s for p in passes)
            if i in workload.experiments else 0.0
        )
        for i in ALL_EXPERIMENTS
    }
    hits = sum(m["memo"]["hits"] for m in last.manifests.values())
    misses = sum(m["memo"]["misses"] for m in last.manifests.values())
    stack_passes = last.total("stackdist_groups")
    metrics.update({
        "setup.import_s": import_s,
        "setup.traces_s": traces_s,
        "store.open_s": traces_s if workload.stored else 0.0,
        "sweep.cells": last.total("cells"),
        "sweep.simulated": last.total("simulated"),
        "sweep.memoised": last.total("memoised"),
        "sweep.derived": last.total("cells_derived"),
        "memo.hits": hits,
        "memo.misses": misses,
        "memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "stackdist.passes": stack_passes,
        "stackdist.cells_per_pass": (
            last.total("cells_derived") / stack_passes if stack_passes else 0.0
        ),
        "pool.retries": traced.pooled.total("retries"),
        "pool.restarts": traced.pooled.total("pool_restarts"),
        "pool.parallel_efficiency": parallel_efficiency(
            traced.pooled, traced.serial[0]
        ),
        "journal.records": sum(
            m["extra"]["journal"]["cells_recorded"] for m in last.manifests.values()
        ),
        "serial.wall_s": statistics.median(traced.serial_s),
        "traced.wall_s": statistics.median(traced.traced_s),
        "tracing.overhead": traced.overhead,
        "host.wall_s": statistics.median(p.seconds("host_s") for p in passes),
        "host.kernel_s": statistics.fmean(kernel_s),
    })
    metrics.update(span_metrics(traced.tracer))
    metrics["unattributed_s"] = sum(
        self_s for name, _, self_s in spans.self_time_rows(traced.tracer)
        if name.endswith(spans.UNATTRIBUTED)
    )
    return metrics


def declared_metrics(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the metrics BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def provenance() -> Dict[str, Any]:
    """``benchjson.provenance()``: git sha, python, cpu count, host."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import benchjson
    finally:
        sys.path.pop(0)
    return benchjson.provenance()


def _quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"p25 {q1:.4g} p75 {q3:.4g} n={len(values)}"


# -- the run ------------------------------------------------------------------


def run(
    args: argparse.Namespace, pinned: Dict[str, str],
    sampler: calibrate.Sampler, imported: Timing,
) -> int:
    """One benchmark run; ``imported`` is how long the program's import
    took, by ``sampler``."""
    workload = WORKLOADS[args.workload]
    out = ROOT / ".perfbench" / workload.name / f"seed{args.seed}"
    cache = ROOT / ".perfbench" / "trace-cache"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if workload.stored:
        pinned["REPRO_TRACE_CACHE"] = os.environ["REPRO_TRACE_CACHE"] = str(cache)
        suite.warm_stores(workload, args.seed, cache)

    def clock() -> Timing:
        return Timing(*sampler.checkpoint())

    set_ups = []
    for _ in range(SETUP_REPEATS):
        began = clock()
        traces = ready_traces(workload, args.seed, cache)
        set_ups.append(clock() - began)
    traces_s = statistics.median(t.scaled_s for t in set_ups)
    import_s = imported.scaled_s

    capture = checks.SweepCapture()
    passes: List[Pass] = []
    began_s = time.perf_counter()
    while not passes or time.perf_counter() - began_s < args.seconds:
        passes.append(
            run_pass(workload, traces, out, capture, clock=clock)
            .harvest(out, capture)
        )
    sampler.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    journals = [out / f"{i}.journal.jsonl" for i in workload.experiments]
    samples = checks.check_samples(workload, traces, journals)
    traced = (
        traced_run(workload, args.seed, cache, out, capture) if args.trace else None
    )

    checked = passes + (
        traced.serial + traced.traced + [traced.pooled] if traced else []
    )
    attempted, failed, problems, committed = check_outputs(
        workload, args.seed, checked, samples
    )
    walls = [p.seconds("scaled_s") for p in passes]
    cpus = [p.seconds("scaled_cpu_s") for p in passes]
    end_to_end = {
        "setup_s": import_s + traces_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": peak_rss_mib,
        "cell_records_per_s": statistics.median(
            p.total("cells") * workload.records / w for p, w in zip(passes, walls)
        ),
        "error_rate": failed / attempted,
    }
    report_text = ""
    per_layer: Dict[str, float] = {}
    if traced is not None:
        per_layer = layer_metrics(
            workload, passes, traced, import_s, traces_s,
            [python_s + (numpy_s or 0.0) for python_s, numpy_s in sampler.samples],
        )
        per_layer["error_rate"] = end_to_end["error_rate"]
        rows = spans.self_time_rows(traced.tracer)
        problems += coverage_problems(workload, rows, traced.traced_s[0])
        report_text = layer_report(
            workload, rows, traced, per_layer["pool.parallel_efficiency"]
        )
        atomic_write_text(out / "layers.txt", report_text + "\n")
        atomic_write_text(
            out / "spans.json", json.dumps(traced.tracer.as_records()) + "\n"
        )

    kind = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    units = declared_metrics(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}

    print(f"perfbench {workload.name}: seed {args.seed}, {workload.traces} "
          f"traces x {workload.records} records, {len(passes)} passes, "
          f"{WORKERS} workers")
    e2e_units = dict(declared_metrics("end_to_end"), error_rate="ratio")
    spreads = {"wall_s": walls, "cpu_s": cpus,
               "setup_s": [import_s + t.scaled_s for t in set_ups]}
    for name, value in end_to_end.items():
        extra = _quartiles(spreads[name]) if name in spreads else ""
        print(f"  {name:<20} {value:>14.6g} {e2e_units[name]:<15} {extra}")
    for label, ok, detail in samples:
        print(f"  sample [{'ok' if ok else 'MISMATCH'}] {label}: {detail}")
    shape = {i: report.checks for i, report in passes[-1].reports.items()}
    failing = [f"{i}: {claim}" for i, claims in shape.items()
               for claim, ok in claims.items() if not ok]
    total = sum(len(claims) for claims in shape.values())
    print(f"  shape checks (paper claims; reported, not counted as failures): "
          f"{total - len(failing)}/{total} hold")
    for claim in failing:
        print(f"    [FAIL] {claim}")
    print(f"  digests checked against "
          f"{'committed values' if committed else 'the first pass'} "
          f"for seed {args.seed}")
    print(f"  {UNVALIDATED}")
    if report_text:
        print(report_text)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    record = {
        "workload": workload.name, "seed": args.seed,
        "pass_wall_s": walls, "pass_cpu_s": cpus,
        "pass_host_wall_s": [p.seconds("host_s") for p in passes],
        "pass_host_cpu_s": [p.seconds("cpu_s") for p in passes],
        "import": dataclasses.asdict(imported),
        "set_ups": [dataclasses.asdict(t) for t in set_ups],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "pinned_env": pinned,
        "effective_env": {v.name: v.get() for v in envcfg.all_vars()},
        "provenance": provenance(), "problems": problems,
        "digests": passes[-1].digests,
        "kernel_s": sampler.samples,
    }
    atomic_write_text(out / "result.json", json.dumps(record, indent=2) + "\n")
    print(f"  environment {json.dumps(pinned, sort_keys=True)}, provenance "
          f"{json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if not problems else 1
