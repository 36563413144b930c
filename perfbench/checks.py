"""Output checks: per-experiment digests and reference-simulator samples."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import sweep as core_sweep
from repro.resilience.journal import (
    decode_timing,
    encode_functional,
    encode_timing,
    journal_digest,
)
from repro.sim import memo
from repro.sim.functional import FunctionalSimulator
from repro.sim.timing import TimingResult, TimingSimulator
from repro.trace.record import Trace

from spans import rebind
from suite import Workload

EXPECTED = Path(__file__).resolve().parent / "expected.json"


class SweepCapture:
    """Keeps every grid the sweeps hand back, per experiment.

    Installed once per run around ``sweep_functional`` and
    ``sweep_timing`` at every binding their callers use; it only keeps
    references, so the timed passes pay one list append per sweep.
    """

    def __init__(self) -> None:
        self.grids: Dict[str, List[list]] = {}
        self.current = ""
        for original in (core_sweep.sweep_functional, core_sweep.sweep_timing):
            rebind(original, self._capturing(original))

    def _capturing(self, original):
        def captured(*args, **kwargs):
            grid = original(*args, **kwargs)
            self.grids.setdefault(self.current, []).append(grid)
            return grid

        return captured

    def take(self, experiment_id: str) -> List[list]:
        return self.grids.pop(experiment_id, [])


def _encode(result) -> dict:
    if result is None:
        return {"failed": True}
    if isinstance(result, TimingResult):
        return encode_timing(result)
    return encode_functional(result)


def experiment_digest(report_text: str, journal: Path, grids: List[list]) -> str:
    """SHA-256 over the rendered report, every result the experiment's
    sweeps returned (in call and grid order, memo hits included) and
    every journaled cell payload checksum.

    Journal records are sorted by key because a pooled sweep journals
    cells in completion order.
    """
    digest = hashlib.sha256(report_text.encode())
    for grid in grids:
        for row in grid:
            for result in row:
                digest.update(json.dumps(_encode(result), sort_keys=True).encode())
    cells = []
    for line in journal.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("t") == "cell":
            cells.append(f"{record['kind']} {record['key']} {record['sum']}")
    for cell in sorted(cells):
        digest.update(b"\n" + cell.encode())
    return digest.hexdigest()


#: Seeds whose digests ``expected.json`` commits for every workload.
COMMITTED_SEEDS = (0, 1)


def load_expected(
    workload: Workload, seed: int
) -> Tuple[Optional[Dict[str, str]], Optional[str]]:
    """``(digests, problem)``: the committed digests for ``seed``, or
    ``None`` for a seed without any.  For a committed seed whose entry is
    missing or was made at another workload size, ``problem`` says so,
    so the gate cannot quietly fall back to a determinism check."""
    if seed not in COMMITTED_SEEDS:
        return None, None
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    entry = table.get(workload.name, {})
    if (entry.get("records"), entry.get("traces")) != (
        workload.records, workload.traces
    ):
        return None, (
            f"committed digests for seed {seed} are for another size "
            f"({entry.get('traces')} x {entry.get('records')} records, run "
            f"is {workload.traces} x {workload.records})"
        )
    digests = entry.get("seeds", {}).get(str(seed))
    if digests is None:
        return None, f"no committed digests for seed {seed}"
    return digests, None


def _journaled_timing(journals: Sequence[Path], key: str) -> Optional[dict]:
    for journal in journals:
        for line in journal.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("t") == "cell" and record.get("key") == key:
                return record["payload"]
    return None


def check_samples(
    workload: Workload, traces: Sequence[Trace], journals: Sequence[Path]
) -> List[Tuple[str, bool, str]]:
    """Compare each sample cell of the last repetition exactly against a
    fresh in-process run of the reference simulator.

    Functional cells are read back from the memo (whichever engine and
    process produced them); timing cells from the journal, because the
    timing sweep has no memo.  Returns ``(label, ok, detail)`` rows.
    """
    rows = []
    for sample in workload.samples:
        trace = traces[sample.trace_index]
        config = sample.config()
        if sample.kind == "functional":
            produced = memo.peek(memo.memo_key(trace, config))
            got = encode_functional(produced) if produced is not None else None
            want = encode_functional(FunctionalSimulator(config).run(trace))
        else:
            payload = _journaled_timing(
                journals, journal_digest("timing", memo.timing_key(trace, config))
            )
            got = (
                encode_timing(decode_timing(payload, config))
                if payload is not None else None
            )
            want = encode_timing(TimingSimulator(config).run(trace))
        if got is None:
            rows.append((sample.label, False, "cell not produced by the run"))
        elif got != want:
            diff = sorted(k for k in want if got.get(k) != want[k])
            rows.append((sample.label, False, "differs in " + ", ".join(diff)))
        else:
            rows.append((sample.label, True, f"{trace.name}: identical"))
    return rows
