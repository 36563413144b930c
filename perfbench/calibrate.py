"""Host-speed calibration: a fixed kernel timed all through the run.

The benchmark's host is a share of a machine whose speed changes under
it: it flips between a fast and a slow state several times a second and
drifts by up to twofold over minutes, moving wall and CPU time alike.
No statistic over one run removes a drift that spans several runs.  So
while a run measures, a ``SIGALRM`` handler interrupts it every
``INTERVAL_S`` and times this module's kernel, which does not depend on
the program.  The work between two kernel samples is counted twice: in
host seconds, and in *scaled* seconds -- host seconds times the
kernel's reference time over the mean of the two samples, which is the
time the work would have taken at the host speed at which the kernel
reads its reference time.  The kernel's own time is counted in neither.
A faster program makes its scaled time shorter; a slower host, which
slows the kernel in step, does not make it longer.

The kernel has up to two parts, like the program's work: an interpreted
set-associative LRU loop with dirty bits over a working set larger than
a core's private caches (what the timing and reference simulators do),
and numpy sorts, uniques and bincounts over 64K keys (what the
stack-distance and fast engines do).  A workload whose work is mostly
numpy samples both parts; one whose work is interpreted samples the
python part alone, which tracks it better.  The numpy part runs only
once the program has imported numpy, so the sampler can time the
program's import too: until then the python part is scaled alone.
"""

from __future__ import annotations

import resource
import signal
import sys
from time import perf_counter
from typing import Any, List, Optional, Tuple

#: Time of each kernel part on the host the bounds were set on, a 2-vCPU
#: Xeon KVM guest, in its fast state.  Scaled seconds therefore read
#: about as host seconds do there when it is quiet.
REFERENCE_PYTHON_S = 0.006
REFERENCE_NUMPY_S = 0.0045

#: Host seconds between two kernel samples.
INTERVAL_S = 0.2


def python_kernel() -> int:
    """Misses plus write-backs of a 512-set 4-way write-back LRU cache
    over a fixed stream of 64K distinct blocks."""
    sets: List[List[int]] = [[] for _ in range(512)]
    dirty = {}
    misses = 0
    address = 12345
    for i in range(12_000):
        address = (address * 1103515245 + 12345) & 0x7FFFFFFF
        block = (address >> 7) & 0xFFFF
        ways = sets[block & 511]
        if block in ways:
            ways.remove(block)
        else:
            misses += 1
            if len(ways) == 4:
                misses += dirty.pop(ways.pop(0), 0)
        ways.append(block)
        if i & 3 == 0:
            dirty[block] = 1
    return misses


def numpy_kernel(np: Any, keys: Any) -> int:
    """Sort, unique and bincount ``keys``."""
    order = np.argsort(keys, kind="stable")
    _, inverse = np.unique(keys, return_inverse=True)
    return int(np.cumsum(np.bincount(inverse))[-1]) + int(order[0])


def factor(before: Tuple[float, Optional[float]],
           after: Tuple[float, Optional[float]]) -> float:
    """Scaled seconds per host second of work done between two samples:
    both parts where both samples have them, else the python part."""
    if before[1] is None or after[1] is None:
        return REFERENCE_PYTHON_S / ((before[0] + after[0]) / 2)
    both_s = before[0] + before[1] + after[0] + after[1]
    return (REFERENCE_PYTHON_S + REFERENCE_NUMPY_S) / (both_s / 2)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Sampler:
    """Host and scaled totals of the work done while it runs.

    ``checkpoint()`` takes a sample at once, so that the totals read
    right after it cover the work up to that moment.  Only one process
    is measured: pool workers the program forks do not inherit the
    timer, so a pass measured under the sampler must run serially.
    """

    def __init__(self, with_numpy: bool) -> None:
        self.with_numpy = with_numpy
        self.host_s = 0.0
        self.scaled_s = 0.0
        self.cpu_s = 0.0
        self.scaled_cpu_s = 0.0
        #: Every kernel sample: ``(python_s, numpy_s)``, see :meth:`sample`.
        self.samples: List[Tuple[float, Optional[float]]] = []
        self._keys: Any = None
        self._busy = False
        self.samples.append(self.sample())
        self._mark = perf_counter()
        self._cpu_mark = _cpu_s()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def sample(self) -> Tuple[float, Optional[float]]:
        """Host seconds of the python part and, if the sampler has one and
        the program has imported numpy, of the numpy part."""
        began = perf_counter()
        python_kernel()
        python_s = perf_counter() - began
        np = sys.modules.get("numpy") if self.with_numpy else None
        if np is None:
            return python_s, None
        if self._keys is None:
            # 64K keys with 40K distinct values: about a trace's size.
            self._keys = (np.arange(1 << 16, dtype=np.int64) * 2654435761) % 40_009
        began = perf_counter()
        numpy_kernel(np, self._keys)
        return python_s, perf_counter() - began

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.checkpoint()

    def checkpoint(self) -> Tuple[float, float, float, float]:
        """Sample now; return ``(host_s, scaled_s, cpu_s, scaled_cpu_s)``."""
        self._busy = True
        try:
            work_s = perf_counter() - self._mark
            work_cpu_s = _cpu_s() - self._cpu_mark
            self.samples.append(self.sample())
            scale = factor(*self.samples[-2:])
            self.host_s += work_s
            self.scaled_s += work_s * scale
            self.cpu_s += work_cpu_s
            self.scaled_cpu_s += work_cpu_s * scale
            self._mark = perf_counter()
            self._cpu_mark = _cpu_s()
            return self.host_s, self.scaled_s, self.cpu_s, self.scaled_cpu_s
        finally:
            self._busy = False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
