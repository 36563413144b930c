"""Zero-copy, memmap-backed trace storage and worker handoff.

The paper's sweeps run long address traces -- "data collected only after
the caches had left the cold start region" (section 2) -- and the
roadmap scale is far past the point where every worker-pool restart can
afford to re-ship (or copy-on-write re-touch) whole heap traces.  This
module keeps trace bytes out of process heaps in three layers:

**On-disk store format** (``TraceStore``).  A trace is saved as a small
JSON header followed by the raw ``uint8`` kinds segment and the aligned
raw ``uint64`` addresses segment::

    offset 0   magic ``MLCTRACE`` (8 bytes)
    offset 8   header length (uint64, little-endian)
    offset 16  header JSON: version, records, warmup, name,
               derived-free metadata, content digest, segment offsets
    ...        kinds segment  (records x uint8)
    ...        addresses segment (records x uint8 x 8, 8-byte aligned)

No compression and no parsing means :meth:`TraceStore.open` is O(header)
and :meth:`TraceStore.as_trace` returns a :class:`~repro.trace.record.Trace`
whose arrays are read-only ``np.memmap`` views -- a multi-million-record
trace "loads" without touching its data pages.

**Content digests** (:func:`trace_content_digest`).  The store records a
SHA-256 of the raw segments, computed in fixed-size chunks so hashing a
memmap never materialises the whole trace.  The memoisation layer
(:mod:`repro.sim.memo`) builds its trace fingerprint from this digest
and trusts the recorded value on open -- fingerprinting a store-backed
trace is O(1).  The digest rides in ``trace.metadata`` under a derived
(underscore-prefixed) slot, so any mutation that changes the records
drops it automatically.

**Worker handoff** (:func:`export_traces` / :func:`resolve_traces`).
The resilient sweep executor hands workers *handles* -- a store path for
store-backed traces, a ``multiprocessing.shared_memory`` segment name
for heap traces -- instead of the traces themselves.  Workers reopen the
memmap (or attach the segment) after fork/spawn, so pool restarts ship
kilobytes of handles rather than gigabytes of records, and the executor
works under any start method.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro import telemetry
from repro.trace.record import Trace, _derived_free_metadata

__all__ = [
    "STORE_SUFFIX",
    "StoreCorruptError",
    "TraceStore",
    "trace_content_digest",
    "replay_chunk_records",
    "TraceHandle",
    "ShmLease",
    "export_traces",
    "resolve_traces",
]

#: Conventional file suffix for store files ("mlcache trace").
STORE_SUFFIX = ".mlt"

_MAGIC = b"MLCTRACE"
_VERSION = 1

#: Metadata slot holding a trace's cached content digest (derived:
#: underscore-prefixed, so every mutation path strips it).
CONTENT_DIGEST_SLOT = "_content_digest"

#: Metadata slot holding the store path a trace's arrays are mapped from.
STORE_PATH_SLOT = "_store_path"

#: Records hashed per update when digesting trace content; bounds hashing
#: residency to ~9 MB regardless of trace length.
_HASH_CHUNK_RECORDS = 1 << 20

#: Upper bound on a plausible header length; anything larger means the
#: length field itself is damaged (reading it as a size would try to
#: allocate garbage).
_MAX_HEADER_BYTES = 1 << 20


class StoreCorruptError(ValueError):
    """A store file is damaged: torn header, truncated segments, bad
    digest, or not a store at all.

    Subclasses :class:`ValueError` so callers of the original untyped
    errors keep working; integrity-aware callers (the workload disk
    cache, ``mlcache doctor``) catch this type specifically to
    quarantine the file and rebuild instead of crashing the sweep.
    ``FileNotFoundError`` and "unsupported store version" are *not*
    corruption and stay distinct.
    """


def _align(offset: int, boundary: int) -> int:
    return (offset + boundary - 1) // boundary * boundary


def _hash_array(array: np.ndarray) -> str:
    """Chunked SHA-256 of one raw segment (memmap-safe residency)."""
    hasher = hashlib.sha256()
    for start in range(0, len(array), _HASH_CHUNK_RECORDS):
        hasher.update(array[start : start + _HASH_CHUNK_RECORDS].tobytes())
    return hasher.hexdigest()


def content_digest(kinds: np.ndarray, addresses: np.ndarray) -> str:
    """SHA-256 over the raw kind and address segments, chunk by chunk.

    Fixed-size chunks keep peak residency bounded when the arrays are
    memmaps; the result is identical to hashing ``tobytes()`` of each
    whole array.
    """
    hasher = hashlib.sha256()
    for array in (kinds, addresses):
        for start in range(0, len(array), _HASH_CHUNK_RECORDS):
            hasher.update(array[start : start + _HASH_CHUNK_RECORDS].tobytes())
    return hasher.hexdigest()


def trace_content_digest(trace: Trace) -> str:
    """The trace's content digest, cached in its metadata.

    Store-opened traces carry the digest recorded at save time, so this
    is O(1) for them; heap traces pay one chunked hashing pass, once.
    """
    cached = trace.metadata.get(CONTENT_DIGEST_SLOT)
    if cached is not None:
        return cached
    digest = content_digest(trace.kinds, trace.addresses)
    trace.metadata[CONTENT_DIGEST_SLOT] = digest
    return digest


def replay_chunk_records() -> Optional[int]:
    """The configured streaming-replay chunk size, or ``None`` for off.

    Reads ``REPRO_TRACE_CHUNK`` through the central registry.  The sim
    kernels call this at dispatch time (not inside the memo-pure kernel
    functions) so chunked and whole-array replay stay interchangeable.
    """
    from repro.core import envcfg  # lazy: core package-init cycle

    chunk = int(envcfg.get("REPRO_TRACE_CHUNK"))  # type: ignore[arg-type]
    return chunk if chunk > 0 else None


@dataclass(frozen=True)
class TraceStore:
    """An opened (or just-written) store file's header."""

    path: Path
    records: int
    warmup: int
    name: str
    metadata: dict
    digest: str
    kinds_offset: int
    addresses_offset: int
    #: Per-segment digests, re-hashed by :meth:`verify`.
    kinds_digest: str
    addresses_digest: str

    @classmethod
    def save(cls, trace: Trace, path: Union[str, Path]) -> "TraceStore":
        """Write ``trace`` to ``path`` in the store format, atomically.

        Derived metadata is dropped (as with :meth:`Trace.save`) except
        for the content digest, which the format records explicitly --
        reusing a cached digest when the trace carries one.  The bytes
        land via the atomic-write primitive (tmp + fsync + rename), so a
        crash mid-save never leaves a torn store at ``path``.
        """
        # Lazy: the resilience package init pulls in sim modules; a
        # top-level import here would close that cycle.
        from repro.resilience.integrity import atomic_writer

        path = Path(path)
        digest = trace_content_digest(trace)
        kinds_digest = _hash_array(trace.kinds)
        addresses_digest = _hash_array(trace.addresses)
        metadata = _derived_free_metadata(trace.metadata)
        header = {
            "version": _VERSION,
            "records": len(trace),
            "warmup": trace.warmup,
            "name": trace.name,
            "metadata": metadata,
            "digest": digest,
            "kinds_digest": kinds_digest,
            "addresses_digest": addresses_digest,
        }
        # Two-pass header sizing: offsets depend on the header length,
        # which depends on the offsets' digit count.  The first pass uses
        # placeholder offsets plus slack covering any digit growth; the
        # second pass pads with spaces to the reserved length.
        header["kinds_offset"] = 0
        header["addresses_offset"] = 0
        blob = json.dumps(header).encode()
        kinds_offset = _align(16 + len(blob) + 40, 8)
        addresses_offset = _align(kinds_offset + len(trace), 8)
        header["kinds_offset"] = kinds_offset
        header["addresses_offset"] = addresses_offset
        blob = json.dumps(header).encode()
        if len(blob) > kinds_offset - 16:
            raise AssertionError("store header overflowed its reserved space")
        blob += b" " * (kinds_offset - 16 - len(blob))
        with telemetry.span("store.save", records=len(trace)):
            with atomic_writer(path) as handle:
                handle.write(_MAGIC)
                handle.write(len(blob).to_bytes(8, "little"))
                handle.write(blob)
                trace.kinds.tofile(handle)
                handle.write(
                    b"\0" * (addresses_offset - kinds_offset - len(trace))
                )
                trace.addresses.tofile(handle)
        telemetry.counter_add("store.saves")
        return cls(
            path=path,
            records=len(trace),
            warmup=trace.warmup,
            name=trace.name,
            metadata=metadata,
            digest=digest,
            kinds_offset=kinds_offset,
            addresses_offset=addresses_offset,
            kinds_digest=kinds_digest,
            addresses_digest=addresses_digest,
        )

    @classmethod
    def open(cls, path: Union[str, Path], verify: bool = False) -> "TraceStore":
        """Parse a store file's header; O(1) in the trace length.

        Any damage -- wrong magic, torn or unparseable header, segment
        offsets pointing past end of file -- raises
        :class:`StoreCorruptError`.  ``verify=True`` additionally
        re-hashes the data segments against the recorded digests (O(n),
        the only way to catch bit rot inside the segments).
        ``FileNotFoundError`` propagates unchanged, and a parseable
        header with an unknown version raises plain :class:`ValueError`
        (that file is healthy, just newer than this reader).
        """
        path = Path(path)
        with open(path, "rb") as handle:
            magic = handle.read(8)
            if magic != _MAGIC:
                raise StoreCorruptError(
                    f"{path} is not a trace store (bad magic)"
                )
            raw_length = handle.read(8)
            if len(raw_length) < 8:
                raise StoreCorruptError(f"{path}: truncated store header")
            length = int.from_bytes(raw_length, "little")
            if length > _MAX_HEADER_BYTES:
                raise StoreCorruptError(
                    f"{path}: implausible header length {length}"
                )
            blob = handle.read(length)
            if len(blob) < length:
                raise StoreCorruptError(f"{path}: truncated store header")
        try:
            header = json.loads(blob)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise StoreCorruptError(
                f"{path}: corrupt store header (unparseable JSON)"
            ) from None
        if not isinstance(header, dict):
            raise StoreCorruptError(
                f"{path}: corrupt store header (not an object)"
            )
        if header.get("version") != _VERSION:
            raise ValueError(
                f"{path}: unsupported store version {header.get('version')!r}"
            )
        try:
            records = int(header["records"])
            warmup = int(header["warmup"])
            name = str(header["name"])
            metadata = dict(header["metadata"])
            digest = str(header["digest"])
            kinds_offset = int(header["kinds_offset"])
            addresses_offset = int(header["addresses_offset"])
            kinds_digest = str(header["kinds_digest"])
            addresses_digest = str(header["addresses_digest"])
        except (KeyError, TypeError, ValueError):
            raise StoreCorruptError(
                f"{path}: corrupt store header (missing or malformed fields)"
            ) from None
        if (
            records < 0
            or kinds_offset < 16
            or addresses_offset < kinds_offset + records
        ):
            raise StoreCorruptError(
                f"{path}: corrupt store header (inconsistent layout)"
            )
        expected = addresses_offset + 8 * records
        actual = path.stat().st_size
        if actual < expected:
            raise StoreCorruptError(
                f"{path}: truncated store ({actual} bytes, need {expected})"
            )
        store = cls(
            path=path,
            records=records,
            warmup=warmup,
            name=name,
            metadata=metadata,
            digest=digest,
            kinds_offset=kinds_offset,
            addresses_offset=addresses_offset,
            kinds_digest=kinds_digest,
            addresses_digest=addresses_digest,
        )
        if verify:
            store.verify()
        return store

    def verify(self) -> None:
        """Re-hash the data segments against the recorded digests.

        Per-segment digests pinpoint which segment rotted: raises
        :class:`StoreCorruptError` naming the first mismatching segment.  Chunked hashing over the
        memmaps keeps residency bounded.
        """
        with telemetry.span("store.verify", records=self.records):
            self._verify()
        telemetry.counter_add("store.verifies")

    def _verify(self) -> None:
        kinds = np.memmap(
            self.path, dtype=np.uint8, mode="r",
            offset=self.kinds_offset, shape=(self.records,),
        )
        addresses = np.memmap(
            self.path, dtype=np.uint64, mode="r",
            offset=self.addresses_offset, shape=(self.records,),
        )
        if _hash_array(kinds) != self.kinds_digest:
            raise StoreCorruptError(
                f"{self.path}: kinds segment digest mismatch "
                f"(bit rot or torn write)"
            )
        if _hash_array(addresses) != self.addresses_digest:
            raise StoreCorruptError(
                f"{self.path}: addresses segment digest mismatch "
                f"(bit rot or torn write)"
            )

    def as_trace(self) -> Trace:
        """A trace whose arrays are read-only memmap views of the file.

        The recorded content digest is seeded into the trace's metadata
        (so fingerprinting never reads the data pages), together with the
        store path (so the sweep executor can hand workers the path
        instead of the bytes).  Both slots are derived metadata: slicing
        or re-marking warmup strips them, keeping stale handles from
        outliving the records they describe.
        """
        kinds = np.memmap(
            self.path, dtype=np.uint8, mode="r",
            offset=self.kinds_offset, shape=(self.records,),
        )
        addresses = np.memmap(
            self.path, dtype=np.uint64, mode="r",
            offset=self.addresses_offset, shape=(self.records,),
        )
        metadata = dict(self.metadata)
        metadata[CONTENT_DIGEST_SLOT] = self.digest
        metadata[STORE_PATH_SLOT] = str(self.path)
        # 1 kinds byte + 8 address bytes per record land as array views.
        telemetry.counter_add("store.bytes_mapped", self.records * 9)
        return Trace.trusted(kinds, addresses, self.name, self.warmup, metadata)


# -- worker handoff ----------------------------------------------------------


class TraceHandle(NamedTuple):
    """A picklable reference to one trace, resolvable in any process.

    ``kind`` selects the payload shape:

    * ``"store"`` -- ``(path,)``: reopen the store file as memmaps.
    * ``"shm"`` -- ``(segment_name, records, name, warmup, metadata)``:
      attach the shared-memory segment (kinds then 8-byte-aligned
      addresses, same layout as the store's data segments).
    * ``"inline"`` -- ``(trace,)``: the trace itself, for empty traces
      and as the fallback when shared memory is unavailable.
    """

    kind: str
    payload: tuple


class ShmLease(object):
    """Owns shared-memory segments exported to workers.

    The exporting (parent) process must keep the lease alive while any
    worker may attach, and call :meth:`release` when the pool is done --
    segments are named kernel objects that outlive processes until
    unlinked.  ``release`` is idempotent.
    """

    def __init__(self) -> None:
        self.segments: list = []

    def release(self) -> None:
        for segment in self.segments:
            try:
                segment.close()
                segment.unlink()
            except (BufferError, FileNotFoundError, OSError):  # pragma: no cover - racy cleanup
                pass
        self.segments = []


def _shm_layout(records: int) -> Tuple[int, int]:
    """(addresses offset, total size) of a shared trace segment."""
    addresses_offset = _align(records, 8)
    return addresses_offset, addresses_offset + 8 * records


def export_traces(traces: Sequence[Trace]) -> Tuple[List[TraceHandle], ShmLease]:
    """Build picklable handles for ``traces``, copying bytes at most once.

    Store-backed traces (opened via :meth:`TraceStore.as_trace`, path
    still present) export as path handles -- zero bytes copied.  Heap
    traces are copied once into a shared-memory segment that every
    worker attaches for the pool's lifetime; pool *restarts* then cost
    nothing.  Empty traces, and environments without working shared
    memory, fall back to inline handles (the pre-store behaviour).
    """
    lease = ShmLease()
    handles: List[TraceHandle] = []
    for trace in traces:
        path = trace.metadata.get(STORE_PATH_SLOT)
        if path is not None and Path(path).is_file():
            handles.append(TraceHandle("store", (str(path),)))
            continue
        if len(trace) == 0:
            handles.append(TraceHandle("inline", (trace,)))
            continue
        try:
            from multiprocessing import shared_memory

            addresses_offset, size = _shm_layout(len(trace))
            segment = shared_memory.SharedMemory(create=True, size=size)
        except (ImportError, OSError, ValueError):
            handles.append(TraceHandle("inline", (trace,)))
            continue
        lease.segments.append(segment)
        kinds = np.frombuffer(segment.buf, dtype=np.uint8, count=len(trace))
        addresses = np.frombuffer(
            segment.buf, dtype=np.uint64, count=len(trace),
            offset=addresses_offset,
        )
        kinds[:] = trace.kinds
        addresses[:] = trace.addresses
        # Keep derived slots that stay valid for identical records (the
        # digest and fingerprint), so workers skip re-hashing.
        metadata = {
            key: value
            for key, value in trace.metadata.items()
            if not (isinstance(key, str) and key.startswith("_"))
            or key in (CONTENT_DIGEST_SLOT, "_functional_fingerprint")
        }
        handles.append(
            TraceHandle(
                "shm",
                (segment.name, len(trace), trace.name, trace.warmup, metadata),
            )
        )
    return handles, lease


#: Worker-side keepalive: attached segments must outlive the numpy views
#: into their buffers for the rest of the worker process's life.
_ATTACHED: list = []


def _attach_untracked(segment_name: str) -> "SharedMemory":
    """Attach a shared-memory segment without resource-tracker tracking.

    On this Python, ``SharedMemory.__init__`` registers the segment with
    the resource tracker even for plain attaches.  The tracker's cache is
    a per-name *set*, so an attach-then-unregister from a worker would
    silently erase the exporting process's own registration (fork shares
    one tracker) and turn the final unlink into a tracker error.
    Suppressing shared-memory registration for the duration of the
    attach keeps ownership where it belongs: the :class:`ShmLease` in
    the exporting process.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def _skip_shared_memory(name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - defensive
            original(name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=segment_name)
    finally:
        resource_tracker.register = original


def resolve_traces(handles: Sequence[TraceHandle]) -> List[Trace]:
    """Materialise handles back into traces (worker side).

    Store handles reopen as memmaps; shm handles attach the segment and
    view it zero-copy.  Safe under fork and spawn alike -- nothing here
    depends on inherited state.
    """
    traces: List[Trace] = []
    for handle in handles:
        if handle.kind == "store":
            traces.append(TraceStore.open(handle.payload[0]).as_trace())
        elif handle.kind == "shm":
            segment_name, records, name, warmup, metadata = handle.payload
            segment = _attach_untracked(segment_name)
            _ATTACHED.append(segment)
            addresses_offset, _ = _shm_layout(records)
            kinds = np.frombuffer(segment.buf, dtype=np.uint8, count=records)
            addresses = np.frombuffer(
                segment.buf, dtype=np.uint64, count=records,
                offset=addresses_offset,
            )
            traces.append(Trace.trusted(kinds, addresses, name, warmup, metadata))
        elif handle.kind == "inline":
            traces.append(handle.payload[0])
        else:
            raise ValueError(f"unknown trace handle kind {handle.kind!r}")
    return traces
