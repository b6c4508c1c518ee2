"""Pluggable execution backends for the batched engine entry points.

Three backends, selected by name (``backend=`` on the ``*_many``
methods, ``--backend`` on ``repro batch`` / ``repro serve``):

* ``serial`` — plain loop, no pools.  The default when no parallelism
  is requested.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor` over
  the pure kernels.  Workers share the engine's verdict store, so this
  backend shines on cache-heavy workloads (overlapping pairs, repeated
  suites) but cannot speed up CPU-bound misses: the interpreter lock
  serializes them.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  The engine pre-filters the batch against its store, ships the
  *misses* as fingerprint-ref jobs over a per-batch bag table — each
  distinct bag travels once, as a shared-memory wire frame when its
  encoding is large enough (see ``SHM_MIN_BYTES``) and as a pickle
  otherwise; fingerprints are seeded on arrival so workers never
  rescan — and each worker runs the batch through a private engine.
  Workers return their store's **verdict deltas** — every
  ``(key, value, participant_fps)`` they computed — which the parent
  merges back into the shared store; fingerprint keys are
  process-independent, so a final local replay of the whole batch is
  pure hits.  This is the only backend that scales the CPU-bound
  global checks (Theorem 4 search instances) across cores.

``backend=None`` preserves the PR-2 contract: serial unless
``parallelism > 1``, which selects threads.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import TYPE_CHECKING

from ..analysis.registry import register_lock
from ..errors import InconsistentError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

# Process fan-out latency: the whole ship-misses/merge-deltas phase
# (zero-sample when every job is a hit — the pre-filter skipped it).
_PROCESS_HISTOGRAM = obs_metrics.REGISTRY.histogram(
    "repro_executor_process_seconds"
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bags import Bag
    from .session import Engine

__all__ = [
    "BACKENDS",
    "SHM_MIN_BYTES",
    "SerialExecutor",
    "ThreadExecutor",
    "active_shm_segments",
    "is_process_backend",
    "resolve_executor",
    "run_process_batch",
    "set_wire_format",
]

BACKENDS = ("serial", "thread", "process")

# Payload transport for the process backend: "columnar" spills large
# encodings to shared memory (below), "json" ships pickles only (the
# --wire-format knob).  Plain module global: flipped by the CLI driver
# before any pool spins up, never under concurrency.
_WIRE_FORMAT = "columnar"

# Encodings smaller than this ride the pickle path: mapping a segment
# costs two syscalls per worker, which only amortizes on real arrays.
# Module attribute (read at call time) so tests can force tiny spills.
SHM_MIN_BYTES = 1 << 16


def set_wire_format(wire_format: str) -> None:
    """Select the process-backend payload transport (CLI knob)."""
    if wire_format not in ("json", "columnar"):
        raise ValueError(
            f"unknown wire_format {wire_format!r}; "
            "choose 'json' or 'columnar'"
        )
    global _WIRE_FORMAT
    _WIRE_FORMAT = wire_format


# Live spill segments, keyed by shm name.  The parent creates one per
# process batch and unlinks it in the batch's ``finally``; the registry
# exists so tests (and embedders) can assert nothing leaked.  Creation
# also registers with multiprocessing's resource tracker, which unlinks
# on hard parent death — the unlink-on-crash guarantee.
_ACTIVE_SEGMENTS: dict = {}
_SHM_LOCK = register_lock(
    "_SHM_LOCK", threading.Lock(), tier="store",
    containers=("_ACTIVE_SEGMENTS",),
)


def active_shm_segments() -> tuple[str, ...]:
    """Names of spill segments this process currently owns (empty
    outside a running process batch — the leak-check hook)."""
    with _SHM_LOCK:
        return tuple(_ACTIVE_SEGMENTS)


def _default_workers(parallelism: int | None) -> int:
    if parallelism is not None:
        if parallelism < 1:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}"
            )
        return parallelism
    return os.cpu_count() or 1


class SerialExecutor:
    """The no-pool baseline: apply ``fn`` in submission order."""

    name = "serial"

    def run(self, fn, items: list) -> list:
        return [fn(item) for item in items]


class ThreadExecutor:
    """A bounded thread pool.  The kernels are pure and the verdict
    store is lock-protected, so workers share hits; two workers racing
    on the same miss at worst compute it twice (deterministic results —
    one entry survives)."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"parallelism must be positive, got {workers}")
        self.workers = workers

    def run(self, fn, items: list) -> list:
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import ThreadPoolExecutor

        trace = obs_trace.current()
        if trace is not None:
            # Propagate the request trace into pool threads: contexts
            # cannot run concurrently, so each call re-sets the var
            # around the shared (lock-protected) trace object.
            inner = fn

            def fn(item):
                with obs_trace.activate(trace):
                    return inner(item)

        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(items))
        ) as pool:
            return list(pool.map(fn, items))


def is_process_backend(backend: str | None) -> bool:
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose one of {BACKENDS}"
        )
    return backend == "process"


def resolve_executor(
    backend: str | None, parallelism: int | None, n_items: int
):
    """The in-process executor for a batch (``process`` is handled by
    :func:`run_process_batch` before this is consulted)."""
    if backend is None:
        # Legacy contract: parallelism alone selects threads.
        if parallelism is not None and parallelism < 1:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}"
            )
        if parallelism is None or parallelism == 1:
            return SerialExecutor()
        return ThreadExecutor(parallelism)
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(_default_workers(parallelism))
    raise ValueError(
        f"unknown backend {backend!r}; choose one of {BACKENDS}"
    )


# -- the process backend ------------------------------------------------
#
# Jobs travel as fingerprint references; the bags themselves ship once
# per distinct fingerprint per batch, in a side table split two ways:
#   * large columnar-eligible bags: one shared-memory segment holding a
#     wire-format spill frame (workers map it read-only and decode only
#     the fingerprints their chunk references);
#   * everything else: plain pickles.
# Workers seed every fingerprint on arrival, so they never rescan.
# Job shapes: "consistent"/"witness" -> (left_fp, right_fp);
#             "global"               -> (fps...).


def _shm_module():
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without shm
        return None
    return shared_memory


def _attach_segment(name: str):
    shared_memory = _shm_module()
    try:
        # track=False (3.13+): an attach must not register with the
        # worker's resource tracker — the parent owns the lifetime.
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _adopt_spill(shm_ref: tuple, needed: set) -> dict:
    """Worker side: map the parent's spill segment read-only, decode
    the needed fingerprints (owned copies), detach."""
    from . import wire

    if not needed:
        return {}
    name, nbytes = shm_ref
    segment = _attach_segment(name)
    try:
        table = wire.decode_bag_table(segment.buf[:nbytes], only=needed)
        wire.count_shm("segments_adopted")
        return table
    finally:
        # decode returns owned arrays/rows and its transient views die
        # with its frame; if it *raised*, the in-flight traceback can
        # still pin a view — suppress the BufferError rather than mask
        # the real error (the mapping dies with the worker anyway).
        with contextlib.suppress(BufferError):
            segment.close()


def _build_spill(bags_by_fp: dict):
    """Parent side: partition a batch's distinct bags into one spill
    frame (encodings at least ``SHM_MIN_BYTES``) and a pickle
    remainder.  Returns ``(segment, (name, nbytes) or None, pickled)``;
    any shm failure falls back to pickling everything."""
    pickled = dict(bags_by_fp)
    if _WIRE_FORMAT != "columnar" or _shm_module() is None:
        return None, None, pickled
    from . import wire

    entries = []
    for fp, bag in bags_by_fp.items():
        # cheap size floor before touching the encoder: the code matrix
        # alone is n x attrs x 8 bytes, so a bag that cannot clear the
        # floor is pickled without ever paying for an export
        estimate = len(bag) * len(bag.schema.attrs) * 8
        if estimate < SHM_MIN_BYTES:
            continue
        encoded = wire.portable_bag(bag)
        if encoded is not None:
            entries.append((fp, encoded))
    if not entries:
        return None, None, pickled
    frame = wire.encode_bag_table(entries)
    shared_memory = _shm_module()
    try:
        segment = shared_memory.SharedMemory(create=True, size=len(frame))
    except OSError:  # /dev/shm unavailable or full: pickle everything
        return None, None, pickled
    segment.buf[:len(frame)] = frame
    with _SHM_LOCK:
        _ACTIVE_SEGMENTS[segment.name] = segment
    wire.count_shm("segments_created")
    wire.count_shm("bytes_spilled", len(frame))
    for fp, _ in entries:
        del pickled[fp]
    return segment, (segment.name, len(frame)), pickled


def _release_segment(segment) -> None:
    """Parent side: drop the registry entry, close, unlink.  Runs in
    the batch's ``finally`` — no worker reads past this point (the pool
    has been joined)."""
    with _SHM_LOCK:
        _ACTIVE_SEGMENTS.pop(segment.name, None)
    with contextlib.suppress(BufferError):
        segment.close()
    with contextlib.suppress(FileNotFoundError):
        segment.unlink()


def _worker_run(
    kind: str,
    jobs: list,
    pickled: dict,
    shm_ref: tuple | None,
    node_budget: int | None,
    minimal: bool,
    method: str,
    trace_id: str | None = None,
):
    """Top-level (picklable) worker body: thaw the bag table (pickles +
    spill segment), run the fingerprint-ref jobs through a private
    engine, and return the engine's verdict deltas plus the worker's
    span deltas (``trace_id`` rides in with the payload; spans ride
    back and merge like verdicts)."""
    from . import fingerprint
    from .session import Engine

    with obs_trace.worker_trace(trace_id) as worker_span_sink:
        table = {
            fp: fingerprint.seed(bag, fp) for fp, bag in pickled.items()
        }
        if shm_ref is not None:
            needed = set()
            for job in jobs:
                needed.update(job)
            table.update(_adopt_spill(shm_ref, needed - set(table)))
        engine = Engine(node_budget=node_budget)
        start = time.perf_counter()
        if kind == "global":
            engine.global_check_many(
                [[table[fp] for fp in fps] for fps in jobs], method=method
            )
        else:
            pairs = [(table[lfp], table[rfp]) for lfp, rfp in jobs]
            if kind == "consistent":
                engine.are_consistent_many(pairs)
            else:
                engine.witness_many(pairs, minimal=minimal)
        if worker_span_sink is not None:
            worker_span_sink.add_span(
                "worker.chunk", start, time.perf_counter() - start,
                kind=kind, jobs=len(jobs),
            )
    spans = (
        worker_span_sink.export_spans()
        if worker_span_sink is not None else []
    )
    return engine.store.export(), spans


def run_process_batch(
    engine: "Engine",
    kind: str,
    items: list,
    parallelism: int | None,
    minimal: bool = False,
    method: str = "auto",
) -> list:
    """Fan a batch's cache misses over worker processes, merge their
    verdict deltas into ``engine``'s store, then replay the whole batch
    locally (hits all the way down, preserving order, ``None``
    refusals, and exception behaviour).  A miss touching a
    :class:`~repro.engine.session.BagRef` raises
    :class:`~repro.engine.session.BagsWanted` before anything ships:
    a ref has no contents to compute on."""
    from .session import BagRef, BagsWanted, bag_fp, job_key

    workers = _default_workers(parallelism)
    bags_by_fp: "dict[int, Bag]" = {}

    def note(bag: "Bag") -> int:
        fp = bag_fp(bag)
        bags_by_fp.setdefault(fp, bag)
        return fp

    if kind == "global":
        frozen = [tuple(note(bag) for bag in item) for item in items]
    else:
        frozen = [(note(left), note(right)) for left, right in items]
    missing: list = []
    seen_keys: set[tuple] = set()
    for entry in frozen:
        # the key a local replay of this job will probe: the pre-filter
        # that keeps already-answered jobs off the wire
        key = job_key(kind, entry, minimal=minimal, method=method)
        if engine.store.contains(key) or key in seen_keys:
            continue  # answered, or a duplicate job: ship it once
        seen_keys.add(key)
        missing.append(entry)
    refs = [
        fp for entry in missing for fp in entry
        if type(bags_by_fp[fp]) is BagRef
    ]
    if refs:
        raise BagsWanted(refs)
    if missing and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        trace = obs_trace.current()
        trace_id = trace.trace_id if trace is not None else None
        batch_start = time.perf_counter()
        needed: set[int] = set()
        for entry in missing:
            needed.update(entry)
        segment, shm_ref, pickled = _build_spill(
            {fp: bags_by_fp[fp] for fp in needed}
        )
        n_chunks = min(workers, len(missing))
        chunks = [missing[i::n_chunks] for i in range(n_chunks)]
        try:
            with ProcessPoolExecutor(max_workers=n_chunks) as pool:
                futures = []
                for chunk in chunks:
                    chunk_fps: set[int] = set()
                    for entry in chunk:
                        chunk_fps.update(entry)
                    futures.append(pool.submit(
                        _worker_run,
                        kind,
                        chunk,
                        {
                            fp: pickled[fp]
                            for fp in chunk_fps if fp in pickled
                        },
                        shm_ref,
                        engine.node_budget,
                        minimal,
                        method,
                        trace_id,
                    ))
                for index, future in enumerate(futures):
                    deltas, worker_spans = future.result()
                    engine.store.merge(deltas)
                    if trace is not None and worker_spans:
                        trace.merge_remote(worker_spans, worker=index)
        finally:
            if segment is not None:
                _release_segment(segment)
        elapsed = time.perf_counter() - batch_start
        _PROCESS_HISTOGRAM.record(elapsed)
        if trace is not None:
            trace.add_span(
                "executor.process_batch", batch_start, elapsed,
                kind=kind, misses=len(missing), workers=n_chunks,
            )
        # A persistent store makes merged worker deltas durable at the
        # batch boundary (no-op 0 for the in-memory store): a daemon
        # killed right after a process batch keeps those verdicts.
        engine.flush()
    # Replay locally: merged misses are hits; anything left (workers
    # disabled, or a racing invalidation) is computed here.
    if kind == "consistent":
        return [engine.are_consistent(left, right) for left, right in items]
    if kind == "witness":
        results = []
        for left, right in items:
            try:
                results.append(engine.witness(left, right, minimal=minimal))
            except InconsistentError:
                results.append(None)
        return results
    return [
        engine.global_check(collection, method=method)
        for collection in items
    ]
