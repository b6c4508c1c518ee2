"""E-WIRE — dictionary-coded frames over the socket, shm spill to workers.

Two claims:

1. **Columnar frames beat JSON rows on the serve socket.**  Replaying a
   stream of wide two-bag batches against one ``repro serve`` daemon, a
   ``wire_format="columnar"`` client — which ships each bag once as
   dense int64 code arrays plus dictionary slices, and whose seeded
   fingerprints let the daemon adopt the encoding without re-encoding
   — completes the stream at least ``MIN_WIRE_SPEEDUP``x faster than a
   ``wire_format="json"`` client sending the same bags as sorted row
   lists.  Reports are asserted bit-identical between the two formats.

2. **Shared-memory spill beats pickled rows into worker processes.**
   On wide-schema batches whose encodings clear ``SHM_MIN_BYTES``, the
   process executor's one-segment-per-batch spill (workers map the
   segment read-only and decode only the fingerprints their chunk
   needs) is at least ``MIN_SHM_SPEEDUP``x faster than forcing the
   pickle fallback (``set_wire_format("json")``).  On small payloads —
   below the spill floor, where both paths pickle — the columnar
   setting must not be slower than ``SMALL_SLACK`` allows.  Verdicts
   are asserted identical on every path.

``REPRO_BENCH_SMOKE=1`` shrinks sizes and loosens the gates so CI
replays the file in seconds; ``REPRO_BENCH_OUT=path`` writes the
measured trajectory (CI stores it as ``BENCH_wire.json``).
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.engine import columnar, executors, wire
from repro.engine.index import BagIndex
from repro.engine.session import Engine
from repro.obs import percentiles
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import wide_planted_pair

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

pytestmark = pytest.mark.skipif(
    not columnar.AVAILABLE,
    reason="wire bench measures the columnar fast path; numpy required",
)

# -- claim 1: columnar frames vs JSON rows over the socket --------------
# Values repeat (domain << rows x width) so the dictionary pays for
# itself: tiny value slices in the header, dense code gathers on both
# ends, and seeded fingerprints instead of per-row rehashing.
WIRE_N_PAIRS = 2 if SMOKE else 4
WIRE_N_ROWS = 512 if SMOKE else 8192
WIRE_DOMAIN = 1 << 12
WIRE_N_ROUNDS = 2 if SMOKE else 4
MIN_WIRE_SPEEDUP = 1.2 if SMOKE else 2.0

# -- claim 2: shm spill vs pickled rows into the process pool -----------
SHM_N_PAIRS = 4 if SMOKE else 8
SHM_N_ROWS = 2048 if SMOKE else 8192
SHM_DOMAIN = 1 << 10
SHM_WORKERS = 2 if SMOKE else 4
MIN_SHM_SPEEDUP = 0.9 if SMOKE else 1.25
SMALL_N_PAIRS = 16 if SMOKE else 64
SMALL_SLACK = 2.0 if SMOKE else 1.5

_MEASUREMENTS: dict = {
    "bench": "wire",
    "smoke": SMOKE,
}


def wide_pairs(
    n_pairs: int, n_rows: int, base_seed: int, domain: int
) -> list:
    """Consistent wide pairs over a shared repeated-value domain
    (disjoint seeds keep the store from collapsing distinct pairs into
    one job)."""
    pairs = []
    for i in range(n_pairs):
        rng = random.Random(base_seed + i)
        _, r, s = wide_planted_pair(rng, n_rows=n_rows, domain_size=domain)
        pairs.append((r, s))
    return pairs


def run_stream(
    address, wire_format: str, payloads
) -> tuple[float, list, list]:
    """One client, ``WIRE_N_ROUNDS`` replays of the payload stream."""
    with ServeClient(address, wire_format=wire_format) as client:
        client.request({"op": "ping"})  # connection + negotiation warmup
        reports = []
        samples = []
        start = time.perf_counter()
        for _ in range(WIRE_N_ROUNDS):
            for payload in payloads:
                tick = time.perf_counter()
                response = client.request(payload)
                samples.append(time.perf_counter() - tick)
                assert response["ok"], response
                reports.append(response["report"]["pairs"])
        elapsed = time.perf_counter() - start
    return elapsed, reports, samples


def test_columnar_frames_beat_json_rows_over_the_socket():
    """Gate 1: same jobs, same daemon — frames must win on the wire."""
    pairs = wide_pairs(
        WIRE_N_PAIRS, WIRE_N_ROWS, base_seed=710_000, domain=WIRE_DOMAIN
    )
    payloads = [{"pairs": [[r, s]]} for r, s in pairs]

    server = ReproServer()
    address = server.bind_tcp()
    server.serve_in_background()
    try:
        # one warmup pass per format so the store and both codecs are
        # hot before either side is timed
        run_stream_once = [{"pairs": [[r, s]]} for r, s in pairs[:1]]
        for fmt in ("json", "columnar"):
            with ServeClient(address, wire_format=fmt) as client:
                client.request(run_stream_once[0])

        before = wire.wire_stats()
        json_elapsed, json_reports, json_samples = run_stream(
            address, "json", payloads
        )
        mid = wire.wire_stats()
        col_elapsed, col_reports, col_samples = run_stream(
            address, "columnar", payloads
        )
        after = wire.wire_stats()
    finally:
        server.shutdown()

    assert json_reports == col_reports  # bit-identical across formats
    assert all(
        section == [{"consistent": True}] for section in json_reports
    )

    json_bytes = mid["wire_json_bytes"] - before["wire_json_bytes"]
    frame_bytes = (
        after["wire_frame_bytes_encoded"] - mid["wire_frame_bytes_encoded"]
    )
    speedup = json_elapsed / col_elapsed
    byte_ratio = json_bytes / frame_bytes if frame_bytes else float("inf")
    print(
        f"\nwire stream ({WIRE_N_PAIRS} pairs x {WIRE_N_ROWS} rows x "
        f"{WIRE_N_ROUNDS} rounds): json {json_elapsed * 1000:.0f} ms "
        f"({json_bytes / 1e6:.1f} MB), columnar "
        f"{col_elapsed * 1000:.0f} ms ({frame_bytes / 1e6:.1f} MB), "
        f"speedup {speedup:.2f}x, byte ratio {byte_ratio:.2f}x"
    )
    _MEASUREMENTS["wire_stream"] = {
        "n_pairs": WIRE_N_PAIRS,
        "n_rows": WIRE_N_ROWS,
        "n_rounds": WIRE_N_ROUNDS,
        "json_seconds": json_elapsed,
        "columnar_seconds": col_elapsed,
        "json_bytes": json_bytes,
        "frame_bytes": frame_bytes,
        "byte_ratio": byte_ratio,
        "speedup": speedup,
        "min_speedup": MIN_WIRE_SPEEDUP,
        "latency": {
            "json_request": percentiles(json_samples),
            "columnar_request": percentiles(col_samples),
        },
    }
    _write_out()
    assert speedup >= MIN_WIRE_SPEEDUP, (
        f"columnar frames only {speedup:.2f}x over JSON rows "
        f"(required {MIN_WIRE_SPEEDUP}x)"
    )


def run_process_batch(pairs, wire_format: str) -> tuple[float, list]:
    executors.set_wire_format(wire_format)
    try:
        engine = Engine()
        start = time.perf_counter()
        verdicts = engine.are_consistent_many(
            pairs, parallelism=SHM_WORKERS, backend="process"
        )
        elapsed = time.perf_counter() - start
    finally:
        executors.set_wire_format("columnar")
    assert executors.active_shm_segments() == ()
    return elapsed, verdicts


def test_shm_spill_beats_pickle_on_wide_batches():
    """Gate 2a: wide payloads must travel faster through the segment."""
    pairs = wide_pairs(
        SHM_N_PAIRS, SHM_N_ROWS, base_seed=720_000, domain=SHM_DOMAIN
    )
    # warm the parent-side encodings outside the timed region: the shm
    # path ships them as-is (that is the claim), while the pickle path
    # cannot carry them at all — workers re-encode from rows either way
    for r, s in pairs:
        columnar.of_index(BagIndex.of(r))
        columnar.of_index(BagIndex.of(s))

    pickle_elapsed, pickle_verdicts = run_process_batch(pairs, "json")
    before = wire.wire_stats()["shm_segments_created"]
    shm_elapsed, shm_verdicts = run_process_batch(pairs, "columnar")
    assert wire.wire_stats()["shm_segments_created"] == before + 1

    assert shm_verdicts == pickle_verdicts == [True] * SHM_N_PAIRS
    speedup = pickle_elapsed / shm_elapsed
    print(
        f"\nshm spill ({SHM_N_PAIRS} pairs x {SHM_N_ROWS} rows, "
        f"{SHM_WORKERS} workers): pickle {pickle_elapsed * 1000:.0f} ms, "
        f"shm {shm_elapsed * 1000:.0f} ms, speedup {speedup:.2f}x"
    )
    _MEASUREMENTS["shm_wide"] = {
        "n_pairs": SHM_N_PAIRS,
        "n_rows": SHM_N_ROWS,
        "workers": SHM_WORKERS,
        "pickle_seconds": pickle_elapsed,
        "shm_seconds": shm_elapsed,
        "speedup": speedup,
        "min_speedup": MIN_SHM_SPEEDUP,
    }
    _write_out()
    assert speedup >= MIN_SHM_SPEEDUP, (
        f"shm spill only {speedup:.2f}x over pickle on wide batches "
        f"(required {MIN_SHM_SPEEDUP}x)"
    )


def test_shm_floor_keeps_small_batches_fast():
    """Gate 2b: below ``SHM_MIN_BYTES`` nothing spills, so the columnar
    setting must cost (about) nothing on small payloads."""
    pairs = wide_pairs(
        SMALL_N_PAIRS, 48, base_seed=730_000, domain=SHM_DOMAIN
    )

    before = wire.wire_stats()["shm_segments_created"]
    shm_elapsed, shm_verdicts = run_process_batch(pairs, "columnar")
    assert wire.wire_stats()["shm_segments_created"] == before
    pickle_elapsed, pickle_verdicts = run_process_batch(pairs, "json")

    assert shm_verdicts == pickle_verdicts == [True] * SMALL_N_PAIRS
    ratio = shm_elapsed / pickle_elapsed
    print(
        f"\nshm floor ({SMALL_N_PAIRS} small pairs): pickle "
        f"{pickle_elapsed * 1000:.0f} ms, columnar setting "
        f"{shm_elapsed * 1000:.0f} ms, ratio {ratio:.2f}x "
        f"(allowed {SMALL_SLACK}x)"
    )
    _MEASUREMENTS["shm_small"] = {
        "n_pairs": SMALL_N_PAIRS,
        "pickle_seconds": pickle_elapsed,
        "shm_seconds": shm_elapsed,
        "ratio": ratio,
        "max_ratio": SMALL_SLACK,
    }
    _write_out()
    assert ratio <= SMALL_SLACK, (
        f"columnar setting {ratio:.2f}x slower than pickle on small "
        f"payloads (allowed {SMALL_SLACK}x)"
    )


def _write_out() -> None:
    """Write the trajectory after every gate so a failing assert still
    leaves the measurements behind (CI uploads them on failure too)."""
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(_MEASUREMENTS, fh, indent=2)
