"""The live-stream process under test: drives ``LiveEngine`` over
``planted_stream`` rounds and reports to its parent (live_bench.py).

Protocol: after start-up and a warm-up stream it prints ``ready <input
generation seconds>``, then reads one line: ``quit`` ends it, ``go``
starts the timed loop, whose result is printed as one JSON line.

    python3 perfbench/live_child.py SEED SECONDS TRACE SMOKE SPANS_PATH
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import inputs
from common import Spans, proc_status_mb
from repro.consistency.witness import is_witness
from repro.engine.live import LiveEngine

# Witnesses are checked at every SAMPLE_EVERY-th transaction boundary.
SAMPLE_EVERY = 25
WARM_TXNS = 30
WARM_ROUND = 1_000_000


def timed_loop(seed: int, seconds: float, spans: Spans | None,
               round_txns: int) -> dict:
    latencies, refold_flags = [], []
    counts = {"node_repairs": 0, "node_recomputes": 0,
              "repair_failures": 0, "bound_failures": 0,
              "snapshot_restores": 0}
    inconsistent = 0
    samples = []
    clock = 0.0
    round_index = 0
    request = 0
    while clock < seconds:
        bags, transactions = inputs.live_round(seed, round_index, round_txns)
        round_index += 1
        live = LiveEngine(bags)
        handles = live.handles
        live.global_check()  # builds the fold tree; not a transaction
        base = live.live_global_stats()
        before = base["node_recomputes"]
        for position, transaction in enumerate(transactions):
            if clock >= seconds:
                break
            start = time.perf_counter()
            if spans is None:
                for index, row, amount in transaction:
                    live.update(handles[index], row, amount)
                result = live.global_check()
            else:
                for index, row, amount in transaction:
                    spans.call("live.update", request, live.update,
                               handles[index], row, amount)
                result = spans.call("live.check", request, live.global_check)
            elapsed = time.perf_counter() - start
            clock += elapsed
            latencies.append(elapsed)
            request += 1
            now = live.live_global_stats()["node_recomputes"]
            refold_flags.append(now > before)
            before = now
            if not result.consistent:
                inconsistent += 1
            elif position % SAMPLE_EVERY == SAMPLE_EVERY - 1:
                samples.append(([h.bag() for h in handles], result.witness))
        end = live.live_global_stats()
        for key in counts:
            counts[key] += end[key] - base[key]
    bad_witnesses = sum(
        1 for bags, witness in samples
        if witness is None or not is_witness(bags, witness)
    )
    return {
        "latencies": latencies,
        "refolds": refold_flags,
        "counts": counts,
        "rounds": round_index,
        "inconsistent": inconsistent,
        "witness_samples": len(samples),
        "bad_witnesses": bad_witnesses,
        "rss_mb": proc_status_mb("self", "VmHWM"),
    }


def main() -> int:
    seed, seconds = int(sys.argv[1]), float(sys.argv[2])
    trace, smoke, spans_path = sys.argv[3] == "1", sys.argv[4] == "1", sys.argv[5]
    round_txns = (
        inputs.SMOKE_SCALE["round_txns"] if smoke else inputs.LIVE_ROUND_TXNS
    )
    start = time.perf_counter()
    bags, transactions = inputs.live_round(seed, WARM_ROUND, round_txns)
    generation = time.perf_counter() - start
    live = LiveEngine(bags)
    live.global_check()
    for transaction in transactions[:WARM_TXNS]:
        for index, row, amount in transaction:
            live.update(live.handles[index], row, amount)
        live.global_check()
    print("ready", generation, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    spans = Spans() if trace else None
    result = timed_loop(seed, seconds, spans, round_txns)
    if spans is not None:
        walls = result["latencies"]
        result["layers"] = {
            "update": list(spans.per_request("live.update").values()),
            "check": list(spans.per_request("live.check").values()),
            "coverage": spans.coverage(walls),
        }
        spans.write(Path(spans_path))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
