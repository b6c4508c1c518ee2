"""live-stream: ``LiveEngine`` in a fresh child process (live_child.py).

Each transaction applies its updates, then calls ``global_check``.  A
transaction during which the fold tree recomputed a node (a re-fold)
costs 0.5-1.7 s against a sub-millisecond repair, and only 15-20
fit in a window, so any figure that sums their time swings by a fifth
from seed to seed.  ``throughput_rps`` therefore counts the repaired
transactions per second of their own time; the re-folds are reported
beside it by the traced run (``live_global.refolds``,
``live_global.refold_ms``, ``live.refold_time_share``), and the latency
percentiles cover every transaction.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import OUT_DIR, ROOT, child_env, quantile

CHILD = Path(__file__).resolve().parent / "live_child.py"
READY_TIMEOUT = 120.0
RESULT_TIMEOUT = 170.0


class Child:
    def __init__(self, seed: int, seconds: float, trace: bool, smoke: bool,
                 spans_path: str, scratch) -> None:
        self._log = open(scratch.fresh("live") + ".log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(seed), repr(seconds),
             str(int(trace)), str(int(smoke)), spans_path],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,  # unbuffered, so select() sees every line
            stderr=self._log,
        )
        self.setup_seconds = self._await_ready()

    def _await_ready(self) -> float:
        readable, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT)
        line = self.proc.stdout.readline() if readable else b""
        if not line.startswith(b"ready "):
            self.kill()
            raise RuntimeError("live child did not become ready")
        generation = float(line.split()[1])
        return time.perf_counter() - self.started - generation

    def finish(self, command: str) -> tuple[bytes, list[str]]:
        """Send ``go`` or ``quit``; return stdout and hygiene problems."""
        problems = []
        try:
            out, _ = self.proc.communicate(
                (command + "\n").encode(), timeout=RESULT_TIMEOUT
            )
        except subprocess.TimeoutExpired:
            problems.append("live child timed out and was killed")
            self.kill()
            out = b""
        if self.proc.returncode != 0:
            problems.append(f"live child exited with code {self.proc.returncode}")
        self._log.close()
        return out, problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._log.close()


def run(seed: int, seconds: float, trace: bool, setups: int, smoke: bool,
        scratch) -> dict:
    spans_path = str(Path(OUT_DIR) / f"live-stream-seed{seed}.spans.json")
    problems: list[str] = []
    setup_times = []
    child = None
    try:
        for attempt in range(setups):
            child = Child(seed, seconds, trace, smoke, spans_path, scratch)
            setup_times.append(child.setup_seconds)
            if attempt < setups - 1:
                problems += child.finish("quit")[1]
                child = None
        out, more = child.finish("go")
        child = None
    finally:
        if child is not None:
            child.kill()
    problems += more
    loop = json.loads(out.decode().strip().splitlines()[-1])
    latencies = loop["latencies"]
    repaired = [x for x, refold in zip(latencies, loop["refolds"]) if not refold]
    refolds = [x for x, refold in zip(latencies, loop["refolds"]) if refold]
    failed = loop["inconsistent"] + loop["bad_witnesses"]
    result = {
        "attempted": len(latencies),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "e2e": {
            "setup_s": median(setup_times),
            "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
            "latency_p90_ms": quantile(latencies, 0.90) * 1e3,
            "throughput_rps": len(repaired) / sum(repaired),
            "rss_mb": loop["rss_mb"],
        },
        "samples": {
            "latency": len(latencies),
            "setup": len(setup_times),
            "refold_transactions": len(refolds),
            "rounds": loop["rounds"],
            "witness_checks": loop["witness_samples"],
        },
        "detail": {
            "child_problems": problems,
            "refold_seconds": sum(refolds),
            "all_transactions_rps": len(latencies) / sum(latencies),
        },
    }
    if trace:
        counts = loop["counts"]
        attempts = (counts["node_repairs"] + counts["repair_failures"]
                    + counts["bound_failures"])
        per_ktxn = 1000.0 / len(latencies)
        layers = loop["layers"]
        result["layers"] = {
            "live.update_ms": median(layers["update"]) * 1e3,
            "live.check_ms": median(layers["check"]) * 1e3,
            "live_global.repairs": counts["node_repairs"] * per_ktxn,
            "live_global.refolds": counts["node_recomputes"] * per_ktxn,
            "live_global.snapshot_restores": counts["snapshot_restores"] * per_ktxn,
            "live_global.repair_failure_share": (
                (counts["repair_failures"] + counts["bound_failures"]) / attempts
                if attempts else 0.0
            ),
            "live_global.refold_ms": median(refolds) * 1e3 if refolds else 0.0,
            "live.refold_time_share": sum(refolds) / sum(latencies),
            "trace.coverage": layers["coverage"],
        }
    return result
