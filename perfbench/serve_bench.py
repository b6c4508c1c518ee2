"""The three serve workloads: a real ``repro serve`` daemon started as
a subprocess, driven by closed-loop clients from this process.

A closed loop models ``ServeClient`` callers: each connection sends its
next request only after the previous reply arrived.  Per connection,
a window clock runs only while a request is in flight; input
generation and answer checks happen with the clock stopped, and the
loop ends when the clock reaches ``--seconds``.
"""

from __future__ import annotations

import io
import json
import os
import select
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median

import inputs
from common import (
    ROOT,
    Spans,
    child_env,
    child_pids,
    proc_status_mb,
    quantile,
)
from repro.consistency.pairwise import (
    ALL_DECIDERS,
    consistent_via_integer_search,
    consistent_via_witness_search,
)
from repro.consistency.witness import is_witness
from repro.engine import columnar, fingerprint, wire
from repro.engine.index import BagIndex
from repro.engine.jobs import parse_jobs, run_jobs
from repro.engine.reference import seed_are_consistent
from repro.engine.session import Engine
from repro.errors import ReproError, SearchLimitExceeded
from repro.io import bag_from_dict
from repro.server import ServeClient

READY_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 120.0
# Node budget for the two exponential Lemma 2 deciders in the small-hot
# oracle check; a search that runs out is recorded as undecided.
ORACLE_NODE_BUDGET = 2000
# Warm-up requests on wide-cold (items far from the timed ones).
WIDE_WARM_ITEMS = (1_000_000, 1_000_001)
# Requests replayed in process by a traced run: new pairs on wide-cold,
# cycles over the primed set elsewhere (a few seconds of replay each).
REPLAY_WIDE_COLD = 24


class Daemon:
    """One ``repro serve`` subprocess on a fresh socket (and, when
    durable, a fresh store directory)."""

    def __init__(self, scratch, witnesses: bool, durable: bool) -> None:
        self.socket = scratch.fresh("s") + ".sock"
        argv = [sys.executable, "-m", "repro", "serve", "--socket", self.socket]
        if witnesses:
            argv.append("--witnesses")
        self.store_dir = scratch.fresh("store") if durable else None
        if durable:
            argv += ["--store-dir", self.store_dir]
        self._log = open(scratch.fresh("daemon") + ".log", "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            bufsize=0,  # unbuffered, so select() sees every line
            stderr=self._log,
        )
        self._await_ready()

    def _await_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise RuntimeError("daemon did not announce its socket")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not readable:
                continue
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise RuntimeError(
                    f"daemon exited during start-up (code {self.proc.wait()})"
                )
            if line.startswith(b"serving on unix socket"):
                return

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self, wire_format: str) -> ServeClient:
        return ServeClient(
            self.socket, timeout=REQUEST_TIMEOUT, wire_format=wire_format
        )

    def stats(self) -> dict:
        with self.client("json") as client:
            return client.request({"op": "stats"})

    def stop(self, notes: list[str]) -> list[str]:
        """Shut down through the ``shutdown`` op, kill on timeout, and
        report every hygiene problem seen on the way.

        A lost reply to the op goes to ``notes``, not to the problems:
        the daemon can exit before its handler thread (a daemon thread)
        writes the reply, and whether it stopped cleanly is settled by
        the exit code, the timeout and the socket file."""
        problems = []
        try:
            leftover = child_pids(self.pid)
        except OSError:
            leftover = []
        if leftover:
            problems.append(f"daemon has child processes {leftover}")
        try:
            with self.client("json") as client:
                client.request({"op": "shutdown"})
        except (OSError, ReproError) as exc:
            notes.append(f"shutdown op got no reply: {exc}")
        try:
            code = self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            problems.append("daemon ignored shutdown and was killed")
            self.kill()
            code = self.proc.returncode
        if code != 0:
            problems.append(f"daemon exited with code {code}")
        if os.path.exists(self.socket):
            problems.append("daemon left its socket file behind")
        self._close_pipes()
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.proc.stdout.close()
        self._log.close()


# -- per-workload traffic ---------------------------------------------


class WideTraffic:
    """wide-cold / wide-repeat: v2 frames from one connection to a
    daemon with ``--witnesses --store-dir``."""

    wire_format = "columnar"
    clients = 1
    witnesses = True
    durable = True
    replay_cycles = 4

    def __init__(self, seed: int, repeat: bool, rows: int) -> None:
        self.seed = seed
        self.repeat = repeat
        self.rows = rows
        self._verified: dict[int, dict] = {}
        self.warm_items = (
            list(range(inputs.WIDE_REPEAT_PAIRS)) if repeat
            else list(WIDE_WARM_ITEMS)
        )
        self._warm = {
            item: inputs.wide_pair(seed, item, rows)
            for item in self.warm_items
        }
        self._last: tuple = (None, None)

    def item(self, client: int, k: int) -> int:
        return k % inputs.WIDE_REPEAT_PAIRS if self.repeat else k

    def pair(self, item: int):
        if item in self._warm:
            return self._warm[item]
        # wide-cold: a new pair per request, kept only until its check
        if self._last[0] != item:
            self._last = (item, inputs.wide_pair(self.seed, item, self.rows))
        return self._last[1]

    def payload(self, item: int) -> dict:
        r, s, _ = self.pair(item)
        return {"pairs": [[r, s]]}

    def check(self, item: int, response: dict) -> bool:
        r, s, consistent = self.pair(item)
        try:
            entry = response["report"]["pairs"][0]
        except (KeyError, IndexError, TypeError):
            return False
        if not response.get("ok") or entry.get("consistent") is not consistent:
            return False
        if not consistent:
            return "witness" not in entry
        witness = entry.get("witness")
        if witness is None:
            return False
        if self._verified.get(item) == witness:
            return True  # byte-equal to a witness already verified
        if not is_witness([r, s], bag_from_dict(witness)):
            return False
        self._verified[item] = witness
        return True


class SmallTraffic:
    """small-hot: newline JSON from two connections to an in-memory
    daemon, over a fixed set of 64 small jobs."""

    wire_format = "json"
    clients = 2
    witnesses = False
    durable = False
    replay_cycles = 20

    def __init__(self, seed: int) -> None:
        import random

        self.jobs = inputs.small_jobs(seed)
        self.warm_items = list(range(len(self.jobs)))
        order = random.Random(f"{seed}:small-order")
        self._orders = [
            order.sample(self.warm_items, len(self.warm_items))
            for _ in range(self.clients)
        ]

    def item(self, client: int, k: int) -> int:
        order = self._orders[client]
        return order[k % len(order)]

    def payload(self, item: int) -> dict:
        return self.jobs[item][0]

    def check(self, item: int, response: dict) -> bool:
        payload, truth = self.jobs[item]
        if not response.get("ok"):
            return False
        section = "pairs" if "pairs" in payload else "suites"
        try:
            entry = response["report"][section][0]
        except (KeyError, IndexError, TypeError):
            return False
        if section == "suites" and not entry.get("ok"):
            return False
        return entry.get("consistent") is truth["consistent"]

    def oracle_problems(self) -> tuple[list[str], int]:
        """Every distinct pair job against the seed's pre-engine
        decider (``engine/reference.py``) and each Lemma 2 decider in
        ``ALL_DECIDERS``; returns (disagreements, undecided count)."""
        problems, undecided = [], 0
        for item, (_, truth) in enumerate(self.jobs):
            if "bags" not in truth:
                continue
            r, s = truth["bags"]
            verdicts = {"reference": seed_are_consistent(r, s)}
            for name, decider in ALL_DECIDERS:
                try:
                    if name == "integer":
                        verdicts[name] = consistent_via_integer_search(
                            r, s, node_budget=ORACLE_NODE_BUDGET
                        )
                    elif name == "witness":
                        verdicts[name] = consistent_via_witness_search(
                            r, s, node_budget=ORACLE_NODE_BUDGET
                        ) is not None
                    else:
                        verdicts[name] = decider(r, s)
                except SearchLimitExceeded:
                    undecided += 1
            for name, verdict in verdicts.items():
                if verdict is not truth["consistent"]:
                    problems.append(f"job {item}: {name} says {verdict}")
        return problems, undecided


# -- the closed loop --------------------------------------------------


def _warm(daemon: Daemon, traffic) -> int:
    """The warm-up pass, on one connection; returns wrong answers."""
    wrong = 0
    with daemon.client(traffic.wire_format) as client:
        for item in traffic.warm_items:
            response = client.request(traffic.payload(item))
            wrong += not traffic.check(item, response)
    return wrong


def _connection(daemon: Daemon, traffic, index: int, seconds: float,
                stop: threading.Event) -> dict:
    latencies: list[float] = []
    failed = 0
    clock = 0.0
    k = 0
    client = daemon.client(traffic.wire_format)
    try:
        while clock < seconds and not stop.is_set():
            item = traffic.item(index, k)
            k += 1
            payload = traffic.payload(item)
            start = time.perf_counter()
            try:
                response = client.request(payload)
            except (OSError, ReproError):
                response = None
            elapsed = time.perf_counter() - start
            clock += elapsed
            latencies.append(elapsed)
            if response is None:
                failed += 1
                client.close()
                client = daemon.client(traffic.wire_format)
            elif not traffic.check(item, response):
                failed += 1
    finally:
        client.close()
    return {"latencies": latencies, "failed": failed, "clock": clock}


def closed_loop(daemon: Daemon, traffic, seconds: float) -> dict:
    stop = threading.Event()  # set when the run is interrupted
    with ThreadPoolExecutor(max_workers=traffic.clients) as pool:
        futures = [
            pool.submit(_connection, daemon, traffic, index, seconds, stop)
            for index in range(traffic.clients)
        ]
        try:
            parts = [future.result() for future in futures]
        finally:
            stop.set()
    latencies = [x for part in parts for x in part["latencies"]]
    window = sum(part["clock"] for part in parts) / len(parts)
    return {
        "latencies": latencies,
        "failed": sum(part["failed"] for part in parts),
        "throughput": len(latencies) / window,
    }


# -- the traced in-process replay --------------------------------------


def _bags_of(jobs) -> list:
    bags = [bag for pair in jobs.pairs for bag in pair]
    return bags + [bag for coll in jobs.collections for bag in coll]


def _replay_one(spans: Spans, request: int, traffic, engine, payload):
    """One request through each layer's public functions, in the
    daemon's order; returns ``(wall seconds, request bytes, response
    bytes)``."""
    frames = traffic.wire_format == "columnar"
    start = time.perf_counter()
    if frames:
        data = spans.call("client.encode", request, wire.encode_jobs_frame, payload)
        decoded = spans.call("wire.decode", request, _decode_frame, data)
    else:
        data = spans.call("client.encode", request, _encode_line, payload)
        decoded = spans.call("wire.decode", request, json.loads, data)
    jobs = spans.call("jobs.parse", request, parse_jobs, decoded)
    bags = _bags_of(jobs)
    spans.call("fingerprint", request, lambda: [fingerprint.of_bag(b) for b in bags])
    spans.call(
        "columnar.encode", request,
        lambda: [columnar.of_index(BagIndex.of(b)) for b in bags],
    )
    misses = engine.store.misses
    session_span = len(spans.records)
    report = spans.call(
        "session", request, run_jobs, jobs, engine, witnesses=traffic.witnesses
    )
    computed = engine.store.misses > misses
    spans.rename(session_span, "session.compute" if computed else "session.lookup")
    if traffic.durable:
        spans.call("store.flush", request, engine.store.flush)
    response = {"ok": True, "op": "batch", "report": report}
    encode = wire.encode_response_frame if frames else _encode_response_line
    out = spans.call("wire.response_encode", request, encode, response)
    return time.perf_counter() - start, len(data), len(out)


def _decode_frame(data: bytes) -> dict:
    header, blob = wire.read_frame(io.BytesIO(data))
    return wire.decode_jobs_frame(header, blob)


def _encode_line(payload: dict) -> bytes:
    return json.dumps(wire.jsonify_payload(payload)).encode("utf-8") + b"\n"


def _encode_response_line(response: dict) -> bytes:
    return (json.dumps(response) + "\n").encode("utf-8")


def replay(traffic, scratch, smoke: bool) -> tuple[Spans, list[tuple]]:
    """Replay the run's requests in process under a span recorder;
    returns the spans and ``_replay_one``'s tuple per request."""
    if traffic.durable:
        from repro.store import PersistentVerdictStore

        engine = Engine(store=PersistentVerdictStore(scratch.fresh("replay")))
    else:
        engine = Engine()
    if isinstance(traffic, WideTraffic) and not traffic.repeat:
        items = list(range(3 if smoke else REPLAY_WIDE_COLD))
    else:
        untraced = Spans()
        for item in traffic.warm_items:  # prime, as the daemon was
            _replay_one(untraced, 0, traffic, engine, traffic.payload(item))
        items = traffic.warm_items * traffic.replay_cycles
    spans = Spans()
    replayed = [
        _replay_one(spans, request, traffic, engine, traffic.payload(item))
        for request, item in enumerate(items)
    ]
    if traffic.durable:
        engine.store.close()
    return spans, replayed


def _layer_metrics(spans: Spans, replayed, stats_before, stats_after,
                   requests: int, rss_growth: float, e2e_p50: float,
                   disk_bytes: int) -> dict:
    walls = [wall for wall, _, _ in replayed]
    # the daemon flushes its store in the background, not per request
    flushes = spans.per_request("store.flush")
    in_process = median(
        [wall - flushes.get(request, 0.0) for request, wall in enumerate(walls)]
    )

    def ms(name: str) -> float:
        values = spans.per_request(name)
        return median(values.values()) * 1e3 if values else 0.0

    kernels_a, kernels_b = stats_before["kernels"], stats_after["kernels"]
    delta = {k: kernels_b[k] - kernels_a[k] for k in kernels_a
             if isinstance(kernels_a[k], int) and not isinstance(kernels_a[k], bool)}
    columnar_ops = sum(v for k, v in delta.items() if k.startswith("columnar_"))
    row_ops = sum(v for k, v in delta.items() if k.startswith("row_"))
    store_a, store_b = stats_before["store"], stats_after["store"]
    hits = store_b["hits"] - store_a["hits"]
    lookups = hits + store_b["misses"] - store_a["misses"]
    persistent = store_b.get("persistent")
    return {
        "client.encode_ms": ms("client.encode"),
        "client.request_bytes": median([n for _, n, _ in replayed]),
        "wire.decode_ms": ms("wire.decode"),
        "wire.response_encode_ms": ms("wire.response_encode"),
        "wire.response_bytes": median([n for _, _, n in replayed]),
        "jobs.parse_ms": ms("jobs.parse"),
        "fingerprint.ms": ms("fingerprint"),
        "columnar.encode_ms": ms("columnar.encode"),
        "session.compute_ms": ms("session.compute"),
        "session.lookup_ms": ms("session.lookup"),
        "session.hit_rate": hits / lookups if lookups else 0.0,
        "columnar.kernel_share": (
            columnar_ops / (columnar_ops + row_ops) if columnar_ops + row_ops else 0.0
        ),
        "columnar.encodings": delta["encodings"] / requests,
        "server.overhead_ms": (e2e_p50 - in_process) * 1e3,
        "store.flush_ms": ms("store.flush"),
        "store.disk_hits": (
            persistent["disk_hits"] - store_a["persistent"]["disk_hits"]
            if persistent else 0
        ),
        "store.disk_bytes_per_result": (
            disk_bytes / store_b["entries"] if store_b["entries"] else 0.0
        ),
        "rss.growth_mb_per_request": rss_growth / requests,
        "trace.coverage": spans.coverage(walls),
    }


def _tree_bytes(path: str | None) -> int:
    """Bytes of every file under ``path`` (the daemon's store, read
    after shutdown made it durable); 0 for an in-memory store."""
    if path is None:
        return 0
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


# -- one run ----------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        setups: int, smoke: bool, scratch) -> dict:
    rows = inputs.SMOKE_SCALE["wide_rows"] if smoke else inputs.WIDE_ROWS
    if workload == "small-hot":
        traffic = SmallTraffic(seed)
    else:
        traffic = WideTraffic(seed, workload == "wide-repeat", rows)
    problems: list[str] = []
    notes: list[str] = []
    setup_times = []
    wrong_warm = 0
    daemon = None
    try:
        for attempt in range(setups):
            start = time.perf_counter()
            daemon = Daemon(scratch, traffic.witnesses, traffic.durable)
            wrong_warm += _warm(daemon, traffic)
            setup_times.append(time.perf_counter() - start)
            if attempt < setups - 1:
                problems += daemon.stop(notes)
                daemon = None
        stats_before = daemon.stats()
        rss_before = proc_status_mb(daemon.pid, "VmRSS")
        loop = closed_loop(daemon, traffic, seconds)
        stats_after = daemon.stats()
        rss_after = proc_status_mb(daemon.pid, "VmRSS")
        peak = proc_status_mb(daemon.pid, "VmHWM")
        shm = stats_after["kernels"]["shm_segments_created"]
        if shm:
            problems.append(f"daemon created {shm} shared-memory segments")
        problems += daemon.stop(notes)
        disk_bytes = _tree_bytes(daemon.store_dir)
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
    if wrong_warm:
        problems.append(f"{wrong_warm} wrong answers during warm-up")
    detail: dict = {"daemon_problems": problems, "daemon_notes": notes}
    failed = loop["failed"]
    if isinstance(traffic, SmallTraffic):
        oracle, undecided = traffic.oracle_problems()
        failed += len(oracle)
        detail["oracle_disagreements"] = oracle
        detail["oracle_undecided"] = undecided
    latencies = loop["latencies"]
    result = {
        "attempted": len(latencies),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "e2e": {
            "setup_s": median(setup_times),
            "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
            "latency_p90_ms": quantile(latencies, 0.90) * 1e3,
            "throughput_rps": loop["throughput"],
            "rss_mb": peak,
        },
        "samples": {"latency": len(latencies), "setup": len(setup_times)},
        "detail": detail,
    }
    if workload == "small-hot":
        detail["latency_p99_ms"] = quantile(latencies, 0.99) * 1e3
    if trace:
        spans, replayed = replay(traffic, scratch, smoke)
        result["layers"] = _layer_metrics(
            spans, replayed, stats_before, stats_after, len(latencies),
            rss_after - rss_before, quantile(latencies, 0.50), disk_bytes,
        )
        result["samples"]["replay"] = len(replayed)
        result["spans"] = spans
    return result
