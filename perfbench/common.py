"""Shared plumbing: checkout paths, scratch space, statistics, process
memory, the environment record, and the in-memory span recorder."""

from __future__ import annotations

import json
import os
import platform
import shutil
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space and trace output stay inside the checkout; both are
# listed in .gitignore.
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"


def child_env() -> dict:
    """The environment for every process the benchmark starts: the
    checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Scratch:
    """A per-run directory under the checkout, removed on close.  Paths
    are relative to the checkout root (the working directory of every
    process the benchmark starts) so Unix socket paths stay short."""

    def __init__(self) -> None:
        self.dir = os.path.join(TMP_DIR, f"run-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self._n = 0

    def fresh(self, kind: str) -> str:
        self._n += 1
        return os.path.join(self.dir, f"{kind}{self._n}")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)  # only when no concurrent run uses it
        except OSError:
            pass


def quantile(samples, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``samples``, interpolated
    between order statistics; a single sample is its own quantile."""
    data = sorted(samples)
    if not data:
        raise ValueError("quantile of no samples")
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def proc_status_mb(pid: int | str, field: str) -> float:
    """``VmHWM`` (peak) or ``VmRSS`` (current) resident memory of a
    process, in MiB, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process, across all its threads."""
    found: list[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "children")) as f:
                found.extend(int(p) for p in f.read().split())
        except OSError:
            continue  # the thread exited between listdir and open
    return found


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git;
    ``None`` outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """What a result needs to be reproduced: cores, interpreter, numpy
    (or the REPRO_NO_NUMPY override), commit and seed."""
    if os.environ.get("REPRO_NO_NUMPY"):
        numpy_version = "REPRO_NO_NUMPY"
    else:
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "seed": seed,
    }


class Spans:
    """An in-memory span log: ``(id, parent, request, name, start,
    end)`` tuples, written out only when the run ends."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name: str, request: int, fn, *args, **kwargs):
        """Run ``fn`` inside one span; spans opened during the call
        become its children."""
        span_id = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[span_id] = (span_id, parent, request, name, start, end)

    def rename(self, span_id: int, name: str) -> None:
        record = self.records[span_id]
        self.records[span_id] = record[:3] + (name,) + record[4:]

    def self_times(self) -> list[tuple[int, str, float]]:
        """``(request, name, seconds)`` per span: its duration minus the
        time its children cover."""
        child_time = [0.0] * len(self.records)
        for _, parent, _, _, start, end in self.records:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (request, name, end - start - child_time[span_id])
            for span_id, _, request, name, start, end in self.records
        ]

    def per_request(self, name: str) -> dict[int, float]:
        """Self seconds of ``name`` summed per request, for the requests
        that have such a span."""
        totals: dict[int, float] = {}
        for request, span_name, seconds in self.self_times():
            if span_name == name:
                totals[request] = totals.get(request, 0.0) + seconds
        return totals

    def coverage(self, walls: list[float]) -> float:
        """Sum of all self times over the summed request wall times."""
        return sum(s for _, _, s in self.self_times()) / sum(walls)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as out:
            json.dump([dict(zip(fields, r)) for r in self.records], out)

