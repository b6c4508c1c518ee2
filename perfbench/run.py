"""One benchmark for the consistency-checking service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --smoke      # quick end-to-end pass

Workloads (why each exists is in BENCHMARK.json, the layer table and
reference numbers in perfbench/REFERENCE.md):

* ``wide-cold``, ``wide-repeat``, ``small-hot`` send traffic to a real
  ``repro serve`` daemon started as a subprocess (serve_bench.py);
* ``live-stream`` drives ``LiveEngine`` in a child process
  (live_bench.py).

With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the run also replays its requests in
process under a span recorder and reports the per-layer metrics
instead.  The line before it records the environment, the sample count
behind every percentile, and what the checks found.  Every answer is
checked outside the timed window; wrong, failed and refused requests
count in ``failed``.  ``--smoke`` shrinks the inputs for a fast pass.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import traceback

from common import OUT_DIR, ROOT, SRC, Scratch, environment

WORKLOADS = ("wide-cold", "wide-repeat", "small-hot", "live-stream")
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "rss_mb": "MiB",
}
PER_LAYER = {
    "client.encode_ms": "ms",
    "client.request_bytes": "bytes",
    "wire.decode_ms": "ms",
    "wire.response_encode_ms": "ms",
    "wire.response_bytes": "bytes",
    "jobs.parse_ms": "ms",
    "fingerprint.ms": "ms",
    "columnar.encode_ms": "ms",
    "session.compute_ms": "ms",
    "session.lookup_ms": "ms",
    "session.hit_rate": "ratio",
    "columnar.kernel_share": "ratio",
    "columnar.encodings": "1/req",
    "server.overhead_ms": "ms",
    "store.flush_ms": "ms",
    "store.disk_hits": "count",
    "store.disk_bytes_per_result": "bytes",
    "rss.growth_mb_per_request": "MiB/req",
    "live.update_ms": "ms",
    "live.check_ms": "ms",
    "live_global.repairs": "1/ktxn",
    "live_global.refolds": "1/ktxn",
    "live_global.snapshot_restores": "1/ktxn",
    "live_global.repair_failure_share": "ratio",
    "live_global.refold_ms": "ms",
    "live.refold_time_share": "ratio",
    "trace.coverage": "ratio",
}
# Set-up is repeated and its median reported; a traced run sets up once.
SETUPS = 3


def self_check() -> list[str]:
    """Differences between the names this benchmark emits and the
    names BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    workloads = tuple(w["name"] for w in spec["workloads"])
    if workloads != WORKLOADS:
        problems.append(f"workloads {workloads} != emitted {WORKLOADS}")
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = set((m["name"], m["unit"]) for m in spec[key])
        if declared != set(emitted.items()):
            problems.append(
                f"{key}: declared only {sorted(declared - set(emitted.items()))}, "
                f"emitted only {sorted(set(emitted.items()) - declared)}"
            )
    return problems


def run_workload(args) -> dict:
    scratch = Scratch()
    try:
        setups = 1 if args.trace else SETUPS
        if args.workload == "live-stream":
            import live_bench

            result = live_bench.run(
                args.seed, args.seconds, args.trace, setups, args.smoke, scratch
            )
        else:
            import serve_bench

            result = serve_bench.run(
                args.workload, args.seed, args.seconds, args.trace, setups,
                args.smoke, scratch,
            )
    finally:
        scratch.close()
    spans = result.pop("spans", None)
    if spans is not None:
        spans.write(ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json")
    return result


def emit(args, result: dict) -> None:
    if args.trace:
        # layers a workload never reaches read 0
        values = {name: result["layers"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values, units = result["e2e"], END_TO_END
    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "samples": result["samples"],
        "error_rate": result["failed"] / result["attempted"],
        **result["detail"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }), flush=True)


def run_all(args) -> int:
    """Every workload in its own process; a failing one is reported and
    the rest still run."""
    failures = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(int(args.trace))]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures += 1
            print(json.dumps({"workload": workload, "failed_run": True,
                              "exit_code": proc.returncode,
                              "stderr_tail": proc.stderr[-2000:]}))
            continue
        row = json.loads(lines[-1])
        failures += not row["correct"]
        print(json.dumps({"workload": workload, **row}), flush=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: a fast end-to-end pass")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # a terminated run unwinds its finally blocks, which stop the
    # daemons and children it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    problems = self_check()
    if problems:
        print("perfbench: BENCHMARK.json does not match the emitted names: "
              + "; ".join(problems), file=sys.stderr)
        return 3
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        result = run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1
    emit(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
