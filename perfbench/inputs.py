"""Seeded inputs for every workload, with their ground truth.

Every generator takes the run's ``--seed`` plus an item number and
derives its own ``random.Random`` from both (string seeds hash
deterministically), so item ``i`` is the same on every run with the
same seed, whatever else the run generated before it.
"""

from __future__ import annotations

import random

from repro.core.schema import Schema
from repro.io import bag_to_dict
from repro.workloads.generators import (
    inconsistent_pair,
    perturb_bag,
    planted_pair,
    planted_stream,
    wide_planted_pair,
)
from repro.workloads.suites import get_suite

# wide-* requests: one pair of 4096-row bags over two 8-attribute
# windows sharing 3 attributes, values drawn from 2^12.
WIDE_ROWS = 4096
WIDE_WIDTH = 8
WIDE_OVERLAP = 3
WIDE_DOMAIN = 1 << 12
# One pair in four is made inconsistent by a multiplicity bump.
WIDE_PERTURB_EVERY = 4
# wide-repeat cycles through this many pairs primed during set-up.
WIDE_REPEAT_PAIRS = 8

# small-hot: a fixed set of 64 small jobs.
SMALL_PAIRS = 40
SMALL_INCONSISTENT_EVERY = 4
SMALL_SUITES = 24
SMALL_PAIR_TUPLES = 48

# live-stream: planted_stream rounds, alternating a 6-bag path and a
# 5-leaf star; sizes follow benchmarks/bench_live_global.py.
LIVE_PATH_BAGS = 6
LIVE_STAR_LEAVES = 5
LIVE_ROUND_TXNS = 150
LIVE_TUPLES = 30
LIVE_DOMAIN = 6
LIVE_MAX_MULT = 3

SMOKE_SCALE = {"wide_rows": 512, "round_txns": 40}


def _rng(seed: int, kind: str, item: int) -> random.Random:
    return random.Random(f"{seed}:{kind}:{item}")


def wide_pair(seed: int, item: int, rows: int = WIDE_ROWS):
    """``(r, s, consistent)`` for wide request ``item``."""
    rng = _rng(seed, "wide", item)
    _, r, s = wide_planted_pair(
        rng,
        width=WIDE_WIDTH,
        overlap=WIDE_OVERLAP,
        n_rows=rows,
        domain_size=WIDE_DOMAIN,
    )
    if item % WIDE_PERTURB_EVERY == WIDE_PERTURB_EVERY - 1:
        return r, perturb_bag(s, rng), False
    return r, s, True


def small_jobs(seed: int) -> list[tuple[dict, dict]]:
    """The 64 small-hot jobs as ``(payload, truth)``: 48-tuple
    two-attribute pairs (one in four inconsistent) and ``planted-path``
    / ``tseitin-cycle`` suite specs.  ``truth`` holds the expected
    verdict and, for pairs, the bags for the oracle check."""
    ab, bc = Schema(["A", "B"]), Schema(["B", "C"])
    jobs = []
    for item in range(SMALL_PAIRS):
        rng = _rng(seed, "small-pair", item)
        if item % SMALL_INCONSISTENT_EVERY == SMALL_INCONSISTENT_EVERY - 1:
            r, s = inconsistent_pair(ab, bc, rng, n_tuples=SMALL_PAIR_TUPLES)
            consistent = False
        else:
            _, r, s = planted_pair(ab, bc, rng, n_tuples=SMALL_PAIR_TUPLES)
            consistent = True
        payload = {"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}
        jobs.append((payload, {"consistent": consistent, "bags": (r, s)}))
    for item in range(SMALL_SUITES):
        rng = _rng(seed, "small-suite", item)
        if item % 2 == 0:
            spec = ["planted-path", rng.randint(2, 5), rng.randrange(1 << 30)]
        else:
            spec = ["tseitin-cycle", rng.randint(3, 6), rng.randrange(1 << 30)]
        expected = get_suite(spec[0]).expected == "consistent"
        jobs.append(({"suites": [spec]}, {"consistent": expected}))
    return jobs


def live_round(seed: int, item: int, txns: int = LIVE_ROUND_TXNS):
    """``(bags, transactions)`` for live round ``item``: even rounds on
    the path, odd rounds on the star; globally consistent at every
    transaction boundary by construction."""
    if item % 2 == 0:
        schemas = [
            Schema([f"X{i}", f"X{i + 1}"]) for i in range(LIVE_PATH_BAGS)
        ]
    else:
        schemas = [
            Schema(["Hub", f"L{i}"]) for i in range(LIVE_STAR_LEAVES)
        ]
    return planted_stream(
        schemas,
        _rng(seed, "live", item),
        txns,
        domain_size=LIVE_DOMAIN,
        n_tuples=LIVE_TUPLES,
        max_multiplicity=LIVE_MAX_MULT,
    )
