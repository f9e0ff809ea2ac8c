"""Seeded inputs of the three benchmark workloads.

Nothing here imports fockmix: inputs are plain tuples and strings, so the
same seed gives the same inputs whatever the library does with them.

cells   a seeded stream of single-cell point queries in blocks of
        ``BLOCK`` queries with a fixed count per kind (``CELL_SHARES``).
fill    one pass is a fixed list of table builds and two CLI exports.
verify  one pass is the nine ``verify --suite NAME --scale full`` commands.
"""

from __future__ import annotations

import random

BS_ETAS = ["1/2", "3/10", "7/10", "1/1000", "999/1000"]
TMS_LAMS = ["1/4", "1/2", "3/5"]

# Queries of each kind in one block; every block holds exactly these counts.
# There is no record of how fockmix is used, so the mix is not taken from
# real traffic: each of the five public single-cell functions gets the same
# share. That puts 3/5 of the queries on ROADMAP item 4 (bs_prob_direct and
# tms_prob escalate into exact arithmetic, bs_prob_exact is the fallback)
# and 2/5 on item 2 (the amplitudes).
CELL_SHARES = {
    "bs_prob_direct": 4,
    "tms_prob": 4,
    "bs_prob_exact": 4,
    "bs_amplitude": 4,
    "tms_amplitude": 4,
}
BLOCK = sum(CELL_SHARES.values())

PROB_MAX_TOTAL = 200
AMP_MAX_TOTAL = 260

BUCKETS = [("t0_32", 0, 32), ("t33_96", 33, 96), ("t97_192", 97, 192), ("t193p", 193, None)]

SUITES = [
    "normalization",
    "recurrence-bs",
    "recurrence-tms",
    "ptr",
    "hom",
    "energy",
    "genfun-series",
    "classical",
    "asymptotics",
]


def bucket(total: int) -> str:
    """Name of the total-photon-number bucket that holds ``total``."""
    for name, lo, hi in BUCKETS:
        if total >= lo and (hi is None or total <= hi):
            return name
    raise ValueError(f"negative total {total}")


def decimal_of(literal: str) -> str:
    """The decimal spelling of a p/q literal, e.g. '3/10' -> '0.3'."""
    num, _, den = literal.partition("/")
    return repr(int(num) / int(den))


def _param(rng: random.Random, choices: list[str], as_ratio: bool) -> str:
    literal = rng.choice(choices)
    return literal if as_ratio else decimal_of(literal)


def _cell(rng: random.Random, kind: str, as_ratio: bool) -> tuple:
    """One query: (kind, i, k, n, parameter literal)."""
    if kind in ("bs_prob_direct", "bs_prob_exact", "bs_amplitude"):
        top = AMP_MAX_TOTAL if kind == "bs_amplitude" else PROB_MAX_TOTAL
        total = rng.randint(0, top)
        i = rng.randint(0, total)
        n = rng.randint(0, total)
        # bs_prob_exact takes an exact rational, so it always gets a p/q literal.
        eta = _param(rng, BS_ETAS, as_ratio or kind == "bs_prob_exact")
        return (kind, i, total - i, n, eta)
    # Squeezer queries are drawn through their beam-splitter bridge
    # (i, n+k-i -> n) so that every query is reachable and the bridge total
    # n+k is uniform like the beam-splitter totals.
    top = AMP_MAX_TOTAL if kind == "tms_amplitude" else PROB_MAX_TOTAL
    total = rng.randint(0, top)
    i = rng.randint(0, total)
    n = rng.randint(0, total)
    return (kind, i, total - n, n, _param(rng, TMS_LAMS, as_ratio))


def cell_blocks(seed: int):
    """Endless stream of query blocks; each block holds CELL_SHARES queries
    in a seeded order. Within each kind, p/q and decimal literals alternate."""
    rng = random.Random(f"cells/{seed}")
    ratio_next = {kind: True for kind in CELL_SHARES}
    while True:
        block = []
        for kind, count in CELL_SHARES.items():
            for _ in range(count):
                block.append(_cell(rng, kind, ratio_next[kind]))
                ratio_next[kind] = not ratio_next[kind]
        rng.shuffle(block)
        yield block


def cell_total(query: tuple) -> int:
    """Total photon number of the beam-splitter cell a query evaluates."""
    kind, i, k, n, _ = query
    if kind.startswith("tms"):
        return n + k
    return i + k


# Fill operations: (kind, arguments). Library builds name the builder and its
# sizes; CLI exports carry the argv given to ``fockmix.cli.main``.
FILL_OPS = [
    ("bs_table_recurrence", {"imax": 200, "kmax": 200, "param": "1/2", "precision": "float"}),
    ("bs_table_recurrence", {"imax": 200, "kmax": 200, "param": "3/10", "precision": "float"}),
    ("bs_table_recurrence", {"imax": 25, "kmax": 25, "param": "1/2", "precision": "rational"}),
    ("tms_table_recurrence", {"imax": 60, "kmax": 60, "nmax": 200, "param": "1/4", "precision": "float"}),
    ("tms_table_recurrence", {"imax": 10, "kmax": 10, "nmax": 30, "param": "1/4", "precision": "rational"}),
    ("cli_table", {"argv": ["table", "--device", "bs", "--imax", "40", "--kmax", "40",
                            "--eta", "7/10", "--format", "csv"]}),
    ("cli_table", {"argv": ["table", "--device", "tms", "--imax", "20", "--kmax", "20",
                            "--nmax", "80", "--lambda", "1/4", "--format", "json"]}),
]


# The work of a run is fixed by its seed and --seconds, not by how fast the
# library is, so every version of it gets the same inputs, the same number of
# operations to count failures in, and the same cache history. A run makes
# WORK_PER_SECOND blocks (cells) or passes (fill, verify) per second of
# --seconds, which lasts about --seconds on a 2-vCPU x86_64 Xeon VM with
# Python 3.11. fill and verify make at least MIN_PASSES passes, so each of
# their operations has repeats to take its latency from.
WORK_PER_SECOND = {"cells": 100, "fill": 0.4, "verify": 0.12}
MIN_PASSES = {"fill": 6, "verify": 3}


def run_work(workload: str, seconds: int) -> int:
    """Blocks (cells) or passes (fill, verify) of a run of ``seconds``."""
    return max(MIN_PASSES.get(workload, 1), round(seconds * WORK_PER_SECOND[workload]))


def fill_pass(seed: int, index: int) -> list[tuple]:
    """One fill pass: every FILL_OPS entry once, in a seeded order, each with
    the seed of the cells its oracle check samples."""
    rng = random.Random(f"fill/{seed}/{index}")
    ops = [(kind, dict(args), rng.getrandbits(32)) for kind, args in FILL_OPS]
    rng.shuffle(ops)
    return ops


def verify_pass(seed: int, index: int) -> list[str]:
    """One verify pass: the nine suites in a seeded order."""
    rng = random.Random(f"verify/{seed}/{index}")
    suites = list(SUITES)
    rng.shuffle(suites)
    return suites
