"""One measured run of one workload, in a fresh single-threaded interpreter.

Usage: python3 child.py SPEC.json RESULT.json
       python3 child.py --setup-only SRC_DIR

The spec names the workload, seed, amount of work and whether to trace.
The run imports fockmix first (that import plus the first call that builds
lazy state is the set-up time), then drives the public API in a closed
loop, timing one operation at a time. Every output is checked against the
exact oracle outside the timed region; the result goes to RESULT.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction


def import_fockmix(src: str):
    """Import fockmix and fockmix.cli and build the lazy log-factorial table.

    Returns the module and the seconds this took. Exits with code 3 when
    fockmix does not come from ``src``.
    """
    sys.path.insert(0, src)
    start = time.perf_counter()
    import fockmix
    import fockmix.cli

    fockmix.log_factorial(1)
    seconds = time.perf_counter() - start
    if not os.path.realpath(fockmix.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"fockmix was imported from {fockmix.__file__}, not from {src}")
    return fockmix, seconds


def run_cli(fockmix, argv: list[str]) -> int:
    """Run ``fockmix ARGV`` in-process and return its exit code."""
    import click

    try:
        fockmix.cli.main.main(args=argv, prog_name="fockmix", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        return exc.exit_code
    return 0


class Run:
    """Per-operation records of one run."""

    def __init__(self, tracer, sampler) -> None:
        self.tracer = tracer
        self.sampler = sampler
        self.kinds: list[str] = []
        self.passes: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self.units: list[int] = []
        self.failed: list[bool] = []
        self.unexpected = 0
        self.digest = hashlib.sha256()
        self.peak_rss_mb = 0.0

    def timed(self, kind: str, pass_index: int, fn, *args):
        """Call fn(*args) as one operation; returns (result, raised exception).
        Its seconds leave out the speed samples taken while it ran."""
        if self.tracer is not None:
            self.tracer.op = len(self.seconds)
        sampled = self.sampler.spent if self.sampler is not None else 0.0
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        end = time.perf_counter()
        if self.sampler is not None:
            sampled = self.sampler.spent - sampled
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start - sampled)
        self.kinds.append(kind)
        self.passes.append(pass_index)
        return result, error

    def record(self, units: int, failed: bool, output: bytes, known_defect: bool = False) -> None:
        """Record one checked operation. A failure makes the run incorrect
        unless it is one a known defect of the library explains."""
        self.units.append(units)
        self.failed.append(bool(failed))
        self.unexpected += bool(failed) and not known_defect
        self.digest.update(output)


# ---------------------------------------------------------------------------
# cells


def _cell_call(fockmix, query: tuple):
    kind, i, k, n, literal = query
    if kind in ("tms_prob", "tms_amplitude"):
        return getattr(fockmix, kind), (
            fockmix.PhotonConfig(i, k, n, fockmix.Device.TMS),
            fockmix.SqueezerParam.from_value(literal),
        )
    if kind == "bs_prob_exact":
        return fockmix.bs_prob_exact, (fockmix.PhotonConfig(i, k, n), Fraction(literal))
    return getattr(fockmix, kind), (fockmix.PhotonConfig(i, k, n), fockmix.BeamSplitterParam.from_value(literal))


def run_cells(fockmix, spec: dict, run: Run) -> None:
    import oracle
    from workloads import cell_blocks

    queries, outputs = [], []
    for block_index, block in zip(range(spec["work"]), cell_blocks(spec["seed"])):
        for query in block:
            fn, args = _cell_call(fockmix, query)
            value, error = run.timed(query[0], block_index, fn, *args)
            queries.append(query)
            outputs.append(error if error is not None else value)
    run.peak_rss_mb = peak_rss_mb()
    for query, value in zip(queries, outputs):
        failed = isinstance(value, Exception) or oracle.check_cell(query, value)
        run.record(1, failed, repr(value).encode(), oracle.known_defect(query))


# ---------------------------------------------------------------------------
# fill


def _table_digest(table) -> bytes:
    h = hashlib.sha256()
    for key in sorted(table.entries):
        row = table.entries[key]
        h.update(repr(key).encode())
        h.update(row.tobytes() if hasattr(row, "tobytes") else repr(row).encode())
    return h.digest()


def _table_samples(fockmix, table, rng: random.Random, count: int):
    # Read the rows directly: table.value is a traced method, and the
    # benchmark's own checking must not count as library work.
    bs = table.device is fockmix.Device.BS
    for _ in range(count):
        i, k = rng.randint(0, table.imax), rng.randint(0, table.kmax)
        n = rng.randint(0, i + k if bs else table.nmax)
        yield i, k, n, table.entries[(i, k)][n]


def _export_entries(path: str, fmt: str) -> list[tuple]:
    if fmt == "csv":
        import csv

        with open(path, newline="", encoding="utf-8") as fh:
            return [(int(r["i"]), int(r["k"]), int(r["n"]), float(r["value"])) for r in csv.DictReader(fh)]
    with open(path, encoding="utf-8") as fh:
        return [(e["i"], e["k"], e["n"], float(e["value"])) for e in json.load(fh)["entries"]]


SAMPLES_PER_TABLE = 24


def fill_op(fockmix, op: tuple, pass_index: int, run: Run, work_dir: str) -> None:
    import oracle

    kind, args, check_seed = op
    rng = random.Random(check_seed)
    if kind == "cli_table":
        argv = args["argv"]
        fmt = argv[argv.index("--format") + 1]
        device = argv[argv.index("--device") + 1]
        literal = argv[argv.index("--eta" if device == "bs" else "--lambda") + 1]
        path = os.path.join(work_dir, f"table.{fmt}")
        code, error = run.timed(f"{kind}.{fmt}", pass_index, run_cli, fockmix, argv + ["--out", path])
        if error is not None or code != 0:
            run.record(1, True, b"cli-error")
            return
        entries = _export_entries(path, fmt)
        sample = rng.sample(entries, min(SAMPLES_PER_TABLE, len(entries)))
        off = oracle.check_entries(device, "float", oracle.exact_of(literal), sample)
        with open(path, "rb") as fh:
            run.record(len(entries), off > 0, hashlib.sha256(fh.read()).digest())
        return
    builder = getattr(fockmix, kind)
    bs = kind.startswith("bs")
    param = (fockmix.BeamSplitterParam if bs else fockmix.SqueezerParam).from_value(args["param"])
    sizes = (args["imax"], args["kmax"]) if bs else (args["imax"], args["kmax"], args["nmax"])
    table, error = run.timed(f"{kind}.{args['precision']}.{args['param']}", pass_index, builder, *sizes, param, args["precision"])
    if error is not None:
        run.record(1, True, b"build-error")
        return
    units = sum(len(row) for row in table.entries.values())
    sample = list(_table_samples(fockmix, table, rng, SAMPLES_PER_TABLE))
    off = oracle.check_entries("bs" if bs else "tms", args["precision"], oracle.exact_of(args["param"]), sample)
    run.record(units, off > 0, _table_digest(table))


def run_fill(fockmix, spec: dict, run: Run) -> None:
    from workloads import fill_pass

    for pass_index in range(spec["work"]):
        for op in fill_pass(spec["seed"], pass_index):
            fill_op(fockmix, op, pass_index, run, spec["work_dir"])
        run.peak_rss_mb = peak_rss_mb()


# ---------------------------------------------------------------------------
# verify


def run_verify(fockmix, spec: dict, run: Run) -> None:
    from workloads import verify_pass

    path = os.path.join(spec["work_dir"], "verify.json")
    for pass_index in range(spec["work"]):
        for suite in verify_pass(spec["seed"], pass_index):
            argv = ["verify", "--suite", suite, "--scale", "full", "--out", path]
            code, error = run.timed(suite, pass_index, run_cli, fockmix, argv)
            if error is not None or code != 0:
                run.record(1, True, f"{suite}:error".encode())
                continue
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            failed = bool(doc["failures"]) or doc["cases"] < 1 or doc["suite"] != suite
            run.record(doc["cases"], failed, json.dumps([suite, doc["cases"], doc["failures"]]).encode())
        run.peak_rss_mb = peak_rss_mb()


# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Speed samples taken right after the import of a set-up probe; their median
# scales its set-up time.
SETUP_SAMPLES = 5
WORKLOADS = {"cells": run_cells, "fill": run_fill, "verify": run_verify}


def main(argv: list[str]) -> int:
    if argv[0] == "--setup-only":
        _, seconds = import_fockmix(argv[1])
        import speed

        speed.time_reference()  # warm-up, not recorded
        reference = sorted(speed.time_reference() for _ in range(SETUP_SAMPLES))[SETUP_SAMPLES // 2]
        print(json.dumps({"setup_s": seconds, "reference_s": reference}))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    fockmix, setup_s = import_fockmix(spec["src"])
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    sampler = None
    if spec["sample_speed"]:
        import speed

        sampler = speed.Sampler()
        sampler.start()
    run = Run(tracer, sampler)
    try:
        WORKLOADS[spec["workload"]](fockmix, spec, run)
    finally:
        if sampler is not None:
            sampler.stop()
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": run.peak_rss_mb,
        "kinds": run.kinds,
        "passes": run.passes,
        "starts": run.starts,
        "ends": run.ends,
        "seconds": run.seconds,
        "sample_at": sampler.at if sampler is not None else [],
        "sample_s": sampler.took if sampler is not None else [],
        "units": run.units,
        "failed": run.failed,
        "unexpected_failures": run.unexpected,
        "digest": run.digest.hexdigest(),
        "layers": None,
        "spans": 0,
    }
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.starts)
        tracer.write(spec["spans_path"])
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
