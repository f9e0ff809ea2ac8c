"""fockmix benchmark: one run of one workload.

Usage, from the root of a fockmix checkout:

    python3 perfbench/run.py --workload {cells,fill,verify} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: the set-up time (fresh
interpreters that import fockmix) and one timed run of the workload in a
fresh single-threaded child process. Its work is fixed by the seed and
``--seconds`` (``workloads.run_work``) and lasts about ``--seconds`` on the
reference machine. Its timings are scaled to a nominal machine speed by
speed samples taken while it runs (``speed.py``). ``--trace 1`` runs a smaller fixed amount of the workload
twice, untraced and then with every layer traced, checks that both produce
identical outputs, and reports the per-layer metrics and the tracing
overhead. Every output is checked against the exact oracle; the run is
correct when no output fails outside the known amplitude defect
(``oracle.known_defect``), and every failure is counted in ``failed``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
result, with provenance and a per-kind breakdown, is also written to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import run_work  # noqa: E402

WORKLOADS = ("cells", "fill", "verify")
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170
# Fixed work of a traced run: blocks of queries for cells, passes otherwise.
TRACED_WORK = {"cells": 250, "fill": 1, "verify": 1}
# End-to-end timings are each operation's seconds scaled to the nominal
# machine speed (speed.py). cells figures are taken over every query of the
# run: its rate, median and tail percentile. fill and verify repeat the same
# operations once per pass, so each operation's latency is the median of its
# repeats; one pass of these latencies is the "typical pass" their figures
# come from, and its tail is its slowest operation. setup_s is the median of
# SETUP_PROBES fresh interpreters, half run before the workload and half
# after it.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
OPERATION = {"cells": "query", "fill": "table entry", "verify": "verify case"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def setup_probe(src: str, env: dict) -> dict:
    """Set-up seconds of one fresh interpreter, and the median time of the
    reference work it ran right after the import."""
    return json.loads(run_child(["--setup-only", src], env).stdout)


def scaled_setup(probe: dict) -> float:
    return probe["setup_s"] * speed.REFERENCE_S / probe["reference_s"]


def workload_run(spec: dict, env: dict) -> dict:
    """Run one child on ``spec`` and return its result."""
    tag = f"{spec['workload']}-{'traced' if spec['trace'] else 'plain'}"
    spec_path = os.path.join(spec["work_dir"], f"{tag}.spec.json")
    result_path = os.path.join(spec["work_dir"], f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    run_child([spec_path, result_path], env)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) at the highest listed percentile that still has
    at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = int(len(ordered) * pct / 100)
        if len(ordered) - rank - 1 >= 10:
            return ordered[rank], pct
    raise ValueError(f"{len(ordered)} samples are too few for a tail percentile")


def end_to_end(workload: str, res: dict, seconds: list[float], setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end figures from the operations' ``seconds`` and the set-up probes."""
    if workload == "cells":
        samples = seconds
        rate = len(samples) / sum(samples)
        p50 = statistics.median(samples)
        tail_s, pct = tail(samples)
        beyond = len(samples) - int(len(samples) * pct / 100) - 1
        how = f"over all {len(samples)} queries; the tail is p{pct}, with {beyond} samples beyond it"
    else:
        repeats: dict[str, list[float]] = {}
        units: dict[str, int] = {}
        for kind, s, u in zip(res["kinds"], seconds, res["units"]):
            repeats.setdefault(kind, []).append(s)
            units[kind] = u
        typical = sorted(statistics.median(v) for v in repeats.values())
        rate = sum(units.values()) / sum(typical)
        p50 = statistics.median(typical)
        tail_s = typical[-1]
        how = (f"percentiles of a typical pass of {len(typical)} operations, each the median of its "
               f"{min(map(len, repeats.values()))} or more repeats; the tail is p100, the slowest operation")
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": rate,
        "op_p50_ms": 1e3 * p50,
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"ops_per_s counts one {OPERATION[workload]} as one op",
        f"op_p50_ms and op_tail_ms: {how}",
        f"setup_s is the median of {len(setup)} fresh interpreters",
        f"timings are scaled to the speed at which the reference work takes {1e3 * speed.REFERENCE_S:g} ms",
    ]
    return values, notes


def verdict(results: list[dict]) -> bool:
    """True when every operation of every child result was checked and none
    failed outside the known amplitude defect."""
    return all(len(r["failed"]) > 0 and r["unexpected_failures"] == 0 for r in results)


def breakdown(res: dict) -> dict:
    """Per operation kind: count, median and mean seconds, failures."""
    kinds: dict[str, list] = {}
    for kind, s, failed in zip(res["kinds"], res["seconds"], res["failed"]):
        kinds.setdefault(kind, []).append((s, failed))
    return {
        kind: {
            "count": len(rows),
            "median_s": statistics.median(s for s, _ in rows),
            "mean_s": statistics.fmean(s for s, _ in rows),
            "failed": sum(f for _, f in rows),
        }
        for kind, rows in sorted(kinds.items())
    }


def provenance(root: str, src: str, seed: int) -> dict:
    git_sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    package = os.path.join(src, "fockmix")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for dist in ("numpy", "mpmath", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        **versions,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fockmix", "__init__.py")):
        print(f"no fockmix sources under {src}; run from the root of a fockmix checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(work_dir, exist_ok=True)
    env = child_env(src)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "src": src,
        "work_dir": work_dir,
        "spans_path": os.path.join(work_dir, f"{args.workload}-spans.npz"),
        "trace": False,
        "sample_speed": args.trace == 0,
        "work": run_work(args.workload, args.seconds),
    }
    report = {"workload": args.workload, "trace": args.trace, "provenance": provenance(root, src, args.seed)}
    try:
        if args.trace == 0:
            setup = [setup_probe(src, env) for _ in range(SETUP_PROBES // 2)]
            res = workload_run(spec, env)
            setup += [setup_probe(src, env) for _ in range(SETUP_PROBES - len(setup))]
            metrics, notes = end_to_end(args.workload, res, speed.scaled_seconds(res), [scaled_setup(p) for p in setup])
            report["unscaled"], _ = end_to_end(args.workload, res, res["seconds"], [p["setup_s"] for p in setup])
            notes.append(f"median speed sample {1e3 * statistics.median(res['sample_s']):.4g} ms"
                         f" over {len(res['sample_s'])} samples; unscaled figures are in the report file")
            units = END_TO_END_UNITS
            correct = verdict([res])
            plain = res
            report["setup_probes"] = setup
        else:
            fixed = dict(spec, work=TRACED_WORK[args.workload])
            plain = workload_run(fixed, env)
            res = workload_run(dict(fixed, trace=True), env)
            same_outputs = plain["digest"] == res["digest"] and plain["failed"] == res["failed"]
            correct = same_outputs and verdict([plain, res])
            plain_rate = sum(plain["units"]) / sum(plain["seconds"])
            traced_rate = sum(res["units"]) / sum(res["seconds"])
            metrics = dict(res["layers"])
            metrics["trace.ops_per_s.traced"] = traced_rate
            metrics["trace.ops_per_s.untraced"] = plain_rate
            metrics["trace.overhead"] = traced_rate / plain_rate
            units = dict(tracing.PER_LAYER)
            notes = [
                f"{res['spans']} spans written to {os.path.relpath(spec['spans_path'], root)}",
                f"trace.overhead = traced {traced_rate:.6g}/s over untraced {plain_rate:.6g}/s",
                f"traced and untraced outputs {'identical' if same_outputs else 'DIFFER'}",
            ]
    except subprocess.CalledProcessError as exc:
        print(f"benchmark child failed with exit code {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1

    attempted = len(res["failed"])
    failed = sum(res["failed"])
    if attempted == 0:
        print("the run attempted no operation", file=sys.stderr)
        return 1
    report.update(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        setup_s_child=res["setup_s"],
        breakdown=breakdown(plain),
        notes=notes,
    )
    with open(os.path.join(work_dir, f"{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:56s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':56s} {failed / attempted:14.6g} ({failed} of {attempted} operations,"
          f" {res['unexpected_failures']} outside the known amplitude defect)")
    for kind, row in report["breakdown"].items():
        print(f"  kind {kind:40s} n={row['count']:<6d} median {1e3 * row['median_s']:10.4g} ms"
              f"  mean {1e3 * row['mean_s']:10.4g} ms  failed {row['failed']}")
    for note in notes:
        print(f"  note: {note}")
    print("provenance " + json.dumps(report["provenance"]))
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
