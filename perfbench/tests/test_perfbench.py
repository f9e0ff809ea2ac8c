"""Tests of the benchmark itself: inputs, oracle, tracing and the contract.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import child
import oracle
import run as bench
import speed
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def blocks(seed: int, count: int) -> list[list[tuple]]:
    return list(itertools.islice(workloads.cell_blocks(seed), count))


# ---------------------------------------------------------------------------
# inputs


def test_same_seed_gives_identical_inputs():
    assert blocks(7, 50) == blocks(7, 50)
    assert workloads.fill_pass(7, 3) == workloads.fill_pass(7, 3)
    assert workloads.verify_pass(7, 3) == workloads.verify_pass(7, 3)
    assert blocks(7, 5) != blocks(8, 5)


def _composition(seed: int, count: int):
    kinds = Counter()
    ratios = Counter()
    buckets = Counter()
    for block in blocks(seed, count):
        kinds.update(Counter(q[0] for q in block))
        for q in block:
            ratios[(q[0], "/" in q[4])] += 1
            buckets[(q[0], workloads.bucket(workloads.cell_total(q)))] += 1
    return kinds, ratios, buckets


def test_seeds_keep_kind_shares_and_total_buckets():
    count = 2000
    for seed in range(1, 6):
        kinds, ratios, buckets = _composition(seed, count)
        assert kinds == Counter({k: v * count for k, v in workloads.CELL_SHARES.items()})
        for kind, share in workloads.CELL_SHARES.items():
            if kind == "bs_prob_exact":
                assert ratios[(kind, True)] == share * count
            else:
                assert ratios[(kind, True)] == ratios[(kind, False)] == share * count // 2
            # totals are uniform on 0..top, so each bucket holds its share of that range
            top = workloads.AMP_MAX_TOTAL if "amplitude" in kind else workloads.PROB_MAX_TOTAL
            for name, lo, hi in workloads.BUCKETS:
                expected = (min(top, hi if hi is not None else top) - lo + 1) / (top + 1)
                assert abs(buckets[(kind, name)] / kinds[kind] - expected) < 0.035, (seed, kind, name)


def test_queries_cover_the_stated_totals_and_are_reachable():
    seen = set()
    for block in blocks(3, 300):
        for kind, i, k, n, literal in block:
            assert min(i, k, n) >= 0
            total = workloads.cell_total((kind, i, k, n, literal))
            top = workloads.AMP_MAX_TOTAL if "amplitude" in kind else workloads.PROB_MAX_TOTAL
            assert total <= top
            if kind.startswith("tms"):
                assert n + k - i >= 0
            seen.add((kind, workloads.bucket(total)))
    assert ("bs_amplitude", "t193p") in seen and ("tms_amplitude", "t193p") in seen


# ---------------------------------------------------------------------------
# oracle


def _literal_double_sum(i: int, k: int, n: int, eta: Fraction) -> Fraction:
    lo, hi = max(0, n - k), min(i, n)
    total = Fraction(0)
    for m in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            coeff = math.comb(i, m) * math.comb(k, n - m) * math.comb(n, j) * math.comb(i + k - n, i - j)
            term = coeff * eta ** (k - n + m + j) * (1 - eta) ** (i + n - m - j)
            total += -term if (m + j) % 2 else term
    return total


def test_oracle_matches_the_literal_double_sum_and_fockmix():
    import fockmix

    for eta in (Fraction(1, 2), Fraction(3, 10), Fraction(1, 1000)):
        for i, k in itertools.product(range(5), repeat=2):
            row = [oracle.bs_prob(i, k, n, eta) for n in range(i + k + 1)]
            assert sum(row) == 1
            for n, value in enumerate(row):
                assert value == _literal_double_sum(i, k, n, eta)
                assert value == fockmix.bs_prob_exact(fockmix.PhotonConfig(i, k, n), eta)
    lam = Fraction(3, 5)
    for i, k, n in itertools.product(range(4), repeat=3):
        cfg = fockmix.PhotonConfig(i, k, n, fockmix.Device.TMS)
        assert oracle.tms_prob(i, k, n, lam) == fockmix.tms_prob_exact(cfg, lam)


def test_oracle_flags_perturbed_values():
    q = ("bs_prob_direct", 30, 25, 27, "3/10")
    exact = oracle.bs_prob(30, 25, 27, Fraction(3, 10))
    assert not oracle.check_cell(q, float(exact))
    assert oracle.check_cell(q, float(exact) + 2e-12)
    assert oracle.check_cell(("bs_prob_direct", 30, 25, 27, "0.3"), float(exact) - 2e-12)

    t = ("tms_prob", 4, 6, 5, "1/2")
    exact_t = oracle.tms_prob(4, 6, 5, Fraction(1, 2))
    assert not oracle.check_cell(t, float(exact_t))
    assert oracle.check_cell(t, float(exact_t) + 1e-11)

    e = ("bs_prob_exact", 3, 4, 2, "1/1000")
    exact_e = oracle.bs_prob(3, 4, 2, Fraction(1, 1000))
    assert not oracle.check_cell(e, exact_e)
    assert oracle.check_cell(e, exact_e + Fraction(1, 10**40))
    assert oracle.check_cell(e, float(exact_e))

    a = ("bs_amplitude", 30, 25, 27, "3/10")
    amp = math.sqrt(float(exact))
    assert not oracle.check_cell(a, amp) and not oracle.check_cell(a, -amp)
    assert oracle.check_cell(a, math.sqrt(float(exact) + 1e-11))
    assert oracle.check_cell(a, 1.5)
    assert oracle.check_cell(a, math.nan)

    entries = [(2, 3, n, float(oracle.bs_prob(2, 3, n, Fraction(1, 2)))) for n in range(6)]
    assert oracle.check_entries("bs", "float", Fraction(1, 2), entries) == 0
    entries[4] = (2, 3, 4, entries[4][3] * (1 + 1e-9) + 1e-12)
    assert oracle.check_entries("bs", "float", Fraction(1, 2), entries) == 1
    rational = [(1, 2, n, oracle.tms_prob(1, 2, n, Fraction(1, 4))) for n in range(5)]
    assert oracle.check_entries("tms", "rational", Fraction(1, 4), rational) == 0
    rational[0] = (1, 2, 0, rational[0][3] + Fraction(1, 10**30))
    assert oracle.check_entries("tms", "rational", Fraction(1, 4), rational) == 1


# ---------------------------------------------------------------------------
# tracing and runs


def _child(tmp_path, workload: str, work: int, trace: bool, sample_speed: bool = False) -> dict:
    spec = {
        "workload": workload,
        "seed": 11,
        "src": os.path.join(ROOT, "src"),
        "work_dir": str(tmp_path),
        "spans_path": str(tmp_path / "spans.npz"),
        "trace": trace,
        "sample_speed": sample_speed,
        "work": work,
    }
    tag = "traced" if trace else "plain"
    spec_path, result_path = tmp_path / f"{tag}.spec.json", tmp_path / f"{tag}.json"
    spec_path.write_text(json.dumps(spec))
    env = bench.child_env(spec["src"])
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), str(spec_path), str(result_path)],
                   env=env, check=True, timeout=170)
    return json.loads(result_path.read_text())


@pytest.mark.parametrize("workload, work", [("cells", 20), ("fill", 1)])
def test_traced_and_untraced_runs_give_identical_outputs(tmp_path, workload, work):
    plain = _child(tmp_path, workload, work, False)
    traced = _child(tmp_path, workload, work, True)
    assert bench.verdict([plain, traced])
    assert plain["digest"] == traced["digest"]
    assert plain["failed"] == traced["failed"] and plain["units"] == traced["units"]
    assert plain["layers"] is None
    assert set(traced["layers"]) == {name for name, _ in tracing.PER_LAYER if not name.startswith("trace.")}
    assert traced["spans"] > 0 and (tmp_path / "spans.npz").exists()
    if workload == "fill":
        assert not any(traced["failed"])
        assert traced["layers"]["recurrences.bs_table_recurrence.self_s.float"] > 0
        assert traced["layers"]["probabilities.bs_prob_direct.calls.t0_32"] == 0
        # the oracle reads the built tables without going through the library
        assert traced["layers"]["recurrences.ProbabilityTable.value.calls"] == 0
    else:
        assert traced["layers"]["recurrences.entries_built"] == 0
        calls = sum(traced["layers"][f"probabilities.bs_prob_direct.calls.{b}"] for b in tracing.BUCKET_NAMES)
        # bs_prob_direct queries plus the bridge call inside each tms_prob query
        assert calls == 20 * (workloads.CELL_SHARES["bs_prob_direct"] + workloads.CELL_SHARES["tms_prob"])


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("numerics.gamma_small", lambda: sum(range(20000)))
    outer = tracer.wrap("numerics.gamma_capital", lambda: [inner() for _ in range(3)])
    outer()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["numerics.gamma_small.calls"] == 3 and metrics["numerics.gamma_capital.calls"] == 1
    total = tracer.ends[0] - tracer.starts[0]
    children = sum(tracer.ends[i] - tracer.starts[i] for i in (1, 2, 3))
    assert metrics["numerics.gamma_capital.self_s"] == pytest.approx(total - children)
    assert list(tracer.parents) == [-1, 0, 0, 0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail(list(range(1200))) == (1188, 99)
    assert bench.tail(list(range(100))) == (75, 75)
    assert bench.tail(list(range(27))) == (13, 50)
    with pytest.raises(ValueError):
        bench.tail(list(range(15)))


def test_end_to_end_figures():
    seconds = [0.001] * 1900 + [0.003] * 100
    cells = {"units": [1] * len(seconds), "peak_rss_mb": 50.0}
    values, notes = bench.end_to_end("cells", cells, seconds, [0.2, 0.1, 0.1, 0.3, 0.1])
    assert values["ops_per_s"] == pytest.approx(2000 / 2.2)
    assert values["op_p50_ms"] == pytest.approx(1.0)
    assert values["op_tail_ms"] == pytest.approx(3.0)
    assert "p99, with 19 samples beyond it" in notes[1]
    assert values["setup_s"] == 0.1

    # fill and verify take the median of each operation's repeats
    fill = {"kinds": ["a", "b", "c", "d"] * 5, "units": [10, 20, 30, 40] * 5, "peak_rss_mb": 50.0}
    seconds = [0.1, 0.2, 0.4, 0.8] * 3 + [0.5, 0.9, 1.9, 2.0] + [0.01, 0.02, 0.04, 0.08]
    values, _ = bench.end_to_end("fill", fill, seconds, [0.1])
    assert values["ops_per_s"] == pytest.approx(100 / 1.5)
    assert values["op_p50_ms"] == pytest.approx(300.0)
    assert values["op_tail_ms"] == pytest.approx(800.0)


def test_timings_are_scaled_by_the_speed_samples_around_each_operation():
    step = speed.INTERVAL_S
    nominal, half = speed.REFERENCE_S, 2 * speed.REFERENCE_S
    # the machine runs at half speed for the first second, then at full speed
    at = [step * j for j in range(40)]
    took = [half if t < 1.0 else nominal for t in at]
    ops = {
        "starts": [0.3, 1.5, 0.5],
        "ends": [0.301, 1.502, 1.5 - 1e-9],
        "seconds": [0.001, 0.002, 1.0],
        "sample_at": at,
        "sample_s": took,
    }
    short_slow, short_fast, long_op = speed.scaled_seconds(ops)
    assert short_slow == pytest.approx(0.0005)
    assert short_fast == pytest.approx(0.002)
    # samples from 0.45 to 1.5 s: 11 at half speed and 11 at full speed
    assert long_op == pytest.approx(1.0 * nominal / ((11 * half + 11 * nominal) / 22))
    with pytest.raises(ValueError):
        speed.scaled_seconds(dict(ops, sample_at=[], sample_s=[]))


def test_speed_samples_are_left_out_of_the_operations(tmp_path):
    res = _child(tmp_path, "verify", 1, False, sample_speed=True)
    assert len(res["sample_s"]) > 20 and all(t > 0 for t in res["sample_s"])
    assert res["sample_at"] == sorted(res["sample_at"])
    for start, end, seconds in zip(res["starts"], res["ends"], res["seconds"]):
        assert 0 < seconds <= end - start
        if any(start < t < end for t in res["sample_at"]):
            assert seconds < end - start
    assert not any(res["failed"])


def _verdict(checked: list[tuple[bool, bool]]) -> bool:
    """bench.verdict on a child result whose operations were recorded with
    these (failed, known_defect) flags."""
    run = child.Run(None, None)
    for failed, known in checked:
        run.record(1, failed, b"", known)
    return bench.verdict([{"failed": run.failed, "unexpected_failures": run.unexpected}])


def test_a_value_off_the_oracle_makes_the_run_incorrect():
    exact = oracle.bs_prob(30, 25, 27, Fraction(3, 10))
    low = ("bs_amplitude", 30, 25, 27, "3/10")
    high = ("bs_amplitude", 120, 110, 100, "3/10")
    direct = ("bs_prob_direct", 30, 25, 27, "3/10")
    assert not oracle.known_defect(low) and not oracle.known_defect(direct)
    assert oracle.known_defect(high) and oracle.known_defect(("tms_amplitude", 0, 100, 100, "1/2"))

    def judged(query, value):
        return oracle.check_cell(query, value), oracle.known_defect(query)

    good = [judged(direct, float(exact)), judged(low, math.sqrt(float(exact)))]
    assert _verdict(good)
    # A wrong amplitude at total 230 is ROADMAP item 2's defect: counted, still correct.
    assert _verdict(good + [judged(high, 2.0)])
    # A perturbed value anywhere else makes the run incorrect.
    assert not _verdict(good + [judged(direct, float(exact) + 2e-12)])
    assert not _verdict(good + [judged(low, 2.0)])
    # fill and verify record no known defect, so any failure is incorrect.
    assert not _verdict([(False, False), (True, False)])
    assert not _verdict([])


def test_run_fails_without_the_library(tmp_path):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cells", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
