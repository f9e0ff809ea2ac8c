"""Span tracing around the public functions of each fockmix module.

``install`` replaces every listed function with a wrapper that records a span
(name, start, end, parent span, op id) in flat in-memory arrays. The wrapper
goes into the defining module, into every fockmix module that bound the
function with ``from .x import name``, and onto the table classes for
methods, so calls between modules are traced as well as calls from outside.
Nothing in fockmix itself changes.

A span's self time is its duration minus the durations of its child spans.
``layer_metrics`` turns the spans into the per-layer metrics of
``PER_LAYER``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

import oracle
from workloads import BUCKETS, SUITES, bucket

BUCKET_NAMES = [name for name, _, _ in BUCKETS]


def _per_layer() -> list[tuple[str, str]]:
    out = []
    direct = "probabilities.bs_prob_direct"
    for stat, unit in (("calls", "count"), ("self_s", "s")):
        out += [(f"{direct}.{stat}.{b}", unit) for b in BUCKET_NAMES]
    out += [(f"{direct}.self_s.carrier", "s"), (f"{direct}.self_s.float_only", "s")]
    out += [("probabilities.bs_prob_exact.calls", "count"), ("probabilities.bs_prob_exact.self_s", "s")]
    out += [(f"probabilities.escalation_ratio.{b}", "ratio") for b in BUCKET_NAMES]
    out += [(f"probabilities.{f}.self_s", "s") for f in ("tms_prob", "bs_prob_double_sum", "normalization_residual")]
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("wrong", "count")):
        out += [(f"amplitudes.bs_amplitude.{stat}.{b}", unit) for b in BUCKET_NAMES]
    out += [(f"amplitudes.{f}.self_s", "s") for f in ("tms_amplitude", "bs_amplitude_direct", "bs_amplitude_convolution")]
    for f in ("log_binomial", "sqrt_binomial", "gamma_capital", "gamma_small"):
        out += [(f"numerics.{f}.calls", "count"), (f"numerics.{f}.self_s", "s")]
    out += [("numerics.binomial_exact.calls", "count")]
    for f in ("bs_table_recurrence", "tms_table_recurrence"):
        out += [(f"recurrences.{f}.self_s.float", "s"), (f"recurrences.{f}.self_s.rational", "s")]
    out += [(f"recurrences.{f}.self_s", "s") for f in ("bs_table_direct", "bs_table_convolution")]
    out += [("recurrences.entries_built", "count")]
    for f in ("ProbabilityTable.row", "ProbabilityTable.value", "ProbabilityTable.normalization_max_residual",
              "bs_tilde_row", "ClassicalTable.row", "ClassicalTable.prob"):
        out += [(f"recurrences.{f}.calls", "count"), (f"recurrences.{f}.self_s", "s")]
    out += [(f"recurrences.{f}.self_s", "s") for f in ("tms_recurrence_check", "classical_recurrence_check")]
    out += [(f"genfun.{f}.self_s", "s") for f in ("f_bs_series", "g_bs_series", "g_tms_series", "diagonal_series_bs")]
    out += [("asymptotics.convergence_report.self_s", "s")]
    for suite in SUITES:
        out += [(f"verify.{suite}.s", "s"), (f"verify.{suite}.cases", "count")]
    out += [("cli.table.self_s", "s"), ("cli.table.bytes", "bytes"), ("cli.verify.self_s", "s")]
    out += [("trace.overhead", "ratio"), ("trace.ops_per_s.traced", "1/s"), ("trace.ops_per_s.untraced", "1/s")]
    return out


PER_LAYER = _per_layer()


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self._stack = [-1]
        self.op = -1
        self.entries_built = 0
        self.table_bytes = 0
        self.suite_cases: dict[str, int] = {}
        self.amplitudes: list[tuple] = []

    def wrap(self, fixed: str, fn, label=None, post=None):
        """Span-recording wrapper; ``label(args, kwargs)`` names the span when
        given, and ``post(args, kwargs, result)`` runs after the span ends."""
        ids, names = self._ids, self.names
        name_ids, starts, ends, parents, ops = self.name_ids, self.starts, self.ends, self.parents, self.ops
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = fixed if label is None else label(args, kwargs)
            nid = ids.get(name)
            if nid is None:
                nid = ids[name] = len(names)
                names.append(name)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def write(self, path: str) -> None:
        """Write every span to ``path`` as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.ops, dtype=np.int32),
        )


def _bucket_of_cell(args, kwargs) -> str:
    c = args[0]
    return bucket(c.i + c.k)


def install(tracer: Tracer) -> None:
    """Wrap every traced fockmix function and method in place."""
    from fockmix import amplitudes, asymptotics, cli, genfun, numerics, probabilities, recurrences, verify

    def direct_label(args, kwargs):
        p = _arg(args, kwargs, 1, "p")
        kind = "carrier" if p.eta_exact is not None else "float_only"
        return f"probabilities.bs_prob_direct|{_bucket_of_cell(args, kwargs)}|{kind}"

    def amplitude_label(args, kwargs):
        return f"amplitudes.bs_amplitude|{_bucket_of_cell(args, kwargs)}"

    def amplitude_post(args, kwargs, result):
        c, p = args[0], _arg(args, kwargs, 1, "p")
        eta = p.eta_exact if p.eta_exact is not None else Fraction(repr(p.eta))
        tracer.amplitudes.append((c.i, c.k, c.n, eta, result))

    def precision_label(name, pos):
        return lambda args, kwargs: f"{name}|{_arg(args, kwargs, pos, 'precision', 'float')}"

    def entries_post(args, kwargs, table):
        tracer.entries_built += sum(len(row) for row in table.entries.values())

    def suite_label(args, kwargs):
        return f"verify.{_arg(args, kwargs, 0, 'name')}"

    def suite_post(args, kwargs, result):
        tracer.suite_cases[result.suite] = tracer.suite_cases.get(result.suite, 0) + result.cases

    def table_bytes_post(args, kwargs, result):
        out = kwargs.get("out")
        if out and os.path.exists(out):
            tracer.table_bytes += os.path.getsize(out)

    functions = [
        (numerics, "binomial_exact", {}),
        (numerics, "log_binomial", {}),
        (numerics, "sqrt_binomial", {}),
        (numerics, "gamma_capital", {}),
        (numerics, "gamma_small", {}),
        (probabilities, "bs_prob_direct", {"label": direct_label}),
        (probabilities, "bs_prob_exact", {}),
        (probabilities, "bs_prob_double_sum", {}),
        (probabilities, "tms_prob", {}),
        (probabilities, "normalization_residual", {}),
        (amplitudes, "bs_amplitude", {"label": amplitude_label, "post": amplitude_post}),
        (amplitudes, "tms_amplitude", {}),
        (amplitudes, "bs_amplitude_direct", {}),
        (amplitudes, "bs_amplitude_convolution", {}),
        (recurrences, "bs_table_recurrence",
         {"label": precision_label("recurrences.bs_table_recurrence", 3), "post": entries_post}),
        (recurrences, "tms_table_recurrence",
         {"label": precision_label("recurrences.tms_table_recurrence", 4), "post": entries_post}),
        (recurrences, "bs_table_direct", {"post": entries_post}),
        (recurrences, "bs_table_convolution", {"post": entries_post}),
        (recurrences, "tms_table_direct", {"post": entries_post}),
        (recurrences, "bs_tilde_row", {}),
        (recurrences, "tms_recurrence_check", {}),
        (recurrences, "classical_recurrence_check", {}),
        (genfun, "f_bs_series", {}),
        (genfun, "g_bs_series", {}),
        (genfun, "g_tms_series", {}),
        (genfun, "diagonal_series_bs", {}),
        (asymptotics, "convergence_report", {}),
        (verify, "run_suite", {"label": suite_label, "post": suite_post}),
    ]
    modules = [m for name, m in sys.modules.items() if name == "fockmix" or name.startswith("fockmix.")]
    for module, attr, hooks in functions:
        original = getattr(module, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            raise RuntimeError(f"{module.__name__}.{attr} is already traced")
        wrapper = tracer.wrap(f"{module.__name__.removeprefix('fockmix.')}.{attr}", original, **hooks)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)

    for cls, methods in ((recurrences.ProbabilityTable, ("row", "value", "normalization_max_residual")),
                         (recurrences.ClassicalTable, ("row", "prob"))):
        for method in methods:
            setattr(cls, method, tracer.wrap(f"recurrences.{cls.__name__}.{method}", getattr(cls, method)))

    cli.table.callback = tracer.wrap("cli.table", cli.table.callback, post=table_bytes_post)
    cli.verify.callback = tracer.wrap("cli.verify", cli.verify.callback)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except the trace.* ones, from the recorded spans.

    Metrics of layers the workload never calls are reported as 0.
    """
    name_id = np.frombuffer(tracer.name_ids, dtype=np.int32)
    start = np.frombuffer(tracer.starts, dtype=np.float64)
    end = np.frombuffer(tracer.ends, dtype=np.float64)
    parent = np.frombuffer(tracer.parents, dtype=np.int32)
    duration = end - start
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
    self_time = duration - child_time
    labels = len(tracer.names)
    calls = np.bincount(name_id, minlength=labels)
    self_by = np.bincount(name_id, weights=self_time, minlength=labels)
    dur_by = np.bincount(name_id, weights=duration, minlength=labels)

    exact_id = tracer._ids.get("probabilities.bs_prob_exact")
    escalated = np.zeros(labels, dtype=np.int64)
    if exact_id is not None:
        exact_parents = parent[(name_id == exact_id) & nested]
        escalated = np.bincount(name_id[exact_parents], minlength=labels)

    def total(array, match) -> float:
        return float(sum(array[i] for i, name in enumerate(tracer.names) if match(name.split("|"))))

    def label_is(base, *tags):
        return lambda parts: parts[0] == base and all(t in parts[1:] for t in tags)

    metrics: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        head, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            metrics[name] = total(calls if stat == "calls" else self_by, label_is(head))
    direct = "probabilities.bs_prob_direct"
    for b in BUCKET_NAMES:
        n_calls = total(calls, label_is(direct, b))
        metrics[f"{direct}.calls.{b}"] = n_calls
        metrics[f"{direct}.self_s.{b}"] = total(self_by, label_is(direct, b))
        metrics[f"probabilities.escalation_ratio.{b}"] = (
            total(escalated, label_is(direct, b)) / n_calls if n_calls else 0.0
        )
        amp = "amplitudes.bs_amplitude"
        metrics[f"{amp}.calls.{b}"] = total(calls, label_is(amp, b))
        metrics[f"{amp}.self_s.{b}"] = total(self_by, label_is(amp, b))
        metrics[f"{amp}.wrong.{b}"] = 0.0
    for kind in ("carrier", "float_only"):
        metrics[f"{direct}.self_s.{kind}"] = total(self_by, label_is(direct, kind))
    for f in ("bs_table_recurrence", "tms_table_recurrence"):
        for precision in ("float", "rational"):
            metrics[f"recurrences.{f}.self_s.{precision}"] = total(self_by, label_is(f"recurrences.{f}", precision))
    metrics["recurrences.entries_built"] = float(tracer.entries_built)
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = total(dur_by, label_is(f"verify.{suite}"))
        metrics[f"verify.{suite}.cases"] = float(tracer.suite_cases.get(suite, 0))
    metrics["cli.table.bytes"] = float(tracer.table_bytes)

    cache: dict[tuple, Fraction] = {}
    for i, k, n, eta, amp in tracer.amplitudes:
        key = (i, k, n, eta)
        if key not in cache:
            cache[key] = oracle.bs_prob(i, k, n, eta)
        if oracle.amplitude_off(amp, cache[key]):
            metrics[f"amplitudes.bs_amplitude.wrong.{bucket(i + k)}"] += 1.0
    missing = [name for name, _ in PER_LAYER if name not in metrics and not name.startswith("trace.")]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return metrics
