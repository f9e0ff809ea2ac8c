"""The exact identity suites compare cross-multiplied integers; a wrong table
entry must fail exactly the cases whose Fraction residual is non-zero, and
report that residual."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import fockmix.verify as verify
from fockmix.params import BeamSplitterParam, SqueezerParam
from fockmix.recurrences import bs_recurrence_check, bs_tilde, tms_recurrence_check

_CELL = re.compile(r"\(i=(\d+),k=(\d+),n=(\d+),j=(\d+)\)")


def _with_wrong_entry(builder, key, n):
    """builder, with entry n of row key moved by 1/7 in rational tables."""

    def build(*args, **kwargs):
        table = builder(*args, **kwargs)
        if table.precision == "rational":
            row = list(table.entries[key])
            row[n] += Fraction(1, 7)
            table.entries[key] = row
        return table

    return build


def _identity_failures(result, parameter):
    out = {}
    for f in result.failures:
        cell = _CELL.fullmatch(f.indices)
        if cell and f.parameter == parameter:
            out[tuple(map(int, cell.groups()))] = abs(Fraction(f.got))
    return out


def test_exact_identity_suites_pass():
    for name in ("recurrence-bs", "recurrence-tms"):
        assert verify.run_suite(name, "quick").ok


def test_recurrence_bs_reports_the_fraction_residual_of_a_wrong_entry(monkeypatch):
    build = _with_wrong_entry(verify.bs_table_direct, (3, 2), 2)
    monkeypatch.setattr(verify, "bs_table_direct", build)
    failures = _identity_failures(verify.run_suite("recurrence-bs", "quick"), "eta=1/4")
    table = build(6, 6, BeamSplitterParam.from_value("1/4"), "rational")
    want = {}
    for i in range(7):
        for k in range(7):
            for j in range(i + k + 1):
                for n in range(i + k + 1):
                    residual = bs_recurrence_check(i, k, n, j, table)
                    if residual:
                        want[(i, k, n, j)] = residual
    assert (3, 2, 2, 1) in want and failures == want


def test_recurrence_tms_reports_the_fraction_residual_of_a_wrong_entry(monkeypatch):
    build = _with_wrong_entry(verify.tms_table_direct, (2, 3), 1)
    monkeypatch.setattr(verify, "tms_table_direct", build)
    failures = _identity_failures(verify.run_suite("recurrence-tms", "quick"), "lam=1/2")
    table = build(4, 8, 4, SqueezerParam.from_value("1/2"), "rational")
    want = {}
    for i in range(5):
        for k in range(5):
            for n in range(5):
                for j in range(n + k + 1):
                    residual = tms_recurrence_check(i, k, n, j, table)
                    if residual:
                        want[(i, k, n, j)] = residual
    assert (2, 3, 1, 1) in want and failures == want


def test_identity_failures_keep_their_fields_order_and_case_counts(monkeypatch):
    # Passing cases are counted without building their text; a failing one
    # still reports the signed Fraction residual in loop order (eta, i, k, j, n).
    cases = verify.run_suite("recurrence-bs", "quick").cases
    build = _with_wrong_entry(verify.bs_table_direct, (3, 2), 2)
    monkeypatch.setattr(verify, "bs_table_direct", build)
    result = verify.run_suite("recurrence-bs", "quick")
    assert result.cases == cases
    identity = [f for f in result.failures if _CELL.fullmatch(f.indices)]
    by_eta = {}
    for f in identity:
        i, k, n, j = map(int, _CELL.fullmatch(f.indices).groups())
        by_eta.setdefault(f.parameter, []).append((i, k, j, n))
    assert all(cells == sorted(cells) for cells in by_eta.values())
    table = build(6, 6, BeamSplitterParam.from_value("1/4"), "rational")
    signed = table.value(3, 2, 2) - (bs_tilde(3, 2, 1, 2, table) - bs_tilde(2, 1, 0, 1, table))
    want = verify.Failure("(i=3,k=2,n=2,j=1)", "eta=1/4", "residual 0 (exact)", str(signed), "exact")
    assert signed != 0 and want in identity


def _with_nan_row(builder, key):
    """builder, with one NaN in row key of its float tables."""

    def build(*args, **kwargs):
        table = builder(*args, **kwargs)
        if table.precision == "float":
            row = np.array(table.entries[key])
            row[1] = math.nan
            table.entries[key] = row
        return table

    return build


@pytest.mark.parametrize(
    "suite, builder, key, check",
    [
        ("recurrence-bs", "bs_table_recurrence", (4, 3), "direct vs recurrence i,k<=12"),
        ("recurrence-bs", "bs_table_direct", (4, 3), "j=1 float i,k<=10"),
        ("recurrence-tms", "tms_table_recurrence", (2, 5), "recurrence vs direct i,k<=8,n<=16"),
    ],
)
def test_a_nan_entry_fails_its_float_check(monkeypatch, suite, builder, key, check):
    # max(0.0, nan) is 0.0, so a worst-residual accumulator on the built-in
    # max would drop the NaN and pass.
    monkeypatch.setattr(verify, builder, _with_nan_row(getattr(verify, builder), key))
    result = verify.run_suite(suite, "quick")
    failed = {f.indices: f.got for f in result.failures}
    assert failed.get(check) == "nan"
