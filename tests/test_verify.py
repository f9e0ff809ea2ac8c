"""The exact identity suites compare cross-multiplied integers; a wrong table
entry must fail exactly the cases whose Fraction residual is non-zero, and
report that residual."""

import re
from fractions import Fraction

import fockmix.verify as verify
from fockmix.params import BeamSplitterParam, SqueezerParam
from fockmix.recurrences import bs_recurrence_check, tms_recurrence_check

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
