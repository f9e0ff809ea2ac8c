"""The exact identity suites compare integer rows of the exact engine; a
wrong engine cell must fail exactly the cases whose Fraction residual is
non-zero, and report that residual."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fockmix.probabilities as probabilities
import fockmix.recurrences as recurrences
import fockmix.verify as verify
from fock_oracle import bs_tilde_row_reference, moved, tms_tilde_reference
from fockmix.errors import ConvergenceError
from fockmix.params import BeamSplitterParam, PhotonConfig, SqueezerParam
from fockmix.probabilities import bs_prob_direct, normalization_residual
from fockmix.recurrences import (
    bs_recurrence_check,
    bs_table_convolution,
    bs_table_direct,
    bs_table_recurrence,
    bs_tilde_row,
    tms_recurrence_check,
    tms_table_direct,
)

_CELL = re.compile(r"\(i=(\d+),k=(\d+),n=(\d+),j=(\d+)\)")


def _bs_cell(key, n):
    """Walk coordinates (s, i, k) of cell n of beam-splitter row key: shell
    s = i+k, column k = s-n."""
    i, k = key
    return i + k, i, i + k - n


def _tms_cell(key, step):
    """Walk coordinates (s, i, k) of cell n = max(0, i-k) + step of squeezer
    row key: its bridge shell s = k+n, column k."""
    i, k = key
    return k + max(0, i - k) + step, i, k


def _with_moved_cell(ratio, at, by=1):
    """_top_coefficient_walk, with the exact numerator t*Y*V of its cell
    at = (s, i, k) moved by `by` at num/den = ratio, and every other cell
    as it was: on shell s, sums(i) gives the moved cell the factors
    (t*Y*V + by, 1, 1)."""
    walk = probabilities._top_coefficient_walk
    s, i, k = at

    def moved(num, den, shells, own=None, bridge=False):
        for shell, (rows, ks, q, sums) in enumerate(walk(num, den, shells, own, bridge)):
            if (num, den) == ratio and shell == s:
                sums = _moved_row(sums, i, k - ks.start, by)
            yield rows, ks, q, sums

    return moved


def _moved_row(sums, i, c, by):
    """sums, with the factors of entry c of row i made (t*Y*V + by, 1, 1);
    every row comes as copies, as the walk's own lists must not change."""

    def moved(row):
        t, y, v = map(list, sums(row))
        if row == i:
            t[c], y[c], v[c] = t[c] * y[c] * v[c] + by, 1, 1
        return t, y, v

    return moved


def _identity_failures(result, parameter):
    out = {}
    for f in result.failures:
        cell = _CELL.fullmatch(f.indices)
        if cell and f.parameter == parameter:
            out[tuple(map(int, cell.groups()))] = abs(Fraction(f.got))
    return out


def test_an_unsettled_squeezer_row_fails_its_own_case_with_its_error_text(monkeypatch):
    cases = verify.run_suite("normalization").cases
    monkeypatch.setattr(probabilities, "_TAIL_TOLERANCE", 0.0)  # no row can settle, so each runs to its cutoff
    result = verify.run_suite("normalization")
    want = []
    for lam in (0.5, 0.8):
        for i in range(9):
            for k in range(9):
                with pytest.raises(ConvergenceError) as exc:
                    normalization_residual(i, k, SqueezerParam(lam))
                want.append(verify.Failure(f"tms row (i={i},k={k})", f"lam={lam}", "sum=1", str(exc.value), "1e-10"))
    geometric = verify.Failure("tms row (0,0)", "lam=0.5", "geometric sum 1", want[0].got, "1e-12")
    assert result.cases == cases and result.failures == [*want, geometric]


def test_hom_sweep_is_the_direct_route_bit_for_bit():
    # Summed in floats, the cell is 0.06760000000000002 at 0.37; the exact
    # value rounds to 0.06760000000000001.
    cell = PhotonConfig(1, 1, 1)
    sweep = verify.hom_sweep(101)
    assert len(sweep) == 101
    for eta, value in sweep:
        assert value == bs_prob_direct(cell, BeamSplitterParam(eta)), eta


@pytest.mark.parametrize("sweep", [verify.hom_sweep, verify.tms_sweep])
@pytest.mark.parametrize("steps", [1, 0, -3])
def test_a_sweep_of_fewer_than_two_steps_raises_before_any_work(monkeypatch, sweep, steps):
    # One step divided by zero, and no step or fewer gave an empty sweep.
    monkeypatch.setattr(verify, "bs_prob_double_sum", _refuse("was summed"))
    with pytest.raises(ValueError, match="^steps must be at least 2$"):
        sweep(steps)


def test_exact_identity_suites_pass():
    for name in ("recurrence-bs", "recurrence-tms"):
        assert verify.run_suite(name).ok


def test_recurrence_bs_reports_the_fraction_residual_of_a_wrong_entry(monkeypatch):
    monkeypatch.setattr(recurrences, "_top_coefficient_walk", _with_moved_cell((1, 4), _bs_cell((3, 2), 2)))
    failures = _identity_failures(verify.run_suite("recurrence-bs"), "eta=1/4")
    table = bs_table_direct(8, 8, BeamSplitterParam.from_value("1/4"), "rational")
    want = {}
    for i in range(9):
        for k in range(9):
            for j in range(i + k + 1):
                for n in range(i + k + 1):
                    residual = bs_recurrence_check(i, k, n, j, table)
                    if residual:
                        want[(i, k, n, j)] = residual
    assert (3, 2, 2, 1) in want and failures == want


def test_recurrence_tms_reports_the_fraction_residual_of_a_wrong_entry(monkeypatch):
    monkeypatch.setattr(recurrences, "_top_coefficient_walk", _with_moved_cell((1, 2), _tms_cell((2, 3), 1)))
    failures = _identity_failures(verify.run_suite("recurrence-tms"), "lam=1/2")
    table = tms_table_direct(6, 12, 6, SqueezerParam.from_value("1/2"), "rational")
    want = {}
    for i in range(7):
        for k in range(7):
            for n in range(7):
                for j in range(n + k + 1):
                    residual = tms_recurrence_check(i, k, n, j, table)
                    if residual:
                        want[(i, k, n, j)] = residual
    assert (2, 3, 1, 1) in want and failures == want


def test_identity_failures_keep_their_fields_order_and_case_counts(monkeypatch):
    # Passing cases are counted without building their text; a failing one
    # still reports the signed Fraction residual in loop order (eta, i, k, j, n).
    cases = verify.run_suite("recurrence-bs").cases
    monkeypatch.setattr(recurrences, "_top_coefficient_walk", _with_moved_cell((1, 4), _bs_cell((3, 2), 2)))
    result = verify.run_suite("recurrence-bs")
    assert result.cases == cases
    identity = [f for f in result.failures if _CELL.fullmatch(f.indices)]
    by_eta = {}
    for f in identity:
        i, k, n, j = map(int, _CELL.fullmatch(f.indices).groups())
        by_eta.setdefault(f.parameter, []).append((i, k, j, n))
    assert all(cells == sorted(cells) for cells in by_eta.values())
    table = bs_table_direct(6, 6, BeamSplitterParam.from_value("1/4"), "rational")
    signed = table.value(3, 2, 2) - (bs_tilde_row(3, 2, 1, table)[2] - bs_tilde_row(2, 1, 0, table)[1])
    want = verify.Failure("(i=3,k=2,n=2,j=1)", "eta=1/4", "residual 0 (exact)", str(signed), "exact")
    assert signed != 0 and want in identity


def _run_exact_identity_blocks():
    """The full-scale theorem 1 and theorem 2 blocks; each must pass with
    its full case count."""
    res = verify.VerificationResult("exact identities")
    etas = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    verify._identity_exact(res, "eta", etas, BeamSplitterParam, 8, 8)
    assert res.ok and res.cases == 5 * sum((i + k + 1) ** 2 for i in range(9) for k in range(9)) == 38205
    res = verify.VerificationResult("exact identities")
    verify._identity_exact(res, "lam", ["1/4", "1/2", "3/4"], SqueezerParam, 6, 6, 6)
    assert res.ok and res.cases == 3 * sum(n + k + 1 for i in range(7) for k in range(7) for n in range(7)) == 7203


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"an exact identity block {what}")

    return refuse


def test_exact_identity_blocks_build_only_rational_direct_tables(monkeypatch):
    # The identity rows are the integer buffers of the rational direct
    # tables, one table per parameter; no fill runs.
    built, init = [], recurrences.ProbabilityTable.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.device.value, self.method, self.precision))

    monkeypatch.setattr(recurrences.ProbabilityTable, "__init__", record)
    _run_exact_identity_blocks()
    assert built == [("bs", "direct", "rational")] * 5 + [("tms", "direct", "rational")] * 3


def test_exact_identity_blocks_sum_no_unpacked_rows(monkeypatch):
    # The identity rows are summed packed; _term_sum serves float and
    # rational table rows only.
    monkeypatch.setattr(recurrences, "_term_sum", _refuse("called _term_sum"))
    _run_exact_identity_blocks()


def test_a_negative_engine_entry_raises_instead_of_wrapping(monkeypatch):
    # A negative entry would borrow from the slot above it in a packed row.
    third = BeamSplitterParam.from_value("1/3")
    uv = bs_table_direct(4, 4, third, "rational").span(3, 2)[2]
    moved = _with_moved_cell((1, 3), _bs_cell((3, 2), 2), -uv - 1)  # entry -1
    monkeypatch.setattr(recurrences, "_top_coefficient_walk", moved)
    with pytest.raises(OverflowError):
        list(recurrences._identity_rows(third, 4, 4))


# Residual rows against the signed Fraction residuals of a rational direct
# table built from the same engine rows, with one engine cell moved so that
# the residuals are not all zero and the powers of den show.
_RATIOS = st.integers(1, 1000).flatmap(lambda q: st.integers(0, q).map(lambda p: f"{p}/{q}"))
_BS_CELLS = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda ik: st.tuples(st.just(ik), st.integers(0, sum(ik)))
)


@settings(max_examples=8, deadline=None)
@given(eta=_RATIOS, cell=_BS_CELLS)
@example(eta="0/1", cell=((3, 2), 2))
@example(eta="1/1", cell=((2, 3), 4))
def test_bs_identity_residual_rows_are_the_fraction_residuals(eta, cell):
    p = BeamSplitterParam.from_value(eta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrences, "_top_coefficient_walk", _with_moved_cell(p.eta_exact.as_integer_ratio(), _bs_cell(*cell)))
        table = bs_table_direct(5, 5, p, "rational")
        got = list(recurrences._identity_rows(p, 5, 5))
    assert [row[:3] for row in got] == [(i, k, j) for i in range(6) for k in range(6) for j in range(i + k + 1)]
    for i, k, j, cells, failures in got:
        cur = bs_tilde_row_reference(i, k, j, table)
        prev = bs_tilde_row_reference(i - 1, k - 1, j - 1, table) if min(i, k, j) >= 1 else []
        want = [table.value(i, k, n) - cur[n] + (prev[n - 1] if 1 <= n <= len(prev) else 0)
                for n in range(i + k + 1)]
        assert (cells, failures) == (i + k + 1, [(n, r) for n, r in enumerate(want) if r])


def _tms_cells(size):
    """((i, k), step): a walk cell of a squeezer row with i, k, n <= size."""
    return st.tuples(st.integers(0, size), st.integers(0, size)).flatmap(
        lambda ik: st.tuples(st.just(ik), st.integers(0, size - max(0, ik[0] - ik[1])))
    )


_TMS_CELLS = _tms_cells(5)


@settings(max_examples=4, deadline=None)
@given(lam=_RATIOS.filter(lambda r: Fraction(r) < 1), cell=_TMS_CELLS)
@example(lam="0/1", cell=((2, 3), 1))
def test_tms_identity_residual_rows_are_the_fraction_residuals(lam, cell):
    sp = SqueezerParam.from_value(lam)
    with pytest.MonkeyPatch.context() as mp:
        ratio = (1 - sp.lam_exact).as_integer_ratio()
        mp.setattr(recurrences, "_top_coefficient_walk", _with_moved_cell(ratio, _tms_cell(*cell)))
        table = tms_table_direct(5, 10, 5, sp, "rational")
        got = list(recurrences._identity_rows(sp, 5, 10, 5))
    assert [row[:3] for row in got] == [(i, k, j) for i in range(6) for k in range(11) for j in range(5 + k + 1)]
    for i, k, j, cells, failures in got:
        want = [
            (1 - sp.lam_exact) * table.value(i, k, n)
            - tms_tilde_reference(i, k, n, j, table)
            + tms_tilde_reference(i - 1, k - 1, n - 1, j - 1, table)
            for n in range(6)
        ]
        low = max(0, j - k)  # the identity asserts n >= j-k only
        assert (cells, failures) == (6 - low, [(n, r) for n, r in enumerate(want) if r and n >= low])


def _engine_rows(p, imax, kmax, nmax=None):
    """(lead, den, rows): the integer rows of the rational direct table, as
    _identity_rows reads them, with no packing."""
    if nmax is None:
        lead, den, table = 1, p.eta_exact.denominator, bs_table_direct(imax, kmax, p, "rational")
    else:
        (lead, den), table = (1 - p.lam_exact).as_integer_ratio(), tms_table_direct(imax, kmax, nmax, p, "rational")
    return lead, den, {key: table.span(*key).tolist() for key in table}


def _unpacked_residual(lead, den, rows, i, k, j, nmax=None):
    """lead*lhs[n] - tilde(i,k,j)[n] + den**2 * tilde(i-1,k-1,j-1)[n-1],
    each tilde row summed entry by entry with _term_sum."""

    def tilde(i, k, j):
        if min(i, k, j) < 0:
            return []
        if nmax is None:
            return recurrences._term_sum(recurrences._bs_tilde_terms(i, k, j, lambda *ik: rows[ik]), i + k + 1)
        return recurrences._term_sum(recurrences._tms_tilde_terms(i, k, j, nmax, lambda *ik: rows[ik]), nmax + 1)

    prev = [0, *tilde(i - 1, k - 1, j - 1)] + [0] * len(rows[(i, k)])
    return [lead * a - b + den * den * c for a, b, c in zip(rows[(i, k)], tilde(i, k, j), prev)]


# One engine cell moved by +1, then by as much as the widest engine entry:
# a slot too narrow for the moved row would carry into its neighbour.
_MOVED_CELLS = st.one_of(st.tuples(st.just("bs"), _BS_CELLS), st.tuples(st.just("tms"), _tms_cells(4)))


@settings(max_examples=60, deadline=None)
@given(ratio=_RATIOS.filter(lambda r: Fraction(r) < 1), moved=_MOVED_CELLS)
@example(ratio="1/1000", moved=("bs", ((5, 5), 10)))
@example(ratio="0/1", moved=("tms", ((0, 4), 4)))
@example(ratio="999/1000", moved=("tms", ((4, 0), 0)))
@example(ratio="0/1", moved=("bs", ((0, 1), 0)))  # row (0, 1) is row (1, 0) reversed
def test_the_packed_compare_fails_exactly_where_the_residual_row_is_nonzero(ratio, moved):
    device, (key, cell) = moved
    if device == "bs":
        p = BeamSplitterParam.from_value(ratio)
        nmax, sizes, at, target = None, (5, 5), _bs_cell(key, cell), p.eta_exact
    else:  # i, n <= 4 over rows with k <= 8
        p = SqueezerParam.from_value(ratio)
        nmax, sizes, at, target = 4, (4, 8, 4), _tms_cell(key, cell), 1 - p.lam_exact
    s, i, k = at
    build = bs_table_direct if nmax is None else tms_table_direct
    shell, r, c = build(*sizes, p, "rational")._shells()[s]
    lo, hi, _ = recurrences._halves(s, *shell.shape, r, c)
    if not lo <= i <= hi:  # a mirrored row, not computed: move the cell it is read from
        at = s, s - i, s - k
    widest = max(map(max, _engine_rows(p, *sizes)[2].values()))
    below = 0
    for by in (1, widest):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrences, "_top_coefficient_walk", _with_moved_cell(target.as_integer_ratio(), at, by))
            got = list(recurrences._identity_rows(p, *sizes))
            lead, den, rows = _engine_rows(p, *sizes)
        failing = 0
        for i, k, j, cells, failures in got:
            row = _unpacked_residual(lead, den, rows, i, k, j, nmax)
            low = max(0, j - k) if nmax else 0  # the squeezer asserts n >= j-k only
            scale = [den ** (k + n + 2 if nmax else i + k) for n in range(len(row))]
            assert cells == len(row) - low
            assert failures == [(n, Fraction(d, scale[n])) for n, d in enumerate(row) if d and n >= low]
            failing += bool(failures)
            below += any(row[:low])
        assert failing  # the moved cell shows
    if nmax:  # rows with j > n+k, non-zero below n = j-k, where the compare must not look
        assert below


def _with_nan_row(builder, key):
    """builder, with one NaN in row key of its float tables."""

    def build(*args, **kwargs):
        table = builder(*args, **kwargs)
        return moved(table, key, 1, math.nan) if table.precision == "float" else table

    return build


@pytest.mark.parametrize(
    "suite, builder, key, check",
    [
        ("recurrence-bs", "bs_table_recurrence", (4, 3), "direct vs recurrence i,k<=25"),
        ("recurrence-bs", "bs_table_direct", (4, 3), "j=1 float i,k<=20"),
        ("recurrence-tms", "tms_table_recurrence", (2, 5), "recurrence vs direct i,k<=8,n<=16"),
    ],
)
def test_a_nan_entry_fails_its_float_check(monkeypatch, suite, builder, key, check):
    # max(0.0, nan) is 0.0, so a worst-residual accumulator on the built-in
    # max would drop the NaN and pass.
    monkeypatch.setattr(verify, builder, _with_nan_row(getattr(verify, builder), key))
    result = verify.run_suite(suite)
    failed = {f.indices: f.got for f in result.failures}
    assert failed.get(check) == "nan"


def test_agree_reports_the_largest_float_difference_of_each_failing_pair():
    p = BeamSplitterParam(0.7)
    direct, conv = bs_table_direct(4, 4, p), bs_table_convolution(4, 4, p)
    rec = moved(bs_table_recurrence(4, 4, p), (2, 1), 1, 2e-10)
    res = verify.VerificationResult("agree")
    verify._agree(res, (direct, conv, rec), "i,k<=4", "eta=0.7", "pairwise<=1e-10")
    worst = {
        a.method: max(float(np.abs(a.entries[key] - rec.entries[key]).max()) for key in a.entries)
        for a in (direct, conv)
    }
    assert res.cases == 3 and min(worst.values()) > 1e-10
    assert res.failures == [
        verify.Failure(f"{a} vs recurrence i,k<=4", "eta=0.7", "pairwise<=1e-10", str(worst[a]), "1e-10")
        for a in ("direct", "convolution")
    ]


def test_agree_fails_a_float_pair_with_a_nan_entry():
    p = BeamSplitterParam(0.7)
    res = verify.VerificationResult("agree")
    verify._agree(res, (bs_table_direct(3, 3, p), moved(bs_table_recurrence(3, 3, p), (1, 2), 0, math.nan)), "x", "y")
    assert res.cases == 1 and [(f.indices, f.got) for f in res.failures] == [("direct vs recurrence x", "nan")]


def test_agree_compares_rational_tables_exactly():
    third = BeamSplitterParam.from_value("1/3")
    direct = bs_table_direct(3, 3, third, "rational")
    rec = bs_table_recurrence(3, 3, third, "rational")
    res = verify.VerificationResult("agree")
    verify._agree(res, (direct, rec, moved(rec, (3, 3), 6, Fraction(1, 3**6))), "i,k<=3", "eta=1/3")
    assert res.cases == 3
    assert res.failures == [
        verify.Failure(f"{a} vs recurrence i,k<=3", "eta=1/3", "exact equality", "False", "exact")
        for a in ("direct", "recurrence")
    ]


def test_within_and_near_count_one_case_each_and_fail_on_nan():
    res = verify.VerificationResult("helpers")
    res.within(1e-13, 1e-12, "a", "p", "<=1e-12")
    res.near(1.0 + 1e-13, 1.0, 1e-12, "b", "p")
    assert res.cases == 2 and res.ok
    res.within(math.nan, 1e-12, "c", "p", "<=1e-12")
    res.near(math.nan, 1.0, 1e-12, "d", "p")
    res.near(1.0, 0.5, 1e-12, "e", "p")
    assert res.cases == 5
    assert res.failures == [
        verify.Failure("c", "p", "<=1e-12", "nan", "1e-12"),
        verify.Failure("d", "p", "1.0", "nan", "1e-12"),
        verify.Failure("e", "p", "0.5", "1.0", "1e-12"),
    ]


def test_worst_margin_is_the_largest_residual_over_tolerance():
    res = verify.VerificationResult("helpers")
    res.check(True, "exact", "p", "0", "0", "exact")  # an exact check has no margin
    assert res.to_dict()["worst_margin"] is None
    res.within(1e-13, 1e-12, "a", "p", "<=1e-12")
    res.near(1.0 + 5e-13, 1.0, 1e-12, "b", 0.7)
    res.within(2e-13, 1e-12, "c", "p", "<=1e-12")
    assert res.worst_margin == {"margin": abs(1.0 + 5e-13 - 1.0) / 1e-12, "indices": "b", "parameter": "0.7"}
    res.within(math.nan, 1e-12, "d", "p", "<=1e-12")
    res.within(5.0, 1e-12, "e", "p", "<=1e-12")  # a NaN, once seen, stays the worst
    assert res.worst_margin["indices"] == "d" and math.isnan(res.worst_margin["margin"])
    assert [f.indices for f in res.failures] == ["d", "e"] and res.cases == 6


def test_worst_margin_covers_normalization_rows_and_the_formula_check(monkeypatch):
    rows = verify._bs_residual_rows
    monkeypatch.setattr(
        verify, "_bs_residual_rows", lambda p, smax: ((i, k, 7e-11 if (i, k) == (2, 3) else r) for i, k, r in rows(p, smax))
    )
    res = verify.run_suite("normalization")
    assert res.ok and res.worst_margin == {"margin": 7e-11 / 1e-10, "indices": "bs row (i=2,k=3)", "parameter": "eta=0.7"}
    # 100 ulp puts the formula check's margin (0.087) above that of the
    # (i=200,n=200) check (0.025) and still under 1
    want = 2.0 / (math.pi * 100.0)
    monkeypatch.setattr(verify, "bs_diag_asymptotic", lambda i, n: want + 100 * math.ulp(want))
    res = verify.run_suite("asymptotics")
    assert res.ok and res.worst_margin["indices"] == "(i=100,n=100) formula"
    assert res.worst_margin["margin"] == 100 * math.ulp(want) / 1e-15


def test_each_suite_reports_a_worst_margin_and_all_reports_the_largest():
    parts = [verify.run_suite(name) for name in verify.SUITE_NAMES]
    assert all(part.ok and 0 <= part.worst_margin["margin"] <= 1 for part in parts)
    merged = verify.run_suite("all")
    assert merged.worst_margin == max((part.worst_margin for part in parts), key=lambda w: w["margin"])


_PINNED_CASES = {
    "normalization": 659, "recurrence-bs": 38212, "recurrence-tms": 7205, "ptr": 7, "hom": 107,
    "energy": 3, "genfun-series": 25, "classical": 6, "asymptotics": 5,
}


def test_each_suite_runs_its_pinned_case_count():
    # A dropped or added check shows here by suite name.
    assert list(_PINNED_CASES) == verify.SUITE_NAMES and sum(_PINNED_CASES.values()) == 46229
    for name, cases in _PINNED_CASES.items():
        res = verify.run_suite(name)
        assert (name, res.cases, res.ok) == (name, cases, True)
