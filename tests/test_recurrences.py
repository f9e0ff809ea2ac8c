import dataclasses
import decimal
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fockmix.probabilities as probabilities
import fockmix.recurrences as recurrences
from fock_oracle import (
    bs_rows_rowwise,
    bs_tilde_row_reference,
    classical_recurrence_per_call,
    moved,
    tms_rows_per_cell,
    tms_rows_rowwise,
    tms_tilde_reference,
    top_coefficient_walk_stepped,
)
from fockmix.errors import TableCoverageError
from fockmix.params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from fockmix.probabilities import bs_prob_direct, bs_prob_exact, tms_prob, tms_prob_exact
from fockmix.recurrences import (
    ClassicalTable,
    ProbabilityTable,
    bs_recurrence_check,
    bs_table_convolution,
    bs_table_direct,
    bs_table_recurrence,
    bs_tilde_row,
    c_coeff,
    classical_gf,
    classical_prob,
    classical_recurrence_check,
    tms_recurrence_check,
    tms_table_direct,
    tms_table_recurrence,
    tms_tilde_row,
)


THIRD = BeamSplitterParam.from_value("1/3")


def test_c_coeff_piecewise():
    assert c_coeff(2, 3, 1) == 2
    assert c_coeff(0, 0, 0) == 1
    assert c_coeff(2, 2, 3) == 1 - 3 + 2 + 2
    assert c_coeff(4, 2, 2) == 3  # j >= k: 1 + k
    with pytest.raises(ValueError):
        c_coeff(2, 2, 5)
    with pytest.raises(ValueError):
        c_coeff(2, 2, -1)


def test_c_coeff_counts_terms():
    for i in range(11):
        for k in range(11):
            for j in range(i + k + 1):
                count = min(j, k) - max(0, j - i) + 1
                assert c_coeff(i, k, j) == count


def test_bs_tilde_base_cases():
    table = bs_table_direct(4, 4, THIRD, "rational")
    for i in range(4):
        for k in range(4):
            assert bs_tilde_row(i, k, 0, table) == [table.value(i, k, n) for n in range(i + k + 1)]
    assert bs_tilde_row(2, 2, 5, table) == [0] * 5  # j beyond i+k
    assert bs_tilde_row(-1, 2, 0, table) == [0] * 2  # a negative index holds no pair


def test_bs_tilde_missing_rows_raise():
    table = bs_table_direct(1, 1, THIRD, "rational")
    with pytest.raises(TableCoverageError):
        bs_tilde_row(3, 3, 2, table)


def test_theorem_identity_exact_small():
    table = bs_table_direct(6, 6, THIRD, "rational")
    for i in range(7):
        for k in range(7):
            for n in range(i + k + 1):
                for j in range(i + k + 1):
                    assert bs_recurrence_check(i, k, n, j, table) == 0
    with pytest.raises(ValueError):
        bs_recurrence_check(2, 2, 1, 5, table)


def test_theorem_identity_hom_entry():
    table = bs_table_direct(2, 2, BeamSplitterParam.from_value("1/2"), "rational")
    assert bs_recurrence_check(1, 1, 1, 1, table) == 0
    assert table.value(1, 1, 1) == 0
    # the two combination values behind that zero, at eta = 1/2: the j=1
    # combination sums two convolutions of 1/2 each, the shifted one is 1
    assert bs_tilde_row(1, 1, 1, table)[1] == 1
    assert bs_tilde_row(0, 0, 0, table)[0] == 1


def test_vacuum_row_two_term_reduction():
    # with one empty input the five-term form loses its interference term and
    # collapses to the two-term majorization recurrence
    eta = Fraction(1, 3)
    for i in range(1, 9):
        for n in range(i + 1):
            lhs = bs_prob_exact(PhotonConfig(i, 0, n), eta)
            rhs = eta * bs_prob_exact(PhotonConfig(i - 1, 0, n - 1), eta) if n else 0
            rhs += (1 - eta) * bs_prob_exact(PhotonConfig(i - 1, 0, n), eta) if n <= i - 1 else 0
            assert lhs == rhs


def test_bs_recurrence_table_values():
    t = bs_table_recurrence(1, 1, BeamSplitterParam(0.5))
    assert [float(v) for v in t.row(1, 1)] == [0.5, 0.0, 0.5]
    t0 = bs_table_recurrence(0, 0, BeamSplitterParam(0.9))
    assert list(t0.row(0, 0)) == [1.0]
    p = BeamSplitterParam(0.3)
    t = bs_table_recurrence(6, 6, p)
    for i in range(7):
        for n in range(i + 1):
            want = math.comb(i, n) * 0.3**n * 0.7 ** (i - n)
            assert math.isclose(float(t.value(i, 0, n)), want, rel_tol=1e-12)


def test_bs_recurrence_table_matches_direct():
    p = BeamSplitterParam(0.3)
    rec = bs_table_recurrence(12, 12, p)
    direct = bs_table_direct(12, 12, p)
    for key in rec.entries:
        for a, b in zip(rec.entries[key], direct.entries[key]):
            assert abs(float(a) - float(b)) <= 1e-12


def test_bs_tables_exact_routes_identical():
    eta = BeamSplitterParam.from_value("2/7")
    rec = bs_table_recurrence(8, 8, eta, "rational")
    direct = bs_table_direct(8, 8, eta, "rational")
    conv = bs_table_convolution(8, 8, eta, "rational")
    assert rec.entries == direct.entries == conv.entries


def test_bs_table_normalization_self_check():
    t = bs_table_recurrence(10, 10, BeamSplitterParam(0.77))
    assert t.normalization_max_residual() <= 1e-12


@pytest.mark.parametrize(
    "build",
    [lambda: bs_table_recurrence(30, 30, BeamSplitterParam(0.77)),
     lambda: bs_table_direct(12, 9, BeamSplitterParam.from_value("7/10")),
     lambda: bs_table_recurrence(8, 8, BeamSplitterParam.from_value("2/7"), "rational"),
     lambda: tms_table_recurrence(6, 6, 40, SqueezerParam(0.3)),
     lambda: tms_table_recurrence(4, 4, 12, SqueezerParam.from_value("2/5"), "rational")],
    ids=["bs-float", "bs-direct", "bs-rational", "tms-float", "tms-rational"],
)
def test_normalization_self_check_is_the_np_sum_value(build):
    t = build()
    worst = 0.0
    for row in t.entries.values():
        s = float(np.sum(row))
        worst = max(worst, abs(s - 1.0) if t.device is Device.BS else max(s - 1.0, 0.0))
    assert t.normalization_max_residual() == worst


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [lambda: bs_table_recurrence(2, 2, BeamSplitterParam(0.5)),
     lambda: tms_table_recurrence(2, 2, 4, SqueezerParam(0.5))],
    ids=["bs", "tms"],
)
def test_normalization_residual_is_not_finite_on_a_non_finite_entry(build, bad):
    built = build()
    t = moved(built, (1, 1), 1, bad)
    assert type(t.entries) is type(built.entries)  # the shell-wise row sums of a beam-splitter table
    assert not math.isfinite(t.normalization_max_residual())


def test_tms_recurrence_table_values():
    t = tms_table_recurrence(2, 2, 12, SqueezerParam(0.5))
    assert abs(float(t.value(1, 1, 1))) <= 1e-15
    lam = 0.5
    for n in range(13):
        assert math.isclose(float(t.value(0, 0, n)), (1 - lam) * lam**n, rel_tol=1e-12)
    t2 = tms_table_recurrence(1, 1, 4, SqueezerParam(0.2))
    assert math.isclose(float(t2.value(1, 1, 1)), 0.288, rel_tol=1e-12)


def test_tms_recurrence_matches_reversal_route():
    sp = SqueezerParam(0.35)
    rec = tms_table_recurrence(7, 7, 14, sp)
    for i in range(8):
        for k in range(8):
            for n in range(15):
                want = tms_prob(PhotonConfig(i, k, n, Device.TMS), sp)
                assert abs(float(rec.value(i, k, n)) - want) <= 1e-12


def test_tms_recurrence_exact_matches_reversal():
    lam = Fraction(2, 5)
    sp = SqueezerParam.from_value(lam)
    rec = tms_table_recurrence(5, 5, 8, sp, "rational")
    for i in range(6):
        for k in range(6):
            for n in range(9):
                want = tms_prob_exact(PhotonConfig(i, k, n, Device.TMS), lam)
                assert rec.value(i, k, n) == want


def test_tms_structural_zeros():
    t = tms_table_recurrence(5, 2, 6, SqueezerParam(0.4))
    for i in range(6):
        for k in range(3):
            for n in range(7):
                if n + k - i < 0:
                    assert float(t.value(i, k, n)) == 0.0


def test_tms_tilde_base_case_and_coverage():
    lam = Fraction(1, 2)
    sp = SqueezerParam.from_value(lam)
    table = tms_table_direct(4, 8, 4, sp, "rational")
    # j=0 keeps only l=0: the plain i-convolution of the two column families
    for i in range(4):
        for k in range(4):
            for n in range(4):
                manual = sum(
                    table.value(m, 0, 0) * table.value(i - m, k, n) for m in range(i + 1)
                )
                assert tms_tilde_row(i, k, 0, table)[n] == manual
    assert tms_tilde_row(2, 2, 7, table) == [0] * 5  # j beyond n+k at every n <= nmax
    small = tms_table_direct(2, 2, 2, sp, "rational")
    with pytest.raises(TableCoverageError):
        tms_recurrence_check(2, 2, 6, 1, small)  # past nmax
    # a row holds n <= nmax, the entries a larger table holds there
    for i in range(3):
        assert tms_tilde_row(i, 0, 1, small) == tms_tilde_row(i, 0, 1, table)[:3]


def test_tms_theorem_identity_exact():
    for lam in (Fraction(0), Fraction(2, 5)):
        sp = SqueezerParam.from_value(lam)
        table = tms_table_direct(4, 8, 4, sp, "rational")
        for i in range(5):
            for k in range(5):
                for n in range(5):
                    for j in range(n + k + 1):
                        assert tms_recurrence_check(i, k, n, j, table) == 0
    with pytest.raises(ValueError):
        tms_recurrence_check(1, 1, 1, 9, table)


def test_tms_suppression_through_theorem():
    sp = SqueezerParam.from_value("1/2")
    table = tms_table_direct(2, 4, 2, sp, "rational")
    tilde_now = tms_tilde_row(1, 1, 1, table)[1]
    tilde_prev = tms_tilde_row(0, 0, 0, table)[0]
    assert tilde_now - tilde_prev == 0  # (1-lam) A(1,1->1) vanishes at lam=1/2


def test_classical_model_rows():
    p = BeamSplitterParam(0.5)
    assert math.isclose(classical_prob(1, 1, 1, p), 0.5, rel_tol=1e-14)
    assert classical_prob(0, 0, 0, p) == 1.0
    q = BeamSplitterParam(0.3)
    for n in range(6):
        want = math.comb(5, n) * 0.3**n * 0.7 ** (5 - n)
        assert math.isclose(classical_prob(5, 0, n, q), want, rel_tol=1e-13)
    table = ClassicalTable(q)
    for i in range(7):
        for k in range(7):
            assert abs(math.fsum(table.row(i, k)) - 1.0) <= 1e-12


@pytest.mark.parametrize("eta", [1e-12, 1e-17, 0.3])
def test_classical_float_rows_are_their_rational_twins_rounded(eta):
    # Mode b's photons reach output a with probability 1 - eta and stay with
    # eta itself; 1 - (1 - eta) drops eta's low bits below 1/2, all of them
    # at 1e-17, where 1 - eta rounds to 1.
    table = ClassicalTable(BeamSplitterParam(eta))
    twin = ClassicalTable(BeamSplitterParam.from_value(Fraction(eta)), "rational")
    for i in range(6):
        for k in range(6):
            for got, want in zip(table.row(i, k), twin.row(i, k), strict=True):
                assert abs(Fraction(got) - want) <= 1e-14 * want, (i, k)


def test_classical_recurrence_j1_and_general():
    p = BeamSplitterParam(0.5)
    assert classical_recurrence_check(1, 1, 1, 1, p) <= 1e-15
    q = BeamSplitterParam(0.7)
    assert classical_recurrence_check(3, 2, 2, 4, q) <= 1e-12
    assert c_coeff(3, 2, 4) == 2
    for i in range(7):
        for k in range(7):
            for j in range(i + k + 1):
                for n in range(i + k + 1):
                    assert classical_recurrence_check(i, k, n, j, q) <= 1e-12


def test_classical_quantum_gap_exact():
    half = BeamSplitterParam.from_value("1/2")
    table = ClassicalTable(half, "rational")
    classical = table.prob(1, 1, 1)
    quantum = bs_prob_exact(PhotonConfig(1, 1, 1), Fraction(1, 2))
    assert classical == Fraction(1, 2)
    assert classical - quantum == Fraction(1, 2)


def test_classical_gf_factorizes_and_sums_rows():
    p = BeamSplitterParam(0.4)
    from fockmix.genfun import GenFunPoint, eval_f_bs

    x, y, z = 0.3, 0.25, 0.2
    want = eval_f_bs(GenFunPoint(x, 0.0, z, 1.0), p) * eval_f_bs(GenFunPoint(0.0, y, z, 1.0), p)
    assert math.isclose(classical_gf(x, y, z, p), want, rel_tol=1e-13)
    table = ClassicalTable(p)
    series = math.fsum(
        table.prob(i, k, n) * x**i * y**k * z**n
        for i in range(30)
        for k in range(30 - i)
        for n in range(i + k + 1)
    )
    assert abs(series - classical_gf(x, y, z, p)) <= 1e-10


# Shell-major fills against the row-by-row reference and the exact oracle.


def _assert_bit_identical(table, reference):
    assert list(table.entries) == list(reference)
    for key, row in reference.items():
        got = table.entries[key]
        assert got.dtype == np.float64 and abs(got.strides[0]) == got.itemsize  # read forward, or mirrored reversed
        assert got.tobytes() == row.tobytes(), key


# Shapes whose shells cross several steps of the fill grid's pitch, or are
# thin: (64, 64) re-pitches sixteen times, (1, 130) steps one row a shell.
@pytest.mark.parametrize("eta", [0.5, 0.3, 0.0, -0.0, 1.0, 1e-12, 1 - 1e-12])
@pytest.mark.parametrize(
    "imax, kmax", [(0, 0), (0, 7), (7, 0), (12, 5), (5, 12), (40, 40), (70, 3), (3, 70), (1, 130), (64, 64)]
)
def test_float_bs_shell_fill_is_bit_identical_to_row_fill(imax, kmax, eta):
    _assert_bit_identical(bs_table_recurrence(imax, kmax, BeamSplitterParam(eta)), bs_rows_rowwise(imax, kmax, eta))


@pytest.mark.parametrize("lam", [0.25, 0.6, 0.0, -0.0, 1e-12, 0.999])
@pytest.mark.parametrize(
    "imax, kmax, nmax",
    [(0, 0, 5), (5, 0, 9), (0, 5, 9), (6, 3, 12), (3, 6, 12), (20, 20, 80), (3, 12, 4), (2, 40, 1), (4, 7, 0),
     (0, 9, 2), (30, 30, 90), (2, 300, 3), (40, 10, 70)],
)
def test_float_tms_shell_fill_is_bit_identical_to_row_fill(imax, kmax, nmax, lam):
    # kmax > nmax or nmax = 0: bridge shells whose band starts above k = 0.
    # At lambda = -0.0 the rows i = s start with -0.0, which the grid's pads
    # must leave signed as the row fill does.
    table = tms_table_recurrence(imax, kmax, nmax, SqueezerParam(lam))
    _assert_bit_identical(table, tms_rows_rowwise(imax, kmax, nmax, lam))


_FILL_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(1, 1000).flatmap(lambda q: st.integers(0, q).map(lambda p: p / q)),
    st.sampled_from([0.0, -0.0, 1e-12, 1 - 1e-12]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=2, max_size=3), _FILL_VALUES)
@example([40, 40], -0.0)
@example([9, 40, 3], -0.0)
@example([40, 3, 40], 1 - 1e-12)
def test_float_fills_are_bit_identical_to_the_row_fills_at_any_shape(sizes, x):
    # Two sizes are a beam-splitter table at eta = x, three a squeezer table
    # at lambda = x (below 1).
    if len(sizes) == 2:
        _assert_bit_identical(bs_table_recurrence(*sizes, BeamSplitterParam(x)), bs_rows_rowwise(*sizes, x))
    else:
        assume(x < 1.0)
        _assert_bit_identical(tms_table_recurrence(*sizes, SqueezerParam(x)), tms_rows_rowwise(*sizes, x))


@pytest.mark.parametrize(
    "build, direct, sizes, param",
    [(bs_table_recurrence, bs_table_direct, (45, 20), BeamSplitterParam.from_value("1/3")),
     (tms_table_recurrence, tms_table_direct, (20, 5, 40), SqueezerParam.from_value("2/5"))],
    ids=["bs-45x20", "tms-20x5x40"],
)
def test_rational_fills_hold_the_direct_integers_across_pitch_steps(build, direct, sizes, param):
    assert build(*sizes, param, "rational") == direct(*sizes, param, "rational")


def test_float_tms_fill_holds_only_its_entries():
    # A thin table: one grid padded to k+n would hold about 64 MB here. The
    # fill's peak, 0.85 MB with the 0.1 MB buffer, is mostly its per-shell
    # views and plan; its grid holds four rows of 8 columns a slot.
    tracemalloc.start()
    try:
        table = tms_table_recurrence(1, 2000, 2, SqueezerParam(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    bases = {id(row.base) for row in table.entries.values()}
    assert len(bases) == 1 and table.entries[(0, 0)].base.size == 2 * 2001 * 3
    assert not any(row.flags.writeable for row in table.entries.values())


_ALL_BUILDERS = [bs_table_direct, bs_table_convolution, bs_table_recurrence, tms_table_direct, tms_table_recurrence]


def _stores(build, imax: int, kmax: int, i: int, k: int) -> bool:
    """Whether a beam-splitter table of build stores row (i, k): every row on
    the convolution route, else the run lo..hi that _halves gives its shell."""
    s, r = i + k, max(0, i + k - kmax)
    lo, hi, _ = recurrences._halves(s, min(imax, s) - r + 1, s + 1, r, 0)
    return build is bs_table_convolution or lo <= i <= hi


@pytest.mark.parametrize("precision", ["float", "rational"])
@pytest.mark.parametrize("build", _ALL_BUILDERS, ids=lambda b: b.__name__)
def test_built_table_rows_live_in_one_buffer(monkeypatch, build, precision):
    bs = build.__name__.startswith("bs")
    imax, kmax, nmax = 5, 3, 4
    p = (BeamSplitterParam if bs else SqueezerParam).from_value("2/7")
    sizes = (imax, kmax) if bs else (imax, kmax, nmax)
    table = build(*sizes, p, precision)
    rows = table.entries
    keys = [(i, s - i) for s in range(imax + kmax + 1) for i in range(max(0, s - kmax), min(imax, s) + 1)]
    assert rows is table and not rows.buffer.flags.writeable
    assert list(rows) == keys and len(rows) == (imax + 1) * (kmax + 1) and sorted(rows) == sorted(keys)
    stored = [key for key in keys if not bs or _stores(build, imax, kmax, *key)]
    assert rows.buffer.size == (sum(i + k + 1 for i, k in stored) if bs else len(keys) * (nmax + 1))
    # Every row index left of 0 or past imax or kmax is missing; none wraps into the buffer.
    outside = [(-1, 3), (imax + 1, 0), (0, kmax + 1), (-1, 0), (0, -1), (-2, 5), (6, -3)]
    for i, k in outside:
        with pytest.raises(TableCoverageError):
            table.row(i, k)
    for i, k in keys:
        row = table.row(i, k)
        if precision == "float":
            assert row.base is rows.buffer and not row.flags.writeable and row.size == (i + k + 1 if bs else nmax + 1)
            with pytest.raises(ValueError):
                row[0] = 0.5
            continue
        if bs:
            want = [bs_prob_exact(PhotonConfig(i, k, n), p.eta_exact) for n in range(i + k + 1)]
        else:
            want = [tms_prob_exact(PhotonConfig(i, k, n, Device.TMS), p.lam_exact) for n in range(nmax + 1)]
        assert type(row) is list and all(type(v) is Fraction for v in row) and row == want
        row[0] += 1  # a fresh list: the table keeps its value
        assert table.row(i, k) == want
    routes = [other(*sizes, p, precision) for other in (_ALL_BUILDERS[:3] if bs else _ALL_BUILDERS[3:])]
    shifted = moved(table, (2, 1), 1, Fraction(1, 7**3) if precision == "rational" else 1e-3)
    other_device = (tms_table_direct(imax, kmax, nmax, SqueezerParam.from_value("2/7"), precision) if bs
                    else bs_table_direct(imax, kmax, BeamSplitterParam.from_value("2/7"), precision))

    def refuse(self, key):
        raise AssertionError("a row was made")

    # == is one compare of the buffers, and `in` the bounds check: neither makes a row.
    monkeypatch.setattr(ProbabilityTable, "__getitem__", refuse)
    assert table == build(*sizes, p, precision) and not table != build(*sizes, p, precision)
    if precision == "rational":  # every route of a device holds the same integers
        assert all(route == table for route in routes)
    else:  # the float routes round differently, and compare without raising
        assert all(type(route == table) is bool for route in routes)
        assert moved(table, (2, 1), 1, math.nan) != table
    assert shifted != table and table != shifted and other_device != table and table != dict.fromkeys(table)
    assert all(key in rows for key in keys) and not any(key in rows for key in outside)


@pytest.mark.parametrize("precision", ["float", "rational"])
@pytest.mark.parametrize("build", _ALL_BUILDERS[:3], ids=lambda b: b.__name__)
@pytest.mark.parametrize("imax, kmax", [(6, 6), (7, 4), (3, 9), (0, 5)])
def test_a_mirrored_row_is_a_read_only_view_of_its_stored_partner(build, precision, imax, kmax):
    table = build(imax, kmax, BeamSplitterParam.from_value("3/10"), precision)
    stored = {key for key in table if _stores(build, imax, kmax, *key)}
    assert build is not bs_table_convolution or len(stored) == len(table)  # it computes every row
    # The stored rows, read forward, tile the buffer: it holds them and nothing else.
    base, step = table.buffer.__array_interface__["data"][0], table.buffer.itemsize
    tiles = sorted((table.span(*key).__array_interface__["data"][0] - base, table.span(*key).nbytes) for key in stored)
    assert all(table.span(*key).strides == (step,) for key in stored)
    assert [at for at, _ in tiles] == [0] + [at + size for at, size in tiles[:-1]]
    assert sum(size for _, size in tiles) == table.buffer.nbytes
    for i, k in table:
        row = table.span(i, k)
        assert np.shares_memory(row, table.buffer) and not row.flags.writeable
        if (i, k) not in stored:
            partner = table.span(k, i)
            assert (k, i) in stored and np.shares_memory(row, partner) and row.strides == (-step,)
            assert row.tolist() == partner.tolist()[::-1]


@pytest.mark.parametrize("imax, kmax", [(6, 6), (7, 4)])
def test_tables_of_two_layouts_compare_every_row_they_serve(imax, kmax):
    # The rational routes hold the same integers, whichever rows each stores.
    exact = BeamSplitterParam.from_value("2/7")
    direct, conv, rec = (build(imax, kmax, exact, "rational") for build in _ALL_BUILDERS[:3])
    assert direct == conv == rec and rec == conv
    key = next(key for key in direct if not _stores(bs_table_direct, imax, kmax, *key))
    assert moved(conv, key, 0, Fraction(1, 7 ** sum(key))) != direct
    # A float table of the convolution layout that holds the direct rows is
    # the direct table, until one entry of a row the direct table mirrors
    # moves by one ulp.
    p = BeamSplitterParam(0.3)
    direct, copied = bs_table_direct(imax, kmax, p), ProbabilityTable(Device.BS, p, "convolution", "float", imax, kmax)
    for i, k in copied:
        copied.span(i, k)[:] = direct.span(i, k)
    assert copied.frozen() == direct and direct == copied
    value = direct.span(*key)[1]
    off = moved(copied, key, 1, math.nextafter(value, 2.0) - value)
    assert off != direct and direct != off
    assert max(float(abs(a - b).max()) for a, b in off._aligned(direct)) == math.ulp(value)


@pytest.mark.parametrize("precision", ["float", "rational"])
@pytest.mark.parametrize("build", _ALL_BUILDERS, ids=lambda b: b.__name__)
def test_a_built_table_reads_python_numbers_and_cannot_be_rebound(build, precision):
    bs = build.__name__.startswith("bs")
    p = (BeamSplitterParam if bs else SqueezerParam).from_value("2/7")
    table = build(*((2, 2) if bs else (2, 2, 3)), p, precision)
    # A held entry, n < 0 and (beam splitter) a position past the row: one type.
    reads = [table.value(1, 1, 1), table.value(1, 1, -1)] + ([table.value(1, 1, 9)] if bs else [])
    assert [type(v) for v in reads] == [float if precision == "float" else Fraction] * len(reads)
    assert reads[0] == table.row(1, 1)[1] and reads[1:] == [0] * len(reads[1:])
    # Any key that is not a row (i, k) is absent, as in a dict, and so is a
    # count that operator.index rejects, even where it equals a held one.
    for key in (3, (1, 2, 3), "ab", None, (0, 3), (1.0, 1), (1.5, 1)):
        assert key not in table
        with pytest.raises(KeyError):
            table[key]
    for i, k in ((1.0, 1), (1.5, 1)):
        with pytest.raises(TableCoverageError):
            table.span(i, k)
        with pytest.raises(TableCoverageError):
            table.value(i, k, 1)
    held = (np.int64(1), np.int32(1))  # NumPy integers are counts
    assert held in table and list(table[held]) == list(table.row(1, 1)) and table.value(*held, 1) == reads[0]
    for name in ("imax", "kmax", "nmax", "den", "buffer", "_zero"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, name, 3)
    with pytest.raises(TableCoverageError):
        table.span(0, 3)


@pytest.mark.parametrize("build, sizes", [(bs_table_direct, (30, 30)), (tms_table_direct, (1, 2, 45))])
def test_numpy_counts_read_the_values_of_ints(build, sizes):
    # A rational entry's scale den**e passes 2**63 here, where a NumPy exponent would wrap.
    p = (BeamSplitterParam if build is bs_table_direct else SqueezerParam).from_value("1/3")
    table = build(*sizes, p, "rational")
    i, k, n = sizes[0], sizes[1], sizes[-1] - 1
    assert table.value(np.int64(i), np.int32(k), np.int64(n)) == table.value(i, k, n) != 0
    # n is read as i and k are: True is the count 1, and 1.0 is no count.
    assert table.value(1, 1, True) == table.value(True, 1, 1) == table.value(1, 1, 1) != 0
    for count in ([1.0, 1, 1], [1, 1, 1.0]):
        with pytest.raises(TableCoverageError):
            table.value(*count)


@pytest.mark.parametrize("precision", ["float", "rational"])
@pytest.mark.parametrize("device, nmax, residual", [(Device.BS, None, 1.0), (Device.TMS, 3, 0.0)])
def test_a_hand_built_table_reads_as_zeros(device, nmax, residual, precision):
    # A squeezer row is a partial sum, so only its excess above 1 is a defect.
    p = (BeamSplitterParam if device is Device.BS else SqueezerParam).from_value("1/3")
    table = ProbabilityTable(device, p, "direct", precision, 2, 1, nmax)
    assert len(table) == 6 and table.normalization_max_residual() == residual
    for i, k in table:
        assert list(table.row(i, k)) == [table.zero] * (i + k + 1 if nmax is None else nmax + 1)
        assert table.value(i, k, 1) == 0
    assert table == ProbabilityTable(device, p, "recurrence", precision, 2, 1, nmax)
    other = "float" if precision == "rational" else "rational"  # zeros too, but over another den
    assert table != ProbabilityTable(device, p, "direct", other, 2, 1, nmax)


@pytest.mark.parametrize("build", [bs_table_recurrence, bs_table_convolution])
def test_float_bs_fill_holds_its_buffer_and_scratch_only(build):
    imax = kmax = 120
    tracemalloc.start()
    try:
        table = build(imax, kmax, BeamSplitterParam(0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bound: two arrays the size of the largest five-term body, [i, n < s]
    # over i, k >= 1, plus 1 MB. The five-term fill's scratch is its grid:
    # six flat arrays (three shell slots, the two products of the shell below,
    # one sum) of its largest slot, a stored run of rows plus a few at the
    # padded pitch, 0.57 MB above the buffer here.
    scratch = 2 * 8 * max((min(imax, s - 1) - max(1, s - kmax) + 1) * s for s in range(imax + kmax + 1))
    assert peak < table.entries.buffer.nbytes + scratch + 1_000_000


def _table_digest(table) -> str:
    h = hashlib.sha256()
    for key in sorted(table.entries):
        row = table.entries[key]
        h.update(repr(key).encode())
        h.update(row.tobytes() if hasattr(row, "tobytes") else repr(row).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "build, size, eta, digest",
    [
        (bs_table_recurrence, 200, "1/2", "f22a22621ed935c6baae56535431a7e57833f1a902c4694d4db6a6c7b8fc0bde"),
        (bs_table_recurrence, 200, "3/10", "c20ee80815037f273e099421085ef9b1f97f412fe3aa07377bb1a3bbe4bf74e2"),
        (bs_table_convolution, 30, "0.7", "b74dda24f7e0beb84c6c048adce44b3dedd3bb3b346d2e81979ee840d6835bef"),
    ],
)
def test_benchmark_size_tables_keep_their_bytes(build, size, eta, digest):
    # The sha256 over sorted keys, each key's repr and its row's bytes.
    assert _table_digest(build(size, size, BeamSplitterParam.from_value(eta))) == digest


@pytest.mark.parametrize(
    "build, sizes, param, precision, digest",
    [
        (bs_table_recurrence, (25, 25), "1/2", "rational",
         "a3b53b077cc3e6e1b8735fb1a42cbb32452f4087f13c70e63a1c5889f2a50f93"),
        (tms_table_recurrence, (10, 10, 30), "1/4", "rational",
         "256fff48594e43013a9026249f592a8ca6d50a32f50052e5744d63c0e3fe4ad1"),
        (tms_table_direct, (10, 10, 30), "1/4", "rational",
         "256fff48594e43013a9026249f592a8ca6d50a32f50052e5744d63c0e3fe4ad1"),
        (tms_table_recurrence, (60, 60, 200), "1/4", "float",
         "13ae7136f22ddc5fb015badc766c519580784e1ab5d71eec78b9a9a9fb51cb0c"),
    ],
    ids=["bs-recurrence-rational", "tms-recurrence-rational", "tms-direct-rational", "tms-recurrence-float"],
)
def test_benchmark_size_rational_and_squeezer_tables_keep_their_bytes(build, sizes, param, precision, digest):
    # Rational rows enter the digest as the repr of their Fraction lists.
    p = (BeamSplitterParam if build is bs_table_recurrence else SqueezerParam).from_value(param)
    assert _table_digest(build(*sizes, p, precision)) == digest


@pytest.mark.parametrize(
    "sizes, eta, digest",
    [
        ((10, 10), "1/3", "3434ed023ece51f1f065d0c498ca3ead94234ec6d4a9b58724a2709045135be5"),
        ((12, 4), "3/10", "1557037c63f69e32124df73a3e63517a0804bf72daa1ab354076c54c9999df1d"),
        ((0, 9), "1/3", "bbb3a23dca64606e076a35a4dcd25b58a413e3f90b277eba66fcb0095ae179c5"),
        ((9, 0), "1/3", "945e61fb1128733633d9321bc467189a7c7b5304f6986a8a73ab2e0fad1e1730"),
    ],
)
def test_rational_convolution_buffers_keep_their_integers(sizes, eta, digest):
    # The sha256 over the repr of the buffer's integers, the double-sum
    # totals that each summed gamma_small(i,k,n,m,j) a**e (b-a)**(i+k-e) term
    # by term before the sums read Pascal rows and shell powers.
    table = bs_table_convolution(*sizes, BeamSplitterParam.from_value(eta), "rational")
    assert hashlib.sha256(repr(table.buffer.tolist()).encode()).hexdigest() == digest


def _two_term_step(row: list, x: float, y: float) -> list:
    """Entry n is y row[n] + x row[n-1] in plain Python floats, clipped to
    [0, 1] as the fill clips a shell: the paper's recurrence at k = 0."""
    out = [y * v for v in row] + [0.0]
    for n in range(1, len(out)):
        out[n] += x * row[n - 1]
    return [min(max(v, 0.0), 1.0) for v in out]


def _vacuum_cells(table, s: int, i: int) -> dict:
    """{n: buffer value} of the vacuum row i (0 or s) of shell s over the n
    the table holds: beam-splitter row (i, s-i), or the squeezer cells
    (i, s-n -> n) of bridge shell s."""
    if table.nmax is None:
        return dict(enumerate(table.span(i, s - i).tolist()))
    return {n: table.span(i, s - n)[n] for n in range(max(0, s - table.kmax), min(s, table.nmax) + 1)}


@pytest.mark.parametrize("literal", ["1/2", "3/10", "2/7", "1/941", "0.7", "1e-12", "0.999999999999"])
@pytest.mark.parametrize(
    "sizes",
    [(12, 12), (3, 30), (30, 3), (0, 9), (8, 8, 8), (6, 3, 12), (6, 12, 3), (20, 2, 30), (1, 40, 0)],
    ids=lambda sizes: "x".join(map(str, sizes)),
)
def test_vacuum_rows_are_the_two_term_step_from_the_vacuum_cell(sizes, literal):
    # Shell 0 holds the vacuum cell (lead), and at every later total the rows
    # i = s and i = 0 are the two-term step from the shell below with their
    # (x, y): floats bit for bit, rationals lead C(s, n) x**n y**(s-n) by
    # Pascal's rule. A shell that holds both rows over all of its n (every
    # beam-splitter shell, a squeezer shell s <= min(kmax, nmax)) copies row
    # 0 reversed from row s. Squeezer windows are cut by kmax < nmax and by
    # kmax > nmax.
    bs = len(sizes) == 2
    p = (BeamSplitterParam if bs else SqueezerParam).from_value(literal)
    build = bs_table_recurrence if bs else tms_table_recurrence
    imax, kmax, nmax = sizes if not bs else (*sizes, None)
    last = kmax if bs else kmax + nmax  # the last shell that holds row 0
    tops = imax if bs else min(imax, last)  # the last shell that holds row s
    whole = imax if bs else min(imax, kmax, nmax)  # the last shell that copies row 0
    x, y = (p.eta, 1.0 - p.eta) if bs else (1.0 - p.lam, p.lam)
    lead, pairs = (1.0, ((x, y), (y, 1.0 - y))) if bs else (x, ((x, y), (y, x)))  # (x, y) of rows s and 0
    table, top, bottom = build(*sizes, p), [lead], [lead]
    for s in range(max(tops, last) + 1):
        if s:
            top = _two_term_step(top, *pairs[0]) if s <= tops else None
            bottom = top[::-1] if s <= whole else _two_term_step(bottom, *pairs[1])
        for i, row in ((s, top), (0, bottom)):
            if s <= (tops if i else last):
                got = _vacuum_cells(table, s, i)
                assert [v.hex() for v in got.values()] == [row[n].hex() for n in got], (s, i)
    if "/" not in literal:
        return
    a, b = (p.eta_exact if bs else p.lam_exact).as_integer_ratio()
    x, y = (a, b - a) if bs else (b - a, a)
    lead, table = 1 if bs else x, build(*sizes, p, "rational")
    for s in range(max(tops, last) + 1):
        for i, (u, v) in ((s, (x, y)), (0, (y, x))):
            if s <= (tops if i else last):
                got = _vacuum_cells(table, s, i)
                assert list(got.values()) == [lead * math.comb(s, n) * u**n * v ** (s - n) for n in got], (s, i)


def _worst_against_binomial(row, x: float, y: float | None) -> float:
    """max over n of |row[n] - C(s, n) x**n y**(s-n)|, s = len(row) - 1, at
    the exact values of the floats x and y (y = 1 - x exactly if None), the
    binomial carried in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(x)
        y = 1 - x if y is None else decimal.Decimal(y)
        s, worst = len(row) - 1, 0.0
        term, ratio = y**s, x / y
        for n, v in enumerate(row.tolist()):
            worst = max(worst, float(abs(decimal.Decimal(v) - term)))
            term = term * ratio * (s - n) / (n + 1)
    return worst


@pytest.mark.parametrize("eta", ["1/2", "3/10", "1/941", "1e-12", "0.999999999999"])
def test_vacuum_rows_keep_their_digits_to_3000_photons(eta):
    # Rows (s, 0) step with (x, y) = (eta, 1.0-eta), rows (0, s) with
    # (1.0-eta, 1.0-(1.0-eta)). Each lies within 4e-15 of the exact binomial
    # at its own x and y, also past s = 1029, where some C(s, n) leave the
    # float range. Against the binomial at x and 1-x exactly, the rounding of
    # y adds at most s |y - (1-x)| to an entry.
    p = BeamSplitterParam.from_value(eta)
    for sizes, key, x in [((3000, 1), lambda s: (s, 0), p.eta), ((1, 3000), lambda s: (0, s), 1.0 - p.eta)]:
        rows, y = bs_table_recurrence(*sizes, p).entries, 1.0 - x
        drift = float(abs(Fraction(y) - (1 - Fraction(x))))
        for s in (1, 2, 1029, 1030, 1200, 3000):
            assert _worst_against_binomial(rows[key(s)], x, y) <= 4e-15, (sizes, s)
            assert _worst_against_binomial(rows[key(s)], x, None) <= 4e-15 + s * drift, (sizes, s)
    if eta in ("1/2", "3/10"):  # row (1200, 0) lies within 4e-15 of the binomial at the p/q value too
        x = p.eta_exact
        exact = [math.comb(1200, n) * x**n * (1 - x) ** (1200 - n) for n in range(1201)]
        rows = bs_table_recurrence(1200, 0, p).entries
        assert max(abs(float(Fraction(v) - e)) for v, e in zip(rows[(1200, 0)].tolist(), exact)) <= 4e-15


@pytest.mark.parametrize("eta", ["0/1", "1/1", "2/7", "999/1000"])
@pytest.mark.parametrize("imax, kmax", [(7, 3), (2, 9), (0, 5), (6, 0)])
def test_rational_bs_rows_are_exact_fractions(imax, kmax, eta):
    p = BeamSplitterParam.from_value(eta)
    table = bs_table_recurrence(imax, kmax, p, "rational")
    assert len(table.entries) == (imax + 1) * (kmax + 1)
    for (i, k), row in table.entries.items():
        assert type(row) is list and all(type(v) is Fraction for v in row)
        assert row == [bs_prob_exact(PhotonConfig(i, k, n), p.eta_exact) for n in range(i + k + 1)]


@pytest.mark.parametrize("lam", ["0/1", "2/5", "3/4"])
@pytest.mark.parametrize("imax, kmax, nmax", [(4, 2, 7), (1, 5, 6), (0, 3, 4), (3, 0, 5), (2, 6, 1), (3, 4, 0)])
def test_rational_tms_rows_are_exact_fractions(imax, kmax, nmax, lam):
    p = SqueezerParam.from_value(lam)
    table = tms_table_recurrence(imax, kmax, nmax, p, "rational")
    assert len(table.entries) == (imax + 1) * (kmax + 1)
    for (i, k), row in table.entries.items():
        assert type(row) is list and all(type(v) is Fraction for v in row)
        assert row == [tms_prob_exact(PhotonConfig(i, k, n, Device.TMS), p.lam_exact) for n in range(nmax + 1)]


# Squeezer direct rows are read off one walk over shell top coefficients, and
# must equal one tms_prob or tms_prob_exact call per cell (tms_rows_per_cell).
_TMS_LITERALS = st.one_of(
    st.integers(1, 1000).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: f"{p}/{q}")),
    st.sampled_from(["0.37", "0.8", "1e-12", "0.999"]),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 24), _TMS_LITERALS)
@example(8, 8, 24, "0/1")
@example(8, 8, 24, "0.999")
@example(8, 2, 3, "0.37")  # rows with n0 = i - k past nmax
@example(3, 8, 0, "1e-12")
def test_tms_direct_rows_are_the_per_cell_values(imax, kmax, nmax, lam):
    p = SqueezerParam.from_value(lam)
    for precision in ["float", "rational"] if "/" in lam else ["float"]:
        got = tms_table_direct(imax, kmax, nmax, p, precision).entries
        want = tms_rows_per_cell(imax, kmax, nmax, p, precision)
        assert got.keys() == want.keys()
        for key, row in want.items():
            if precision == "rational":
                assert got[key] == row and all(type(v) is Fraction for v in got[key]), key
            else:
                assert got[key].tobytes() == row.tobytes(), key


# The squeezer fill is the beam-splitter fill on a band: in rational precision
# it holds the direct table's integers at every shape, also where kmax > nmax,
# nmax = 0 or imax > kmax + nmax, and at lambda near 0 and 1.
_EDGE_RATIOS = st.integers(2, 10**6).flatmap(
    lambda q: st.sampled_from([0, 1, q // 3, q - 2, q - 1]).map(lambda p: f"{p}/{q}")
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.one_of(_EDGE_RATIOS, _TMS_LITERALS))
@example(2, 7, 1, "1/1000")
@example(4, 3, 0, "999/1000")
@example(7, 1, 2, "1/2")
def test_rational_tms_recurrence_holds_the_direct_integers(imax, kmax, nmax, lam):
    assume("/" in lam)
    p = SqueezerParam.from_value(lam)
    assert tms_table_recurrence(imax, kmax, nmax, p, "rational") == tms_table_direct(imax, kmax, nmax, p, "rational")


# The mode swap B(i, k -> n) = B(k, i -> i+k-n): row (k, i) is row (i, k)
# reversed, bit for bit in float (the fill copies one row of each pair, and
# the direct table holds exact values rounded once) and exactly in rational.
# A squeezer band is a whole shell when kmax = nmax, and there the swap reads
# A(i, k -> n) = A(k+n-i, n -> k).
_NEAR_EDGES = ["1e-12", "0.999999999999", "-0.0", "1/1000000000000", "999999999999/1000000000000"]
_MIRROR_ETAS = st.one_of(
    st.just("1/2"),
    st.integers(1, 1000).flatmap(lambda q: st.integers(0, q).map(lambda p: f"{p}/{q}")),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(_NEAR_EDGES),
)
_MIRROR_SHAPES = st.one_of(
    st.integers(0, 12).map(lambda n: (n, n)),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.tuples(st.integers(0, 1), st.integers(0, 60)).flatmap(lambda t: st.sampled_from([t, t[::-1]])),
)


def _assert_swapped(a, b, precision, copied, where):
    """Entries equal exactly in rational precision, and bit for bit in float
    where one side is a copy. Neither side is a copy in the row i = s-i of a
    shell s: both are stepped, from the same terms in swapped groups, and
    only the sign of a zero may differ (0.0 + -0.0 is 0.0 at the last n)."""
    if precision == "rational":
        assert list(a) == list(b), where
    elif copied:
        assert a.tobytes() == b.tobytes(), where
    else:
        assert np.array_equal(a, b), where


@settings(max_examples=40, deadline=None)
@given(shape=_MIRROR_SHAPES, eta=_MIRROR_ETAS)
@example(shape=(40, 40), eta="3/10")
@example(shape=(5, 12), eta="-0.0")
@example(shape=(12, 5), eta="0.7")
@example(shape=(1, 60), eta="1e-12")
def test_bs_rows_are_their_mode_swaps_reversed(shape, eta):
    p = BeamSplitterParam.from_value(eta)
    for build in (bs_table_recurrence, bs_table_direct):
        for precision in ["float", "rational"] if "/" in eta else ["float"]:
            table = build(*shape, p, precision)
            for i, k in table:
                if (k, i) in table:
                    _assert_swapped(table.span(i, k), table.span(k, i)[::-1], precision, i != k, (build, i, k))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.one_of(_TMS_LITERALS, st.sampled_from(_NEAR_EDGES)))
@example(6, 6, "1/4")
@example(8, 3, "-0.0")
@example(2, 8, "0.999")
def test_squeezer_cells_are_their_mode_swaps_when_kmax_is_nmax(imax, kmax, lam):
    p = SqueezerParam.from_value(lam)
    for build in (tms_table_recurrence, tms_table_direct):
        for precision in ["float", "rational"] if "/" in lam else ["float"]:
            table = build(imax, kmax, kmax, p, precision)
            for i, k in table:
                for copied in (True, False):
                    held = [n for n in range(kmax + 1) if 0 <= k + n - i <= imax and (k + n != 2 * i) == copied]
                    swaps = [(n, k + n - i) for n in held]
                    got = np.array([table.span(i, k)[n] for n, _ in swaps], table.buffer.dtype)
                    want = np.array([table.span(j, n)[k] for n, j in swaps], table.buffer.dtype)
                    _assert_swapped(got, want, precision, copied, (build, i, k))


# Squeezer direct tables walk each column from its first read shell and drop
# it after its last, and a scan holds the top vectors of its own rows only:
# every cell either reads is the cell of the walk that steps every row and
# column from s = 0, also where k > imax and on thin shapes, and with bridge
# that cell with num in Y and den in q.
@pytest.mark.parametrize("imax, kmax, nmax", [(1, 60, 2), (0, 30, 0), (2, 25, 3), (3, 12, 4), (6, 6, 12), (8, 2, 20)])
@pytest.mark.parametrize("lam", ["1/3", "2/5", "0.8"])
def test_top_coefficient_walk_reads_the_cells_of_the_stepped_walk(imax, kmax, nmax, lam):
    num, den = probabilities._partner_ratio(SqueezerParam.from_value(lam))
    rows, cols, totals = range(imax + 1), range(kmax + 1), range(kmax + nmax + 1)
    band = [(range(min(imax, s) + 1), range(max(0, s - nmax), min(kmax, s) + 1)) for s in totals]
    scan = [(rows, range(min(kmax, s) + 1)) for s in totals]
    for shells, own in ((band, None), (scan, rows)):
        for bridge in (False, True):
            walk = probabilities._top_coefficient_walk(num, den, shells, own, bridge)
            stepped = top_coefficient_walk_stepped(num, den, rows, cols)
            seed = num if bridge else 1
            for s, (held, ks, q, sums), (want, q_want) in zip(totals, walk, stepped):
                assert q == q_want * den**bridge
                for i in held[: s + 1]:  # a scan's row holds a top vector from its birth shell i on
                    t, y, v = sums(i)
                    cells = [(x, seed * w) for x, w in (want(i, k) for k in ks)]
                    assert [(a * c, b) for a, b, c in zip(t, y, v)] == cells, (s, i, bridge)


def test_tms_direct_table_runs_no_single_cell_route(monkeypatch):
    p = SqueezerParam.from_value("1/4")
    want = {precision: tms_rows_per_cell(4, 5, 9, p, precision) for precision in ("float", "rational")}

    def refuse(*args, **kwargs):
        raise AssertionError("a single-cell route ran")

    for name in ("tms_prob", "tms_prob_exact", "bs_prob_direct", "bs_prob_exact", "_cell_factors"):
        monkeypatch.setattr(probabilities, name, refuse)
        monkeypatch.setattr(recurrences, name, refuse, raising=False)
    for precision, rows in want.items():
        got = tms_table_direct(4, 5, 9, p, precision).entries
        assert all(np.array_equal(got[key], row) for key, row in rows.items())


# Rational tilde rows are integer convolutions; the Fraction convolution is the reference.


@pytest.mark.parametrize("eta", ["0/1", "1/4", "1/3", "1/2", "1/1"])
def test_rational_tilde_rows_equal_fraction_convolutions(eta):
    p = BeamSplitterParam.from_value(eta)
    tables = [build(8, 8, p, "rational") for build in (bs_table_direct, bs_table_convolution, bs_table_recurrence)]
    direct = tables[0]
    assert all(t.entries == direct.entries for t in tables[1:])  # so one reference row serves them all
    for i in range(9):
        for k in range(9):
            for j in range(i + k + 1):
                want = bs_tilde_row_reference(i, k, j, direct)
                for table in tables:
                    got = bs_tilde_row(i, k, j, table)
                    assert got == want and all(type(v) is Fraction for v in got)


def test_float_tilde_rows_keep_their_operation_order():
    table = bs_table_direct(6, 6, BeamSplitterParam(0.7))
    for i in range(7):
        for k in range(7):
            for j in range(i + k + 1):
                got, want = bs_tilde_row(i, k, j, table), bs_tilde_row_reference(i, k, j, table)
                assert np.array(got).tobytes() == np.array(want).tobytes()


# README's accuracy contract for float recurrence tables: within 2e-13 of the
# exactly rounded values (the float direct table) at totals up to 200. The
# worst literal measured, 1/941, reaches 6.8e-14 on the square shape.
_SHORT_RATIOS = st.integers(1, 1000).flatmap(lambda q: st.integers(0, q).map(lambda p: f"{p}/{q}"))


@pytest.mark.parametrize("imax, kmax", [(200, 4), (4, 200), (60, 60)])
@settings(max_examples=2, deadline=None)  # an exact build takes 0.3-1.1 s
@given(eta=_SHORT_RATIOS)
@example(eta="1/941")
def test_float_bs_recurrence_rows_meet_the_absolute_bound(imax, kmax, eta):
    p = BeamSplitterParam.from_value(eta)
    exact = bs_table_direct(imax, kmax, p)
    rows = bs_table_recurrence(imax, kmax, p).entries
    assert max(np.max(np.abs(rows[key] - row)) for key, row in exact.entries.items()) <= 2e-13


def test_bs_fill_past_the_float_range_of_binomials():
    # C(1030, 515) is the first binomial above the float range.
    table = bs_table_recurrence(1100, 0, BeamSplitterParam(0.5))
    for i in (1029, 1030, 1100):
        row = table.row(i, 0)
        assert max(abs(row[n] - Fraction(math.comb(i, n), 2**i)) for n in range(i + 1)) <= 1e-14


def test_thin_tms_fill_past_the_float_range_of_binomials():
    # Bridge shells above 1029 photons seed their row i = 0, over a window of
    # three n, by the two-term step from the row below.
    p = SqueezerParam.from_value("1/3")
    table, direct = tms_table_recurrence(1, 1040, 2, p), tms_table_direct(1, 1040, 2, p)
    assert np.max(np.abs(table.buffer - direct.buffer)) <= 1e-15


def test_tms_fill_past_the_float_range_of_binomials():
    table = tms_table_recurrence(520, 1030, 1, SqueezerParam(0.5))
    for i in (0, 1, 514, 515, 516, 520):
        for n in (0, 1):
            exact = tms_prob_exact(PhotonConfig(i, 1030, n, Device.TMS), Fraction(1, 2))
            assert abs(table.value(i, 1030, n) - exact) <= 1e-14


# Squeezer tilde rows against the per-value sum, and the classical residual
# on one shared table against a fresh table per call.


@pytest.mark.parametrize("lam", ["0/1", "1/4", "1/2", "3/4"])
def test_rational_tms_tilde_rows_equal_the_per_value_sums(lam):
    sp = SqueezerParam.from_value(lam)
    direct = tms_table_direct(5, 10, 5, sp, "rational")
    recurrence = tms_table_recurrence(5, 10, 5, sp, "rational")
    assert recurrence.entries == direct.entries  # so one reference value serves both
    for i in range(6):
        for k in range(6):
            for j in range(5 + k + 2):  # past n+k for every n
                want = [tms_tilde_reference(i, k, n, j, direct) for n in range(6)]
                for table in (direct, recurrence):
                    got = tms_tilde_row(i, k, j, table)
                    assert got == want and all(type(v) is Fraction for v in got)


def test_float_tms_tilde_rows_keep_their_operation_order():
    table = tms_table_direct(4, 8, 5, SqueezerParam(0.3))
    for i in range(5):
        for k in range(5):
            for j in range(5 + k + 1):
                got = tms_tilde_row(i, k, j, table)
                want = [tms_tilde_reference(i, k, n, j, table) for n in range(6)]
                assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()


def test_exact_reads_make_no_fraction_row(monkeypatch):
    # value, the tilde rows and the identity checks read the buffer through
    # ProbabilityTable.span and make one Fraction per result, never a row.
    bs = bs_table_direct(5, 5, THIRD, "rational")
    tms = tms_table_direct(3, 6, 3, _TWO_FIFTHS, "rational")
    bs_cells = [(i, k, n) for i in range(6) for k in range(6) for n in range(-1, i + k + 2)]
    tms_cells = [(i, k, n) for i in range(4) for k in range(4) for n in range(4)]
    reads = {
        "bs value": lambda: [bs.value(i, k, n) for i, k, n in bs_cells],
        "tms value": lambda: [tms.value(i, k, n) for i, k, n in tms_cells],
        "bs_tilde_row": lambda: [bs_tilde_row(i, k, j, bs) for i, k, _ in bs_cells for j in range(i + k + 1)],
        "tms_tilde_row": lambda: [tms_tilde_row(i, k, j, tms) for i, k, _ in tms_cells for j in range(3 + k + 1)],
        "bs_recurrence_check": lambda: [
            bs_recurrence_check(i, k, n, j, bs) for i, k, n in bs_cells for j in range(i + k + 1)
        ],
        "tms_recurrence_check": lambda: [
            tms_recurrence_check(i, k, n, j, tms) for i, k, n in tms_cells for j in range(n + k + 1)
        ],
    }
    want = {name: read() for name, read in reads.items()}

    def refuse(self, key):
        raise AssertionError("a Fraction row was made")

    monkeypatch.setattr(ProbabilityTable, "__getitem__", refuse)
    for name, read in reads.items():
        assert read() == want[name], name
    assert all(v == 0 for v in want["bs_recurrence_check"] + want["tms_recurrence_check"])
    # An index the table does not hold raises, a negative one included: none
    # reads the shell below or wraps into the buffer.
    for table in (bs, tms):
        for i, k in [(-1, 0), (0, -1), (-1, 3), (table.imax + 1, 0), (0, table.kmax + 1)]:
            with pytest.raises(TableCoverageError):
                table.value(i, k, 0)
            with pytest.raises(TableCoverageError):
                table.span(i, k)
    with pytest.raises(TableCoverageError):
        bs_tilde_row(6, 0, 0, bs)
    with pytest.raises(TableCoverageError):
        tms_tilde_row(4, 0, 0, tms)
    with pytest.raises(TableCoverageError):
        tms.value(0, 0, 4)  # past nmax
    with pytest.raises(TableCoverageError):
        tms_recurrence_check(0, 0, 4, 0, tms)  # past nmax


# The paper's interference term vanishes exactly beyond the Hong-Ou-Mandel
# cell: (i, k -> n, eta) with B = 0, and the squeezer's gain-2 cell.
_BS_ZEROS = [(1, 2, 2, "1/3"), (1, 3, 3, "1/4"), (1, 4, 3, "2/5"), (1, 9, 7, "3/10")]


@pytest.mark.parametrize("i, k, n, eta", _BS_ZEROS)
def test_bs_suppression_zeros_beyond_hom(i, k, n, eta):
    p = BeamSplitterParam.from_value(eta)
    tables = [build(i, k, p, "rational") for build in (bs_table_direct, bs_table_convolution, bs_table_recurrence)]
    for table in tables:
        got = table.value(i, k, n)
        assert type(got) is Fraction and got == 0, table.method
    direct = bs_prob_direct(PhotonConfig(i, k, n), p)
    assert type(direct) is float and direct == 0.0
    for j in range(i + k + 1):
        residual = bs_recurrence_check(i, k, n, j, tables[0])
        assert type(residual) is Fraction and residual == 0, j


def test_tms_gain_two_suppression_zero():
    sp = SqueezerParam.from_value("1/2")
    for build in (tms_table_direct, tms_table_recurrence):
        table = build(1, 1, 1, sp, "rational")
        got = table.value(1, 1, 1)
        assert type(got) is Fraction and got == 0, table.method
        for j in range(3):
            residual = tms_recurrence_check(1, 1, 1, j, table)
            assert type(residual) is Fraction and residual == 0, (table.method, j)
    direct = tms_prob(PhotonConfig(1, 1, 1, Device.TMS), sp)
    assert type(direct) is float and direct == 0.0


@pytest.mark.parametrize("precision, kind", [("float", float), ("rational", Fraction)])
def test_general_j_checks_return_the_number_type_of_their_table(precision, kind):
    # The HOM cell (1, 1 -> 1) at eta = 1/2 and the gain-2 cell (1, 1 -> 1)
    # at lambda = 1/2, at every j: a float table's residual is a Python float.
    bs = bs_table_direct(1, 1, BeamSplitterParam.from_value("1/2"), precision)
    tms = tms_table_direct(1, 1, 1, SqueezerParam.from_value("1/2"), precision)
    for j in range(3):
        for residual in (bs_recurrence_check(1, 1, 1, j, bs), tms_recurrence_check(1, 1, 1, j, tms)):
            assert type(residual) is kind and residual == 0, j


def test_classical_residual_on_a_shared_table_is_the_per_call_value():
    p = BeamSplitterParam(0.6)
    table = ClassicalTable(p)
    for i in range(1, 13):
        for k in range(1, 13):
            for n in range(-1, i + k + 2):
                assert table.recurrence_residual(i, k, n, 1) == classical_recurrence_per_call(i, k, n, 1, p)
    for i in range(9):
        for k in range(9):
            for j in range(i + k + 1):
                for n in range(-1, i + k + 2):
                    assert table.recurrence_residual(i, k, n, j) == classical_recurrence_per_call(i, k, n, j, p)


def test_classical_l_sum_is_built_once_per_i_k_j(monkeypatch):
    table = ClassicalTable(BeamSplitterParam(0.35))
    for i in range(7):
        for k in range(7):
            table.row(i, k)  # rows are memoized; their convolutions run here
    term_sum, calls = recurrences._term_sum, []
    monkeypatch.setattr(recurrences, "_term_sum", lambda *args: calls.append(args) or term_sum(*args))
    keys = [(3, 2, 1), (3, 2, 4), (5, 5, 5), (0, 4, 2), (6, 1, 0)]
    for i, k, j in keys:
        for n in range(-1, i + k + 2):
            table.recurrence_residual(i, k, n, j)
    assert len(calls) == len(keys)


_SEVEN_TENTHS = BeamSplitterParam.from_value("7/10")
_TWO_FIFTHS = SqueezerParam.from_value("2/5")
_BS_BUILDERS = (bs_table_direct, bs_table_convolution, bs_table_recurrence)
_TMS_BUILDERS = (tms_table_direct, tms_table_recurrence)
_BAD_INPUTS = (
    [(b, (40, 0, _SEVEN_TENTHS, prec)) for b in _BS_BUILDERS for prec in ("Float", "exact", "")]
    + [(b, (2, 2, 2, _TWO_FIFTHS, prec)) for b in _TMS_BUILDERS for prec in ("Rational", "exact")]
    + [(b, (*size, _SEVEN_TENTHS)) for b in _BS_BUILDERS for size in [(-1, 2), (2, -1)]]
    + [(b, (*size, _TWO_FIFTHS)) for b in _TMS_BUILDERS for size in [(-1, 2, 2), (2, -1, 2), (2, 2, -1)]]
    + [(ClassicalTable, (_SEVEN_TENTHS, "Rational")), (classical_prob, (1, 1, 1, _SEVEN_TENTHS, "exact"))]
)


def _bad_input_id(v):
    if callable(v):
        return v.__name__
    return ",".join(repr(a) for a in v if not isinstance(a, (BeamSplitterParam, SqueezerParam)))


@pytest.mark.parametrize("build, args", _BAD_INPUTS, ids=_bad_input_id)
def test_table_builders_reject_an_unknown_precision_or_a_negative_size(monkeypatch, build, args):
    # A string that one branch of a builder takes for float and another does
    # not gives a table cut short that passes its own self-check.
    def engine(*args, **kwargs):
        raise AssertionError("engine work began before the inputs were checked")

    for name in ("_top_coefficient_walk", "_double_sum", "_photon_addition_shells"):
        monkeypatch.setattr(recurrences, name, engine)
    with pytest.raises(ValueError):
        build(*args)


def test_a_squeezer_table_needs_nmax():
    with pytest.raises(ValueError, match="nmax"):
        ProbabilityTable(Device.TMS, _TWO_FIFTHS, "direct", "float", 2, 2)


@pytest.mark.parametrize("precision", ["Rational", "Float", "exact", ""])
def test_a_hand_built_table_rejects_an_unknown_precision(precision):
    # Built by hand, a "Rational" table of Fraction rows was once read as
    # float: bs_tilde_row summed its Fractions as floats, and zero was 0.0.
    third = BeamSplitterParam.from_value("1/3")
    with pytest.raises(ValueError, match="precision"):
        ProbabilityTable(Device.BS, third, "direct", precision, 2, 2)
