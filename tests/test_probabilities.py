import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fockmix.amplitudes as amplitudes
import fockmix.probabilities as probabilities
import fockmix.recurrences as recurrences
import fockmix.verify as verify
from fockmix.amplitudes import bs_amplitude, bs_amplitude_convolution, tms_amplitude
from fockmix.errors import ConvergenceError
from fockmix.params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from fockmix.probabilities import (
    bs_prob_direct,
    bs_prob_double_sum,
    bs_prob_exact,
    normalization_residual,
    tms_prob,
    tms_prob_exact,
)
from fockmix.recurrences import bs_table_convolution, bs_table_direct
from fock_oracle import (
    factor_sums_reference,
    normalization_residual_per_cell,
    prob_double_sum_literal,
    top_coefficient_walk_stepped,
    within_ulps,
)


def test_exact_engine_against_literal_double_sum():
    for eta in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 7)):
        for i in range(9):
            for k in range(9):
                for n in range(i + k + 1):
                    want = prob_double_sum_literal(i, k, n, eta)
                    assert bs_prob_exact(PhotonConfig(i, k, n), eta) == want
                    assert bs_prob_double_sum(i, k, n, eta) == want


@pytest.mark.parametrize("eta", [1.5, -0.5, Fraction(3, 2), Fraction(-1, 3), math.nan, math.inf])
def test_double_sum_refuses_a_transmittance_outside_0_1(eta):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bs_prob_double_sum(1, 1, 1, eta)


@pytest.mark.parametrize("eta", [0, 1, 0.0, 1.0])
def test_double_sum_takes_the_ends_of_0_1(eta):
    assert bs_prob_double_sum(1, 1, 1, eta) == 1 and bs_prob_double_sum(1, 1, 0, eta) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 14),
    st.integers(0, 14),
    st.integers(0, 30),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)
def test_factored_engine_property(i, k, n, eta):
    factored = bs_prob_exact(PhotonConfig(i, k, n), eta)
    assert factored == bs_prob_double_sum(i, k, n, eta)
    assert 0 <= factored <= 1


@st.composite
def _cells_to_total(draw, top: int = 80):
    """(i, k, n) with i + k <= top and n <= i + k."""
    total = draw(st.integers(0, top))
    i = draw(st.integers(0, total))
    return i, total - i, draw(st.integers(0, total))


# Float transmittances: any double in [0, 1], and the ends and near-ends.
_FLOAT_ETAS = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0, 1e-12, 1 - 1e-12]))


# Summed in floats, this alternating sum cancels: -0.0171 at (30,30,30) and
# -3.8e16 at (60,60,60) for eta = 0.37. Summed in integers at the float's
# exact value and rounded once, it is the direct route's float.
@settings(max_examples=60, deadline=None)
@given(_cells_to_total(), _FLOAT_ETAS)
@example((30, 30, 30), 0.37)
@example((40, 40, 40), 0.37)
@example((60, 60, 60), 0.37)
@example((30, 30, 30), 0.5)
@example((40, 40, 40), 0.5)
@example((60, 60, 60), 0.5)
def test_float_double_sum_is_the_direct_float(cell, eta):
    i, k, n = cell
    got = bs_prob_double_sum(i, k, n, eta)
    assert type(got) is float
    assert got == bs_prob_direct(PhotonConfig(i, k, n), BeamSplitterParam(eta))
    assert 0.0 <= got <= 1.0


# Transmittances of the double-sum tests: p/q with q <= 1000, the ends, the
# near-ends 1/941 and 940/941, and float-only values at their binary values.
_DOUBLE_SUM_ETAS = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 941), Fraction(940, 941), Fraction(0.37), Fraction(1e-12)]),
)


@settings(max_examples=60, deadline=None)
@given(_cells_to_total(60), _DOUBLE_SUM_ETAS)
@example((30, 30, 30), Fraction(0.37))
@example((29, 31, 33), Fraction(1e-12))
@example((25, 35, 40), Fraction(940, 941))
@example((3, 1, 9), Fraction(1, 3))  # n past i+k: no term
def test_single_cell_double_sum_is_the_literal_sum(cell, eta):
    # Fraction(total, b**(i+k)) equals the literal sum exactly, so the
    # integer total is the literal sum times b**(i+k).
    assert bs_prob_double_sum(*cell, eta) == prob_double_sum_literal(*cell, eta)


@st.composite
def _convolution_shapes(draw):
    """(imax, kmax): a thin table to total 60, or a square one to total 16."""
    if draw(st.booleans()):
        thin, long = draw(st.integers(0, 3)), draw(st.integers(0, 57))
        return draw(st.sampled_from([(thin, long), (long, thin)]))
    return draw(st.integers(0, 8)), draw(st.integers(0, 8))


@settings(max_examples=40, deadline=None)
@given(_convolution_shapes(), _DOUBLE_SUM_ETAS, st.integers(0, 10**4))
@example((3, 57), Fraction(1e-12), 100)
@example((57, 3), Fraction(940, 941), 150)
@example((8, 8), Fraction(0.37), 70)
def test_rational_convolution_table_is_the_literal_sum(shape, eta, pick):
    # The buffer of a rational table holds the totals of _double_sum, each
    # read off the table's Pascal rows and its shell's powers: the last row
    # and one picked row are the literal sums times b**(i+k).
    table = bs_table_convolution(*shape, BeamSplitterParam(float(eta), eta), "rational")
    rows = sorted(table)
    for i, k in {shape, rows[pick % len(rows)]}:
        want = [prob_double_sum_literal(i, k, n, eta) * eta.denominator ** (i + k) for n in range(i + k + 1)]
        assert list(table.span(i, k)) == want


def test_exact_examples():
    assert bs_prob_exact(PhotonConfig(1, 1, 1), Fraction(1, 2)) == 0
    assert bs_prob_exact(PhotonConfig(1, 1, 0), Fraction(1, 2)) == Fraction(1, 2)
    assert bs_prob_exact(PhotonConfig(2, 0, 1), Fraction(1, 3)) == Fraction(4, 9)
    assert bs_prob_exact(PhotonConfig(2, 1, 4), Fraction(1, 3)) == 0  # n > i+k


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(1), st.integers(0, 2**64).map(lambda a: 2 * a + 1)), st.integers(0, 60), st.integers(0, 3000))
@example(1, 0, 3000)  # den = 1
@example(1, 52, 3000)  # a float's 2**-52 grid
@example(3, 2, 3000)  # den = 12, not a power of two
@example(1, 60, 0)
def test_den_power_is_the_plain_power(odd, z, e):
    den = odd << z
    assert probabilities._den_power(den, e) == den**e


_SPELLINGS = [
    (0, 0.0, Fraction(0)),
    (1, 1.0, Fraction(1)),
    (0.5, Fraction(1, 2)),
    (0.3, Fraction(0.3)),
    (0.8, Fraction(3602879701896397, 2**52)),
]


@pytest.mark.parametrize("spellings", _SPELLINGS, ids=lambda x: repr(x[-1]))
def test_exact_cells_are_one_fraction_for_every_spelling(spellings):
    # An int, a float and a Fraction of one value give one Fraction, the
    # literal double sum at that value.
    bs, tms = PhotonConfig(7, 5, 6), PhotonConfig(4, 3, 5, Device.TMS)
    x = spellings[-1]
    got = [bs_prob_exact(bs, v) for v in spellings]
    assert all(type(g) is Fraction and g == bs_prob_double_sum(7, 5, 6, x) for g in got), got
    if x < 1:  # tms (4, 3 -> 5) is 1-lam times bs (4, 4 -> 5) at eta = 1-lam
        got = [tms_prob_exact(tms, v) for v in spellings]
        assert all(type(g) is Fraction and g == (1 - x) * bs_prob_double_sum(4, 4, 5, 1 - x) for g in got), got


@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(-1, 3), 1.5, math.nan, math.inf, -math.inf])
def test_exact_cells_refuse_a_parameter_outside_their_range(value):
    with pytest.raises(ValueError, match=r"transmittance must lie in \[0, 1\], got"):
        bs_prob_exact(PhotonConfig(1, 1, 1), value)
    with pytest.raises(ValueError, match=r"squeezing parameter must lie in \[0, 1\), got"):
        tms_prob_exact(PhotonConfig(1, 1, 1, Device.TMS), value)


@pytest.mark.parametrize("lam", [1, 1.0, Fraction(1)])
def test_exact_squeezer_cell_refuses_lam_1(lam):
    with pytest.raises(ValueError, match=r"squeezing parameter must lie in \[0, 1\), got 1"):
        tms_prob_exact(PhotonConfig(1, 1, 1, Device.TMS), lam)


def test_float_examples():
    assert bs_prob_direct(PhotonConfig(1, 1, 1), BeamSplitterParam(0.5)) <= 1e-15
    assert bs_prob_direct(PhotonConfig(0, 0, 0), BeamSplitterParam(0.4)) == 1.0
    got = bs_prob_direct(PhotonConfig(1, 1, 1), BeamSplitterParam(0.3))
    assert math.isclose(got, 0.16, rel_tol=1e-12)


def test_degenerate_transmittance_is_a_permutation():
    for i in range(4):
        for k in range(4):
            for n in range(i + k + 1):
                full = bs_prob_direct(PhotonConfig(i, k, n), BeamSplitterParam(1.0))
                empty = bs_prob_direct(PhotonConfig(i, k, n), BeamSplitterParam(0.0))
                assert full == (1.0 if n == i else 0.0)
                assert empty == (1.0 if n == k else 0.0)


def test_float_route_matches_exact_to_budget():
    for eta in (0.3, 0.74):
        p = BeamSplitterParam(eta)
        exact_eta = Fraction(eta)
        for i in range(0, 26, 5):
            for k in range(0, 26, 5):
                for n in range(i + k + 1):
                    got = bs_prob_direct(PhotonConfig(i, k, n), p)
                    want = bs_prob_exact(PhotonConfig(i, k, n), exact_eta)
                    assert abs(got - float(want)) <= 1e-12
                    assert 0.0 <= got <= 1.0


@st.composite
def _cells_to_total_300(draw):
    total = draw(st.integers(0, 300))
    i = draw(st.integers(0, total))
    return PhotonConfig(i, total - i, draw(st.integers(0, total)))


_RATIOS = st.integers(1, 1000).flatmap(lambda q: st.integers(0, q).map(lambda p: f"{p}/{q}"))
_DECIMALS = st.integers(0, 10**6).map(lambda d: str(d / 10**6))
_EDGES = st.sampled_from([1e-12, 1 - 1e-12, "1/1000000000000", "999999999999/1000000000000"])
# p/q literals, decimal literals, any float, and transmittances near 0 and 1.
_TRANSMITTANCES = st.one_of(_RATIOS, _DECIMALS, st.floats(min_value=0.0, max_value=1.0), _EDGES)
# The same without arbitrary floats, whose denominators reach 2**1074: table
# sized batches stay fast.
_LITERALS = st.one_of(_RATIOS, _DECIMALS, _EDGES)


@settings(max_examples=200, deadline=None)
@given(_cells_to_total_300(), _TRANSMITTANCES)
def test_direct_route_is_the_exact_probability_rounded_once(c, eta):
    p = BeamSplitterParam.from_value(eta)
    exact = p.eta_exact if p.eta_exact is not None else Fraction(p.eta)
    assert bs_prob_direct(c, p) == float(bs_prob_exact(c, exact))


# Tables read their cells off integer-polynomial shells and normalization
# scans grow their own powers; every value they return must equal the
# single-cell route's bit for bit. The edge examples pin eta = 0 and 1, where
# one linear factor of each shell family loses its x term or its constant;
# the strategies draw them only by chance.


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), _LITERALS)
@example(12, 9, "0/1")
@example(12, 9, "1/1")
@example(12, 9, "0")
@example(12, 9, "1")
@example(12, 9, "1/1000000000000")
@example(40, 3, "2/7")  # rational rows past total 32
def test_direct_table_rows_are_the_single_cell_values(imax, kmax, eta):
    p = BeamSplitterParam.from_value(eta)
    table = bs_table_direct(imax, kmax, p)
    rational = bs_table_direct(imax, kmax, p, "rational") if p.eta_exact is not None else None
    for (i, k), row in table.entries.items():
        cells = [PhotonConfig(i, k, n) for n in range(i + k + 1)]
        assert row.tobytes() == np.array([bs_prob_direct(c, p) for c in cells]).tobytes()
        if rational is not None:
            assert rational.row(i, k) == [bs_prob_exact(c, p.eta_exact) for c in cells]


# README's bound for float convolution entries: each square lies within this
# much per photon of its total of the exact probability at the double value
# of eta. (A p/q literal adds the rounding of p/q to that double, which is no
# error of the fill.)
_ADDITION_BOUND_PER_PHOTON = 4e-16


def _addition_cells(s: int, pick: int) -> list[int]:
    """The n that the photon-addition test reads of a row of total s: both
    ends, the middle, and about 24 more, offset by pick."""
    step = max(1, s // 24)
    return sorted({0, s // 2, s, *range(pick % step, s + 1, step)})


@st.composite
def _shapes_to_total_120(draw):
    total = draw(st.integers(0, 120))
    k = draw(st.integers(0, total))
    return total - k, k


# Examples of the bound test and cases of the single-cell cross-check: thin
# and clipped shapes hold shells whose rows start above i = 0 or stop below
# i = s.
_LOW_SHAPES = [(32, 32), (40, 2), (2, 40), (10, 30), (32, 0), (0, 40)]
_LOW_ETAS = ["0.37", "1e-12", "0.999999999999", "0.0", "1.0"]


def _with_low_examples(test):
    for shape in _LOW_SHAPES:
        for eta in _LOW_ETAS:
            test = example(shape, eta, 250)(test)  # the drawn row lies at a middle total
    return test


@settings(max_examples=30, deadline=None)
@given(_shapes_to_total_120(), _LITERALS, st.integers(0, 10**6))
@example((1000, 2), "0.999999999999", 5)  # near 1: the largest error per photon seen
@example((2, 1000), "1e-12", 0)
@example((1000, 0), "940/941", 7)
@example((40, 40), "999999999999/1000000000000", 11)
@example((60, 60), "1/941", 3)
@example((37, 3), "0", 0)
@example((3, 37), "1", 0)
@example((20, 20), "0/1", 1)
@example((20, 20), "1/1", 1)
@example((30, 30), "0.7", 2)
@_with_low_examples
def test_convolution_table_rows_hold_the_stated_bound(shape, eta, pick):
    # The float rows are the squares of the photon-addition fill, clipped at
    # 1: within the bound of the exact value, and signed as bs_amplitude.
    # Read are the last three shells, where the error peaks, and one row
    # drawn from all shells.
    p = BeamSplitterParam.from_value(eta)
    binary = BeamSplitterParam(p.eta)  # the double the fill runs on, as a float-only parameter
    imax, kmax = shape
    table = bs_table_convolution(imax, kmax, p)
    rows = {}
    for s, shell in enumerate(recurrences._photon_addition_shells(imax, kmax, p.eta)):
        lo = max(0, s - kmax)
        rows.update({(lo + r, s - lo - r): amplitudes for r, amplitudes in enumerate(shell)})
    ordered = sorted(rows, key=sum)
    read = {key for key in ordered if sum(key) >= imax + kmax - 2} | {ordered[pick % len(ordered)]}
    for i, k in sorted(read):
        got, amplitudes = table.row(i, k), rows[(i, k)]
        assert got.tobytes() == np.minimum(amplitudes * amplitudes, 1.0).tobytes()
        for n in _addition_cells(i + k, pick):
            c = PhotonConfig(i, k, n)
            want = bs_prob_direct(c, binary)  # the exact value rounded once
            assert abs(got[n] - want) <= _ADDITION_BOUND_PER_PHOTON * (i + k), (c, got[n], want)
            if want > 1e-10:
                assert (amplitudes[n] < 0) == (bs_amplitude(c, binary) < 0), c


@pytest.mark.parametrize("eta", _LOW_ETAS)
@pytest.mark.parametrize("imax, kmax", _LOW_SHAPES)
def test_convolution_table_rows_up_to_total_32_are_the_single_cell_squares(imax, kmax, eta):
    # The single-cell convolution amplitude runs the photon-addition fill of
    # its own block, so its square is the table's entry bit for bit. Each
    # call runs its own fill, so one seeded n is read per row.
    p = BeamSplitterParam.from_value(eta)
    table = bs_table_convolution(imax, kmax, p)
    rng = random.Random(f"{imax},{kmax},{eta}")
    for i in range(min(imax, 32) + 1):
        for k in range(min(kmax, 32 - i) + 1):
            n = rng.randint(0, i + k)
            a = bs_amplitude_convolution(PhotonConfig(i, k, n), p)
            assert a * a == table.value(i, k, n), (i, k, n)


@pytest.mark.parametrize("eta", ["0", "1", "1e-12", "0.999999999999"])
@pytest.mark.parametrize("imax, kmax", [(32, 32), (60, 60), (1000, 2)])
def test_convolution_table_entries_are_probabilities(imax, kmax, eta):
    # At the edges of eta the squares of the fill reach 1 + a few ulps; the
    # table clips them, as the recurrence fill does.
    table = bs_table_convolution(imax, kmax, BeamSplitterParam.from_value(eta))
    for row in table.entries.values():
        assert row.min() >= 0.0 and row.max() <= 1.0


def test_convolution_tables_build_apart_from_the_factored_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the convolution route reached the factored engine")

    monkeypatch.setattr(probabilities, "_alternating_sum", refuse)
    monkeypatch.setattr(probabilities, "_top_coefficient_walk", refuse)
    monkeypatch.setattr(recurrences, "_top_coefficient_walk", refuse)
    floats = bs_table_convolution(25, 25, BeamSplitterParam(0.7))  # past total 32
    exact = bs_table_convolution(10, 10, BeamSplitterParam.from_value("1/3"), "rational")
    assert len(floats.entries) == 26 * 26 and len(exact.entries) == 11 * 11
    assert floats.normalization_max_residual() <= 1e-12 and exact.normalization_max_residual() == 0


@pytest.mark.parametrize("eta", ["0/1", "1/1", "1/1000000000000"])
@pytest.mark.parametrize("imax, kmax", [(7, 7), (40, 2)])
def test_rational_convolution_rows_at_edge_transmittances(imax, kmax, eta):
    exact = Fraction(eta)
    table = bs_table_convolution(imax, kmax, BeamSplitterParam.from_value(eta), "rational")
    for (i, k), row in table.entries.items():
        cells = [PhotonConfig(i, k, n) for n in range(i + k + 1)]
        assert row == [prob_double_sum_literal(i, k, c.n, exact) for c in cells]
        assert row == [bs_prob_exact(c, exact) for c in cells]


def _logged_walk(log):
    """_top_coefficient_walk, logging every shell it hands over as
    (num, den, s, rows, ks, q, cells, reads): cells maps (i, k) to the
    factors (t, Y, V) that sums(i) gives at yield time, for every row of the
    shell with a top vector, and reads counts the reader's calls of sums
    per row."""
    walk = probabilities._top_coefficient_walk

    def logged(num, den, shells, own=None, bridge=False):
        for s, (rows, ks, q, sums) in enumerate(walk(num, den, shells, own, bridge)):
            held = [i for i in rows if i <= s and (own is None or i in own)]
            cells = {(i, k): (t, y, v) for i in held for k, t, y, v in zip(ks, *sums(i))}
            reads = dict.fromkeys(rows, 0)
            log.append((num, den, s, rows, ks, q, cells, reads))

            def counted(i, sums=sums, reads=reads):
                reads[i] += 1
                return sums(i)

            yield rows, ks, q, counted

    return logged


# Shapes: beam splitter square, 60x0, 0x60, 40x2, 2x40; squeezer kmax > nmax,
# nmax = 0, imax > kmax + nmax, and 1x60x2.
_WALK_SHAPES = [(7, 7), (60, 0), (0, 60), (40, 2), (2, 40), (3, 6, 2), (4, 5, 0), (9, 2, 3), (1, 60, 2)]
_WALK_VALUES = st.one_of(
    _RATIOS,
    _DECIMALS,
    st.sampled_from(["0", "1", "-0.0", "1e-12", "0.999999999999", "1/1000000000000", "999999999999/1000000000000"]),
)


@pytest.mark.parametrize("shape", _WALK_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@settings(max_examples=4, deadline=None)
@given(value=_WALK_VALUES)
@example(value="1/3")
@example(value="0.7")
@example(value="-0.0")
@example(value="0.999999999999")
def test_the_walk_hands_each_builder_and_scan_the_single_cell_sums_once(shape, value):
    # Every (U, V, Q) the walk hands to a direct table or a scan, U = t*Y, is
    # the single cell's, and a direct table reads each row it computes once
    # and no row that _halves mirrors, in every precision and for both
    # devices. A scan reads each of its rows at most once a shell.
    bs = len(shape) == 2
    if not bs and Fraction(value) >= 1:
        return
    p = BeamSplitterParam.from_value(value) if bs else SqueezerParam.from_value(value)
    device = Device.BS if bs else Device.TMS
    for precision in ["float", "rational"] if "/" in value else ["float"]:
        log = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrences, "_top_coefficient_walk", _logged_walk(log))
            build = recurrences.bs_table_direct if bs else recurrences.tms_table_direct
            table = build(*shape, p, precision)
        held = []
        for num, den, s, rows, ks, q, cells, reads in log:
            lo, hi, _ = recurrences._halves(s, len(rows), len(ks), rows.start, s - ks[-1])
            assert reads == {i: int(lo <= i <= hi) for i in rows}, (s, precision)
            for (i, k), (t, y, v) in cells.items():
                cell = PhotonConfig(i, s - i, s - k) if bs else PhotonConfig(i, k, s - k, Device.TMS)
                assert (t * y, v, q) == probabilities._cell_sums(cell, device, num, den), (s, i, k)
                held.append((cell.i, cell.k, cell.n))
        if bs:
            want = [(i, k, n) for i in range(shape[0] + 1) for k in range(shape[1] + 1) for n in range(i + k + 1)]
        else:  # as the squeezer windows of the walk that steps every row and column from shell 0
            want = [(i, k, n) for i in range(shape[0] + 1) for k in range(shape[1] + 1) for n in range(shape[2] + 1)]
            num, den = probabilities._partner_ratio(p)
            stepped = top_coefficient_walk_stepped(num, den, range(shape[0] + 1), range(shape[1] + 1))
            for (*_, q, cells, _), (cell, q_want) in zip(log, stepped):
                assert q == den * q_want  # the bridge's num is in Y, its den in q
                for (i, k), (t, y, v) in cells.items():
                    x, w = cell(i, k)
                    assert (t * v, y) == (x, num * w), (i, k)
        assert sorted(held) == sorted(c for c in want if PhotonConfig(*c, device).reachable)
        assert table.den is None or table.normalization_max_residual() == 0
    if not bs:  # a scan of two of the rows and one column, each of its cells as the table's
        log = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probabilities, "_top_coefficient_walk", _logged_walk(log))
            try:
                list(probabilities._tms_residual_rows(p, [0, shape[0]], [shape[1]]))
            except ConvergenceError:  # a cutoff past the step budget: the walk never starts
                assert not log
        for num, den, s, rows, ks, q, cells, reads in log:
            assert max(reads.values()) <= 1, s
            for (i, k), (t, y, v) in cells.items():
                cell = PhotonConfig(i, k, s - k, Device.TMS)
                assert (t * y, v, q) == probabilities._cell_sums(cell, device, num, den), (s, i, k)


@pytest.mark.parametrize("imax, kmax", [(60, 0), (0, 60), (40, 2), (2, 40), (7, 7)])
@pytest.mark.parametrize("eta", ["0/1", "1/1", "2/7", "0.7"])
def test_shells_of_thin_and_square_tables_give_the_single_cell_factor_sums(imax, kmax, eta):
    # On the band of rows a beam-splitter table reads, each shell of the
    # walk's reader must give the single-cell (U, V, Q) of every cell, U =
    # t*Y and V apart, and every row must come once. With bridge the same
    # shells give those of the squeezer cells (i, k -> s-k) at 1 - lam = num/den.
    p = BeamSplitterParam.from_value(eta)
    num, den = probabilities._exact_ratio(p)
    shells = [(range(max(0, s - kmax), min(imax, s) + 1), range(s + 1)) for s in range(imax + kmax + 1)]
    seen = []
    for bridge, device in ((False, Device.BS), (True, Device.TMS)):
        for s, (rows, _, q, sums) in enumerate(probabilities._top_coefficient_walk(num, den, shells, bridge=bridge)):
            for i in rows:
                seen.append((i, s - i))
                got = [(t * y, v, q) for t, y, v in zip(*sums(i))]
                cells = [PhotonConfig(i, k if bridge else s - i, s - k, device) for k in range(s + 1)]
                assert got == [probabilities._cell_sums(c, device, num, den) for c in cells], (bridge, s, i)
    assert sorted(seen) == sorted(2 * [(i, k) for i in range(imax + 1) for k in range(kmax + 1)])


_HALF_BS = BeamSplitterParam.from_value("1/2")


@pytest.mark.parametrize("call, count", [
    (lambda: normalization_residual(2, -1, SqueezerParam(0.3)), "k=-1"),
    (lambda: normalization_residual(-2, 1, SqueezerParam(0.3)), "i=-2"),
    (lambda: normalization_residual(0, -1, BeamSplitterParam(0.3)), "k=-1"),
    (lambda: bs_prob_double_sum(-1, 2, 1, 0.3), "i=-1"),
    (lambda: bs_prob_double_sum(1, -2, 1, Fraction(1, 3)), "k=-2"),
    (lambda: bs_prob_double_sum(1, 2, -1, 0.3), "n=-1"),
    (lambda: recurrences.classical_prob(-1, 2, 1, _HALF_BS), "i=-1"),
    (lambda: recurrences.classical_prob(1, -2, -1, _HALF_BS), "k=-2"),
    (lambda: recurrences.classical_recurrence_check(-1, 2, 1, 0, _HALF_BS), "i=-1"),
    (lambda: recurrences.classical_recurrence_check(1, -2, -1, 0, _HALF_BS, "rational"), "k=-2"),
    (lambda: amplitudes.bs_vacuum_row(-1, 0, _HALF_BS), "i=-1"),
    (lambda: amplitudes.tms_vacuum_row(-1, 0, SqueezerParam(0.3)), "i=-1"),
])
def test_a_negative_photon_count_raises_before_any_work(monkeypatch, call, count):
    def engine(*args, **kwargs):
        raise AssertionError("work began before the counts were checked")

    for module, name in [(probabilities, "_scaled_factor_sums"), (probabilities, "_tms_residual_rows"),
                         (probabilities, "_double_sum"), (recurrences, "_bs_binomial_row")]:
        monkeypatch.setattr(module, name, engine)
    with pytest.raises(ValueError, match=f"photon counts must be nonnegative, got {count}$"):
        call()


def test_a_negative_output_count_reads_zero_in_the_classical_model():
    assert recurrences.classical_prob(1, 2, -1, _HALF_BS) == 0
    assert recurrences.classical_recurrence_check(1, 2, -1, 0, _HALF_BS, "rational") == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20), _LITERALS)
def test_bs_normalization_row_is_the_per_cell_sum(i, k, eta):
    p = BeamSplitterParam.from_value(eta)
    assert normalization_residual(i, k, p) == normalization_residual_per_cell(i, k, p)


@pytest.mark.parametrize("eta", ["0.7", "1/3", "1e-12"])
def test_bs_normalization_rows_either_side_of_the_short_quotient_bound(eta):
    # At 0.7 the denominator passes 2000 bits from total 39 on, at 1e-12 from
    # total 22; the rows must still be the plain per-cell quotients.
    p = BeamSplitterParam.from_value(eta)
    for i, k in [(0, 0), (3, 2), (10, 11), (20, 18), (19, 21), (30, 14), (0, 45), (45, 0)]:
        assert normalization_residual(i, k, p) == normalization_residual_per_cell(i, k, p), (i, k)


@pytest.mark.parametrize("lam", [0.8, 0.5, 0.95, "2/5"])
def test_tms_normalization_scan_is_the_per_cell_sum(lam):
    sp = SqueezerParam.from_value(lam)
    for i in range(5):
        for k in range(5):
            assert normalization_residual(i, k, sp) == normalization_residual_per_cell(i, k, sp)


def test_tms_normalization_scan_holds_no_power_table():
    # The batch of rows (0, 3) and (3, 3) at 0.99 runs to n near 3800 and
    # holds the power window of every row up to (3, 3); a table of every
    # power of r up to there would hold about 50 MB.
    tracemalloc.start()
    try:
        list(probabilities._tms_residual_rows(SqueezerParam(0.99), [0, 3], [3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# Rational lambdas stop at 19/20 so that no example walks past about 1400 steps.
_SCAN_LAMBDAS = st.one_of(
    st.integers(1, 1000).flatmap(lambda q: st.integers(0, q * 19 // 20).map(lambda p: f"{p}/{q}")),
    st.sampled_from(["0.37", "0.8", "0.95", "1e-12"]),
)


# Sets of rows and columns with gaps, and lowest columns above 0: the scan's
# columns start at min(cols), above s on its first shells, where the walk's
# power window must start at s.
_SCAN_RUNS = st.sets(st.integers(0, 7), min_size=1, max_size=3)


@settings(max_examples=12, deadline=None)
@given(lam=_SCAN_LAMBDAS, rows=_SCAN_RUNS, cols=_SCAN_RUNS)
@example(lam="0.37", rows=range(4), cols=range(4))
@example(lam="0.8", rows=range(4), cols=range(4))
@example(lam="0.95", rows=range(4), cols=range(4))
@example(lam="1e-12", rows=range(4), cols=range(4))
@example(lam="0.8", rows={0, 3}, cols={5})
@example(lam="0.5", rows={2, 6}, cols={4, 7})
@example(lam="4/5", rows={2, 6}, cols={4, 7})
@example(lam="0.95", rows={0, 7}, cols={3, 6})
def test_batched_tms_rows_are_the_per_row_and_per_cell_residuals(lam, rows, cols):
    sp = SqueezerParam.from_value(lam)
    got = list(probabilities._tms_residual_rows(sp, rows, cols))
    assert [(i, k) for i, k, _ in got] == [(i, k) for i in rows for k in cols]
    for i, k, r in got:
        assert r == normalization_residual(i, k, sp) == normalization_residual_per_cell(i, k, sp), (i, k)


def test_squeezer_scans_and_tables_run_no_horner_sum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a squeezer path ran a single-cell Horner sum")

    monkeypatch.setattr(probabilities, "_alternating_sum", refuse)
    sp = SqueezerParam(0.8)
    assert normalization_residual(3, 2, sp) <= 1e-10
    assert all(r <= 1e-10 for _, _, r in probabilities._tms_residual_rows(sp, range(3), range(3)))
    table = recurrences.tms_table_direct(4, 4, 8, SqueezerParam.from_value("1/4"), "rational")
    assert table.normalization_max_residual() == 0
    res = verify.VerificationResult("theorem 2")
    verify._identity_exact(res, "lam", ["1/2"], SqueezerParam, 4, 4, 4)
    assert res.ok and res.cases


def test_a_scan_past_the_step_budget_raises_before_it_walks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the walk began")

    monkeypatch.setattr(probabilities, "_top_coefficient_walk", refuse)
    with pytest.raises(ConvergenceError, match="budget"):
        normalization_residual(0, 0, SqueezerParam(1 - 1e-6))
    with pytest.raises(ConvergenceError, match=r"\(i=8, k=8, .*budget"):  # 10 * 17 / 0.001 steps
        list(probabilities._tms_residual_rows(SqueezerParam(0.999), range(9), range(9)))
    with pytest.raises(AssertionError, match="walk began"):  # 60 000 steps, within the budget
        normalization_residual(0, 0, SqueezerParam(0.999))


@pytest.mark.parametrize(
    "eta, smax", [("0.7", 30), ("1e-12", 26), ("2/7", 12), ("0.37", 30), ("1/3", 30), ("1/941", 30)]
)
def test_batched_residual_rows_are_the_per_row_residuals(eta, smax):
    # Rows i > k take the residual of their mirror (k, i); each must still be
    # the row's own residual bit for bit.
    p = BeamSplitterParam.from_value(eta)
    rows = {(i, k): r for i, k, r in recurrences._bs_residual_rows(p, smax)}
    assert sorted(rows) == [(i, k) for i in range(smax + 1) for k in range(smax + 1 - i)]
    assert rows == {(i, k): normalization_residual(i, k, p) for i, k in rows}


def _signed(magnitude, sign):
    return -magnitude if sign else magnitude


@st.composite
def _quotient_operands(draw):
    """(u, v, q) with q on either side of the short-quotient bound and |u*v/q|
    near 2**scale: normal, subnormal or below the subnormal range."""
    bound = probabilities._SHORT_QUOTIENT_BITS
    qbits = draw(st.sampled_from([1, 60, bound - 1, bound, bound + 1, 3 * bound]) | st.integers(1, 4 * bound))
    q = draw(st.integers(2 ** (qbits - 1), 2**qbits - 1))
    scale = draw(st.sampled_from([0, -1030, -1060, -1074, -1100]) | st.integers(-1100, 900))
    ubits = draw(st.integers(0, max(0, qbits + scale)))
    vbits = max(0, qbits + scale - ubits)
    u = _signed(draw(st.integers(0, 2**ubits)), draw(st.booleans()))
    v = _signed(draw(st.integers(0, 2**vbits)), draw(st.booleans()))
    return u, v, q


@settings(max_examples=400, deadline=None)
@given(_quotient_operands())
@example((3 << 3000, -(5 << 2000), 7 << 4000))
@example((-1, 1, 1 << 5000))
@example((-(1 << 1500), -(1 << 1500), 3 << 4100))
@example((0, -(1 << 3000), 1 << 2500))
def test_rounded_quotient_is_the_plain_quotient(operands):
    u, v, q = operands
    got, want = probabilities._rounded_quotient(u, v, q), u * v / q
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class _CountingInt(int):
    """An int that counts the products formed with it on the left."""

    products = 0

    def __mul__(self, other):
        type(self).products += 1
        return int(self) * other


@pytest.mark.parametrize(
    "u, want",
    [
        (2**53 + 1, 1.0),  # 1 + 2**-53: halfway, to even
        (2**53 + 3, 1.0 + 2**-51),  # 1 + 3 * 2**-53: halfway, to even
        (2**1000 + 2**947 + 1, 1.0 + 2**-52),  # just above halfway
    ],
)
def test_halfway_quotients_fall_back_to_the_exact_division(u, want):
    # The leading-bit bracket straddles a rounding boundary, so only the exact
    # quotient u*v/q can round it; the fallback forms u*v once.
    q = 1 << 2100
    v = q >> (u.bit_length() - 1)
    _CountingInt.products = 0
    assert probabilities._rounded_quotient(_CountingInt(u), v, q) == want == u * v / q
    assert _CountingInt.products == 1


def test_long_quotients_off_a_boundary_do_not_form_the_product():
    _CountingInt.products = 0
    assert probabilities._rounded_quotient(_CountingInt(3 << 3000), 5 << 2000, 7 << 4000) == (15 << 5000) / (7 << 4000)
    assert _CountingInt.products == 0


# The engine's Horner sums against the term-by-term reference over the
# amplitude range of totals and every n of a row: p/q literals, float-only
# values (54-bit numerators and denominators), and eta = 0 and 1, where num
# or r = den - num vanishes.
_ENGINE_PARAMS = st.one_of(_RATIOS, st.sampled_from([0.7, 0.37, 1e-12, 1 - 1e-12, 0.0, 1.0, "0/1", "1/1"]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 260).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s))), _ENGINE_PARAMS)
@example((260, 130), 0.37)
@example((260, 3), 1 - 1e-12)
@example((200, 200), "0/1")
@example((200, 0), "1/1")
@example((1, 1), 0.0)
@example((1, 0), 1.0)
def test_factor_sums_are_the_term_by_term_reference(row, eta):
    total, i = row
    num, den = probabilities._exact_ratio(BeamSplitterParam.from_value(eta))
    for n in range(total + 1):
        got = probabilities._scaled_factor_sums(i, total - i, n, num, den)
        assert got == factor_sums_reference(i, total - i, n, num, den), n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 260).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s))), _ENGINE_PARAMS)
@example((260, 130), 0.37)
@example((200, 200), "0/1")
@example((200, 0), "1/1")
@example((1, 1), 0.0)
@example((1, 0), 1.0)
def test_transposed_sum_is_the_first_scaled_by_binomials(row, eta):
    # C(n,t) C(s-n,i-t) C(s,n) = C(i,t) C(k,n-t) C(s,i) term by term, so the
    # sum at the transposed cell (n, s-n, i) is the one at (i, k, n) times
    # C(s,i)/C(s,n) (Krawtchouk self-duality).
    total, i = row
    num, den = probabilities._exact_ratio(BeamSplitterParam.from_value(eta))
    r = den - num
    for n in range(total + 1):
        lo, hi = probabilities._term_range(i, total - i, n)
        first = probabilities._alternating_sum(i, total - i, n, lo, hi, num, r)
        transposed = probabilities._alternating_sum(n, total - n, i, lo, hi, num, r)
        assert math.comb(total, n) * transposed == math.comb(total, i) * first, n


@pytest.mark.parametrize("eta", ["3/10", "1/2", "0.37"])
def test_each_exact_single_cell_runs_one_alternating_sum(monkeypatch, eta):
    calls = []
    horner = probabilities._alternating_sum
    monkeypatch.setattr(probabilities, "_alternating_sum", lambda *args: calls.append(args) or horner(*args))
    bp, sp = BeamSplitterParam.from_value(eta), SqueezerParam.from_value(eta)
    exact = Fraction(bp.eta) if bp.eta_exact is None else bp.eta_exact
    bs, tms = PhotonConfig(20, 17, 19), PhotonConfig(20, 17, 19, Device.TMS)  # totals 37 and 36 (bridge)
    cells = {  # name: (call, alternating sums it runs)
        "bs_prob_direct": (lambda: bs_prob_direct(bs, bp), 1),
        "bs_prob_exact": (lambda: bs_prob_exact(bs, exact), 1),
        "tms_prob": (lambda: tms_prob(tms, sp), 1),
        "tms_prob_exact": (lambda: tms_prob_exact(tms, exact), 1),
        "bs_amplitude": (lambda: bs_amplitude(bs, bp), 1),
        "bs_amplitude convolution": (lambda: bs_amplitude(bs, bp, "convolution"), 0),  # the fill, apart from the engine
        "tms_amplitude": (lambda: tms_amplitude(tms, sp), 1),
        "tms_amplitude convolution": (lambda: tms_amplitude(tms, sp, "convolution"), 0),
    }
    for name, (cell, sums) in cells.items():
        calls.clear()
        cell()
        assert len(calls) == sums, name
    calls.clear()
    normalization_residual(6, 5, bp)
    assert len(calls) == 12  # one per cell of the row


_SQUEEZINGS = st.one_of(
    st.integers(1, 1000).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: f"{p}/{q}")),
    st.integers(0, 10**6 - 1).map(lambda d: str(d / 10**6)),
    st.sampled_from([0.0, -0.0, 1 - 1e-12]),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 260).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s), st.integers(0, s))), _SQUEEZINGS)
@example((260, 130, 131), "999/1000")
@example((260, 3, 257), 1 - 1e-12)
@example((30, 12, 17), -0.0)
@example((33, 33, 0), 0.0)
@example((32, 5, 20), "0.37")
def test_squeezer_cells_are_the_reversal_route_bit_for_bit(bridge_cell, lam):
    # The squeezer cell (i, total-n -> n) reads its bridge cell
    # (i, total-i -> n) at 1 - lam from the partner ratio, the exact 1 - lam,
    # with no BeamSplitterParam built; the convolution route takes the
    # float sqrt(1.0 - lam) times the bridge's amplitude.
    total, i, n = bridge_cell
    c, bridge = PhotonConfig(i, total - n, n, Device.TMS), PhotonConfig(i, total - i, n)
    sp = SqueezerParam.from_value(lam)
    exact = Fraction(sp.lam) if sp.lam_exact is None else sp.lam_exact
    assert probabilities._partner_ratio(sp) == (1 - exact).as_integer_ratio()
    assert repr(tms_prob(c, sp)) == repr(float((1 - exact) * bs_prob_exact(bridge, 1 - exact)))
    want = math.sqrt(1.0 - sp.lam) * bs_amplitude(bridge, sp.ptr_beamsplitter(), "convolution")
    assert repr(tms_amplitude(c, sp, "convolution")) == repr(want)
    assert tms_prob_exact(c, exact) == (1 - exact) * bs_prob_exact(bridge, 1 - exact)


_EXACT_SQUEEZINGS = st.one_of(
    st.integers(1, 1000).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: f"{p}/{q}")),
    st.integers(0, 10**6 - 1).map(lambda d: str(d / 10**6)),
    st.sampled_from(["1e-12", 1 - 1e-12]),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 260).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s), st.integers(0, s))),
       _EXACT_SQUEEZINGS)
@example((27, 0, 27), "1e-12")  # A(0, 0 -> 27), once 6e-4 off at the float 1.0 - lam
@example((0, 0, 0), "999999/1000000")
@example((6, 3, 5), "999999/1000000")  # A(3, 1 -> 5)
@example((60, 21, 44), "36/37")
@example((260, 130, 131), 1 - 1e-12)
@example((103, 0, 0), "999/1000")  # A(0, 103 -> 0) = 1e-312 is subnormal
def test_squeezer_values_are_the_exact_ones_rounded_once(bridge_cell, lam):
    # With 1 - lam taken exactly, every squeezer value is one quotient of
    # exact integers: the probability rounded once, its root within one ulp.
    total, i, n = bridge_cell
    c = PhotonConfig(i, total - n, n, Device.TMS)
    sp = SqueezerParam.from_value(lam)
    exact = tms_prob_exact(c, Fraction(sp.lam) if sp.lam_exact is None else sp.lam_exact)
    assert repr(tms_prob(c, sp)) == repr(float(exact))
    assert within_ulps(tms_amplitude(c, sp), exact, 1)


def test_square_of_amplitude_invariant():
    from fockmix.amplitudes import bs_amplitude_direct

    p = BeamSplitterParam(0.61)
    for i in range(0, 21, 4):
        for k in range(0, 21, 4):
            for n in range(i + k + 1):
                cfg = PhotonConfig(i, k, n)
                assert abs(bs_prob_direct(cfg, p) - bs_amplitude_direct(cfg, p) ** 2) <= 1e-10


def test_input_swap_symmetry_exact():
    eta = Fraction(2, 5)
    for i in range(13):
        for k in range(13):
            for n in range(i + k + 1):
                lhs = bs_prob_exact(PhotonConfig(i, k, n), eta)
                rhs = bs_prob_exact(PhotonConfig(k, i, i + k - n), eta)
                assert lhs == rhs


def test_transmittance_flip_exact():
    eta = Fraction(2, 7)
    for i in range(13):
        for k in range(13):
            for n in range(i + k + 1):
                lhs = bs_prob_exact(PhotonConfig(i, k, n), 1 - eta)
                rhs = bs_prob_exact(PhotonConfig(i, k, i + k - n), eta)
                assert lhs == rhs


def test_energy_shell_double_stochasticity():
    eta = Fraction(3, 7)
    for total in range(1, 13):
        matrix = [
            [bs_prob_exact(PhotonConfig(i, total - i, n), eta) for n in range(total + 1)]
            for i in range(total + 1)
        ]
        for row in matrix:
            assert sum(row) == 1
        for col in range(total + 1):
            assert sum(matrix[row][col] for row in range(total + 1)) == 1


def test_tms_prob_examples():
    assert tms_prob(PhotonConfig(1, 1, 1, Device.TMS), SqueezerParam(0.5)) <= 1e-15
    got = tms_prob(PhotonConfig(0, 0, 0, Device.TMS), SqueezerParam(0.25))
    assert math.isclose(got, 0.75, rel_tol=1e-13)
    got = tms_prob(PhotonConfig(1, 1, 1, Device.TMS), SqueezerParam(0.2))
    assert math.isclose(got, 0.288, rel_tol=1e-12)
    assert tms_prob(PhotonConfig(3, 0, 1, Device.TMS), SqueezerParam(0.3)) == 0.0


def test_tms_exact_suppression_and_reversal():
    assert tms_prob_exact(PhotonConfig(1, 1, 1, Device.TMS), Fraction(1, 2)) == 0
    lam = Fraction(1, 5)
    got = tms_prob_exact(PhotonConfig(1, 1, 1, Device.TMS), lam)
    assert got == (1 - lam) * (1 - 2 * lam) ** 2
    for i in range(6):
        for k in range(6):
            for n in range(6):
                cfg = PhotonConfig(i, k, n, Device.TMS)
                m = n + k - i
                want = Fraction(0)
                if m >= 0:
                    want = (1 - lam) * bs_prob_exact(PhotonConfig(i, m, n), 1 - lam)
                assert tms_prob_exact(cfg, lam) == want


def test_tms_zero_squeezing_is_identity():
    sp = SqueezerParam(0.0)
    for i in range(4):
        for k in range(4):
            for n in range(5):
                want = 1.0 if n == i else 0.0
                assert tms_prob(PhotonConfig(i, k, n, Device.TMS), sp) == want
                got = tms_prob_exact(PhotonConfig(i, k, n, Device.TMS), Fraction(0))
                assert got == (1 if n == i else 0)


def test_normalization_bs():
    assert normalization_residual(3, 2, BeamSplitterParam(0.7)) <= 1e-12
    for i, k in ((0, 0), (5, 7), (12, 11)):
        assert normalization_residual(i, k, BeamSplitterParam(0.43)) <= 1e-10


def test_normalization_tms():
    assert normalization_residual(0, 0, SqueezerParam(0.5)) <= 1e-12
    assert normalization_residual(2, 2, SqueezerParam(0.6)) <= 1e-10
    assert normalization_residual(4, 1, SqueezerParam(0.8)) <= 1e-10


def test_normalization_tms_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(probabilities, "_TAIL_TOLERANCE", 0.0)
    with pytest.raises(ConvergenceError):
        normalization_residual(0, 0, SqueezerParam(0.5))


def test_device_guards():
    with pytest.raises(ValueError):
        bs_prob_direct(PhotonConfig(1, 1, 1, Device.TMS), BeamSplitterParam(0.5))
    with pytest.raises(ValueError):
        tms_prob(PhotonConfig(1, 1, 1, Device.BS), SqueezerParam(0.5))
    with pytest.raises(ValueError):
        bs_prob_exact(PhotonConfig(1, 1, 1), Fraction(3, 2))
    with pytest.raises(ValueError):
        tms_prob_exact(PhotonConfig(1, 1, 1, Device.TMS), Fraction(1))
