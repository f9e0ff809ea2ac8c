import math
import random

import pytest

from fockmix.errors import DomainError
from fockmix.genfun import (
    GenFunPoint,
    check_energy_scaling,
    diagonal_gf_bs,
    diagonal_series_bs,
    eval_f_bs,
    eval_f_bs_w1,
    eval_f_tms,
    eval_g_bs,
    eval_g_tms,
    f_bs_series,
    g_bs_series,
    g_tms_series,
)
from fockmix.params import BeamSplitterParam, SqueezerParam
from fockmix.recurrences import bs_table_recurrence
from fock_oracle import (
    diagonal_series_reference,
    f_bs_series_reference,
    g_bs_series_reference,
    g_tms_series_reference,
)

BS = BeamSplitterParam(0.7)
TMS = SqueezerParam(0.36)


def test_g_bs_point_values():
    assert eval_g_bs(GenFunPoint(0, 0, 0, 0), BS) == 1.0
    t = 0.4
    got = eval_g_bs(GenFunPoint(t, 0.0, t, 0.0), BS)
    assert math.isclose(got, math.exp(math.sqrt(0.7) * t * t), rel_tol=1e-14)


def test_g_tms_point_values():
    assert math.isclose(eval_g_tms(GenFunPoint(0, 0, 0, 0), TMS), math.sqrt(1 - 0.36), rel_tol=1e-14)
    off = SqueezerParam(0.0)
    pt = GenFunPoint(0.2, 0.3, 0.4, 0.1)
    assert math.isclose(
        eval_g_tms(pt, off), math.exp(0.2 * 0.4 + 0.3 * 0.1), rel_tol=1e-14
    )


def test_f_point_values_and_slices():
    assert eval_f_bs(GenFunPoint(0, 0, 0, 0), BS) == 1.0
    assert math.isclose(eval_f_tms(GenFunPoint(0, 0, 0, 0), SqueezerParam(0.25)), 0.75, rel_tol=1e-14)
    for x in (0.0, 0.3, 0.7):
        for y in (0.0, 0.3, 0.7):
            want = 1.0 / ((1 - x) * (1 - y))
            assert abs(eval_f_bs(GenFunPoint(x, y, 1.0, 1.0), BS) - want) <= 1e-12
            assert abs(eval_f_tms(GenFunPoint(x, y, 1.0, 1.0), TMS) - want) <= 1e-12
    assert math.isclose(
        eval_f_bs_w1(0.2, 0.3, 0.4, BS), eval_f_bs(GenFunPoint(0.2, 0.3, 0.4, 1.0), BS), rel_tol=1e-15
    )


def test_f_domain_errors():
    with pytest.raises(DomainError):
        eval_f_bs(GenFunPoint(3.0, 0.0, 1.0, 0.0), BeamSplitterParam(0.5))
    with pytest.raises(DomainError):
        eval_f_tms(GenFunPoint(0.0, 3.0, 0.0, 1.0), SqueezerParam(0.5))


def test_unit_box_flag():
    assert GenFunPoint(0.1, 0.2, 0.0, 0.99).in_unit_box()
    assert not GenFunPoint(0.1, 0.2, 1.0, 0.5).in_unit_box()
    assert not GenFunPoint(-0.1, 0.2, 0.0, 0.5).in_unit_box()


def test_energy_scaling_identities():
    pt = GenFunPoint(0.2, 0.3, 0.4, 0.5)
    assert check_energy_scaling(pt, 1.5, BS) <= 1e-12
    assert check_energy_scaling(pt, 1.0, BS) == 0.0
    assert check_energy_scaling(pt, 0.8, TMS) <= 1e-12
    with pytest.raises(DomainError):
        check_energy_scaling(pt, 0.0, BS)
    # the scaling fixes every product in the denominator, so only a point
    # already outside the domain can raise
    with pytest.raises(DomainError):
        check_energy_scaling(GenFunPoint(3.0, 0.0, 1.0, 0.0), 2.0, BeamSplitterParam(0.5))


def test_ptr_identities_pointwise():
    lam = 0.36
    sp = SqueezerParam(lam)
    bp = sp.ptr_beamsplitter()
    pt = GenFunPoint(0.1, 0.3, 0.2, 0.4)
    lhs = eval_g_tms(pt, sp)
    rhs = math.sqrt(1 - lam) * eval_g_bs(GenFunPoint(0.1, 0.4, 0.2, 0.3), bp)
    assert abs(lhs - rhs) <= 1e-14
    lhs = eval_f_tms(pt, sp)
    rhs = (1 - lam) * eval_f_bs(GenFunPoint(0.1, 0.4, 0.2, 0.3), bp)
    assert abs(lhs - rhs) <= 1e-14


def test_swap_symmetry():
    pt = GenFunPoint(0.11, 0.42, 0.23, 0.34)
    swapped = GenFunPoint(0.42, 0.11, 0.34, 0.23)
    assert abs(eval_f_bs(pt, BS) - eval_f_bs(swapped, BS)) <= 1e-14


def test_recurrence_kernel_identity():
    # the one-line reciprocal identity that powers the general-j recurrence
    import random

    rng = random.Random(3)
    for _ in range(30):
        x, y, z = (rng.uniform(0.0, 0.5) for _ in range(3))
        s = rng.uniform(0.0, 0.9)
        lhs = 1.0 / eval_f_bs_w1(s * x, s * y, z, BS) - s / eval_f_bs_w1(x, y, z, BS)
        rhs = (1.0 - x * y * z * s) * (1.0 - s)
        assert abs(lhs - rhs) <= 1e-13


def test_g_series_matches_closed_form():
    for coords in [(0.2, 0.2, 0.2, 0.2), (0.25, -0.25, 0.1, 0.25)]:
        pt = GenFunPoint(*coords)
        res = g_bs_series(pt, BS, order=24)
        assert res.converged
        assert abs(res.value - eval_g_bs(pt, BS)) <= 1e-8
    res = g_tms_series(GenFunPoint(0.2, 0.2, 0.2, 0.2), TMS, order=24)
    assert abs(res.value - eval_g_tms(GenFunPoint(0.2, 0.2, 0.2, 0.2), TMS)) <= 1e-8


@pytest.mark.parametrize("order", [None, 5, 12, 24, 30])
def test_g_series_are_the_per_device_loops_bit_for_bit(order):
    # Each series reads the walk shell by shell, and each of its amplitudes
    # must be the single cell's. At 1/10**40 and order 24 many U*V/Q lie
    # below the normal floats, where _signed_root scales by powers of 4.
    rng = random.Random(14)
    values = [("2/7", "1/5"), ("0", "0"), ("0.37", "0.37")] + [("1/" + str(10**40),) * 2] * (order == 24)
    params = [(BS, TMS)] + [(BeamSplitterParam.from_value(a), SqueezerParam.from_value(b)) for a, b in values]
    for p_bs, p_tms in params:
        points = [GenFunPoint(-0.45, -0.3, -0.2, -0.4)]
        points += [GenFunPoint(*(rng.uniform(-0.45, 0.45) for _ in range(4))) for _ in range(3)]
        for pt in points:
            bs, tms = g_bs_series(pt, p_bs, order), g_tms_series(pt, p_tms, order)
            assert bs.value.hex() == g_bs_series_reference(pt, p_bs, bs.order).hex()
            assert tms.value.hex() == g_tms_series_reference(pt, p_tms, tms.order).hex()


def test_f_series_matches_closed_form():
    pt = GenFunPoint(0.3, 0.3, 0.3, 1.0)
    res = f_bs_series(pt, BS)
    assert res.converged and res.order <= 40
    assert abs(res.value - eval_f_bs(pt, BS)) <= 1e-8
    # full four-variable point as well
    pt4 = GenFunPoint(0.25, 0.2, 0.3, 0.4)
    res4 = f_bs_series(pt4, BS)
    assert abs(res4.value - eval_f_bs(pt4, BS)) <= 1e-8


@pytest.mark.parametrize("eta", ["0.7", "1/3", "1e-12"])
@pytest.mark.parametrize(
    "coords",
    [
        (0.3, 0.3, 0.3, 1.0),
        (-0.3, 0.2, -0.5, 1.0),
        (0.4, -0.45, 0.7, 1.0),
        (0.25, -0.25, 0.25, -0.25),
        (-0.4, -0.1, -1.0, -1.0),
    ],
)
def test_f_series_is_the_term_by_term_sum(coords, eta):
    # Each row is one numpy product of the same left-to-right factors, so the
    # series keeps the value of the scalar loop bit for bit.
    p, pt = BeamSplitterParam.from_value(eta), GenFunPoint(*coords)
    res = f_bs_series(pt, p, order=40)
    assert res.value.hex() == f_bs_series_reference(pt, bs_table_recurrence(40, 40, p), 40).hex()


@pytest.mark.parametrize("eta", ["0.3", "1/3"])
def test_diagonal_series_is_the_term_by_term_sum(eta):
    p = BeamSplitterParam.from_value(eta)
    table = bs_table_recurrence(60, 60, p)
    rng = random.Random(7)
    points = [(0.3, 0.5), (-0.3, 0.5), (0.25, -1.0), (-0.4, 1.0)]
    for x, z in points + [(rng.uniform(-0.7, 0.7), rng.uniform(-1.0, 1.0)) for _ in range(40)]:
        got = diagonal_series_bs(x, z, p, order=60)
        assert got.value.hex() == diagonal_series_reference(x, z, table, 60).hex()


def test_diagonal_gf_and_series():
    half = BeamSplitterParam(0.5)
    closed = diagonal_gf_bs(0.3, 0.5, half)
    assert math.isclose(closed, 1.0 / math.sqrt((1 - 0.3) * (1 - 0.25 * 0.3)), rel_tol=1e-14)
    assert diagonal_gf_bs(0.0, 0.7, half) == 1.0
    res = diagonal_series_bs(0.3, 0.5, half, order=60)
    assert abs(res.value - closed) <= 1e-8
    # general transmittance agrees with its own series
    p = BeamSplitterParam(0.3)
    res = diagonal_series_bs(0.25, 0.5, p, order=60)
    assert abs(res.value - diagonal_gf_bs(0.25, 0.5, p)) <= 1e-8
    with pytest.raises(DomainError):
        diagonal_gf_bs(1.5, 0.0, half)


def test_series_reports_unreached_tolerance():
    res = f_bs_series(GenFunPoint(0.97, 0.0, 0.0, 1.0), BS)
    assert not res.converged
    assert res.order == 80
    assert res.tail_bound > 1e-10
