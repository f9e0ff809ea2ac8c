import hashlib
import importlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fockmix
from fockmix.amplitudes import (
    bs_amplitude,
    bs_amplitude_convolution,
    bs_amplitude_direct,
    bs_vacuum_row,
    tms_amplitude,
    tms_vacuum_row,
)
from fockmix.params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from fockmix.probabilities import bs_prob_direct, bs_prob_exact, tms_prob, tms_prob_exact
from fockmix.recurrences import bs_table_convolution
from fock_oracle import bs_unitary, element, tms_unitary, within_ulps


def test_bs_vacuum_row_values():
    p = BeamSplitterParam(0.5)
    assert math.isclose(bs_vacuum_row(1, 1, p), math.sqrt(0.5), rel_tol=1e-14)
    assert math.isclose(bs_vacuum_row(2, 1, p), -math.sqrt(0.5), rel_tol=1e-14)
    assert bs_vacuum_row(0, 0, BeamSplitterParam(0.9)) == 1.0
    assert bs_vacuum_row(2, 3, p) == 0.0
    assert bs_vacuum_row(2, -1, p) == 0.0


def test_bs_vacuum_row_degenerate_transmittance():
    full = BeamSplitterParam(1.0)
    empty = BeamSplitterParam(0.0)
    assert bs_vacuum_row(3, 3, full) == 1.0
    assert bs_vacuum_row(3, 1, full) == 0.0
    assert bs_vacuum_row(3, 0, empty) == -1.0  # phase (-1)**3
    assert bs_vacuum_row(3, 2, empty) == 0.0


def test_bs_vacuum_row_normalization():
    for i in (1, 5, 17, 40):
        p = BeamSplitterParam(0.37)
        total = math.fsum(bs_vacuum_row(i, n, p) ** 2 for n in range(i + 1))
        assert abs(total - 1.0) <= 1e-12


def test_tms_vacuum_row_values():
    p = SqueezerParam(0.5)
    assert math.isclose(tms_vacuum_row(0, 0, p), math.sqrt(0.5), rel_tol=1e-14)
    assert math.isclose(tms_vacuum_row(0, 2, p), math.sqrt(0.5) * 0.5, rel_tol=1e-14)
    assert tms_vacuum_row(2, 1, SqueezerParam(0.3)) == 0.0


@pytest.mark.parametrize("value", ["1/2", "1/3", "0.37"])
def test_vacuum_rows_past_the_float_range_of_the_binomial_match_the_direct_route(value):
    # C(3000, 1500) is about 1e901, far past the largest float
    bp, sp = BeamSplitterParam.from_value(value), SqueezerParam.from_value(value)
    direct = bs_amplitude_direct(PhotonConfig(3000, 0, 1500), bp)
    assert bs_vacuum_row(3000, 1500, bp) == direct
    direct = tms_amplitude(PhotonConfig(1500, 0, 3000, Device.TMS), sp)
    assert tms_vacuum_row(1500, 3000, sp) == direct  # the same exact lambda, a normal float
    assert bs_vacuum_row(3000, 1500, BeamSplitterParam(0.5)) == 0.12069009286513847



def _within_one_ulp_of_root(a: float, num: int, den: int) -> bool:
    """|a| lies within one ulp of sqrt(num/den), compared on squares in integers."""
    ulp = math.ulp(a)
    (x, y), (u, w) = max(abs(a) - ulp, 0.0).as_integer_ratio(), (abs(a) + ulp).as_integer_ratio()
    return x * x * den <= num * y * y and num * w * w <= u * u * den


def _exact_ratio_of(value: float, carrier: Fraction | None) -> tuple[int, int]:
    return (value if carrier is None else carrier).as_integer_ratio()


def test_vacuum_rows_are_within_one_ulp_of_the_exact_root():
    # The beam-splitter row at the exact eta = a/b, C(i,n) a**n (b-a)**(i-n) / b**i,
    # and the squeezer row at the exact lam = c/d, C(n,i) (d-c)**(1+i) c**(n-i) / d**(1+n),
    # both far past the float range of the binomial.
    rng = random.Random(3000)
    for value in ["1/2", "1/3", "2/7", "0.37", "0.7", "1e-12", "0.999999999999"]:
        bp, sp = BeamSplitterParam.from_value(value), SqueezerParam.from_value(value)
        (a, b), (c, d) = _exact_ratio_of(bp.eta, bp.eta_exact), _exact_ratio_of(sp.lam, sp.lam_exact)
        for _ in range(30):
            i = rng.randint(0, 3000)
            n = rng.randint(0, i)
            amp = bs_vacuum_row(i, n, bp)
            assert amp == bs_amplitude_direct(PhotonConfig(i, 0, n), bp), (value, i, n)
            assert _within_one_ulp_of_root(amp, math.comb(i, n) * a**n * (b - a) ** (i - n), b**i), (value, i, n)
            assert amp == 0.0 or (amp < 0) == ((i - n) % 2 == 1)
            i, gap = rng.randint(0, 1500), rng.randint(0, 1500)
            amp = tms_vacuum_row(i, i + gap, sp)
            assert _within_one_ulp_of_root(amp, math.comb(i + gap, i) * (d - c) ** (1 + i) * c**gap, d ** (1 + i + gap))
            assert amp >= 0.0, (value, i, gap)


_CELL_LITERALS = ["1/2", "1/3", "2/7", "9/10", "0.37", "0.7", "1e-12", "0.999999999999", "0/1"]


def _single_cell_outputs(seed: int, count: int, top: int):
    """Yield (cell, outputs) for seeded cells (i, k -> n), i and k <= top: every
    single-cell route of both devices, the exact ones at the literal's exact value."""
    rng = random.Random(seed)
    for _ in range(count):
        value = rng.choice(_CELL_LITERALS)
        exact = Fraction(value)
        bp, sp = BeamSplitterParam.from_value(value), SqueezerParam.from_value(value)
        i, k = rng.randint(0, top), rng.randint(0, top)
        n = rng.randint(0, i + k + 2)
        bc, tc = PhotonConfig(i, k, n), PhotonConfig(i, k, n, Device.TMS)
        yield (value, i, k, n), [
            bs_prob_direct(bc, bp), bs_prob_exact(bc, exact),
            bs_amplitude(bc, bp), bs_amplitude(bc, bp, "convolution"),
            tms_prob(tc, sp), tms_prob_exact(tc, exact),
            tms_amplitude(tc, sp), tms_amplitude(tc, sp, "convolution"),
            tms_vacuum_row(i, n, sp),
        ]


def test_single_cell_outputs_keep_their_bytes():
    # The sha256 over the repr of each cell and its outputs: floats by their
    # shortest round-trip repr, Fractions in lowest terms.
    h = hashlib.sha256()
    for cell, outputs in _single_cell_outputs(30, 400, 60):
        h.update(repr((cell, outputs)).encode())
    assert h.hexdigest() == "551f0ec8f392bda6f96c20e7f224adebde4e68bd531987f6c03f8861bb8555d4"


def test_bs_amplitude_direct_examples():
    assert abs(bs_amplitude_direct(PhotonConfig(1, 1, 1), BeamSplitterParam(0.5))) <= 1e-15
    got = bs_amplitude_direct(PhotonConfig(1, 1, 1), BeamSplitterParam(0.3))
    assert math.isclose(got, 2 * 0.3 - 1, rel_tol=1e-13)
    assert bs_amplitude_direct(PhotonConfig(0, 0, 0), BeamSplitterParam(0.8)) == 1.0


def test_bs_amplitude_convolution_examples():
    p = BeamSplitterParam(0.5)
    assert abs(bs_amplitude_convolution(PhotonConfig(1, 1, 1), p)) <= 1e-15
    got = bs_amplitude_convolution(PhotonConfig(2, 0, 1), p)
    assert math.isclose(got, bs_vacuum_row(2, 1, p), rel_tol=1e-14)
    q = BeamSplitterParam(0.25)
    direct = bs_amplitude_direct(PhotonConfig(1, 2, 2), q)
    conv = bs_amplitude_convolution(PhotonConfig(1, 2, 2), q)
    assert abs(direct - conv) <= 1e-12


def test_route_equality_grid():
    for eta in (0.17, 0.5, 0.83):
        p = BeamSplitterParam(eta)
        for i in range(0, 21, 4):
            for k in range(0, 21, 4):
                for n in range(i + k + 1):
                    cfg = PhotonConfig(i, k, n)
                    d = bs_amplitude_direct(cfg, p)
                    c = bs_amplitude_convolution(cfg, p)
                    assert abs(d - c) <= 1e-10
                    assert abs(d) <= 1.0 + 1e-12


def test_unreachable_configurations_vanish():
    p = BeamSplitterParam(0.42)
    assert bs_amplitude_direct(PhotonConfig(2, 1, 4), p) == 0.0
    assert bs_amplitude_convolution(PhotonConfig(2, 1, 4), p) == 0.0
    assert tms_amplitude(PhotonConfig(3, 1, 1, Device.TMS), SqueezerParam(0.4)) == 0.0


def test_bs_amplitudes_against_unitary_oracle():
    dim = 12
    for eta in (0.3, 0.62):
        u = bs_unitary(dim, eta)
        p = BeamSplitterParam(eta)
        for i in range(5):
            for k in range(5):
                for n in range(i + k + 1):
                    want = element(u, dim, n, i + k - n, i, k)
                    assert abs(bs_amplitude_direct(PhotonConfig(i, k, n), p) - want) <= 1e-12
                    assert abs(bs_amplitude_convolution(PhotonConfig(i, k, n), p) - want) <= 1e-12


def test_tms_amplitudes_against_unitary_oracle():
    dim = 30
    lam = 0.35
    u = tms_unitary(dim, lam)
    p = SqueezerParam(lam)
    for i in range(4):
        for k in range(4):
            for n in range(6):
                m = n + k - i
                if m < 0:
                    continue
                want = element(u, dim, n, m, i, k)
                got = tms_amplitude(PhotonConfig(i, k, n, Device.TMS), p)
                assert abs(got - want) <= 1e-10  # truncation-limited


def test_tms_amplitude_examples():
    assert abs(tms_amplitude(PhotonConfig(1, 1, 1, Device.TMS), SqueezerParam(0.5))) <= 1e-15
    got = tms_amplitude(PhotonConfig(0, 0, 1, Device.TMS), SqueezerParam(0.5))
    assert math.isclose(got, 0.5, rel_tol=1e-13)
    assert math.isclose(got, tms_vacuum_row(0, 1, SqueezerParam(0.5)), rel_tol=1e-13)
    got = tms_amplitude(PhotonConfig(1, 0, 1, Device.TMS), SqueezerParam(0.3))
    assert math.isclose(got, 0.7, rel_tol=1e-13)


def test_tms_pair_annihilation_sign():
    # the amplitude sending |1,1> to vacuum is negative, opposite to the
    # pair-creation amplitude from vacuum
    lam = 0.4
    p = SqueezerParam(lam)
    down = tms_amplitude(PhotonConfig(1, 1, 0, Device.TMS), p)
    up = tms_amplitude(PhotonConfig(0, 0, 1, Device.TMS), p)
    assert down < 0 < up
    assert math.isclose(abs(down), math.sqrt(1 - lam) * math.sqrt(lam), rel_tol=1e-13)


def test_high_precision_escalation_seam():
    # Each route runs one code path at every total: the direct amplitude is
    # the root of the correctly rounded probability, and the convolution
    # route, the photon-addition fill, stays near it.
    p = BeamSplitterParam(0.44)
    for i, k in ((16, 16), (17, 16)):
        for n in (7, i + k // 2):
            cfg = PhotonConfig(i, k, n)
            exact = bs_amplitude_direct(cfg, p)
            assert abs(exact) == math.sqrt(bs_prob_direct(cfg, p))
            assert abs(bs_amplitude_convolution(cfg, p) - exact) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    value=st.sampled_from(["3/10", "0.37", "1e-12", "0.999999999999"]),
    total=st.integers(0, 32),
    i=st.integers(0, 32),
    n=st.integers(0, 32),
)
def test_direct_amplitudes_up_to_total_32_are_the_exact_ones(value, total, i, n):
    i %= total + 1
    n %= total + 1
    bp = BeamSplitterParam.from_value(value)
    exact = bs_amplitude_direct(PhotonConfig(i, total - i, n), bp)
    prob = bs_prob_direct(PhotonConfig(i, total - i, n), bp)
    if prob >= sys.float_info.min:
        assert abs(exact) == math.sqrt(prob)
    else:  # the root of an underflowing or subnormal float would lose bits
        assert within_ulps(exact, bs_prob_exact(PhotonConfig(i, total - i, n), _eta_exact(bp)), 1)
    assert abs(bs_amplitude_convolution(PhotonConfig(i, total - i, n), bp) - exact) <= 1e-14
    # the squeezer amplitude whose bridge is this beam-splitter cell: the
    # root of tms_prob, signed as the bridge's amplitude
    sp = SqueezerParam.from_value(value)
    bridge = bs_amplitude_direct(PhotonConfig(i, total - i, n), sp.ptr_beamsplitter())
    c = PhotonConfig(i, total - n, n, Device.TMS)
    got, prob = tms_amplitude(c, sp), tms_prob(c, sp)
    if prob >= sys.float_info.min:
        assert abs(got) == math.sqrt(prob)
    else:
        assert within_ulps(got, tms_prob_exact(c, _lam_exact(sp)), 1)
    assert got * bridge >= 0


def _eta_exact(p: BeamSplitterParam) -> Fraction:
    """The transmittance the exact engine runs at: the p/q carrier, else the float."""
    return Fraction(p.eta) if p.eta_exact is None else p.eta_exact


def _lam_exact(p: SqueezerParam) -> Fraction:
    """The squeezing parameter the exact engine runs at: the p/q carrier, else the float."""
    return Fraction(p.lam) if p.lam_exact is None else p.lam_exact


@settings(max_examples=60, deadline=None)
@given(
    value=st.sampled_from(["1e-12", "1e-5", "0.999999999999"])
    | st.integers(2, 1000).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: f"{p}/{q}")),
    total=st.integers(0, 200),
    i=st.integers(0, 200),
    n=st.integers(0, 200),
)
@example(value="1e-12", total=27, i=27, n=27)  # 1e-162; the probability 1e-324 underflows
@example(value="1/3", total=700, i=0, n=0)  # 1.0176e-167
@example(value="1/3", total=650, i=0, n=0)  # the probability is subnormal
def test_direct_amplitudes_are_within_one_ulp_of_the_exact_root_at_every_magnitude(value, total, i, n):
    i %= total + 1
    n %= total + 1
    bp = BeamSplitterParam.from_value(value)
    cfg = PhotonConfig(i, total - i, n)
    assert within_ulps(bs_amplitude_direct(cfg, bp), bs_prob_exact(cfg, _eta_exact(bp)), 1)
    # The squeezer cell whose bridge is cfg, at the exact lambda.
    sp = SqueezerParam.from_value(value)
    c = PhotonConfig(i, total - n, n, Device.TMS)
    assert within_ulps(tms_amplitude(c, sp), tms_prob_exact(c, _lam_exact(sp)), 1)


def test_tms_amplitude_rejects_an_unknown_method_on_every_cell():
    for cfg in (PhotonConfig(5, 0, 0, Device.TMS), PhotonConfig(1, 1, 1, Device.TMS)):  # m = -5 and m = 1
        with pytest.raises(ValueError, match="unknown amplitude method"):
            tms_amplitude(cfg, SqueezerParam(0.5), method="nonsense")


@settings(max_examples=40, deadline=None)
@given(
    value=st.sampled_from(["0", "1", "1e-12", "0.999999999999", "0.37"])
    | st.integers(1, 1000).flatmap(lambda q: st.integers(0, q).map(lambda p: f"{p}/{q}")),
    total=st.integers(0, 60),
    i=st.integers(0, 60),
    n=st.integers(0, 60),
)
@example(value="0", total=2, i=0, n=2)  # unclipped, the square is 1.0000000000000004
def test_convolution_amplitude_is_the_table_entry_root(value, total, i, n):
    # The single cell runs the photon-addition fill of its own block, so its
    # square is the convolution table's entry bit for bit, at every total.
    i %= total + 1
    n %= total + 1
    p = BeamSplitterParam.from_value(value)
    cfg = PhotonConfig(i, total - i, n)
    a = bs_amplitude_convolution(cfg, p)
    assert abs(a) <= 1.0
    assert a * a == bs_table_convolution(i, total - i, p).value(i, total - i, n)
    assert abs(a - bs_amplitude_direct(cfg, p)) <= 1e-13


def _bs_row(i: int, k: int, p: BeamSplitterParam) -> list[float]:
    return [bs_amplitude(PhotonConfig(i, k, n), p) for n in range(i + k + 1)]


# Rows of one shell i+k = N are rows of a unitary block: a wrong magnitude
# breaks normalization and a wrong sign breaks orthogonality, whatever engine
# produced the values. A float-only eta (2**-54 denominator) makes a row at
# total 300 about ten times dearer than a p/q one, so the decimal runs once,
# at a smaller total.
@settings(max_examples=8, deadline=None)
@given(
    eta=st.sampled_from(["1/2", "3/10", "1/1000000000000", "999999999999/1000000000000"]),
    total=st.integers(33, 300),
    i=st.integers(0, 300),
    j=st.integers(0, 299),
)
@example(eta="0.37", total=240, i=120, j=131)
def test_high_total_rows_are_orthonormal(eta, total, i, j):
    i %= total + 1
    j %= total
    j += j >= i
    p = BeamSplitterParam.from_value(eta)
    row, other = _bs_row(i, total - i, p), _bs_row(j, total - j, p)
    assert abs(math.fsum(a * a for a in row) - 1.0) <= 1e-12
    assert abs(math.fsum(a * b for a, b in zip(row, other))) <= 1e-12


@pytest.mark.parametrize("module", ["amplitudes", "probabilities", "recurrences", "genfun", "asymptotics"])
def test_package_exports_every_public_name_of_the_module(module):
    mod = importlib.import_module(f"fockmix.{module}")
    assert [name for name in mod.__all__ if getattr(fockmix, name, None) is not getattr(mod, name)] == []


def test_package_import_leaves_mpmath_out():
    src = str(Path(fockmix.__file__).resolve().parents[1])
    code = "import sys, fockmix, fockmix.cli; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


_CELLS_WITHOUT_NUMPY = """
import contextlib, csv, io, sys
from fractions import Fraction
import fockmix, fockmix.cli
from fockmix import (BeamSplitterParam, Device, GenFunPoint, PhotonConfig, SqueezerParam, bs_amplitude,
                     bs_prob_direct, bs_prob_exact, eval_g_bs, normalization_residual, tms_amplitude, tms_prob,
                     tms_prob_exact)

def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fockmix.cli.main.main(list(argv), standalone_mode=False)
    return out.getvalue()

bs, tms = PhotonConfig(5, 4, 3), PhotonConfig(5, 4, 3, Device.TMS)
assert 0.0 < bs_prob_direct(bs, BeamSplitterParam(0.37)) < 1.0
assert 0.0 < tms_prob(tms, SqueezerParam(0.4)) < 1.0
assert bs_prob_exact(bs, Fraction(1, 3)) > 0 and tms_prob_exact(tms, Fraction(2, 5)) > 0
assert bs_amplitude(bs, BeamSplitterParam(0.37)) != 0.0 and tms_amplitude(tms, SqueezerParam(0.4)) != 0.0
assert normalization_residual(6, 5, BeamSplitterParam(0.37)) < 1e-14
assert eval_g_bs(GenFunPoint(0.1, 0.2, 0.3, 0.4), BeamSplitterParam(0.37)) > 0.0
cli("prob", "--device", "bs", "--i", "5", "--k", "4", "--n", "3", "--eta", "0.37")
cli("amp", "--device", "tms", "--i", "5", "--k", "4", "--n", "3", "--lambda", "0.4")
cli("genfun", "--which", "g", "--x", "0.1", "--y", "0.2", "--eta", "0.37")
cli("plotdata", "--kind", "hom-sweep", "--steps", "5")
print("numpy" in sys.modules)
rows = list(csv.DictReader(io.StringIO(cli("table", "--device", "bs", "--imax", "2", "--kmax", "2", "--eta", "0.3"))))
print("numpy" in sys.modules, len(rows))
"""


def test_single_cells_and_their_commands_leave_numpy_out():
    """Single cells, prob, amp, genfun and plotdata run in pure integers and
    floats, so numpy is loaded by the first table only."""
    src = str(Path(fockmix.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _CELLS_WITHOUT_NUMPY],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "True", "27"]  # 9 rows of i+k+1 cells


def test_amplitude_level_reversal_relation():
    lam = 0.3
    sp = SqueezerParam(lam)
    bp = sp.ptr_beamsplitter()
    for i in range(13):
        for k in range(13):
            for n in range(13):
                m = n + k - i
                got = tms_amplitude(PhotonConfig(i, k, n, Device.TMS), sp)
                if m < 0:
                    assert got == 0.0
                    continue
                want = math.sqrt(1 - lam) * bs_amplitude(PhotonConfig(i, m, n), bp)
                assert abs(got - want) <= 1e-10


def test_dispatcher_and_device_guards():
    p = BeamSplitterParam(0.5)
    cfg = PhotonConfig(2, 2, 2)
    assert bs_amplitude(cfg, p) == bs_amplitude_direct(cfg, p)
    with pytest.raises(ValueError):
        bs_amplitude(cfg, p, method="nope")
    with pytest.raises(ValueError):
        bs_amplitude_direct(PhotonConfig(1, 1, 1, Device.TMS), p)
    with pytest.raises(ValueError):
        tms_amplitude(PhotonConfig(1, 1, 1, Device.BS), SqueezerParam(0.5))
