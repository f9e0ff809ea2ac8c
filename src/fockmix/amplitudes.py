"""Fock-basis transition amplitudes of the beam splitter and two-mode squeezer.

Two independent routes are provided for the beam splitter: the direct
alternating sum, evaluated exactly in integers, and the convolution route,
which builds the amplitude from vacuum by adding one photon at a time
(_photon_addition_shells). Keeping both checks a float fill against the
exact value of a violently cancelling sum. Squeezer amplitudes go through the
partial-time-reversal bridge (one code path, one sign convention):

    <n,m|TMS(lam)|i,k> = sqrt(1-lam) * <n,k|BS(1-lam)|i,m>,   m = n+k-i.

Sign convention: the mode-a vacuum row carries the phase (-1)**(i-n). This is
the convention consistent with the closed-form amplitude generating function
(its exponent contains -x*w), which the test suite checks by series expansion.
Probabilities are insensitive to the choice.

Accuracy policy: the direct route takes the factors of the exact U*V of
the probability engine (_cell_factors) at every total: sqrt(i! k! n! (N-n)!)
factors out of every term of the direct sum, which leaves a positive constant times
(-1)**i * U, and A**2 = B = U*V / q**N for eta = p/q. The amplitude is the
root of that exact probability, rounded once, scaled by a power of 4 into
the normal floats where it lies below them (within one ulp, also where the
probability underflows: _signed_roots), with the sign of the direct sum. The vacuum
rows are the direct amplitudes of (i, 0 -> n), and the amplitude series of
genfun take the same root of the exact walk's sums, row by row. The convolution
route reads neither the exact engine nor the direct route, at any total: it
runs the stable photon-addition fill of the block i' <= i, k' <= k in floats and returns
entry n of row (i, k), clipped to [-1, 1]. That row is bit for bit row
(i, k) of every float convolution table that holds it
(recurrences.bs_table_convolution), so the square of the amplitude is the
table's entry. A call costs O(i*k*(i+k)) flops, against the direct route's
one exact sum; up to total 32 the two routes agree to 3e-15 (README).
"""

from __future__ import annotations

import math
import sys

from .numerics import _check_size
from .params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam, _check_counts
from .probabilities import _cell_factors, _exact_ratio, _partner_ratio, _require, _rounded_ratios

__all__ = [
    "bs_vacuum_row",
    "tms_vacuum_row",
    "bs_amplitude_direct",
    "bs_amplitude_convolution",
    "bs_amplitude",
    "tms_amplitude",
]

def bs_vacuum_row(i: int, n: int, p: BeamSplitterParam) -> float:
    """Amplitude (-1)**(i-n) sqrt(C(i,n) eta^n (1-eta)^(i-n)) for |i, 0> input:
    the direct amplitude of (i, 0 -> n), within one ulp at the exact eta;
    0.0 for an n outside 0..i, and a negative i raises ValueError."""
    _check_counts(i=i)
    return bs_amplitude_direct(PhotonConfig(i, 0, n), p) if n >= 0 else 0.0


def tms_vacuum_row(i: int, n: int, p: SqueezerParam) -> float:
    """Amplitude sqrt(C(n,i)) (1-lam)^((1+i)/2) lam^((n-i)/2) for |i, 0> input:
    the direct amplitude of (i, 0 -> n), within one ulp at the exact lam;
    0.0 for n < i, and a negative i raises ValueError."""
    _check_counts(i=i)
    return tms_amplitude(PhotonConfig(i, 0, n, Device.TMS), p) if n >= 0 else 0.0


def bs_amplitude_direct(c: PhotonConfig, p: BeamSplitterParam) -> float:
    """Direct alternating sum for <n, i+k-n|BS(eta)|i, k>: (-1)**i sgn(U)
    sqrt(U*V / q**(i+k)) from its exact factored sums at every total (within
    one ulp)."""
    factors = _cell_factors(c, Device.BS, *_exact_ratio(p))
    return 0.0 if factors is None else _signed_roots(c.i, *factors)[0]


_LEAST_NORMAL = sys.float_info.min


def _signed_roots(i: int, rows, bottoms, shift: int = 0) -> list[float]:
    """The amplitudes of input i from the factors of their exact
    probabilities U*V / Q = prod(tops) * 2**shift / prod(bottoms), one tops
    in the sequence rows for each, the first top carrying the sign of U
    (within one ulp at every magnitude).

    Above the least normal float the root of the rounded probability is the
    amplitude. Below it, the root is taken of the quotient times 4**e, a
    float near 1 or above, and scaled by 2**-e; the power of 4 goes into the
    shift. Scaling by a power of 4 is exact, so either way the amplitude is
    bit for bit the root of the quotient scaled into the normal floats."""
    out = []
    for tops, b in zip(rows, _rounded_ratios(rows, bottoms, shift)):
        if b <= _LEAST_NORMAL and all(tops):  # else U*V / Q is 0, or above the least normal float as b is
            # bit_length ignores the sign
            lack = sum(map(int.bit_length, bottoms)) - shift - sum(map(int.bit_length, tops))
            e = max(0, lack // 2)
            (b,) = _rounded_ratios((tops,), bottoms, shift + 2 * e)
            mag = math.ldexp(math.sqrt(b), -e)
        else:
            mag = math.sqrt(b)
        out.append(-mag if mag and (tops[0] < 0) != (i % 2 == 1) else mag)
    return out


def bs_amplitude_convolution(c: PhotonConfig, p: BeamSplitterParam) -> float:
    """<n, i+k-n|BS(eta)|i, k> as entry n of the last shell of
    _photon_addition_shells(i, k, eta), the single row (i, k), clipped to
    [-1, 1]; its square is the entry of any float convolution table. An
    output count n > i+k is 0.0 with no fill; otherwise a block (i, k) of
    more than numerics._MAX_TABLE_ENTRIES entries raises DomainError before
    the fill starts."""
    _require(c, Device.BS)
    if c.n > c.i + c.k:
        return 0.0
    _check_size((c.i + 1) * (c.k + 1) * (c.i + c.k + 2) // 2, f"the photon-addition fill of block (i={c.i}, k={c.k})")
    for shell in _photon_addition_shells(c.i, c.k, p.eta):
        pass
    return min(max(float(shell[0, c.n]), -1.0), 1.0)


def _photon_addition_shells(imax: int, kmax: int, eta: float):
    """Yield the amplitude rows of shells s = 0..imax+kmax, each one array
    [row, n] over the rows (i, s-i), i from max(0, s-kmax) to min(imax, s),
    and n = 0..s, signed as bs_vacuum_row.

    Adding a photon to an input is the coupling j x 1/2 -> j + 1/2 of the
    Wigner d-matrix that each shell of the beam splitter is (Risbo 1996).
    With t = sqrt(eta), r = sqrt(1-eta), R_a = R(i-1, k) and R_b = R(i, k-1):

        i R(i,k)[n] = sqrt(i) (t sqrt(n) R_a[n-1] - r sqrt(s-n) R_a[n])
        k R(i,k)[n] = sqrt(k) (r sqrt(n) R_b[n-1] + t sqrt(s-n) R_b[n])

    Either step alone is unstable (a fill by one of them is 0.12 off at
    60x60, eta = 3/10); their sum over s, the weighted mean of the two, is
    stable. A shell reads only the rows of the shell below that the table
    holds."""
    import numpy as np

    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    root = np.sqrt(np.arange(imax + kmax + 1))
    shell, lo = np.ones((1, 1)), 0
    yield shell
    for s in range(1, imax + kmax + 1):
        prev, lo1 = shell, lo
        lo, hi = max(0, s - kmax), min(imax, s)
        a, b = max(lo, 1), min(hi, s - 1)  # rows from R_a: i >= a; from R_b: i <= b
        up, down = root[1 : s + 1], root[s:0:-1]  # sqrt(n) for n >= 1, sqrt(s-n) for n < s
        shell = np.zeros((hi - lo + 1, s + 1))
        ra, wa = prev[a - 1 - lo1 : hi - lo1], root[a : hi + 1, None]
        shell[a - lo :, 1:] += t * wa * (ra * up)
        shell[a - lo :, :-1] -= r * wa * (ra * down)
        rb, wb = prev[lo - lo1 : b + 1 - lo1], root[s - lo : s - b - 1 : -1, None]  # sqrt(k), k >= 1
        shell[: b + 1 - lo, 1:] += r * wb * (rb * up)
        shell[: b + 1 - lo, :-1] += t * wb * (rb * down)
        shell /= s
        yield shell


def bs_amplitude(c: PhotonConfig, p: BeamSplitterParam, method: str = "direct") -> float:
    """Beam-splitter amplitude through the direct route unless told otherwise."""
    if method == "direct":
        return bs_amplitude_direct(c, p)
    if method == "convolution":
        return bs_amplitude_convolution(c, p)
    raise ValueError(f"unknown amplitude method {method!r}")


def tms_amplitude(c: PhotonConfig, p: SqueezerParam, method: str = "direct") -> float:
    """Squeezer amplitude <n, n+k-i|TMS(lam)|i, k> via partial time reversal:
    the direct route is the signed root of tms_prob's exact quotient (within
    one ulp), the convolution route the float sqrt(1.0 - lam) times
    bs_amplitude of the bridge cell at eta = 1-lam, bit for bit, refused as
    the fill of the bridge block (i, n+k-i)."""
    if method == "direct":
        factors = _cell_factors(c, Device.TMS, *_partner_ratio(p))
        return 0.0 if factors is None else _signed_roots(c.i, *factors)[0]
    if method != "convolution":
        raise ValueError(f"unknown amplitude method {method!r}")
    _require(c, Device.TMS)
    if c.m < 0:
        return 0.0
    return math.sqrt(1.0 - p.lam) * bs_amplitude(PhotonConfig(c.i, c.m, c.n), p.ptr_beamsplitter(), method=method)
