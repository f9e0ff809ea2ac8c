"""Fock-basis transition amplitudes of the beam splitter and two-mode squeezer.

Two routes are provided for the beam splitter: the direct alternating sum,
evaluated exactly in integers, and the convolution of the two vacuum-seeded
rows. They are algebraically equal term by term; keeping both checks a float
evaluation order of a violently cancelling sum against the exact one.
Squeezer amplitudes go through the partial-time-reversal bridge (one code
path, one sign convention):

    <n,m|TMS(lam)|i,k> = sqrt(1-lam) * <n,k|BS(1-lam)|i,m>,   m = n+k-i.

Sign convention: the mode-a vacuum row carries the phase (-1)**(i-n). This is
the convention consistent with the closed-form amplitude generating function
(its exponent contains -x*w), which the test suite checks by series expansion.
Probabilities are insensitive to the choice.

Accuracy policy: the direct route takes the exact factored sums U and V of
the probability engine at every total: sqrt(i! k! n! (N-n)!) factors out of
every term of the direct sum, which leaves a positive constant times
(-1)**i * U, and A**2 = B = U*V / q**N for eta = p/q. The amplitude is the
root of that exact probability, rounded once to a float (within one ulp),
with the sign of the direct sum. The convolution route sums plain floats with
compensated summation up to total photon number 32; above that the float sum
loses more than ~1e-11 absolute in double precision, so it returns the direct
route's exact value instead. The two single-cell routes cross-check each
other only up to total 32. The float convolution table
(recurrences.bs_table_convolution) does not read this sum: at every total
its rows come from a stable photon-addition fill, independent of the direct
route and within the absolute bound that README states. Its entries are
not the squares of this sum bit for bit; up to total 32 the two float
evaluations agree to 1e-12 absolute.
"""

from __future__ import annotations

import math

from .numerics import sqrt_binomial
from .params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from .probabilities import (
    _bridge,
    _exact_factor_sums,
    _exact_ratio,
    _partner_ratio,
    _require,
    _rounded_quotient,
)

__all__ = [
    "bs_vacuum_row",
    "tms_vacuum_row",
    "bs_amplitude_direct",
    "bs_amplitude_convolution",
    "bs_amplitude",
    "tms_amplitude",
]

# Above this total photon number the float convolution sum's 53-bit error can
# exceed ~1e-11 absolute.
_FLOAT_MAX_TOTAL = 32


def bs_vacuum_row(i: int, n: int, p: BeamSplitterParam) -> float:
    """Amplitude (-1)**(i-n) sqrt(C(i,n) eta^n (1-eta)^(i-n)) for |i, 0> input."""
    if n < 0 or n > i:
        return 0.0
    value = sqrt_binomial(i, n) * p.eta ** (0.5 * n) * (1.0 - p.eta) ** (0.5 * (i - n))
    return -value if (i - n) % 2 else value


def _bs_vacuum_row_b(k: int, n: int, p: BeamSplitterParam) -> float:
    """Amplitude sqrt(C(k,n) (1-eta)^n eta^(k-n)) for |0, k> input (no phase)."""
    if n < 0 or n > k:
        return 0.0
    return sqrt_binomial(k, n) * (1.0 - p.eta) ** (0.5 * n) * p.eta ** (0.5 * (k - n))


def tms_vacuum_row(i: int, n: int, p: SqueezerParam) -> float:
    """Amplitude sqrt(C(n,i)) (1-lam)^((1+i)/2) lam^((n-i)/2) for |i, 0> input."""
    if n < i:
        return 0.0
    return (
        sqrt_binomial(n, i)
        * (1.0 - p.lam) ** (0.5 * (1 + i))
        * p.lam ** (0.5 * (n - i))
    )


def bs_amplitude_direct(c: PhotonConfig, p: BeamSplitterParam) -> float:
    """Direct alternating sum for <n, i+k-n|BS(eta)|i, k>, from its exact
    factored sums at every total (within one ulp)."""
    _require(c, Device.BS)
    if c.n > c.i + c.k:
        return 0.0
    return _bs_amplitude_exact(c.i, c.k, c.n, p)


def _bs_amplitude_exact(i: int, k: int, n: int, p: BeamSplitterParam) -> float:
    """(-1)**i sgn(U) sqrt(U*V / q**(i+k)) from the exact factored sums."""
    return _signed_root(i, *_exact_factor_sums(i, k, n, *_exact_ratio(p)))


def _signed_root(i: int, u: int, v: int, q: int) -> float:
    """The amplitude of input i from its exact factored sums (U, V, Q)."""
    mag = math.sqrt(_rounded_quotient(u, v, q))
    return -mag if mag and (u < 0) != (i % 2 == 1) else mag


def bs_amplitude_convolution(c: PhotonConfig, p: BeamSplitterParam) -> float:
    """Convolution of the two vacuum rows for <n, i+k-n|BS(eta)|i, k>: up to
    total 32 the compensated sum over t of sqrt(C(n,t)) sqrt(C(i+k-n,i-t))
    bs_vacuum_row(i,t) _bs_vacuum_row_b(k,n-t), multiplied left to right;
    above it the direct route's exact value."""
    _require(c, Device.BS)
    i, k, n = c.i, c.k, c.n
    if n > i + k:
        return 0.0
    if i + k > _FLOAT_MAX_TOTAL:
        return _bs_amplitude_exact(i, k, n, p)
    return math.fsum([
        sqrt_binomial(n, t) * sqrt_binomial(i + k - n, i - t) * bs_vacuum_row(i, t, p) * _bs_vacuum_row_b(k, n - t, p)
        for t in range(max(0, n - k), min(i, n) + 1)
    ])


def bs_amplitude(c: PhotonConfig, p: BeamSplitterParam, method: str = "direct") -> float:
    """Beam-splitter amplitude through the direct route unless told otherwise."""
    if method == "direct":
        return bs_amplitude_direct(c, p)
    if method == "convolution":
        return bs_amplitude_convolution(c, p)
    raise ValueError(f"unknown amplitude method {method!r}")


def tms_amplitude(c: PhotonConfig, p: SqueezerParam, method: str = "direct") -> float:
    """Squeezer amplitude <n, n+k-i|TMS(lam)|i, k> via partial time reversal:
    sqrt(1-lam) times bs_amplitude of the bridge cell at eta = 1-lam, bit for
    bit. The direct route reads the bridge cell's exact sums straight from
    the partner ratio."""
    _require(c, Device.TMS)
    m = c.m
    if m < 0:
        return 0.0
    if method == "direct":
        root = _signed_root(c.i, *_exact_factor_sums(c.i, m, c.n, *_partner_ratio(p)))
    else:
        root = bs_amplitude(_bridge(c), p.ptr_beamsplitter(), method=method)
    return math.sqrt(1.0 - p.lam) * root
