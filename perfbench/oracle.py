"""Exact rational oracle and the checks that flag wrong outputs.

The oracle is written here, apart from fockmix, so that a change to the
library's own exact engine cannot also change the reference it is checked
against. It evaluates the factored direct sum

    B(i,k->n) = U * V,
    U = sum_m (-1)^m C(i,m) C(k,n-m) eta^m (1-eta)^(n-m),
    V = sum_j (-1)^j C(n,j) C(i+k-n,i-j) eta^(k-n+j) (1-eta)^(i-j),

in integers scaled by the denominator of eta; its tests compare it with the
literal four-binomial double sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import cell_total

FLOAT_TOLERANCE = 1e-12
KNOWN_DEFECT_TOTAL = 193


def exact_of(literal: str) -> Fraction:
    """The rational a parameter literal names: '3/10' and '0.3' both give 3/10."""
    return Fraction(literal)


def bs_prob(i: int, k: int, n: int, eta: Fraction) -> Fraction:
    """Exact B(i,k->n) at rational transmittance eta."""
    lo, hi = max(0, n - k), min(i, n)
    if n > i + k or lo > hi:
        return Fraction(0)
    num, den = eta.numerator, eta.denominator
    rest = den - num
    top = i + k
    npow = [1] * (top + 1)
    rpow = [1] * (top + 1)
    for e in range(1, top + 1):
        npow[e] = npow[e - 1] * num
        rpow[e] = rpow[e - 1] * rest
    u = sum(
        (-1) ** m * math.comb(i, m) * math.comb(k, n - m) * npow[m] * rpow[n - m]
        for m in range(lo, hi + 1)
    )
    v = sum(
        (-1) ** j * math.comb(n, j) * math.comb(top - n, i - j) * npow[k - n + j] * rpow[i - j]
        for j in range(lo, hi + 1)
    )
    return Fraction(u * v, den**top)


def tms_prob(i: int, k: int, n: int, lam: Fraction) -> Fraction:
    """Exact A(i,k->n) = (1-lam) B(i, n+k-i -> n; eta = 1-lam); 0 if unreachable."""
    m = n + k - i
    if m < 0:
        return Fraction(0)
    return (1 - lam) * bs_prob(i, m, n, 1 - lam)


def prob_of(device: str, i: int, k: int, n: int, param: Fraction) -> Fraction:
    return bs_prob(i, k, n, param) if device == "bs" else tms_prob(i, k, n, param)


def float_off(value: float, exact: Fraction) -> bool:
    """True when a float probability is more than 1e-12 from the exact value."""
    return not (isinstance(value, float) and abs(value - float(exact)) <= FLOAT_TOLERANCE)


def amplitude_off(amp: float, exact: Fraction) -> bool:
    """True when |A| > 1 or |A|^2 is more than 1e-12 from the exact probability."""
    if not isinstance(amp, float) or not math.isfinite(amp):
        return True
    return abs(amp) > 1.0 or abs(amp * amp - float(exact)) > FLOAT_TOLERANCE


def rational_off(value, exact: Fraction) -> bool:
    """True unless a rational output equals the exact value exactly."""
    return not (isinstance(value, Fraction) and value == exact)


def check_cell(query: tuple, value) -> bool:
    """True when the output of one cells query is off the oracle."""
    kind, i, k, n, literal = query
    param = exact_of(literal)
    if kind == "bs_prob_direct":
        return float_off(value, bs_prob(i, k, n, param))
    if kind == "tms_prob":
        return float_off(value, tms_prob(i, k, n, param))
    if kind == "bs_prob_exact":
        return rational_off(value, bs_prob(i, k, n, param))
    if kind == "bs_amplitude":
        return amplitude_off(value, bs_prob(i, k, n, param))
    if kind == "tms_amplitude":
        return amplitude_off(value, tms_prob(i, k, n, param))
    raise ValueError(f"unknown query kind {kind!r}")


def known_defect(query: tuple) -> bool:
    """True for the queries that ROADMAP item 2's defect may get wrong:
    amplitudes at beam-splitter totals from KNOWN_DEFECT_TOTAL on, where the
    fixed 40-digit precision runs out (first seen near total 210). Their
    failures are counted like any other, but only failures outside this set
    make a run incorrect."""
    return query[0] in ("bs_amplitude", "tms_amplitude") and cell_total(query) >= KNOWN_DEFECT_TOTAL


def check_entries(device: str, precision: str, param: Fraction, entries) -> int:
    """Number of (i, k, n, value) table entries that are off the oracle."""
    off = rational_off if precision == "rational" else float_off
    return sum(bool(off(value, prob_of(device, i, k, n, param))) for i, k, n, value in entries)
