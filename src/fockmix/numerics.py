"""Exact combinatorics and cancellation-aware floating-point helpers.

Exact counts ride on Python's arbitrary-precision ``int``. All functions are
pure and hold no state.
"""

from __future__ import annotations

import math

__all__ = [
    "binomial_exact",
    "gamma_capital",
    "gamma_small",
    "log_factorial",
    "log_binomial",
    "sqrt_binomial",
    "nan_max",
]

# Largest n whose binomials stay well inside float range (C(1028,514) overflows).
_SQRT_EXACT_MAX_N = 1000


def binomial_exact(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) as an exact integer.

    Returns 0 whenever k < 0 or k > n, so sums whose bounds are enforced by
    vanishing binomials can be written literally.
    """
    if n < 0:
        raise ValueError(f"binomial_exact requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def gamma_capital(i: int, k: int, n: int, m: int) -> int:
    """Four-binomial weight C(i,n) C(k,m) C(n+m,n) C(i-n+k-m,i-n).

    This is the combinatorial factor of the direct amplitude sum; it vanishes
    whenever any factor is out of range (n > i or m > k).
    """
    if min(i, k, n, m) < 0:
        raise ValueError("gamma_capital requires nonnegative indices")
    if n > i or m > k:
        return 0
    return (
        math.comb(i, n)
        * math.comb(k, m)
        * math.comb(n + m, n)
        * math.comb(i - n + k - m, i - n)
    )


def gamma_small(i: int, k: int, n: int, m: int, j: int) -> int:
    """Four-binomial weight C(i,m) C(k,n-m) C(n,j) C(i+k-n,i-j).

    Symmetric under swapping m and j; this is the integer coefficient of the
    direct probability double sum.
    """
    if min(i, k, n, m, j) < 0:
        raise ValueError("gamma_small requires nonnegative indices")
    if i + k - n < 0:
        return 0
    return (
        binomial_exact(i, m)
        * binomial_exact(k, n - m)
        * binomial_exact(n, j)
        * binomial_exact(i + k - n, i - j)
    )


def log_factorial(n: int) -> float:
    """ln(n!) as lgamma(n + 1)."""
    if n < 0:
        raise ValueError(f"log_factorial requires n >= 0, got n={n}")
    return math.lgamma(n + 1.0)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def sqrt_binomial(n: int, k: int) -> float:
    """sqrt(C(n, k)) in floating point; 0.0 outside 0 <= k <= n.

    Below a size threshold the exact integer is converted and rooted (error
    about one ulp); above it, exp of half the log-factorial combination is
    used. The seam is tested for 1e-12 agreement.
    """
    if k < 0 or k > n:
        return 0.0
    if n <= _SQRT_EXACT_MAX_N:
        return math.sqrt(binomial_exact(n, k))
    return math.exp(0.5 * log_binomial(n, k))


def nan_max(a: float, b: float) -> float:
    """max(a, b), except that a NaN in either wins. The built-in max(0.0, nan)
    is 0.0, so a worst-residual accumulator built on it drops a NaN and its
    tolerance check passes."""
    return a if a != a or b <= a else b
