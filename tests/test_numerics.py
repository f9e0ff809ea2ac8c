import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fockmix.numerics import (
    binomial_exact,
    gamma_capital,
    gamma_small,
    log_binomial,
    log_factorial,
    sqrt_binomial,
)
from fock_oracle import pascal_binomials
from test_package import _fresh


def test_binomial_against_pascal_oracle():
    tri = pascal_binomials(40)
    for n in range(41):
        for k in range(n + 1):
            assert binomial_exact(n, k) == tri[n][k]


def test_binomial_frozen_values():
    assert binomial_exact(5, 2) == 10
    assert binomial_exact(7, 0) == 1
    assert binomial_exact(30, 15) == 155117520  # frozen from the Pascal oracle


def test_binomial_out_of_range_is_zero():
    assert binomial_exact(4, -1) == 0
    assert binomial_exact(4, 5) == 0
    assert binomial_exact(0, 0) == 1


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial_exact(-1, 0)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=200))
def test_binomial_pascal_identity(n, k):
    assert binomial_exact(n, k) == binomial_exact(n - 1, k - 1) + binomial_exact(n - 1, k)


def test_gamma_capital_values():
    assert gamma_capital(1, 1, 1, 0) == 1
    assert gamma_capital(0, 0, 0, 0) == 1
    assert gamma_capital(2, 1, 1, 1) == 4
    assert gamma_capital(2, 1, 3, 0) == 0  # n > i vanishes


def test_gamma_small_values():
    assert gamma_small(1, 1, 1, 0, 0) == 1
    assert gamma_small(0, 0, 0, 0, 0) == 1
    assert gamma_small(3, 2, 2, 1, 2) == gamma_small(3, 2, 2, 2, 1)


def test_gamma_small_symmetry_exhaustive():
    for i in range(9):
        for k in range(9):
            for n in range(9):
                for m in range(9):
                    for j in range(m, 9):
                        assert gamma_small(i, k, n, m, j) == gamma_small(i, k, n, j, m)


def test_log_factorial_small_values():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert math.isclose(log_factorial(10), math.log(3628800), rel_tol=1e-14)


def test_log_factorial_matches_exact_logs():
    for n in (2, 17, 100, 1000, 4095):
        assert math.isclose(log_factorial(n), math.log(math.factorial(n)), rel_tol=1e-13)


def test_log_factorial_seam():
    # lgamma stays within 1e-12 relative of the exact log around 2**12
    for n in (4094, 4095, 4096, 4097, 5000):
        exact = math.log(math.factorial(n))
        assert abs(log_factorial(n) - exact) <= 1e-12 * exact


def test_binomial_reconstruction_from_logs():
    for n in range(61):
        for k in range(n + 1):
            rebuilt = math.exp(log_factorial(n) - log_factorial(k) - log_factorial(n - k))
            assert math.isclose(rebuilt, binomial_exact(n, k), rel_tol=1e-10)


def test_sqrt_binomial_seam():
    for n in (999, 1000, 1001, 1002):
        k = n // 2
        via_logs = math.exp(0.5 * log_binomial(n, k))
        assert math.isclose(sqrt_binomial(n, k), via_logs, rel_tol=1e-12)
    assert sqrt_binomial(5, -1) == 0.0
    assert sqrt_binomial(5, 6) == 0.0


_COLD_START = """
import importlib
from concurrent.futures import ThreadPoolExecutor

import fockmix.numerics as numerics

importlib.reload(numerics)
with ThreadPoolExecutor(max_workers=8) as pool:
    results = list(pool.map(numerics.log_factorial, [100] * 64))
print(len(set(results)), repr(results[0]))
"""


def test_log_factorial_concurrent_cold_start():
    # log_factorial holds no state: concurrent first calls after a reload
    # agree. In a fresh interpreter, so that the reload leaves the package's
    # eager numerics names bound to this process's functions.
    distinct, value = _fresh(_COLD_START)[0].split()
    assert distinct == "1"
    assert math.isclose(float(value), math.log(math.factorial(100)), rel_tol=1e-13)


_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1_000
)


@given(_rationals, _rationals, _rationals)
def test_exact_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(_rationals)
def test_exact_rational_canonical_form(a):
    assert a.denominator > 0
    assert math.gcd(a.numerator, a.denominator) == 1
