"""Independent oracles shared by the test modules.

The matrix-exponential oracle builds the device unitary on a truncated
two-mode Fock space straight from its generator, with no reference to any
closed form in the package, so it checks values and signs alike.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import operator
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from fockmix.amplitudes import bs_amplitude_direct, tms_amplitude
from fockmix.numerics import log_factorial
from fockmix.params import BeamSplitterParam, Device, PhotonConfig
from fockmix.probabilities import _TAIL_TOLERANCE, _exact_ratio, tms_prob, tms_prob_exact
from fockmix.recurrences import ClassicalTable, c_coeff


def two_mode_unitary(dim: int, theta: float | None = None, r: float | None = None) -> np.ndarray:
    """exp(theta (a+b - a b+)) or exp(r (a+b+ - a b)) on a dim^2 Fock space."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    eye = np.eye(dim)
    big_a = np.kron(a, eye)
    big_b = np.kron(eye, a)
    if theta is not None:
        gen = theta * (big_a.T @ big_b - big_a @ big_b.T)
    else:
        gen = r * (big_a.T @ big_b.T - big_a @ big_b)
    return expm(gen)


def bs_unitary(dim: int, eta: float) -> np.ndarray:
    return two_mode_unitary(dim, theta=math.acos(math.sqrt(eta)))

def tms_unitary(dim: int, lam: float) -> np.ndarray:
    return two_mode_unitary(dim, r=math.atanh(math.sqrt(lam)))


def element(u: np.ndarray, dim: int, n: int, m: int, i: int, k: int) -> float:
    """<n, m| U |i, k> from the flattened unitary."""
    return float(u[n * dim + m, i * dim + k])


def pascal_binomials(rows: int) -> list[list[int]]:
    """Pascal-triangle table, the textbook way, for use as an exact oracle."""
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[j - 1] + prev[j] for j in range(1, len(prev))] + [1])
    return tri


def prob_double_sum_literal(i: int, k: int, n: int, eta: Fraction) -> Fraction:
    """The boxed probability double sum typed out with bare factorials."""
    total = Fraction(0)
    lo, hi = max(0, n - k), min(i, n)
    if n > i + k:
        return total
    f = math.factorial
    for m in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            coeff = (
                f(i) // (f(m) * f(i - m))
                * (f(k) // (f(n - m) * f(k - n + m)))
                * (f(n) // (f(j) * f(n - j)))
                * (f(i + k - n) // (f(i - j) * f(k - n + j)))
            )
            term = coeff * eta ** (k - n + m + j) * (1 - eta) ** (i + n - m - j)
            total += -term if (m + j) % 2 else term
    return total


def bs_rows_rowwise(imax: int, kmax: int, eta: float) -> dict:
    """Float five-term beam-splitter fill one row at a time, in the operation
    order the library's shell fill must keep bit for bit. From the vacuum
    cell 1.0, rows (i, 0) and (0, k) are the two-term step from row (i-1, 0)
    or (0, k-1), and every other row the five-term step. Row (i, k) is row
    (k, i) reversed, B(i, k -> n) = B(k, i -> i+k-n), wherever the table
    holds both: for i < k, or past total imax when imax < kmax for i > k.
    Those rows are copied once the other rows of their total are stepped,
    seeded and clipped."""
    om = 1.0 - eta
    rows = {}
    for s in range(imax + kmax + 1):
        keys = [(i, s - i) for i in range(max(0, s - kmax), min(imax, s) + 1)]
        upper = s > imax and imax < kmax
        copies = {(i, k) for i, k in keys if k <= imax and i <= kmax and (i > k if upper else i < k)}
        shell = {}
        for i, k in keys:
            if (i, k) in copies:
                continue
            new = np.zeros(s + 1)
            if s == 0:
                new[0] = 1.0
            elif i == 0 or k == 0:  # the step at the vacuum edge, from row (i-1, 0) or (0, k-1)
                below, (x, y) = (rows[(i - 1, 0)], (eta, om)) if k == 0 else (rows[(0, k - 1)], (om, 1.0 - om))
                new[:-1] = y * below
                new[1:] += x * below
            else:
                up, left, diag = rows[(i - 1, k)], rows[(i, k - 1)], rows[(i - 1, k - 1)]
                new[:-1] = om * up + eta * left
                new[1:] += eta * up + om * left
                new[1:-1] -= diag
            shell[(i, k)] = np.clip(new, 0.0, 1.0)
        for i, k in copies:
            shell[(i, k)] = shell[(k, i)][::-1].copy()
        rows.update((key, shell[key]) for key in keys)
    return rows


def within_ulps(a: float, prob: Fraction, ulps: int) -> bool:
    """|a| lies within ulps ulps of sqrt(prob), checked exactly on squares."""
    mag, step = Fraction(abs(a)), ulps * Fraction(math.ulp(abs(a)))
    return max(mag - step, 0) ** 2 <= prob <= (mag + step) ** 2


def moved(table, key, n, by):
    """A copy of a built table with entry n of row key moved by `by` (a nan
    or an infinity makes it that): the table's one buffer copied, with the
    entry's buffer value shifted by `by`, times the entry's scale in
    rational precision (den**(i+k), or den**(k+n+1) for a squeezer, which
    must make it a whole number)."""
    copied = copy.copy(table)
    object.__setattr__(copied, "buffer", table.buffer.copy())  # a table's fields are frozen
    if copied.den is not None:
        i, k = key
        shift = by * copied.den ** (i + k if table.device is Device.BS else k + n + 1)
        assert shift.denominator == 1, "the shift is not a whole number of the entry's units"
        by = int(shift)
    copied.span(*key)[n] += by
    return copied.frozen()


def tms_rows_rowwise(imax: int, kmax: int, nmax: int, lam: float) -> dict:
    """Float squeezer fill one cell at a time, in the operation order the
    library's banded fill must keep bit for bit. Over bridge shells s = k+n,
    cell (i, k -> n) is 1-lam times the beam-splitter cell (i, s-i -> n) at
    eta = 1-lam, and its five terms are the beam splitter's: om up + eta left,
    then + (eta up + om left) one n up, then - diag, with om = lam, up(n) =
    A(i-1,k-1->n), left(n) = A(i,k-1->n), up(n-1) = A(i-1,k->n-1), left(n-1) =
    A(i,k->n-1) and diag = A(i-1,k-1->n-1). A term whose inputs lie outside
    the table is left out, and a cell with no first term starts at 0.0. The
    vacuum cell (0, 0 -> 0) is 1-lam, and rows i = 0 and i = s of a later
    shell are the two-term step from row min(i, s-1) of the shell below.
    Each shell is clipped to [0, 1] before the next reads it.

    Where shell s holds every n' = s-n of its n (n from max(0, s-kmax) to
    min(s, nmax)), cell (i, k -> n) is cell (s-i, n -> k), the mode swap of
    the beam-splitter cell, wherever the shell holds row s-i: for i < s-i, or
    for i > s-i when s > imax. Those cells are copied after the shell's
    other cells are clipped."""
    eta = 1.0 - lam
    cells = {}  # (i, k, n) -> the stored value, for the cells of the shells filled so far
    for s in range(kmax + nmax + 1):
        lo, hi = max(0, s - kmax), min(s, nmax)
        held = range(min(imax, s) + 1) if lo + hi == s else range(0)
        copied = [i for i in held if s - i <= imax and (i > s - i if s > imax else i < s - i)]
        shell = {}
        for i in range(min(imax, s) + 1):
            if i in copied:
                continue
            for n in range(lo, hi + 1):
                k = s - n
                if s == 0:
                    val = eta
                elif i in (0, s):  # the cells (b, k-1 -> n) and (b, k -> n-1) of row b = min(i, s-1)
                    (x, y), b = (lam, eta) if i == 0 else (eta, lam), min(i, s - 1)
                    val = y * cells[(b, k - 1, n)] if (b, k - 1, n) in cells else 0.0
                    if (b, k, n - 1) in cells:
                        val += x * cells[(b, k, n - 1)]
                else:
                    val = 0.0
                    if (i, k - 1, n) in cells:
                        val = lam * cells[(i - 1, k - 1, n)] + eta * cells[(i, k - 1, n)]
                    if (i, k, n - 1) in cells:
                        val += eta * cells[(i - 1, k, n - 1)] + lam * cells[(i, k, n - 1)]
                    if (i - 1, k - 1, n - 1) in cells:
                        val -= cells[(i - 1, k - 1, n - 1)]
                shell[(i, k, n)] = val
        clipped = np.clip(np.array(list(shell.values()), dtype=float), 0.0, 1.0)
        cells.update(zip(shell, clipped.tolist()))
        cells.update(((i, s - n, n), cells[(s - i, n, s - n)]) for i in copied for n in range(lo, hi + 1))
    rows = {}
    for t in range(imax + kmax + 1):
        for i in range(max(0, t - kmax), min(imax, t) + 1):
            k = t - i
            rows[(i, k)] = np.array([cells.get((i, k, n), 0.0) for n in range(nmax + 1)], dtype=float)
    return rows


def top_coefficient_walk_stepped(num: int, den: int, rows, cols):
    """Yield (cell, den**s) per shell s, cell(i, k) = (t_k * u_i, Y) the
    squeezer cell of the top-coefficient walk with every row and column of
    the whole table stepped on every shell from s = 0 and none dropped:
    column k by u'_j = num*u_j + r*u_{j-1} while s < k. The reference for
    the runs of rows and windows of k that probabilities._top_coefficient_walk
    steps."""
    r = den - num
    imax, kmax = max(rows), max(cols)
    tops = {i: [1] + [0] * kmax for i in rows}
    lefts = {k: [1] + [0] * imax for k in cols}
    window, q = [1] * (imax + kmax + 1), 1  # window[d] = r**max(0, s-d)
    cell = lambda i, k: (tops[i][k] * lefts[k][i], window[i + k])  # noqa: E731
    for s in itertools.count():
        yield cell, q
        for i, t in tops.items():
            c, prev = s - i, [0, *t]  # times (1 - num*x) while c < 0, else (1 + r*x), entries j <= c held over r
            if c >= len(t) - 1:
                tops[i] = [*map(operator.add, t, prev)]
            elif c < 0:
                tops[i] = [b - num * a for a, b in zip(t, prev)]
            else:
                held = (r * a + b for a, b in zip(t[c + 1 :], prev[c + 1 :]))
                tops[i] = [*map(operator.add, t[: c + 1], prev), *held]
        for k, u in lefts.items():
            lefts[k] = [num * a + r * b for a, b in zip(u, [0, *u])] if s < k else [*map(operator.sub, u, [0, *u])]
        window = [window[0] * r, *window[:-1]]
        q *= den


def bs_tilde_row_reference(i: int, k: int, j: int, table) -> list:
    """The convolution combination formed in the table's own number type
    (Fractions or floats): one convolution per l, added into the output row,
    in the operation order the library's float rows must keep bit for bit."""
    out = [table.zero] * (i + k + 1)
    for l in range(max(0, j - i), min(j, k) + 1):
        a, b = list(table.row(j - l, l)), list(table.row(i - j + l, k - l))
        conv = [0 * (a[0] + b[0])] * (len(a) + len(b) - 1)
        for s, x in enumerate(a):
            for u, y in enumerate(b):
                conv[s + u] += x * y
        for n, v in enumerate(conv):
            out[n] += v
    return out


def tms_tilde_reference(i: int, k: int, n: int, j: int, table):
    """The squeezer combination one value at a time, summed over l, then m,
    through table.value in the table's own number type."""
    if min(i, k, n) < 0 or j < 0 or j > n + k:
        return table.zero
    total = table.zero
    for l in range(max(0, j - k), min(j, n) + 1):
        for m in range(i + 1):
            total += table.value(m, j - l, l) * table.value(i - m, k - j + l, n - l)
    return total


def classical_recurrence_per_call(i: int, k: int, n: int, j: int, p, precision: str = "float"):
    """The classical general-j residual with a fresh ClassicalTable per call."""
    table = ClassicalTable(p, precision)
    total = table.prob(i, k, n) * 0
    for l in range(max(0, j - i), min(j, k) + 1):
        a = table.row(j - l, l)
        b = table.row(i - j + l, k - l)
        for t in range(max(0, n - (len(b) - 1)), min(n, len(a) - 1) + 1):
            total += a[t] * b[n - t]
    return abs(table.prob(i, k, n) - total / c_coeff(i, k, j))


def factor_sums_reference(i: int, k: int, n: int, num: int, den: int) -> tuple[int, int]:
    """The factored sums (U, V) of B = U*V / den**(i+k) for eta = num/den,
    written term by term with four binomials each."""
    lo, hi = max(0, n - k), min(i, n)
    r = den - num
    u = 0
    v = 0
    for m in range(lo, hi + 1):
        t = math.comb(i, m) * math.comb(k, n - m) * num**m * r ** (n - m)
        u += -t if m & 1 else t
    for j in range(lo, hi + 1):
        t = math.comb(n, j) * math.comb(i + k - n, i - j) * num ** (k - n + j) * r ** (i - j)
        v += -t if j & 1 else t
    return u, v


def cell_sums_reference(c: PhotonConfig, num: int, den: int) -> tuple[int, int, int] | None:
    """(U, V, Q) with the cell c equal to U*V / Q, term by term, or None if c
    is unreachable: at eta = num/den for a beam splitter, and at
    1 - lam = num/den for a squeezer, whose cell (i, k -> n) is num/den times
    the beam-splitter cell (i, n+k-i -> n), num on U and den on Q."""
    if c.m < 0:
        return None
    if c.device is Device.BS:
        return (*factor_sums_reference(c.i, c.k, c.n, num, den), den ** (c.i + c.k))
    u, v = factor_sums_reference(c.i, c.m, c.n, num, den)
    return num * u, v, den ** (c.i + c.m + 1)


def prob_plain_quotient(i: int, k: int, n: int, p: BeamSplitterParam) -> float:
    """B(i,k->n) as the term-by-term factored sums at the exact transmittance,
    multiplied out and divided once: u * v / den**(i+k), correctly rounded by
    Python's int / int."""
    num, den = _exact_ratio(p)
    u, v = factor_sums_reference(i, k, n, num, den)
    return u * v / den ** (i + k)


def normalization_residual_per_cell(i: int, k: int, p) -> float:
    """normalization_residual summed one prob_plain_quotient per n (for the
    squeezer, num*U*V / (den*Q) at its bridge cell (i, n+k-i, n) with
    1-lam = num/den exact), with the library's cutoff and geometric tail rule.

    The squeezer cells write out factor_sums_reference term by term, with
    r**(n - hi) and den**(n + k) carried as running products, one factor per
    step in n, and the small powers of num and r read from short lists."""
    if isinstance(p, BeamSplitterParam):
        return abs(math.fsum(prob_plain_quotient(i, k, n, p) for n in range(i + k + 1)) - 1.0)
    lam = p.lam
    a, b = (Fraction(lam) if p.lam_exact is None else p.lam_exact).as_integer_ratio()
    num, den = b - a, b  # 1 - lam, exact
    r = den - num
    num_pow = [num**e for e in range(max(i, k) + 1)]
    r_pow = [r**e for e in range(i + 1)]
    n_cut = max(math.ceil(10 * (i + k + 1) / (1.0 - lam)), math.ceil(60 / (1.0 - lam)) + i + k)
    ratio = 0.5 * (1.0 + lam)
    n0 = max(0, i - k)
    r_run, q = 1, den ** (n0 + k)  # r**(n - hi) and den**(n + k) at n = n0, where hi = n0
    terms = []
    for n in range(n0, n_cut + 1):
        kb = n + k - i  # the bridge cell's second input count
        lo, hi = max(0, n - kb), min(i, n)
        u = 0
        v = 0
        for m in range(lo, hi + 1):
            t = math.comb(i, m) * math.comb(kb, n - m) * num_pow[m] * r_pow[hi - m]
            u += -t if m & 1 else t
        for j in range(lo, hi + 1):
            t = math.comb(n, j) * math.comb(i + kb - n, i - j) * num_pow[kb - n + j] * r_pow[i - j]
            v += -t if j & 1 else t
        terms.append(num * u * r_run * v / (den * q))
        if n >= n0 + i + k + 2 and max(terms[-3:]) * ratio / (1.0 - ratio) < _TAIL_TOLERANCE:
            return abs(math.fsum(terms) - 1.0)
        if n >= i:  # hi stays at i from here on
            r_run *= r
        q *= den
    raise AssertionError("the reference scan did not settle")


def tms_rows_per_cell(imax: int, kmax: int, nmax: int, p, precision: str = "float") -> dict:
    """Squeezer table entries from one tms_prob (float) or tms_prob_exact
    (rational) call per cell: the reference for tms_table_direct's rows."""
    entries = {}
    for i in range(imax + 1):
        for k in range(kmax + 1):
            cells = [PhotonConfig(i, k, n, Device.TMS) for n in range(nmax + 1)]
            if precision == "rational":
                entries[(i, k)] = [tms_prob_exact(c, p.lam_exact) for c in cells]
            else:
                entries[(i, k)] = np.array([tms_prob(c, p) for c in cells])
    return entries


def render_table_reference(table, fmt: str) -> str:
    """A table export written the textbook way: every entry as a dict or list
    through csv.writer or json.dumps(indent=2), skipping the squeezer cells
    with m < 0, with the table's own parameter in the JSON header (its
    canonical fraction in rational precision). The CLI's exports must match
    it byte for byte."""
    rational = table.precision == "rational"
    rows = [
        (i, k, n, m, str(v) if rational else repr(float(v)))
        for (i, k) in sorted(table.entries)
        for n, v in enumerate(table.entries[(i, k)])
        for m in [i + k - n if table.device is Device.BS else n + k - i]
        if m >= 0
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["i", "k", "n", "m", "value"])
        writer.writerows(rows)
        return buf.getvalue()
    if isinstance(table.param, BeamSplitterParam):
        param = str(table.param.eta_exact) if rational else table.param.eta
    else:
        param = str(table.param.lam_exact) if rational else table.param.lam
    doc = {
        "device": table.device.value,
        "param": param,
        "method": table.method,
        "entries": [
            {"i": i, "k": k, "n": n, "m": m, "value": v if rational else float(v)}
            for i, k, n, m, v in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def g_bs_series_reference(pt, p, order: int) -> float:
    """The beam-splitter amplitude series through total order `order` as a
    loop of its own: over i, k, then n, with m = i+k-n and zero amplitudes
    skipped, each term amplitude / sqrt(i! k! n! m!) times the monomial."""
    x, y, z, w = pt.coords()
    total = []
    for i in range(order // 2 + 1):
        for k in range(order // 2 + 1 - i):
            for n in range(i + k + 1):
                m = i + k - n
                b = bs_amplitude_direct(PhotonConfig(i, k, n), p)
                if b == 0.0:
                    continue
                lg = -0.5 * (log_factorial(i) + log_factorial(k) + log_factorial(n) + log_factorial(m))
                total.append(b * math.exp(lg) * x**i * y**k * z**n * w**m)
    return math.fsum(total)


def g_tms_series_reference(pt, p, order: int) -> float:
    """The squeezer amplitude series as a loop of its own: over n, k, then i,
    with m = n+k-i, terms as in g_bs_series_reference."""
    x, y, z, w = pt.coords()
    total = []
    for n in range(order // 2 + 1):
        for k in range(order // 2 + 1 - n):
            for i in range(n + k + 1):
                m = n + k - i
                a = tms_amplitude(PhotonConfig(i, k, n, Device.TMS), p)
                if a == 0.0:
                    continue
                lg = -0.5 * (log_factorial(i) + log_factorial(k) + log_factorial(n) + log_factorial(m))
                total.append(a * math.exp(lg) * x**i * y**k * z**n * w**m)
    return math.fsum(total)


def f_bs_series_reference(pt, table, order: int) -> float:
    """The probability series through total i+k <= order of a float table,
    term by term: B(i,k->n) x**i y**k z**n w**(i+k-n), each power taken
    apart and the product taken left to right."""
    x, y, z, w = pt.coords()
    total = []
    for i in range(order + 1):
        for k in range(order + 1 - i):
            row = table.row(i, k)
            for n in range(i + k + 1):
                total.append(row[n] * x**i * y**k * z**n * w ** (i + k - n))
    return math.fsum(total)


def diagonal_series_reference(x: float, z: float, table, order: int) -> float:
    """sum_i x**i sum_n B(i,i->n) z**n through i <= order, term by term."""
    return math.fsum(table.row(i, i)[n] * x**i * z**n for i in range(order + 1) for n in range(2 * i + 1))
