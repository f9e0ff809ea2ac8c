"""Recurrence-based probability tables and the identities behind them.

The production recurrences are the five-term forms (the j=1 special case):

    beam splitter, i,k >= 1:
        B(i,k->n) = eta B(i-1,k->n-1) + (1-eta) B(i-1,k->n)
                  + eta B(i,k-1->n)   + (1-eta) B(i,k-1->n-1)
                  - B(i-1,k-1->n-1)

    squeezer, k,n >= 1:
        A(i,k->n) = (1-lam) A(i,k-1->n) + lam A(i-1,k-1->n)
                  + lam A(i,k->n-1)    + (1-lam) A(i-1,k->n-1)
                  - A(i-1,k-1->n-1)

Partial time reversal, A(i,k->n) = (1-lam) B(i,k+n-i->n) at eta = 1-lam,
makes the second form the first, term by term and weight by weight, so one
fill (_five_term_fill) builds both tables from the vacuum cell. At k = 0 the
first form drops its k-1 terms, B(i,0->n) = eta B(i-1,0->n-1) + (1-eta)
B(i-1,0->n), and so does its mirror at i = 0: the fill steps the vacuum
rows by that two-term rule at every total and in both precisions. The
general-j forms, built from convolutions of smaller rows, are kept as
checkable identities only; j=1 costs O(1) per cell, general j does not.

Swapping the two modes fixes the beam splitter's probabilities,
B(i,k->n) = B(k,i->i+k-n), the d-matrix symmetry d^j_{m'm} = d^j_{-m,-m'}
of its SU(2) blocks, so row (k, i) is row (i, k) reversed. The five-term
and direct fills read their shells off ProbabilityTable._shells, and
_halves alone decides the mirror: where a shell holds both rows of a pair
over a window of n closed under n -> s-n (every beam-splitter shell, and a
squeezer band that is a whole shell), they compute one row of each pair
and copy the other reversed, in both precisions, bit for bit the row's own
value, and the batched normalization rows (_bs_residual_rows) sum one row
of each pair. Thin tables hold no such pair. The convolution table computes
every row, so verify's exact route checks test each copied row against its
own double sum.

Every table a builder returns is one ProbabilityTable, which owns one
read-only buffer in its device's layout: a beam-splitter shell s = i+k is a
block [row, n], and a squeezer bridge shell t = k+n a band of the grid
[i, k*(nmax+1) + n].
Float buffers hold the entries. Rational buffers hold the integers the fills
and the exact engine compute, each entry times a power of the denominator
q of eta or lambda = p/q, and a rational row becomes Fractions when it is
read. The fill builds a shell from the two below it: floats on the
coefficients (eta, 1-eta, 1), rational precision on the integers (a, b-a,
b^2) for eta = a/b, so no gcd runs inside the fill. It writes its float
products into two scratch arrays made once per table and clips float cells
to [0, 1] before the next shell reads them. A built table is immutable and
safe to share.

A value or tilde row reads the buffer through ProbabilityTable.span at both
precisions: every product lies on a known power of den, so a rational result
is one Fraction per entry. A one-cell check of a general-j form reads two
entries of its tilde rows (_general_j_check). The exact identity checks of
the verify suites are one generator for both theorems, _identity_rows: it
packs each integer row into one integer, decides each identity row with one
big-integer compare, and divides a failing entry by its power of den (the
den-power rule, which it states).

The float convolution table is a third route, apart from the exact engine
and the five-term fill. At every total a shell is the square of a
photon-addition step on the amplitude rows of the shell below
(amplitudes._photon_addition_shells), clipped at 1. The single-cell
convolution amplitude runs the same fill on its own block, so its square is
the table's entry bit for bit.

The last term of each five-term form is the interference correction. The
distinguishable-photon model at the end of the module has no such term: its
general-j relation holds with a counting coefficient c(i,k,j) instead.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, repeat
from typing import Union

import numpy as np

from .amplitudes import _photon_addition_shells
from .errors import TableCoverageError
from .numerics import binomial_exact
from .params import BeamSplitterParam, Device, SqueezerParam, _check_counts
from .probabilities import (
    _double_sum,
    _exact_ratio,
    _partner_ratio,
    _row_values,
    _term_range,
    _top_coefficient_walk,
)

__all__ = [
    "ProbabilityTable",
    "ClassicalTable",
    "bs_table_direct",
    "bs_table_convolution",
    "bs_table_recurrence",
    "tms_table_direct",
    "tms_table_recurrence",
    "bs_tilde_row",
    "bs_recurrence_check",
    "tms_tilde_row",
    "tms_recurrence_check",
    "c_coeff",
    "classical_prob",
    "classical_gf",
    "classical_recurrence_check",
]

Param = Union[BeamSplitterParam, SqueezerParam]


@dataclass(eq=False, frozen=True)
class ProbabilityTable(Mapping):
    """Triangular (beam splitter) or rectangular (squeezer) probability table:
    one buffer in the device's layout, and the read-only Mapping of its rows
    (i <= imax, k <= kmax) in shell order. Beam-splitter shells s = i+k are
    blocks [i - lo, n] of a flat buffer, the squeezer a grid
    [i, k*(nmax+1) + n]. A row over n holds i+k+1 values (beam splitter) or
    nmax+1 (squeezer): a read-only float64 view, or in rational precision a
    fresh list of Fractions. A rational buffer holds the ints entry * den**e,
    den the denominator of eta or lambda and e = i+k (beam splitter) or
    k+n+1 (squeezer), the same on every route. Every float entry lies in
    [0, 1]: direct rows are exact values rounded once, and the fills clip as
    they store a shell. A table reads as zeros until a builder fills and
    freezes it. Tables are equal when device, sizes, den and buffer are.
    No field or layout attribute can be rebound once the table is made.
    """

    device: Device
    param: Param
    method: str
    precision: str
    imax: int
    kmax: int
    nmax: int | None = None

    def __post_init__(self):
        if (self.device is Device.TMS) != (self.nmax is not None):
            raise ValueError("a squeezer table needs nmax, and a beam-splitter table takes none")
        for name in ("imax", "kmax", "nmax"):
            size = getattr(self, name)
            if size is not None and size < 0:
                raise ValueError(f"{name} must be non-negative, got {size}")
        exact = _param_of(self.param, self.precision)  # checks the precision, and a rational one's p/q carrier
        derived, dtype = {"den": None, "_zero": 0.0}, float  # _zero starts a sum of buffer values
        if self.precision == "rational":
            derived, dtype = {"den": exact.denominator, "_zero": 0}, object
        imax, kmax = self.imax, self.kmax
        if self.nmax is None:
            sizes = ((min(imax, s) - max(0, s - kmax) + 1) * (s + 1) for s in range(imax + kmax + 1))
            offsets = derived["_offsets"] = list(accumulate(sizes, initial=0))
            # row (i, s-i) starts at _starts[s] + i*(s+1)
            derived["_starts"] = [o - max(0, s - kmax) * (s + 1) for s, o in enumerate(offsets[:-1])]
            derived["buffer"] = np.zeros(offsets[-1], dtype)
        else:
            derived["buffer"] = np.zeros((imax + 1, (kmax + 1) * (self.nmax + 1)), dtype)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def frozen(self) -> ProbabilityTable:
        self.buffer.flags.writeable = False
        return self

    @property
    def entries(self) -> ProbabilityTable:
        """The table itself, the Mapping of its rows."""
        return self

    @property
    def zero(self):
        return Fraction(0) if self.precision == "rational" else 0.0

    def shell(self, s: int) -> np.ndarray:
        """Beam-splitter shell s as the block [i - lo, n] of the buffer."""
        return self.buffer[self._offsets[s] : self._offsets[s + 1]].reshape(-1, s + 1)

    def _shells(self) -> list:
        """One (view, r, c) per shell s, the cell (i, s-i -> n) at
        view[i - r, n - c]: the beam-splitter block shell(s), or the squeezer
        bridge shell s = k+n, its cells (i, k -> s-k) for i <= min(imax, s)
        and n from c = max(0, s-kmax) to min(s, nmax), as one strided slice
        of the grid with k falling (cell (i, k, s-k) at column k*nmax + s)."""
        imax, kmax, nmax = self.imax, self.kmax, self.nmax
        if nmax is None:
            return [(self.shell(s), max(0, s - kmax), 0) for s in range(imax + kmax + 1)]
        views, step, grid = [], max(nmax, 1), self.buffer
        for s in range(kmax + nmax + 1):  # conditionals, not min and max: this runs once a shell
            top, stop = (kmax if s > kmax else s) * nmax + s, (s - nmax if s > nmax else 0) * nmax + s - step
            view = grid[: (imax if s > imax else s) + 1, top : stop if stop >= 0 else None : -step]
            views.append((view, 0, s - kmax if s > kmax else 0))
        return views

    def _row(self, key):
        """key as the ints (i, k) of a row the table holds, else None: a key
        that is no pair, or a count operator.index rejects (1.0), is none."""
        try:
            i, k = key
            i, k = operator.index(i), operator.index(k)
        except (TypeError, ValueError):
            return None
        return (i, k) if 0 <= i <= self.imax and 0 <= k <= self.kmax else None

    def span(self, i: int, k: int) -> np.ndarray:
        """Row (i, k) of the buffer, a view; a row the table does not hold
        raises TableCoverageError."""
        if (held := self._row((i, k))) is None:
            raise TableCoverageError(
                f"table ({self.device.value}, imax={self.imax}, kmax={self.kmax}) has no row (i={i}, k={k})"
            )
        i, k = held
        if self.nmax is None:
            s = i + k
            start = self._starts[s] + i * (s + 1)
            return self.buffer[start : start + s + 1]
        width = self.nmax + 1
        return self.buffer[i, k * width : (k + 1) * width]

    def row(self, i: int, k: int):
        span = self.span(i, k)
        return span if self.den is None else self[(i, k)]

    def value(self, i: int, k: int, n: int):
        """Entry (i, k -> n): a Python float, or in rational precision a
        Fraction over its scale den**e; zero at n < 0 and past a
        beam-splitter row, while n past a squeezer row (past nmax) raises
        TableCoverageError. n is a count as i and k are: one operator.index
        rejects (1.0) raises TableCoverageError."""
        try:
            n = operator.index(n)
        except TypeError:
            raise TableCoverageError(f"table entries are read at int n, got n={n!r}") from None
        if n < 0:
            return self.zero
        row = self.span(i, k)
        if n >= len(row):
            if self.device is Device.BS:
                return self.zero
            raise TableCoverageError(f"squeezer table holds n <= {len(row) - 1}, asked for n={n}")
        e = len(row) - 1 if self.device is Device.BS else operator.index(k) + n + 1
        return float(row[n]) if self.den is None else Fraction(row[n], self.den**e)

    def exact(self, sums, e: int, per_n: bool = False):
        """Buffer values, or sums of their products, as the table's numbers:
        floats as they are, else Fractions sums[n] / den**e (den**(e+n) per_n)."""
        if self.den is None:
            return sums
        scales = accumulate(repeat(self.den), operator.mul, initial=self.den**e) if per_n else repeat(self.den**e)
        return [Fraction(v, d) for v, d in zip(sums, scales)]

    def normalization_max_residual(self) -> float:
        """Worst row-sum defect. Squeezer rows are partial sums, so only the
        excess above 1 counts there. A row whose sum is not finite makes the
        residual inf or nan, so no tolerance accepts it. The row sums are
        taken on the buffer, by beam-splitter shell or over the squeezer grid:
        a rational row is lifted to one power of den, summed exactly and
        divided once; a float row is over den = 1, and x * 1.0 and x / 1.0
        are x."""
        top = self.imax + self.kmax if self.nmax is None else self.kmax + self.nmax + 1
        powers = np.array([(self.den or 1) ** e for e in range(top + 1)], self.buffer.dtype)
        if self.nmax is None:
            sums = np.concatenate([self.shell(s).sum(axis=1) / powers[s] for s in range(top + 1)]).astype(float)
        else:
            grid = self.buffer.reshape(self.imax + 1, self.kmax + 1, self.nmax + 1)
            sums = ((grid * powers[self.nmax :: -1]).sum(axis=2) / powers[self.nmax + 1 :]).astype(float).ravel()
        bad = ~np.isfinite(sums)
        if bad.any():
            return abs(float(sums[bad][0]))
        defects = np.abs(sums - 1.0) if self.device is Device.BS else sums - 1.0
        return float(defects.max(initial=0.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbabilityTable):
            return NotImplemented
        layout = operator.attrgetter("device", "imax", "kmax", "nmax", "den")
        return layout(self) == layout(other) and bool(np.array_equal(self.buffer, other.buffer))

    def __contains__(self, key) -> bool:
        """Whether key is a row (i, k) of the table; any other key is absent."""
        return self._row(key) is not None

    def __getitem__(self, key):
        if (held := self._row(key)) is None:
            raise KeyError(key)
        i, k = held
        row, (e, per_n) = self.span(i, k), (i + k, False) if self.nmax is None else (k + 1, True)
        return row if self.den is None else self.exact(row.tolist(), e, per_n)

    def __iter__(self):
        for s in range(self.imax + self.kmax + 1):
            for i in range(max(0, s - self.kmax), min(self.imax, s) + 1):
                yield i, s - i

    def __len__(self) -> int:
        return (self.imax + 1) * (self.kmax + 1)


def _param_of(p: Param, precision: str):
    """eta or lambda: the float, or the exact Fraction in rational precision."""
    if precision not in ("float", "rational"):
        raise ValueError(f"precision must be 'float' or 'rational', got {precision!r}")
    bs = isinstance(p, BeamSplitterParam)
    if precision == "float":
        return p.eta if bs else p.lam
    exact = p.eta_exact if bs else p.lam_exact
    if exact is None:
        raise ValueError(f"rational precision needs an exact {'transmittance' if bs else 'squeezing'} carrier")
    return exact


def _carrier(x) -> tuple:
    """Fill coefficients (x, 1-x, one): floats, or (a, b-a, b) for x = a/b."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator - x.numerator, x.denominator
    return x, 1.0 - x, 1.0


def _weight(count: int, x, u: int, y, v: int):
    """count * x**u * y**v, left to right; through logarithms where the exact
    count overflows a float (then u, v >= 1 and the weight is small)."""
    try:
        return count * x**u * y**v
    except OverflowError:
        logs = [math.log(f) if f else -math.inf for f in (x, y)]
        return math.exp(math.log(count) + u * logs[0] + v * logs[1])


def _bs_binomial_row(counts: list, x, one=1) -> list:
    """Vacuum-seeded row from counts = C(s, .): the chance that n of s photons
    land in output a, each with probability x/one, times one**s."""
    s = len(counts) - 1
    return [_weight(c, x, n, one - x, s - n) for n, c in enumerate(counts)]


def _cover(c: int, width: int, c_src: int, width_src: int, shift: int) -> tuple:
    """(target, source) slices of the n in [c, c+width) whose n - shift lies in [c_src, c_src+width_src)."""
    lo, hi = max(c, c_src + shift), min(c + width, c_src + shift + width_src)
    return slice(lo - c, max(lo, hi) - c), slice(lo - c_src - shift, max(lo, hi) - c_src - shift)


def _halves(s: int, height: int, width: int, r: int, c: int) -> tuple:
    """(lo, hi, mirrored) for shell s held as height rows from row r, each
    over the width n from c on: a fill computes rows lo..hi, then writes each
    row i in mirrored as row s-i reversed (B(i, k -> n) = B(k, i -> i+k-n)).
    mirrored is None, and lo..hi every row, when the shell holds no pair
    i < s-i or its n window is not closed under n -> s-n. Otherwise the rows
    whose mirror is held reach row r or the last row, and the half of them
    at that end is mirrored (i < s-i from row r, else i > s-i), so lo..hi is
    one run."""
    last = r + height - 1
    if 2 * c + width - 1 != s or not 2 * r < s < 2 * last:
        return r, last, None
    if s - last <= r:
        mirrored = range(r, min(last, s - r, (s - 1) // 2) + 1)
        return max(r, mirrored.stop), last, mirrored
    return r, min(last, s // 2), range(s // 2 + 1, last + 1)


def _bs_residual_rows(p: BeamSplitterParam, smax: int):
    """Yield (i, k, normalization_residual(i, k, p)) for every row with
    i + k <= smax, in shell order, from one pass of _top_coefficient_walk.
    Row (k, i) is row (i, k) reversed, B(i, k -> n) = B(k, i -> i+k-n): the
    same correctly rounded floats, so math.fsum gives the same residual.
    Only the rows lo..hi that _halves gives for the whole shell are rounded
    and summed, and each mirrored row i takes the residual of row s-i."""
    shells = [(range(s + 1),) * 2 for s in range(smax + 1)]
    for s, (_, _, q, sums) in enumerate(_top_coefficient_walk(*_exact_ratio(p), shells)):
        lo, hi, _ = _halves(s, s + 1, s + 1, 0, 0)
        own = {i: abs(math.fsum(_row_values(*sums(i), q)) - 1.0) for i in range(lo, hi + 1)}
        for i in range(s + 1):
            yield i, s - i, own[i] if i in own else own[s - i]


def _mirror(work: np.ndarray, s: int, r: int, rows: range) -> None:
    """Write rows i in rows of shell s (held from row r on) as row s-i reversed."""
    work[rows.start - r : rows.stop - r] = work[s - rows.stop + 1 - r : s - rows.start + 1 - r][::-1, ::-1]


def _five_term_fill(t: ProbabilityTable, weights: tuple, lead, seeds: tuple) -> ProbabilityTable:
    """Fill t by the beam splitter's five-term step, shell s after shell:
    om up + eta left, + (eta up + om left) one n up, - one * one * diag, each
    term over the n its source shell holds. On t._shells(), the views
    (shell, r, c) of lead times the cells (i, s-i -> n) at [i - r, n - c],
    at the _carrier coefficients weights = (eta, om, one). Shell 0 holds
    lead, the vacuum cell. At the vacuum edge the step drops its k-1 terms:
    rows i = 0 and i = s are y below[n] + x below[n-1] from row
    min(i, s-1) of shell s-1, for seeds = ((x, y) of row 0, (x, y) of row
    s), so lead C(s, n) x**n y**(s-n) by Pascal's rule. A shell not
    contiguous in the buffer is worked in an array of its own.

    The step is symmetric under swapping the modes: only the rows lo..hi
    that _halves gives are stepped, seeded and clipped, and each mirrored
    row is then row s-i reversed, one slice copy (_mirror)."""
    eta, om, one = weights
    dtype, rational, shells = t.buffer.dtype, t.den is not None, t._shells()
    scratch, views = np.empty((2, max(shell.size for shell, _, _ in shells)), dtype), {}

    def spare(shape: tuple) -> list:  # two scratch arrays of that shape, the views made once per shape
        return views.get(shape) or views.setdefault(shape, [x[: shape[0] * shape[1]].reshape(shape) for x in scratch])

    below2, below = None, shells[0]  # (shell as stored, r, c) of the shells s-2 and s-1
    below[0][...] = lead
    for s, (shell, r, c) in enumerate(shells[1:], 1):
        work = shell if shell.flags.c_contiguous else np.zeros(shell.shape, dtype)
        width, (lo, hi, mirrored) = shell.shape[1], _halves(s, *shell.shape, r, c)
        g0, g1 = max(1, lo), min(hi, s - 1)  # the rows with i, s-i >= 1
        if g0 <= g1:
            (prev, r1, c1), (prev2, r2, c2) = below, below2
            up, left, body = prev[g0 - 1 - r1 : g1 - r1], prev[g0 - r1 : g1 + 1 - r1], work[g0 - r : g1 + 1 - r]
            to, at = _cover(c, width, c1, prev.shape[1], 0)
            u, l, (a, b) = up[:, at], left[:, at], spare((len(body), at.stop - at.start))
            np.add(np.multiply(om, u, out=a), np.multiply(eta, l, out=b), out=body[:, to])
            to, at = _cover(c, width, c1, prev.shape[1], 1)
            u, l, (a, b), dst = up[:, at], left[:, at], spare((len(body), at.stop - at.start)), body[:, to]
            dst += np.add(np.multiply(eta, u, out=a), np.multiply(om, l, out=b), out=a)
            to, at = _cover(c, width, c2, prev2.shape[1], 1)
            d, dst = prev2[g0 - 1 - r2 : g1 - r2, at], body[:, to]
            dst -= np.multiply(one * one, d, out=spare(d.shape)[0]) if rational else d
        for i, (x, y) in zip((0, s), seeds):
            if lo <= i <= hi:
                row, src = work[i - r], below[0][min(i, s - 1) - below[1]]
                (to, at), (to1, at1) = (_cover(c, width, below[2], len(src), shift) for shift in (0, 1))
                np.multiply(y, src[at], out=row[to])
                row[to1] += x * src[at1]
        if not rational:
            stepped = work[lo - r : hi + 1 - r]
            np.clip(stepped, 0.0, 1.0, out=stepped)
        if mirrored:
            _mirror(work, s, r, mirrored)
        if work is not shell:
            shell[...] = work
        below2, below = below, (work, r, c)
    return t.frozen()


def _direct_fill(t: ProbabilityTable, num: int, den: int, bridge: bool = False) -> ProbabilityTable:
    """Fill the table t from _top_coefficient_walk at eta = num/den (with
    bridge, the squeezer's cells) on t._shells(): shell s = (shell, r, c)
    holds rows r..r+len-1 and k from s-c-width+1 to s-c, the walk's runs.
    The rows lo..hi of _halves are one assignment over k rising (n falling)
    of the row factors (t, Y, V) as numerators t*(Y*V) (rational) or their
    quotients by q rounded once (float); each mirrored row is then row s-i
    reversed, the same exact values, so the same bytes."""
    shells = t._shells()
    runs = [(range(r, r + len(v)), range(s - c + 1 - v.shape[1], s - c + 1)) for s, (v, r, c) in enumerate(shells)]
    walk = _top_coefficient_walk(num, den, runs, bridge=bridge)
    for s, ((shell, r, c), (_, _, q, sums)) in enumerate(zip(shells, walk)):
        lo, hi, mirrored = _halves(s, *shell.shape, r, c)
        q = q if t.den is None else None
        shell[lo - r : hi + 1 - r, ::-1] = [_row_values(*sums(i), q) for i in range(lo, hi + 1)]
        if mirrored:
            _mirror(shell, s, r, mirrored)
    return t.frozen()


def bs_table_direct(imax: int, kmax: int, p: BeamSplitterParam, precision: str = "float") -> ProbabilityTable:
    """Direct-route table from the exact factored sums U*V/Q on every shell
    s = i+k (_direct_fill): float rows are the exact values rounded once,
    bit for bit those of bs_prob_direct; rational rows hold U*V and equal
    bs_prob_exact. Row (k, i) of a shell that holds both is row (i, k)
    reversed, copied in both precisions."""
    return _direct_fill(ProbabilityTable(Device.BS, p, "direct", precision, imax, kmax), *_exact_ratio(p))


def bs_table_convolution(imax: int, kmax: int, p: BeamSplitterParam, precision: str = "float") -> ProbabilityTable:
    """Convolution-squared table, one shell s = i+k at a time: the squared
    amplitude rows of the photon-addition fill (_photon_addition_shells) in
    float, or the integer totals of the paired double sum (_double_sum,
    square roots combined exactly) in rational, every term read off the
    table's Pascal rows C(x, .), x <= imax+kmax, and its shell's powers
    a**e (b-a)**(s-e), each built once.

    The float fill reads neither the exact engine nor the five-term fill.
    Each square is clipped at 1 as it is written into its shell of the
    table's buffer; the next shell reads the unclipped amplitudes."""
    t = ProbabilityTable(Device.BS, p, "convolution", precision, imax, kmax)
    eta = _param_of(p, precision)
    if precision == "rational":
        a, b = eta.as_integer_ratio()
        pascal = [[math.comb(x, j) for j in range(x + 1)] for x in range(imax + kmax + 1)]
        for s in range(imax + kmax + 1):
            powers = [-(a**e * (b - a) ** (s - e)) if e & 1 else a**e * (b - a) ** (s - e) for e in range(s + 1)]
            signed = powers, [-v for v in powers]  # (-1)**(e-f) a**e (b-a)**(s-e), by the parity of f
            for i in range(max(0, s - kmax), min(imax, s) + 1):
                k, row = s - i, []
                for n in range(s + 1):
                    (lo, hi), f = _term_range(i, k, n), k - n
                    left = [*map(operator.mul, pascal[i][lo : hi + 1], pascal[k][f + lo : f + hi + 1])]
                    right = [*map(operator.mul, pascal[n][lo : hi + 1], pascal[s - n][f + lo : f + hi + 1])]
                    row.append(_double_sum(left, right, signed[f & 1][f + 2 * lo : f + 2 * hi + 1]))
                t.span(i, k)[:] = row
    else:
        for s, amplitudes in enumerate(_photon_addition_shells(imax, kmax, eta)):
            sq = np.multiply(amplitudes, amplitudes, out=t.shell(s))
            np.minimum(sq, 1.0, out=sq)
    return t.frozen()


def bs_table_recurrence(imax: int, kmax: int, p: BeamSplitterParam, precision: str = "float") -> ProbabilityTable:
    """Five-term fill (_five_term_fill) on the whole shells s = i+k from the
    vacuum cell 1, half of each pair of mirror rows (i, k), (k, i) stepped
    and the other copied. Float products go to two scratch arrays
    and the first sum straight into the zeroed shell; that keeps the bytes of
    (om up + eta left) + (eta up + om left) - 1 * 1 * diag, as x * 1.0 is x."""
    t = ProbabilityTable(Device.BS, p, "recurrence", precision, imax, kmax)
    eta, om, one = _carrier(_param_of(p, precision))
    return _five_term_fill(t, (eta, om, one), 1, ((om, one - om), (eta, one - eta)))


def tms_table_direct(imax: int, kmax: int, nmax: int, p: SqueezerParam, precision: str = "float") -> ProbabilityTable:
    """Squeezer table through the reversal route (_direct_fill on the
    bridge shells s = k+n, with num in Y): cell (i, k -> n) is
    num*U*V / den**(s+1) for 1 - lam = num/den, the value of _cell_factors,
    zero below n = max(0, i-k). Rational rows equal tms_prob_exact, float
    rows tms_prob bit for bit. A band that is a whole shell copies one row
    of each mirror pair, in both precisions."""
    t = ProbabilityTable(Device.TMS, p, "direct", precision, imax, kmax, nmax)
    return _direct_fill(t, *_partner_ratio(p), bridge=True)


def tms_table_recurrence(imax: int, kmax: int, nmax: int, p: SqueezerParam, precision: str = "float") -> ProbabilityTable:
    """The five-term fill (_five_term_fill) on the band of each bridge shell
    s = k+n (ProbabilityTable._shells): cell (i, k -> n) is
    (1-lam) B(i, s-i -> n) at eta = 1-lam for i <= min(imax, s) and n in
    [max(0, s-kmax), min(s, nmax)], at the weights (1.0-lam, lam), or
    (q-p, p, q) for lam = p/q. Rows are complete only once the last shell
    is stored."""
    t = ProbabilityTable(Device.TMS, p, "recurrence", precision, imax, kmax, nmax)
    lam, eta, one = _carrier(_param_of(p, precision))
    return _five_term_fill(t, (eta, lam, one), eta, ((lam, eta), (eta, lam)))


def _term_sum(terms, length: int, zero=0) -> list:
    """Entry n < length sums c * row[n - shift] over the terms (c, shift,
    row), one term after the other and each one taken, zero or not."""
    out = [zero] * length
    for c, shift, row in terms:
        for n, v in enumerate(row[: length - shift], shift):
            out[n] += c * v
    return out


def _convolve_full(a, b):
    return _term_sum(zip(a, count(), repeat(b)), len(a) + len(b) - 1, 0 * (a[0] + b[0]))


def _bs_tilde_pairs(i: int, k: int, j: int, row) -> list:
    return [(row(j - l, l), row(i - j + l, k - l)) for l in range(max(0, j - i), min(j, k) + 1)]


def _bs_tilde_terms(i: int, k: int, j: int, row):
    """(a[t], t, b) over the pairs (a, b) of _bs_tilde_pairs, then t."""
    return ((c, t, b) for a, b in _bs_tilde_pairs(i, k, j, row) for t, c in enumerate(a))


def bs_tilde_row(i: int, k: int, j: int, table: ProbabilityTable) -> list:
    """The j-indexed convolution combination as a full row over n = 0..i+k:
    one full convolution per pair of buffer rows, added pair by pair; every
    product lies on den**(i+k) in rational precision."""
    out = [table._zero] * (i + k + 1)
    for a, b in _bs_tilde_pairs(i, k, j, lambda i, k: table.span(i, k).tolist()):
        for n, v in enumerate(_convolve_full(a, b)):
            out[n] += v
    return table.exact(out, i + k)


def _general_j_check(tilde_row, weight, top: int, i: int, k: int, n: int, j: int, table: ProbabilityTable):
    """|weight * table(i,k->n) - [tilde(i,k,j)[n] - tilde(i-1,k-1,j-1)[n-1]]|
    for j in [0, top], each tilde an entry of its row tilde_row, zero off the
    row; the lower row is empty when min(i-1, k-1, j-1) < 0."""
    if j < 0 or j > top:
        raise ValueError(f"j must lie in [0, {top}], got {j}")
    lhs = weight * table.value(i, k, n)
    upper = tilde_row(i, k, j, table)
    lower = tilde_row(i - 1, k - 1, j - 1, table) if min(i, k, j) > 0 else []
    zero = table.zero
    rhs = (upper[n] if 0 <= n < len(upper) else zero) - (lower[n - 1] if 0 < n <= len(lower) else zero)
    return abs(lhs - rhs)


def bs_recurrence_check(i: int, k: int, n: int, j: int, table: ProbabilityTable):
    """|B(i,k->n) - [tilde(i,k,j)[n] - tilde(i-1,k-1,j-1)[n-1]]| on the rows
    of bs_tilde_row; exactly zero in rational precision."""
    return _general_j_check(bs_tilde_row, 1, i + k, i, k, n, j, table)


def _tms_tilde_terms(i: int, k: int, j: int, nmax: int, row):
    """(A(m, j-l -> l), l, row (i-m, k-j+l)) over l, then m: entry n of the
    squeezer combination sums the first times the row at n - l."""
    for l in range(max(0, j - k), min(j, nmax) + 1):
        for m in range(i + 1):
            yield row(m, j - l)[l], l, row(i - m, k - j + l)


def tms_tilde_row(i: int, k: int, j: int, table: ProbabilityTable) -> list:
    """Squeezer analog of bs_tilde_row, over n = 0..nmax; the convolution acts
    on the input index i, and entries with j > n+k are 0. Entry n sums over l,
    then m; a product in it lies on den**(k+n+2)."""
    terms = _tms_tilde_terms(i, k, j, table.nmax, lambda i, k: table.span(i, k).tolist())
    return table.exact(_term_sum(terms, table.nmax + 1, table._zero), k + 2, per_n=True)


def tms_recurrence_check(i: int, k: int, n: int, j: int, table: ProbabilityTable):
    """|(1-lam) A(i,k->n) - [tilde(i,k,j)[n] - tilde(i-1,k-1,j-1)[n-1]]| on
    the rows of tms_tilde_row; n past nmax raises TableCoverageError."""
    lam = _param_of(table.param, table.precision)
    return _general_j_check(tms_tilde_row, 1 - lam, n + k, i, k, n, j, table)


def _identity_rows(p: Param, imax: int, kmax: int, nmax: int | None = None):
    """Yield (i, k, j, cells, failures) for i <= imax, then k <= kmax, then
    j: the general-j identity of p's device (theorem 1 for a beam splitter,
    theorem 2 for a squeezer) at row (i, k) and j, checked on the integer
    rows of the rational direct table of i <= imax, k <= kmax (and n <= nmax
    for a squeezer), with eta or 1-lam = num/den (the p/q carrier). j runs
    to i+k for a beam splitter and to nmax+k for a squeezer; cells is the
    number of n the identity asserts there, every n of the row for a beam
    splitter and n >= j-k for a squeezer (it asserts j <= n+k), and failures
    lists the (n, residual) of those n where it fails, the residual the
    exact signed Fraction lhs - [tilde(i,k,j) - tilde(i-1,k-1,j-1)] at n,
    lhs B(i,k->n) or (1-lam) A(i,k->n). The table is built when the first
    row is asked for.

    Off the walk's factors, a beam-splitter row holds U*V, B(i,k->n) times
    den**(i+k), and lead is 1; a squeezer row holds num*U*V, A(i,k->n) times
    den**(k+n+1), zero below n0 = max(0, i-k), and lead is num. So every
    product in the integer residual row lead*lhs[n] - tilde(i,k,j)[n] +
    den**2 * tilde(i-1,k-1,j-1)[n-1], whose tildes sum products of table
    rows, lands on the power of den of its left-hand side (the den-power
    rule): entry n is the signed residual times den**(i+k) for a beam
    splitter and den**(k+n+2) for a squeezer, and failures divide it by
    that power.

    Every row is packed into one non-negative int by Kronecker substitution
    (Harvey 2009), entry n in slot n of `size` bytes. A beam-splitter tilde
    row is then one big-integer product per l, a squeezer tilde row a sum of
    entry-times-row products shifted l slots and cut to nmax+1 slots, and
    each (i, k, j) is decided by one compare of the packed sides above the
    slots of n < j-k. A tilde slot sums at most `products` products of two
    entries, and a left-hand slot is lead times an entry plus den**2 times
    such a sum. The slot width is the bit length of that bound at the
    widest entry, rounded up to whole bytes, so no slot carries into the
    next and the packed compare is the entrywise one. A negative entry
    cannot be packed and raises OverflowError. Only a failing row is
    unpacked. Each tilde row is built once and kept as long as the
    generator, since (i, k, j) and (i+1, k+1, j+1) share one."""
    bs = isinstance(p, BeamSplitterParam)
    if bs:
        table = bs_table_direct(imax, kmax, p, "rational")
        lead, den = 1, p.eta_exact.denominator
        products = (min(imax, kmax) + 1) * (imax + kmax + 1)  # pairs (l, t) per tilde entry
    else:
        table = tms_table_direct(imax, kmax, nmax, p, "rational")
        lead, den = _partner_ratio(p)
        products = (imax + 1) * (nmax + 1)  # pairs (l, m) per tilde entry
    rows = {key: table.span(*key).tolist() for key in table}
    step = den * den  # tilde(i-1,k-1,j-1) lies two powers of den below tilde(i,k,j)
    widest = max(map(max, rows.values()))
    bits = 2 * widest.bit_length() + lead.bit_length() + step.bit_length() + products.bit_length() + 1
    size = (bits + 7) // 8  # bytes per slot
    width = 8 * size
    packed = {
        key: int.from_bytes(b"".join(v.to_bytes(size, "little", signed=False) for v in row), "little")
        for key, row in rows.items()
    }
    mask = None if bs else (1 << width * (nmax + 1)) - 1  # a squeezer row's nmax+1 slots
    tildes: dict[tuple[int, int, int], int] = {}

    def tilde(i: int, k: int, j: int) -> int:
        if min(i, k, j) < 0:
            return 0
        total = tildes.get((i, k, j))
        if total is None:
            if bs:  # as _bs_tilde_pairs, on packed rows
                lo, hi = max(0, j - i), min(j, k)
                total = sum(packed[(j - l, l)] * packed[(i - j + l, k - l)] for l in range(lo, hi + 1))
            else:  # as _tms_tilde_terms, each entry times a packed row shifted l slots
                total = 0
                for l in range(max(0, j - k), min(j, nmax) + 1):
                    a, b = j - l, k - j + l
                    total += sum(rows[(m, a)][l] * packed[(i - m, b)] for m in range(i + 1)) << width * l
                total &= mask
            tildes[(i, k, j)] = total
        return total

    for i in range(imax + 1):
        for k in range(kmax + 1):
            slots = i + k + 1 if bs else nmax + 1
            for j in range(i + k + 1 if bs else nmax + k + 1):
                low = 0 if bs else max(0, j - k)  # the squeezer asserts no n below j-k
                left = lead * packed[(i, k)] + (step * tilde(i - 1, k - 1, j - 1) << width)
                left, right, failures = left if bs else left & mask, tilde(i, k, j), []
                # a beam-splitter row compares whole: a shift by 0 would copy both sides
                if (left != right) if bs else left >> width * low != right >> width * low:
                    as_bytes = [x.to_bytes(slots * size, "little") for x in (left, right)]
                    for n in range(low, slots):
                        a, b = (int.from_bytes(x[n * size : (n + 1) * size], "little") for x in as_bytes)
                        if a != b:
                            failures.append((n, Fraction(a - b, den ** (i + k if bs else k + n + 2))))
                yield i, k, j, slots - low, failures


# ---------------------------------------------------------------------------
# Distinguishable-photon (classical) model


def c_coeff(i: int, k: int, j: int) -> int:
    """Counting coefficient of the classical general-j relation: the number
    of terms in the l sum, l from max(0, j-i) to min(j, k)."""
    _check_counts(i=i, k=k)
    if j < 0 or j > i + k:
        raise ValueError(f"j must lie in [0, {i + k}], got {j}")
    return 1 + min(i, j, k, i + k - j)


class ClassicalTable:
    """Distribution of distinguishable photons: each routes independently, so
    every row is a convolution of the two binomial rows. Rows are memoized,
    and so are the l-sum of the general-j relation at each (i, k, j) and its
    term count c(i, k, j). A negative i or k raises ValueError; an n
    outside a row reads zero."""

    def __init__(self, p: BeamSplitterParam, precision: str = "float"):
        self.param = p
        self.precision = precision
        self._eta = _param_of(p, precision)
        self._rows: dict = {}
        self._sums: dict = {}

    def row(self, i: int, k: int) -> list:
        key = (i, k)
        if key not in self._rows:
            _check_counts(i=i, k=k)
            a = _bs_binomial_row([binomial_exact(i, n) for n in range(i + 1)], self._eta)
            b = _bs_binomial_row([binomial_exact(k, n) for n in range(k + 1)], 1 - self._eta)
            self._rows[key] = _convolve_full(a, b)
        return self._rows[key]

    def prob(self, i: int, k: int, n: int):
        row = self.row(i, k)
        return row[n] if 0 <= n < len(row) else 0 * self._eta

    def recurrence_residual(self, i: int, k: int, n: int, j: int):
        """classical_recurrence_check at (i, k, n, j) on this table's rows."""
        if (i, k, j) not in self._sums:
            c = c_coeff(i, k, j)  # validates j
            self._sums[(i, k, j)] = c, _term_sum(_bs_tilde_terms(i, k, j, self.row), i + k + 1, 0 * self._eta)
        c, sums = self._sums[(i, k, j)]
        total = sums[n] if 0 <= n < len(sums) else 0 * self._eta
        return abs(self.prob(i, k, n) - total / c)


def classical_prob(i: int, k: int, n: int, p: BeamSplitterParam, precision: str = "float"):
    """p(n | i, k): convolution of the two binomial rows."""
    return ClassicalTable(p, precision).prob(i, k, n)


def classical_gf(x: float, y: float, z: float, p: BeamSplitterParam) -> float:
    """Generating function of the classical rows: the product of the two
    binomial-row generating functions (no interference cross term)."""
    eta, om = p.eta, 1.0 - p.eta
    da = 1.0 - eta * x * z - om * x
    db = 1.0 - eta * y - om * y * z
    return 1.0 / (da * db)


def classical_recurrence_check(i: int, k: int, n: int, j: int, p: BeamSplitterParam, precision: str = "float"):
    """Residual of the classical general-j relation with its 1/c(i,k,j)
    normalization; the interference term of the quantum form is absent."""
    return ClassicalTable(p, precision).recurrence_residual(i, k, n, j)
