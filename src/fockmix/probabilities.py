"""Transition probabilities with an exact rational core.

The direct probability of a beam splitter is an integer-coefficient
polynomial in the transmittance, so an exact rational evaluation is always
available and serves as ground truth for each floating-point route. The
double sum factors as U * V because its coefficient splits into an m-part
and a j-part. With eta = num/den, r = den - num and the alternating sum
S(a, b, c) = sum_t (-1)**t C(a,t) C(b,c-t) num**t r**(c-t) (a Krawtchouk
polynomial, as in the SU(2) picture of the beam splitter), U = S(i, k, n)
and V = num**(k-n) S(n, s-n, i) with s = i+k: one sum at a cell and at its
transpose, over the same terms t. The transpose takes no sum of its own.
Term by term C(n,t) C(s-n,i-t) C(s,n) = C(i,t) C(k,n-t) C(s,i) (the
transpose symmetry of the Wigner d-matrix, the self-duality of Krawtchouk
polynomials), and the powers of num and r differ by one factor common to
every term, so V is the Horner sum of U times C(s,i)/C(s,n), an exact
division, times powers of num and r. A single cell thus runs one Horner sum
in integers over the terms it reaches, every coefficient the one before it
times an exact ratio, and four binomials.

The float route is the same exact sum rounded once: U*V / den**(i+k) is a
quotient of two integers, rounded correctly, so no cancellation error bound
or fallback is needed at any total. A float-only transmittance is taken at
its exact binary value, whose 54-bit numerator and denominator make U, V and
Q long, so the quotient is rounded from leading bits instead of forming U*V:
with each of |U|, |V| and Q cut to its top 128 bits, u' = |U| >> a,
v' = |V| >> b and q' = Q >> c, the exact value lies between
u'v' 2**(a+b-c) / (q'+1) and (u'+1)(v'+1) 2**(a+b-c) / q'. Both ends are
quotients of short integers, which Python rounds correctly, and rounding is
monotone, so when the two round to the same float that float is the
correctly rounded U*V/Q. Otherwise, or when Q is short, the plain quotient
is taken. Either way the float is bit for bit the same.

A whole beam-splitter table (the direct table, the exact identity rows,
the rows of a normalization check) reads the sums of every
cell of total N off one shell of integer polynomials, (1 - num*x)**a
(1 + r*x)**(N-a) and (x - 1)**a (r + num*x)**(N-a), each shell the one below
times linear factors and cut to the rows the table holds, with no binomial,
power table or division. A single normalization row runs the single-cell
sums. Squeezer probabilities go through partial time reversal,
A(i,k->n; lam) = (1-lam) * B(i, n+k-i -> n; eta=1-lam), a float one the
exact num*U*V / (den*Q) for 1 - lam = num/den, rounded once. Every single
cell of either device takes its (U, V, Q) from _cell_sums: the float
probabilities round the quotient once, the exact ones make one Fraction,
and the direct amplitudes (vacuum rows included) take its signed root. On
shell s = n+k both sums of that bridge cell are top coefficients of the
same shell polynomials, so the direct squeezer table, the identity rows and
the normalization scans read every squeezer row off one walk over those top
coefficients (_top_coefficient_walk), with no Horner sum.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import count

from .errors import ConvergenceError
from .numerics import gamma_small
from .params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam, _check_counts

__all__ = [
    "bs_prob_direct",
    "bs_prob_exact",
    "bs_prob_double_sum",
    "tms_prob",
    "tms_prob_exact",
    "normalization_residual",
]


def _require(c: PhotonConfig, device: Device) -> None:
    if c.device is not device:
        raise ValueError(f"expected a {device.value} configuration, got {c.device.value}")


def _term_range(i: int, k: int, n: int) -> tuple[int, int]:
    return max(0, n - k), min(i, n)


def _alternating_sum(a: int, b: int, c: int, lo: int, hi: int, num: int, r: int) -> int:
    """sum_{t=lo..hi} (-1)**t C(a,t) C(b,c-t) num**(t-lo) r**(hi-t), for
    max(0, c-b) <= lo <= hi <= min(a, c).

    Horner in num from t = hi down over the unsigned coefficients
    C(a,t) C(b,c-t) r**(hi-t), each the one above it times the exact integer
    ratio (t+1)(b-c+t+1) r / ((a-t)(c-t)), so only the first one takes
    binomials. The sign is folded into the step, acc = coef - acc*num, which
    leaves (-1)**lo times the sum; at num = 1 (eta = 1/2 among others) the
    step takes no multiply.
    """
    coef = acc = math.comb(a, hi) * math.comb(b, c - hi)
    if num == 1:
        for t in range(hi - 1, lo - 1, -1):
            coef = coef * ((t + 1) * (b - c + t + 1) * r) // ((a - t) * (c - t))
            acc = coef - acc
    else:
        for t in range(hi - 1, lo - 1, -1):
            coef = coef * ((t + 1) * (b - c + t + 1) * r) // ((a - t) * (c - t))
            acc = coef - acc * num
    return -acc if lo & 1 else acc


def _scaled_factor_sums(i: int, k: int, n: int, num: int, den: int) -> tuple[int, int]:
    """Integer pair (U, V) with B = U*V / den**(i+k) for eta = num/den, for a
    reachable cell (n <= i+k).

    U = sum_m (-1)**m C(i,m) C(k,n-m) num**m r**(n-m) and
    V = sum_j (-1)**j C(n,j) C(s-n,i-j) num**(k-n+j) r**(i-j), r = den - num
    and s = i+k: one alternating sum at (i, k, n) and at the transposed
    (n, s-n, i), over the same range of terms. Taken by _alternating_sum
    over the same lo..hi, both carry the same powers of num and r term by
    term, and C(n,t) C(s-n,i-t) C(s,n) = C(i,t) C(k,n-t) C(s,i) (the
    transpose symmetry of the Wigner d-matrix, the self-duality of
    Krawtchouk polynomials). So the transposed sum is the first times
    C(s,i)/C(s,n), an exact division, and one Horner sum gives both.
    """
    lo, hi = _term_range(i, k, n)
    r = den - num
    a = _alternating_sum(i, k, n, lo, hi, num, r)
    u = a * num**lo * r ** (n - hi)
    v = a * math.comb(i + k, i) // math.comb(i + k, n) * num ** (k - n + lo) * r ** (i - hi)
    return u, v


def _exact_ratio(p: BeamSplitterParam) -> tuple[int, int]:
    """(num, den) of the exact transmittance: the p/q carrier when there is
    one, else the float's own binary fraction."""
    return (p.eta if p.eta_exact is None else p.eta_exact).as_integer_ratio()


def _partner_ratio(p: SqueezerParam) -> tuple[int, int]:
    """(num, den) of the partner transmittance 1 - lam exactly: (b-a, b) for
    lam = a/b, the p/q carrier when there is one, else the float's own."""
    a, b = (p.lam if p.lam_exact is None else p.lam_exact).as_integer_ratio()
    return b - a, b


def _cell_sums(c: PhotonConfig, device: Device, num: int, den: int) -> tuple[int, int, int] | None:
    """(U, V, Q) with the cell c equal to U*V / Q, or None if it is
    unreachable, at eta = num/den (beam splitter) or 1 - lam = num/den
    (squeezer); a configuration of the other device raises ValueError.

    A squeezer cell (i, k -> n) is (num/den) B(i, m -> n) at eta = num/den,
    m = n+k-i (partial time reversal), so its sums are those of that bridge
    cell with one more factor num on U and den on Q."""
    _require(c, device)
    i, m, n = c.i, c.m, c.n
    if m < 0:
        return None
    if device is Device.BS:
        return (*_scaled_factor_sums(i, c.k, n, num, den), den ** (i + c.k))
    u, v = _scaled_factor_sums(i, m, n, num, den)
    return num * u, v, den ** (i + m + 1)


# Denominators shorter than this many bits take the plain quotient in
# _rounded_quotient, which is as fast as the bracket there: the two cost the
# same near 2000 bits on a 2-vCPU x86_64 Xeon VM (Python 3.11).
_SHORT_QUOTIENT_BITS = 2000
_LEAD_BITS = 128


def _rounded_quotient(u: int, v: int, q: int) -> float:
    """u*v / q correctly rounded, for q > 0, bit for bit the plain quotient.

    A long q takes the leading-bit bracket of the module docstring and falls
    back to the plain quotient only when its two ends round apart."""
    qbits = q.bit_length()
    if qbits < _SHORT_QUOTIENT_BITS or not (u and v):
        return u * v / q
    a, b = abs(u), abs(v)
    sa, sb = max(a.bit_length() - _LEAD_BITS, 0), max(b.bit_length() - _LEAD_BITS, 0)
    ut, vt, qt = a >> sa, b >> sb, q >> (qbits - _LEAD_BITS)
    e = sa + sb + _LEAD_BITS - qbits
    lo, hi = ut * vt, (ut + 1) * (vt + 1)  # |u*v/q| lies in (lo / (qt+1), hi / qt) * 2**e
    if e >= 0:
        lo, hi = (lo << e) / (qt + 1), (hi << e) / qt
    else:
        lo, hi = lo / ((qt + 1) << -e), hi / (qt << -e)
    if lo != hi:
        return u * v / q
    return -lo if (u < 0) != (v < 0) else lo


def _times_linear(coeffs: list[int], c: int) -> list[int]:
    """Coefficients of coeffs(x) * (1 + c*x), the top one kept even when 0."""
    return [coeffs[0], *[a + c * b for a, b in zip(coeffs[1:], coeffs)], c * coeffs[-1]]


def _shell_factor_rows(p: BeamSplitterParam, imax: int, kmax: int, smax: int | None = None):
    """Yield (i, k, cells, Q) in shell order for every table row with
    i <= imax, k <= kmax and i+k <= smax (by default imax+kmax),
    where cells lists the pairs (U, V) of ``_cell_sums`` over
    n = 0..i+k and Q = den**(i+k).

    For eta = num/den and r = den - num, shell s is two families of s+1
    integer polynomials, M_s[a] = (1 - num*x)**a (1 + r*x)**(s-a) and
    L_s[a] = (x - 1)**a (r + num*x)**(s-a). The two sums of cell (i, k, n),
    s = i+k, are coefficients: U = M_s[i][n] and V = L_s[n][k]. Each family
    of shell s is its family of shell s-1 times one linear factor, with the
    last polynomial times the other factor as the new top one.

    Of each shell only what the table's rows of that total read is kept: the
    polynomials M_s[i] and the columns L_s[.][s-i], for i from
    max(0, s-kmax) to min(imax, s). These are built from the same rows and
    columns of shell s-1 alone, so a shell costs O(s) integer multiply-adds
    per table row, thin tables included, with no binomial, power table or
    division. No shell above smax is built.
    """
    num, den = _exact_ratio(p)
    r = den - num
    polys, cols, q = {0: [1]}, {0: [1]}, 1  # M_0[0], L_0[.][0], den**0
    for s in range(imax + kmax + 1 if smax is None else smax + 1):
        band = range(max(0, s - kmax), min(imax, s) + 1)
        if s:
            zeros = [0] * s  # a column of shell s-1 outside degrees 0..s-1
            polys = {i: _times_linear(polys[i], r) if i < s else _times_linear(polys[i - 1], -num) for i in band}
            cols = {s - i: _next_column(cols.get(s - i, zeros), cols.get(s - i - 1, zeros), r, num) for i in band}
            q *= den
        for i in band:
            yield i, s - i, list(zip(polys[i], cols[s - i])), q


def _next_column(col: list[int], left: list[int], r: int, num: int) -> list[int]:
    """Column k of L_s from columns k and k-1 of L_{s-1}, each over the
    polynomials a = 0..s-1: (r + num*x) on every old polynomial, and (x - 1)
    on the last one for the new top entry."""
    return [r * c + num * b for c, b in zip(col, left)] + [left[-1] - col[-1]]


def bs_prob_exact(c: PhotonConfig, eta: Fraction) -> Fraction:
    """Exact rational B(i,k->n) for rational transmittance."""
    _require(c, Device.BS)
    if not 0 <= eta <= 1:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta}")
    return _exact_cell(c, Device.BS, Fraction(eta))


def _exact_cell(c: PhotonConfig, device: Device, x: Fraction) -> Fraction:
    """The cell c as one Fraction U*V / Q at num/den = x."""
    sums = _cell_sums(c, device, *x.as_integer_ratio())
    return Fraction(0) if sums is None else Fraction(sums[0] * sums[1], sums[2])


def bs_prob_double_sum(i: int, k: int, n: int, eta):
    """Literal double sum over (m, j) with the four-binomial coefficients.

    This is the convolution-squared route written out (amplitude times
    amplitude with the square roots paired into exact integers), kept
    separate from the factored engine so the two can cross-check each other.

    Any eta is summed in integers at its exact value a/b, a float at its
    binary value (_double_sum). A Fraction eta gets the cell back as one
    Fraction(total, b**(i+k)), any other eta that quotient rounded once, bit
    for bit bs_prob_direct. A negative count or an eta outside [0, 1]
    raises ValueError, as in bs_prob_exact.
    """
    _check_counts(i=i, k=k, n=n)
    a, b = eta.as_integer_ratio()
    if not 0 <= a <= b:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta}")
    total, q = _double_sum(i, k, n, a, b), b ** (i + k)
    return Fraction(total, q) if isinstance(eta, Fraction) else total / q


def _double_sum(i: int, k: int, n: int, a: int, b: int) -> int:
    """The double sum at eta = a/b times b**(i+k), in integers: its terms are
    gamma_small(i,k,n,m,j) a**e (b-a)**(i+k-e), e = k-n+m+j."""
    lo, hi = _term_range(i, k, n)
    total = 0
    for m in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            e = k - n + m + j
            term = gamma_small(i, k, n, m, j) * a**e * (b - a) ** (i + k - e)
            total += -term if (m + j) & 1 else term
    return total


def bs_prob_direct(c: PhotonConfig, p: BeamSplitterParam) -> float:
    """Direct-route B(i,k->n) in floating point: the exact factored sum at the
    parameter's exact value, rounded once, within half an ulp at every total."""
    sums = _cell_sums(c, Device.BS, *_exact_ratio(p))
    return 0.0 if sums is None else _rounded_quotient(*sums)


def tms_prob(c: PhotonConfig, p: SqueezerParam) -> float:
    """A(i,k->n) = (1-lam) B(i, n+k-i -> n) at eta = 1-lam; 0 if unreachable.
    The exact num*U*V / (den*Q), 1 - lam = num/den (_partner_ratio), rounded
    once: bit for bit float(tms_prob_exact(c, lam)) at the exact lam."""
    sums = _cell_sums(c, Device.TMS, *_partner_ratio(p))
    return 0.0 if sums is None else _rounded_quotient(*sums)


def tms_prob_exact(c: PhotonConfig, lam: Fraction) -> Fraction:
    """Exact rational A(i,k->n) for rational squeezing parameter."""
    _require(c, Device.TMS)
    if not 0 <= lam < 1:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
    return _exact_cell(c, Device.TMS, 1 - Fraction(lam))


def _top_coefficient_walk(num: int, den: int, rows, cols, nmax: int | None = None):
    """Yield (cell, den**s) for the shells s = 0, 1, ... without end, where
    cell(i, k) = (X, Y) has X*Y/den**s = B(i, s-i -> s-k) at eta = num/den,
    the squeezer's bridge cell, for i in rows, k in cols and s >= max(i, k),
    and s <= k + nmax when nmax is given (n = s-k <= nmax).
    cell reads the walk's current shell, so it is called before the next.

    That cell is M_s[i][s-k] * L_s[s-k][s-i] of _shell_factor_rows: top
    coefficient k of M_s[i] times top coefficient i of L_s[s-k]. With
    r = den - num, each top vector steps alone: row i by
    t'_j = t_{j-1} - num*t_j while s < i, then t'_j = r*t_j + t_{j-1};
    column k starts at its first read shell s = k as the terms j <= max(rows)
    of (num + r*x)**k, then steps by u'_j = u_j - u_{j-1}, and is dropped
    after shell k + nmax. Each t_j is held over r**max(0, s-i-j), which keeps
    it short, so X = t_k * u_i and Y = r**max(0, s-i-k), one power per i+k
    read from a window that slides by one power of r per shell.
    """
    r = den - num
    imax, kmax = max(rows), max(cols)
    tops = {i: [1] + [0] * kmax for i in rows}
    lefts, starts = {}, set(cols)
    window, q = [1] * (imax + kmax + 1), 1  # window[d] = r**max(0, s-d)
    cell = lambda i, k: (tops[i][k] * lefts[k][i], window[i + k])  # noqa: E731
    for s in count():
        if s in starts:  # C(s, j) num**(s-j) r**j, and 0 past j = s: a negative power of num would be a float
            lefts[s] = [math.comb(s, j) * num ** (s - j) * r**j if j <= s else 0 for j in range(imax + 1)]
        yield cell, q
        for i, t in tops.items():
            tops[i] = _next_top(t, s - i, num, r)
        if nmax is not None:
            lefts.pop(s - nmax, None)
        for k, u in lefts.items():
            lefts[k] = [*map(operator.sub, u, [0, *u])]
        window = [window[0] * r, *window[:-1]]
        q *= den


def _next_top(t: list[int], c: int, num: int, r: int) -> list[int]:
    """Top vector of M_s[i] at shell s+1, c = s-i: times (1 - num*x) while
    c < 0, else times (1 + r*x) with entries j <= c held over r."""
    prev = [0, *t]
    if c >= len(t) - 1:
        return [*map(operator.add, t, prev)]
    if c < 0:
        return [b - num * a for a, b in zip(t, prev)]
    return [*map(operator.add, t[: c + 1], prev), *(r * a + b for a, b in zip(t[c + 1 :], prev[c + 1 :]))]


# Tail control for the squeezer normalization sum. The term ratio tends to
# lam from above at large n; (1+lam)/2 is a safe geometric majorant there.
_TAIL_TOLERANCE = 1e-14
# A squeezer scan with a cutoff past this n is refused before it walks: each
# step costs time linear in n, and 1 - lam = 1e-6 asks for 6e7 steps.
_STEP_BUDGET = 100_000


def normalization_residual(i: int, k: int, p: BeamSplitterParam | SqueezerParam) -> float:
    """|sum of the output distribution - 1| over all reachable n.

    Each term equals bs_prob_direct or tms_prob bit for bit. Beam splitter
    rows are finite. Squeezer rows are summed until a geometric
    tail estimate drops below 1e-14; if that never happens before the cutoff,
    a ConvergenceError is raised rather than silently truncating. The cutoff
    is 10*(i+k+1)/(1-lam), raised to a floor of 60/(1-lam) + i + k because
    the shorter form cannot reach the tail tolerance when i+k <= 2. A cutoff
    past _STEP_BUDGET raises ConvergenceError before any term is summed, and
    a negative i or k ValueError.
    """
    _check_counts(i=i, k=k)
    if isinstance(p, BeamSplitterParam):
        num, den = _exact_ratio(p)
        return _row_residual([_scaled_factor_sums(i, k, n, num, den) for n in range(i + k + 1)], den ** (i + k))
    ((_, _, r),) = _tms_residual_rows(p, [i], [k])
    if isinstance(r, ConvergenceError):
        raise r
    return r


def _tms_residual_rows(p: SqueezerParam, rows, cols):
    """Yield (i, k, r) for i in rows, then k in cols: r is
    normalization_residual(i, k, p), or the ConvergenceError it raises, from
    one pass of _top_coefficient_walk. Each row keeps its own cutoff and tail
    rule and drops out once it has settled. A cutoff past _STEP_BUDGET
    raises ConvergenceError before the walk."""
    lam = p.lam
    om, ratio = 1.0 - lam, 0.5 * (1.0 + lam)
    num, den = _partner_ratio(p)
    cuts = {(i, k): max(math.ceil(10 * (i + k + 1) / om), math.ceil(60 / om) + i + k) for i in rows for k in cols}
    (i, k), n_cut = max(cuts.items(), key=lambda item: item[1])
    if n_cut > _STEP_BUDGET:
        raise ConvergenceError(
            f"squeezer row (i={i}, k={k}, lam={lam}) needs a cutoff n={n_cut}, past the {_STEP_BUDGET}-step budget"
        )
    # per row, the shells s = n+k of its first n, of the first n past the
    # oscillatory head and structural zeros (where the tail rule starts), and
    # of its cutoff
    live = {(i, k): (max(i, k), max(0, i - k) + i + 2 * k + 2, n_cut + k, []) for (i, k), n_cut in cuts.items()}
    done = {}
    for s, (cell, q) in enumerate(_top_coefficient_walk(num, den, rows, cols)):
        for (i, k), (first, settled, last, terms) in list(live.items()):
            if s < first:
                continue
            x, y = cell(i, k)
            terms.append(_rounded_quotient(num * x, y, den * q))
            if s >= settled and max(terms[-3:]) * ratio / (1.0 - ratio) < _TAIL_TOLERANCE:
                done[(i, k)] = abs(math.fsum(terms) - 1.0)
            elif s == last:
                done[(i, k)] = ConvergenceError(
                    f"squeezer row (i={i}, k={k}, lam={lam}) did not reach the "
                    f"{_TAIL_TOLERANCE} tail bound by n={s - k}"
                )
            else:
                continue
            del live[(i, k)]
        if not live:
            break
    for i, k in cuts:
        yield i, k, done[(i, k)]


def _row_residual(cells: list[tuple[int, int]], q: int) -> float:
    """|sum of the beam-splitter row - 1| from the (U, V) pairs of its cells."""
    return abs(math.fsum(_rounded_quotient(u, v, q) for u, v in cells) - 1.0)


def _bs_residual_rows(p: BeamSplitterParam, smax: int):
    """Yield (i, k, normalization_residual(i, k, p)) for every row with
    i + k <= smax, in shell order, from one pass over the shells."""
    for i, k, cells, q in _shell_factor_rows(p, smax, smax, smax=smax):
        yield i, k, _row_residual(cells, q)
