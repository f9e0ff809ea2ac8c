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
every term, so V is the Horner sum a of U times C(s,i)/C(s,n) times powers
of num and r, and U*V = a**2 C(s,i)/C(s,n) num**(k-n+2*lo) r**(n+i-2*hi)
over the terms lo..hi, C(s,i)/C(s,n) being the ratio of the two sums'
first coefficients. A single cell thus runs one Horner sum in integers over
the terms it reaches, every coefficient the one before it times an exact
ratio, and three binomials, and hands out the factors of U*V and of its
denominator (_cell_factors) without multiplying them out.

The float route is the same exact value rounded once: the cell is a
quotient of two integer products, rounded correctly, so no cancellation
error bound or fallback is needed at any total. A float-only transmittance
is taken at its exact binary value, whose 54-bit numerator and denominator
make the factors long, so the quotient is rounded from leading bits instead
of multiplying them out (_rounded_ratios): with each top x_j cut to its top
128 bits, x_j' = |x_j| >> c_j, and the denominator Q likewise,
q' = Q >> d, the exact value lies between prod(x_j') 2**e / (q'+1) and
prod(x_j'+1) 2**e / q', e = sum(c_j) - d. Both ends are quotients of short
integers, which Python rounds correctly, and rounding is monotone, so when
the two round to the same float that float is the correctly rounded one
(Ziv's test). Otherwise, or when Q is short, the plain quotient is taken.
Either way the float is bit for bit the same. The binary value's
denominator, like those of 1/2, 3/4, ..., is a power of two, so a single
cell takes den**(i+k) as a shift of the quotient (_den_factor), where pow
would square the power out in full. The exact cells multiply the factors
out, the division by C(s,n) taken first on the short a C(s,i).

Squeezer probabilities go through partial time reversal,
A(i,k->n; lam) = (1-lam) * B(i, n+k-i -> n; eta=1-lam): the factors of the
bridge cell with one more num on top and den below, for 1 - lam = num/den.
Every single cell of either device takes its factors from _cell_factors:
the float probabilities round them once, the exact ones make one Fraction,
and the direct amplitudes (vacuum rows included) take the signed root of
the rounded quotient.

Every exact table of either device reads one engine instead. The cells of
total s are coefficients of one shell of integer polynomials, (1 - num*x)**i
(1 + r*x)**(s-i) and (x - 1)**n (r + num*x)**(s-n), and
_top_coefficient_walk steps their top coefficients from shell to shell over
only the rows and the k = s-n each reader holds, with no Horner sum,
binomial, power table or division. It hands out the factors (t, Y, V) of
a shell's exact (U, V) row by row, U = t*Y, and every reader takes only
those: both direct tables (and through the rational ones the exact
identity rows), the batched beam-splitter normalization rows, the squeezer
normalization scans and the amplitude series. The float readers round
t*Y*V / q from the three factors, with no product formed. A single
beam-splitter normalization row sums the row's single cells.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, repeat

from .errors import ConvergenceError
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


def _exact_ratio(p: BeamSplitterParam) -> tuple[int, int]:
    """(num, den) of the exact transmittance: the p/q carrier when there is
    one, else the float's own binary fraction."""
    return (p.eta if p.eta_exact is None else p.eta_exact).as_integer_ratio()


def _partner_ratio(p: SqueezerParam) -> tuple[int, int]:
    """(num, den) of the partner transmittance 1 - lam exactly: (b-a, b) for
    lam = a/b, the p/q carrier when there is one, else the float's own."""
    a, b = (p.lam if p.lam_exact is None else p.lam_exact).as_integer_ratio()
    return b - a, b


def _cell_factors(
    c: PhotonConfig, device: Device, num: int, den: int
) -> tuple[tuple[tuple[int, ...]], tuple[int, int], int] | None:
    """((tops,), bottoms, shift) with the cell c equal to
    prod(tops) * 2**shift / prod(bottoms), or None if c is unreachable, at
    eta = num/den (beam splitter) or 1 - lam = num/den (squeezer), in the
    form _rounded_ratios takes, one row; a configuration of the other device
    raises ValueError.

    A beam-splitter cell (i, k -> n) is U*V / den**s, s = i+k, r = den - num,
    for U = sum_m (-1)**m C(i,m) C(k,n-m) num**m r**(n-m) and
    V = sum_j (-1)**j C(n,j) C(s-n,i-j) num**(k-n+j) r**(i-j): one
    alternating sum at (i, k, n) and at the transposed (n, s-n, i), over the
    same range of terms. Taken by _alternating_sum over the same lo..hi, both
    carry the same powers of num and r term by term, and
    C(n,t) C(s-n,i-t) C(s,n) = C(i,t) C(k,n-t) C(s,i) (the transpose
    symmetry of the Wigner d-matrix, the self-duality of Krawtchouk
    polynomials). So with a the one Horner sum, U = a num**lo r**(n-hi) and
    V = a C(s,i)/C(s,n) num**(k-n+lo) r**(i-hi). The binomial ratio is that
    of the two sums' first coefficients, C(n,hi) C(s-n,i-hi) over
    C(i,hi) C(k,n-hi), one factor of each 1: C(s-n,i-n)/C(i,n) for i >= n,
    C(n,i)/C(k,n-i) below, far shorter than C(s,i) and C(s,n) near the
    middle of a row. The tops are a, a, the upper binomial, num**(k-n+2*lo)
    and r**(n+i-2*hi), the first carrying the sign of U when U is not 0, and
    the bottoms the lower binomial and den**s, its power of two as the shift
    (_den_factor). Nothing is multiplied out and nothing divided.

    A squeezer cell (i, k -> n) is (num/den) B(i, m -> n) at eta = num/den,
    m = n+k-i (partial time reversal): the factors of that bridge cell with
    one more factor num on top and den below."""
    _require(c, device)
    i, k, n = c.i, c.k, c.n
    lift = device is Device.TMS
    if lift:
        k += n - i  # the bridge cell's k, the squeezer's m
    if k < 0 or n > i + k:  # the cell's m < 0
        return None
    lo, hi = _term_range(i, k, n)
    r = den - num
    a = _alternating_sum(i, k, n, lo, hi, num, r)
    above, below = (math.comb(k - n + i, i - n), math.comb(i, n)) if i >= n else (math.comb(n, i), math.comb(k, n - i))
    power, shift = _den_factor(den, i + k + lift)
    tops = a, a, above, num ** (k - n + 2 * lo + lift), r ** (n + i - 2 * hi)
    return (tops,), (below, power), -shift


def _den_factor(den: int, e: int) -> tuple[int, int]:
    """(d, z) with den**e = d * 2**z for den >= 1: (1, b*e) when den = 2**b,
    as the denominator of every float's exact ratio is (and of 1/2, 3/4,
    ...), else (den**e, 0). pow would square a long power of two out in full
    where the shift only places a bit."""
    if den & (den - 1):
        return den**e, 0
    return 1, (den.bit_length() - 1) * e


def _den_power(den: int, e: int) -> int:
    """den**e for den >= 1, one shift when den is a power of two."""
    power, shift = _den_factor(den, e)
    return power << shift


# Quotients whose denominator, shift included, is shorter than this many
# bits are taken plain in _rounded_ratios, which is as fast as the bracket
# there. On a 2-vCPU x86_64 Xeon VM (Python 3.11) the two cost the same near
# 2000 bits for a float-only single cell (five tops, den**s a shift) and for
# a row of the walk (three tops over q), and near 2500 bits for a p/q cell,
# whose den**s is one long bottom.
_SHORT_QUOTIENT_BITS = 2000
_LEAD_BITS = 128


def _rounded_ratios(rows, bottoms, shift: int = 0) -> list[float]:
    """[prod(tops) * 2**shift / prod(bottoms) for tops in rows], each
    correctly rounded, for integer tops and positive integer bottoms: bit for
    bit the plain quotients. A single cell is one row; a row of a table or
    the terms of a scan's shell share their denominator.

    A long quotient takes the leading-bit bracket of the module docstring,
    each top and the product of the bottoms cut to its top _LEAD_BITS bits,
    and falls back to the plain quotient only when the two ends of the
    bracket round apart. No top is multiplied by another on that path."""
    bottom = math.prod(bottoms)
    bracket = bottom.bit_length() - shift >= _SHORT_QUOTIENT_BITS
    if bracket:
        cut = max(bottom.bit_length() - _LEAD_BITS, 0)
        b_lo = bottom >> cut
        b_hi, start = b_lo + (cut > 0), shift - cut
    out = []
    for tops in rows:
        if bracket:
            e, t_lo, t_hi, negative = start, 1, 1, False
            for x in tops:
                cut = x.bit_length() - _LEAD_BITS
                if cut > 0:  # x >> cut is the floor: |x| / 2**cut lies in [x, x+1], or in [~x, ~x + 1] below 0
                    x >>= cut
                    e += cut
                    if x < 0:
                        x, negative = ~x, not negative
                    t_lo, t_hi = t_lo * x, t_hi * (x + 1)
                else:
                    if x < 0:
                        x, negative = -x, not negative
                    t_lo, t_hi = t_lo * x, t_hi * x
            if e >= 0:  # the quotient lies in [t_lo / b_hi, t_hi / b_lo] * 2**e
                lo, hi = (t_lo << e) / b_hi, (t_hi << e) / b_lo
            else:
                lo, hi = t_lo / (b_hi << -e), t_hi / (b_lo << -e)
            if lo == hi:
                out.append(-lo if negative and t_lo else lo)  # t_lo is 0 only for a zero top
                continue
        top = math.prod(tops)
        out.append((top << shift) / bottom if shift >= 0 else top / (bottom << -shift))
    return out


def bs_prob_exact(c: PhotonConfig, eta: Fraction) -> Fraction:
    """Exact rational B(i,k->n) for rational transmittance: an int, a float
    at its binary value or a Fraction."""
    _require(c, Device.BS)
    num, den = _ratio(eta)
    if not 0 <= num <= den:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta}")
    return _exact_cell(c, Device.BS, num, den)


def _ratio(x) -> tuple[int, int]:
    """x.as_integer_ratio() (den > 0), or (-1, 1), outside every range, for
    a NaN or an infinity."""
    try:
        return x.as_integer_ratio()
    except (ValueError, OverflowError):
        return -1, 1


def _exact_cell(c: PhotonConfig, device: Device, num: int, den: int) -> Fraction:
    """The cell c as one Fraction at num/den, its factors multiplied out
    with the exact division by C(s,n) taken first, on the short a*C(s,i)."""
    factors = _cell_factors(c, device, num, den)
    if factors is None:
        return Fraction(0)
    ((a, _, above, p, r),), (below, power), shift = factors
    return Fraction(a * (a * above // below) * p * r, power << -shift)


def bs_prob_double_sum(i: int, k: int, n: int, eta):
    """Literal double sum over (m, j) with the four-binomial coefficients.

    This is the convolution-squared route written out (amplitude times
    amplitude with the square roots paired into exact integers), kept
    separate from the factored engine so the two can cross-check each other.

    Any eta is summed in integers at its exact value a/b, a float at its
    binary value (_double_sum). A Fraction eta gets the cell back as one
    Fraction(total, b**(i+k)), any other eta that quotient rounded once, bit
    for bit bs_prob_direct. The cell builds only the binomials and powers its
    terms read. A negative count or an eta outside [0, 1] raises ValueError,
    as in bs_prob_exact.
    """
    _check_counts(i=i, k=k, n=n)
    a, b = _ratio(eta)
    if not 0 <= a <= b:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta}")
    lo, hi = _term_range(i, k, n)
    s, f, c = i + k, k - n, b - a
    ts = range(lo, hi + 1)
    left = [math.comb(i, t) * math.comb(k, f + t) for t in ts]
    right = [math.comb(n, t) * math.comb(s - n, f + t) for t in ts]
    es = range(f + 2 * lo, f + 2 * hi + 1)
    powers = [-(a**e * c ** (s - e)) if d & 1 else a**e * c ** (s - e) for d, e in enumerate(es)]
    total, q = _double_sum(left, right, powers), _den_power(b, s)
    return Fraction(total, q) if isinstance(eta, Fraction) else total / q


def _double_sum(left, right, powers) -> int:
    """The double sum at eta = a/b times b**(i+k), in integers, from the
    windows of its terms, read by index. With lo, hi = _term_range(i, k, n)
    and f = k-n, the term (m, j) = (lo+u, lo+v), m outer and j inner, is
    left[u] * right[v] * powers[u+v], where left[u] = C(i,m) C(k,n-m) and
    right[v] = C(n,j) C(i+k-n,i-j) (C(k,n-m) = C(k,f+m) and C(i+k-n,i-j) =
    C(i+k-n,f+j)), and powers[d] = (-1)**d a**e (b-a)**(i+k-e) at
    e = f+2*lo+d, the sign (-1)**(m+j) of the term. A table slices the
    binomials from its Pascal rows and the powers from its shell's, built
    once; a single cell builds only its own. The sum is neither factored nor
    grouped by m+j, which keeps the route apart from the factored engine."""
    total, w = 0, len(right)
    for d, u in enumerate(left):
        for r, p in zip(right, powers[d : d + w]):
            total += u * r * p
    return total


def bs_prob_direct(c: PhotonConfig, p: BeamSplitterParam) -> float:
    """Direct-route B(i,k->n) in floating point: the exact factored sum at the
    parameter's exact value, rounded once, within half an ulp at every total."""
    factors = _cell_factors(c, Device.BS, *_exact_ratio(p))
    return 0.0 if factors is None else _rounded_ratios(*factors)[0]


def tms_prob(c: PhotonConfig, p: SqueezerParam) -> float:
    """A(i,k->n) = (1-lam) B(i, n+k-i -> n) at eta = 1-lam; 0 if unreachable.
    The exact num*U*V / (den*Q), 1 - lam = num/den (_partner_ratio), rounded
    once: bit for bit float(tms_prob_exact(c, lam)) at the exact lam."""
    factors = _cell_factors(c, Device.TMS, *_partner_ratio(p))
    return 0.0 if factors is None else _rounded_ratios(*factors)[0]


def tms_prob_exact(c: PhotonConfig, lam: Fraction) -> Fraction:
    """Exact rational A(i,k->n) for rational squeezing parameter: an int, a
    float at its binary value or a Fraction."""
    _require(c, Device.TMS)
    a, b = _ratio(lam)
    if not 0 <= a < b:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
    return _exact_cell(c, Device.TMS, b - a, b)


def _top_coefficient_walk(num: int, den: int, shells, own=None, bridge=False):
    """Yield (rows, ks, q, sums) for the shells s = 0, 1, ... that shells
    gives as (rows, ks), the runs of rows i and of k = s-n that shell s
    holds: q = den**s, and sums(i) the factors (t, Y, V) of row i over k in
    ks, U = t*Y and V the factored sums (_cell_factors) of the cells
    (i, s-i -> s-k) at eta = num/den, or with bridge the squeezer's (i, k -> s-k), Y times
    num and q times den. Given own (a scan's rows), only those rows are
    read. sums reads the shell last yielded, so its factors hold until the
    next step.

    With r = den - num, U = M_s[i][n], top coefficient k = s-n of
    M_s[i] = (1 - num*x)**i (1 + r*x)**(s-i), and V = L_s[n][s-i], top
    coefficient i of L_s[s-k], L_s[n] = (x - 1)**n (r + num*x)**(s-n); the
    squeezer's cell (i, k -> n) is that cell on its bridge shell s = k+n,
    times num/den.

    Row i is born at shell i as the row born before it times (1 - num*x),
    then steps by (1 + r*x), its t_j held over Y = r**max(0, s-i-j) to stay
    short: t'_j = t_{j-1} + t_j for j <= s-i, else t_{j-1} + r*t_j. The
    cells of one d = i+k share Y, kept in a window over d from
    lo = min(rows.start + ks.start, s) that slides by one power a shell (lo
    stops at s: the power the slide adds at the old lo is r**(s-lo) only
    below s). A scan's top vectors run over every k from 0, as a scan has no
    last shell. Column k is born at shell k as the column born before it
    times (r + num*x), then steps by (x - 1), u'_i = u_i - u_{i-1}. No power
    or binomial is taken afresh, and a vector steps only over the runs of
    its shell and is dropped after its last. A step reads only held entries,
    or entries past degree s (0), when each run's lower end stays at 0 or
    rises by one a shell and its upper end rises only to s. A shell with the
    runs of the shell before and s > rows[-1] + ks.stop (most shells of a
    scan) takes one steady step: nothing is born, dropped or first read, and
    every t_j adds its neighbour.
    """
    r, seed = den - num, num if bridge else 1  # r**0 in the window, times num on a bridge shell
    tops, lefts, window, q = {}, [], [seed], den if bridge else 1
    rows0 = ks0 = tw0 = range(0)  # the runs of the shell before
    lo0 = -1  # as if shell -1 held the window [seed] at d = -1

    def sums(i: int):
        j, t = (i - rows.start) * len(ks), tops[i]
        return t[ks.start :] if own else t, window[i + ks.start - lo : i + ks.stop - lo], lefts[j : j + len(ks)]

    for s, (rows, ks) in enumerate(shells):
        if rows == rows0 and ks == ks0 and s > reach:  # the steady step
            window, lefts = [window[0] * r, *window[:-1]], [*map(operator.sub, lefts, [0] * len(ks) + lefts)]
            tops = {i: [*map(operator.add, t, [0, *t])] for i, t in tops.items()}
        else:
            tw, reach, lo = range(ks.stop) if own else ks, rows[-1] + ks.stop, min(rows.start + ks.start, s)
            if not s:  # (1 - num*x)**0 over the top window, (r + num*x)**0 over the rows
                born_top, born_left = [int(j == 0) for j in tw], [int(i == 0) for i in rows]
            else:
                if s in rows:
                    born_top = _next_top(born_top, tw0.start, tw, -1, -num)
                if s < ks.stop:  # column s is born here or read later
                    cur, prev = _pairs(born_left, rows0.start, rows)
                    born_left = [*map(operator.add, map(num.__mul__, cur), map(r.__mul__, prev))]
            # Y at d = lo0 < s is r**(s-lo0), and at d > lo0 the Y of d-1 on the shell before
            window = [window[0] * r, *window][lo - lo0 : reach - lo0]
            window += [seed] * (reach - lo - len(window))  # r**0 at d >= s
            if rows.start > rows0.start:  # the row a band leaves
                del tops[rows0.start]
            w0, held = len(ks0), lefts  # rows rows.start-1 .. rows.stop-1 of the shell before, 0 where it held none
            if rows.start == rows0.start:
                held = [0] * w0 + held
            if rows.stop > rows0.stop:
                held = held + [0] * w0 * (rows.stop - rows0.stop)
            cut, born, lefts = ks.start - ks0.start, born_left if s in ks else [], []
            steps = [*map(operator.sub, held[w0:], held)]  # each row less the row before it
            for j in range(len(rows)):  # less the columns dropped, with the one born
                lefts += steps[j * w0 + cut : (j + 1) * w0]
                lefts += born[j : j + 1]
            for i, t in tops.items():
                tops[i] = _next_top(t, tw0.start, tw, s - 1 - i, r)
            if s in (own or rows):
                tops[s] = born_top
        yield rows, ks, q, sums
        rows0, ks0, tw0, lo0, q = rows, ks, tw, lo, q * den


def _row_values(t: list[int], y: list[int], v: list[int], q: int | None) -> list:
    """A row of the walk's factors (t, Y, V) as its exact numerators
    t*(Y*V), or given q as the quotients t*Y*V / q correctly rounded from
    the three factors, with no product formed."""
    if q is None:
        return [*map(operator.mul, t, map(operator.mul, y, v))]
    return _rounded_ratios(zip(t, y, v), (q,))


def _pairs(v: list[int], start: int, run: range) -> tuple[list[int], list[int]]:
    """(entries j, entries j-1) for j in run of v, held from entry start on and 0
    elsewhere (start <= run.start <= run.stop - 1 <= start + len(v)); the second may run one longer."""
    cur, prev, cut = v + [0] if run.stop > start + len(v) else v, [0, *v], run.start - start
    return (cur[cut:], prev[cut:]) if cut else (cur, prev)


def _next_top(t: list[int], start: int, run: range, c: int, f: int) -> list[int]:
    """Top vector over run of t times (1 + f*x), t held from entry start on
    and its entries j <= c over f: row i steps from shell s with c = s-i and
    f = r, a row is born with c = -1 and f = -num."""
    cur, prev = _pairs(t, start, run)
    cut = c + 1 - run.start
    if cut >= len(cur):
        return [*map(operator.add, cur, prev)]
    return [b + a if j < cut else b + f * a for j, a, b in zip(range(len(cur)), cur, prev)]


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
        return abs(math.fsum(bs_prob_direct(PhotonConfig(i, k, n), p) for n in range(i + k + 1)) - 1.0)
    ((_, _, r),) = _tms_residual_rows(p, [i], [k])
    if isinstance(r, ConvergenceError):
        raise r
    return r


def _tms_residual_rows(p: SqueezerParam, rows, cols):
    """Yield (i, k, r) for i in rows, then k in cols: r is
    normalization_residual(i, k, p), or the ConvergenceError it raises, from
    one pass of _top_coefficient_walk, each term a cell of the factors its
    sums gives once per row and shell. Each row keeps its own cutoff and
    tail rule and drops out once it has settled. A cutoff past _STEP_BUDGET
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
    # oscillatory head and structural zeros (where the tail rule starts) and
    # of its cutoff, and the place of its column in the shell's columns
    low, high = min(cols), max(cols)
    live = {(i, k): (max(i, k), max(0, i - k) + i + 2 * k + 2, n + k, k - low, []) for (i, k), n in cuts.items()}
    done = {}
    held = range(max(rows) + 1)  # the rows below a scan's own rows carry its columns up
    shells = chain(((held, range(low, s + 1)) for s in range(high)), repeat((held, range(low, high + 1))))
    for s, (_, _, q, sums) in enumerate(_top_coefficient_walk(num, den, shells, rows, bridge=True)):
        now, factors, row = [], [], None  # row: the row whose factors t, y, v were read last on this shell
        for item in live.items():
            (i, _), (first, _, _, c, _) = item
            if s >= first:
                if i != row:
                    row, (t, y, v) = i, sums(i)
                now.append(item)
                factors.append((t[c] * v[c], y[c]))  # t is short
        for ((i, k), (_, settled, last, _, terms)), term in zip(now, _rounded_ratios(factors, (q,))):
            terms.append(term)
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

