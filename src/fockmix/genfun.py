"""Closed-form generating functions and their series cross-checks.

Four closed forms are evaluated at real points v = (x, y, z, w):

    amplitude type (entire in v):
        g_bs  = exp( sqrt(eta)(xz+yw) + sqrt(1-eta)(yz-xw) )
        g_tms = sqrt(1-lam) exp( sqrt(1-lam)(xz+yw) + sqrt(lam)(zw-xy) )

    probability type (thermal-state parameterization, coords in [0,1) and
    positive denominator):
        f_bs  = 1 / (1 - eta(xz+yw) - (1-eta)(xw+yz) + xyzw)
        f_tms = (1-lam) / (1 - lam(xy+zw) - (1-lam)(xz+yw) + xyzw)

plus the two-variable closed form of the diagonal (equal input) sequence.
Everything here is real-valued only; the probability-type evaluators raise
DomainError outside their convergence region rather than guessing, and every
closed form raises DomainError naming the point where its value overflows
the float range or is not finite.

Series comparisons pick their truncation order at runtime from a geometric
tail bound (largest coordinate against the device parameter), capped at total
order 80; hitting the cap is reported on the result, never silently accepted.
The amplitude series read whole shells of the walk's factors (t, Y, V), not
single cells; each amplitude is the direct one, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import log_factorial
from .params import BeamSplitterParam, SqueezerParam
from .amplitudes import _signed_roots
from .probabilities import _exact_ratio, _partner_ratio, _top_coefficient_walk
from .recurrences import bs_table_recurrence

__all__ = [
    "GenFunPoint",
    "SeriesResult",
    "eval_g_bs",
    "eval_g_tms",
    "eval_f_bs",
    "eval_f_tms",
    "eval_f_bs_w1",
    "check_energy_scaling",
    "diagonal_gf_bs",
    "g_bs_series",
    "g_tms_series",
    "f_bs_series",
    "diagonal_series_bs",
]

_SERIES_TOLERANCE = 1e-10
_SERIES_MAX_ORDER = 80


@dataclass(frozen=True)
class GenFunPoint:
    """A real evaluation point (x, y, z, w)."""

    x: float
    y: float
    z: float
    w: float = 0.0

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.w)

    def in_unit_box(self) -> bool:
        """Thermal-state parameterization constraint for the f-type forms."""
        return all(0.0 <= c < 1.0 for c in self.coords())


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series value with its tail bookkeeping."""

    value: float
    order: int
    tail_bound: float
    converged: bool


def _finite(kind: str, where, value_of) -> float:
    """value_of(), or DomainError naming the point where the closed form of
    that kind overflows the float range or has no finite value."""
    try:
        value = value_of()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{kind} generating function has no finite float value at {where}")
    return value


def eval_g_bs(pt: GenFunPoint, p: BeamSplitterParam) -> float:
    x, y, z, w = pt.coords()
    se, so = math.sqrt(p.eta), math.sqrt(1.0 - p.eta)
    return _finite("amplitude", pt, lambda: math.exp(se * (x * z + y * w) + so * (y * z - x * w)))


def eval_g_tms(pt: GenFunPoint, p: SqueezerParam) -> float:
    x, y, z, w = pt.coords()
    sl, so = math.sqrt(p.lam), math.sqrt(1.0 - p.lam)
    return _finite("amplitude", pt, lambda: so * math.exp(so * (x * z + y * w) + sl * (z * w - x * y)))


def _f_bs_denominator(pt: GenFunPoint, p: BeamSplitterParam) -> float:
    x, y, z, w = pt.coords()
    return 1.0 - p.eta * (x * z + y * w) - (1.0 - p.eta) * (x * w + y * z) + x * y * z * w


def _f_tms_denominator(pt: GenFunPoint, p: SqueezerParam) -> float:
    x, y, z, w = pt.coords()
    return 1.0 - p.lam * (x * y + z * w) - (1.0 - p.lam) * (x * z + y * w) + x * y * z * w


def eval_f_bs(pt: GenFunPoint, p: BeamSplitterParam) -> float:
    den = _f_bs_denominator(pt, p)
    if den <= 0.0:
        raise DomainError(f"probability generating function undefined at {pt} (denominator {den})")
    return _finite("probability", pt, lambda: 1.0 / den)


def eval_f_tms(pt: GenFunPoint, p: SqueezerParam) -> float:
    den = _f_tms_denominator(pt, p)
    if den <= 0.0:
        raise DomainError(f"probability generating function undefined at {pt} (denominator {den})")
    return _finite("probability", pt, lambda: (1.0 - p.lam) / den)


def eval_f_bs_w1(x: float, y: float, z: float, p: BeamSplitterParam) -> float:
    """The w=1 slice: the three-variable generating function of the
    beam-splitter output distribution."""
    return eval_f_bs(GenFunPoint(x, y, z, 1.0), p)


def check_energy_scaling(pt: GenFunPoint, t: float, p: BeamSplitterParam | SqueezerParam) -> float:
    """Residual of the conservation-law scaling identity.

    Photon-number conservation (beam splitter) leaves f invariant under
    (x,y,z,w) -> (tx, ty, z/t, w/t). For the squeezer the conserved quantity
    is the photon-number difference i-k-n+m = 0, whose invariant scaling is
    (x,y,z,w) -> (tx, y/t, z/t, tw): every product the closed form contains
    (xy, zw, xz, yw, xyzw) is then fixed.
    """
    if t == 0.0:
        raise DomainError("scaling parameter t must be nonzero")
    x, y, z, w = pt.coords()
    if isinstance(p, BeamSplitterParam):
        scaled = GenFunPoint(t * x, t * y, z / t, w / t)
        return abs(eval_f_bs(pt, p) - eval_f_bs(scaled, p))
    scaled = GenFunPoint(t * x, y / t, z / t, t * w)
    return abs(eval_f_tms(pt, p) - eval_f_tms(scaled, p))


def diagonal_gf_bs(x: float, z: float, p: BeamSplitterParam) -> float:
    """Closed form of sum_{i,n} B(i,i->n) x^i z^n.

    At eta = 1/2 the radicand factors as (1-x)(1-x z^2).
    """
    eta, where = p.eta, f"x={x}, z={z}"

    def value() -> float:
        radicand = (1.0 + x * z) ** 2 - 4.0 * (eta + (1.0 - eta) * z) * (x * (1.0 - eta) + eta * x * z)
        if radicand <= 0.0:
            raise DomainError(f"diagonal generating function undefined at {where}")
        return 1.0 / math.sqrt(radicand)

    return _finite("diagonal", where, value)


def _pick_order(tail, order: int | None) -> tuple[int, float, bool]:
    """(order, tail bound, bound below tolerance) for the given order, or for
    the least order from 2 up to the cap whose bound is below tolerance (the
    cap if none is)."""
    if order is None:
        fits = (o for o in range(2, _SERIES_MAX_ORDER + 1) if tail(o) < _SERIES_TOLERANCE)
        order = next(fits, _SERIES_MAX_ORDER)
    bound = tail(order)
    return order, bound, bound < _SERIES_TOLERANCE


def g_bs_series(pt: GenFunPoint, p: BeamSplitterParam, order: int | None = None) -> SeriesResult:
    """Truncated quadruple series of the amplitude generating function.

    Terms are amplitude / sqrt(i! k! n! m!) with m pinned by photon-number
    conservation, summed through total order i+k+n+m <= order;
    |amplitude| <= 1 gives the tail bound.
    """
    return _amplitude_series(pt, order, *_exact_ratio(p), bridge=False)


def g_tms_series(pt: GenFunPoint, p: SqueezerParam, order: int | None = None) -> SeriesResult:
    """Truncated quadruple series of the squeezer amplitude generating
    function; m is pinned by conservation of the photon-number difference."""
    return _amplitude_series(pt, order, *_partner_ratio(p), bridge=True)


def _amplitude_series(pt: GenFunPoint, order: int | None, num: int, den: int, bridge: bool) -> SeriesResult:
    """The amplitude series of either device over the shells s <= order/2
    at num/den: row i, column k of shell s is the cell (i, s-i -> s-k), or
    with bridge the squeezer's (i, k -> s-k). A shell's terms are numpy
    products taken left to right, as per cell; zero amplitudes are skipped."""
    r = max(abs(c) for c in pt.coords())
    order, bound, ok = _pick_order(lambda o: _g_tail(r, o), order)
    powers = [_powers(v, order // 2) for v in pt.coords()]
    lf = np.array([*map(log_factorial, range(order // 2 + 1))])
    total = []
    shells = [(range(s + 1),) * 2 for s in range(order // 2 + 1)]
    for s, (rows, _, q, sums) in enumerate(_top_coefficient_walk(num, den, shells, bridge=bridge)):
        i, k = np.ogrid[: s + 1, : s + 1]
        counts = (i, k, s - k, s - i) if bridge else (i, s - i, s - k, k)  # (i, k, n, m) of the device
        amps = []
        for j in rows:  # the factors of U = t*Y and V, Y >= 0, so t carries the sign of U
            amps.append(_signed_roots(j, [*zip(*sums(j))], (q,)))
        amps = np.array(amps)
        lg = -0.5 * sum(lf[c] for c in counts)  # ln i! + ln k! + ln n! + ln m!, left to right
        terms = amps * np.vectorize(math.exp)(lg)
        for v, c in zip(powers, counts):  # times x**i * y**k * z**n * w**m
            terms = terms * v[c]
        total += terms[amps != 0.0].tolist()
    return SeriesResult(math.fsum(total), order, bound, ok)


def _g_tail(r: float, order: int) -> float:
    # sum over shells s > order of r^s * sum 1/sqrt(i!k!n!m!); the inner sum
    # is bounded by (sum_j 1/sqrt(j!))^4 < 38 for every shell.
    if r >= 1.0:
        return math.inf
    return 38.0 * r ** (order + 1) / (1.0 - r)


def f_bs_series(pt: GenFunPoint, p: BeamSplitterParam, order: int | None = None) -> SeriesResult:
    """Truncated series sum B(i,k->n) x^i y^k z^n w^(i+k-n) from a table.

    Row sums are 1, so shells beyond the order contribute at most
    sum_{s>N} (s+1) r^s, a closed geometric form.
    """
    x, y, z, w = pt.coords()
    r = max(abs(x), abs(y))
    if max(abs(z), abs(w)) > 1.0:
        raise DomainError("series tail bound needs |z|, |w| <= 1")
    order, bound, ok = _pick_order(lambda o: _f_tail(r, o), order)
    table = bs_table_recurrence(order, order, p)
    zp, wp = _powers(z, order), _powers(w, order)
    total = []
    for i in range(order + 1):
        for k in range(order + 1 - i):
            s = i + k  # row[n] * x**i * y**k * z**n * w**(s-n), left to right
            total += (table.span(i, k) * x**i * y**k * zp[: s + 1] * wp[s::-1]).tolist()
    return SeriesResult(math.fsum(total), order, bound, ok)


def _powers(v: float, order: int) -> np.ndarray:
    """[v**0, ..., v**order], each the Python power."""
    return np.array([v**n for n in range(order + 1)], dtype=float)


def _f_tail(r: float, order: int) -> float:
    if r >= 1.0:
        return math.inf
    n = order
    return r ** (n + 1) * ((n + 2) - (n + 1) * r) / (1.0 - r) ** 2


def diagonal_series_bs(x: float, z: float, p: BeamSplitterParam, order: int | None = None) -> SeriesResult:
    """Truncated series sum_i x^i sum_n B(i,i->n) z^n from a table."""
    if abs(z) > 1.0:
        raise DomainError("series tail bound needs |z| <= 1")
    r = abs(x)

    def tail(o: int) -> float:
        return r ** (o + 1) / (1.0 - r) if r < 1.0 else math.inf

    order, bound, ok = _pick_order(tail, order)
    table = bs_table_recurrence(order, order, p)
    zp = _powers(z, 2 * order)
    total = []
    for i in range(order + 1):
        total += (table.span(i, i) * x**i * zp[: 2 * i + 1]).tolist()  # row[n] * x**i * z**n
    return SeriesResult(math.fsum(total), order, bound, ok)
