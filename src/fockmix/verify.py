"""Named verification suites over the package's invariants.

Each suite runs a block of identity and tolerance checks and returns a
machine-readable result; the CLI maps them onto `verify --suite NAME` and the
acceptance tests drive the same functions, so a CI failure can cite the
failing identity by suite name. Every suite runs at one size, the index
ranges the package promises: a full pass of the nine is 46 229 cases.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .errors import ConvergenceError
from .asymptotics import bs_diag_asymptotic, convergence_report
from .genfun import (
    GenFunPoint,
    check_energy_scaling,
    diagonal_gf_bs,
    diagonal_series_bs,
    eval_f_bs,
    eval_f_tms,
    eval_g_bs,
    eval_g_tms,
    f_bs_series,
    g_bs_series,
    g_tms_series,
)
from .numerics import _check_size, nan_max
from .params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from .probabilities import (
    _tms_residual_rows,
    bs_prob_direct,
    bs_prob_double_sum,
    bs_prob_exact,
    tms_prob,
    tms_prob_exact,
)
from .recurrences import (
    ClassicalTable,
    _bs_residual_rows,
    _identity_rows,
    bs_table_convolution,
    bs_table_direct,
    bs_table_recurrence,
    bs_tilde_row,
    c_coeff,
    tms_table_direct,
    tms_table_recurrence,
)

__all__ = ["Failure", "VerificationResult", "SUITE_NAMES", "run_suite", "hom_sweep", "tms_sweep"]

@dataclass
class Failure:
    indices: str
    parameter: str
    expected: str
    got: str
    tolerance: str


@dataclass
class VerificationResult:
    suite: str
    cases: int = 0
    failures: list[Failure] = field(default_factory=list)
    seconds: float = 0.0
    # the case with the largest residual / tolerance, as {"margin",
    # "indices", "parameter"}; None until a check with a margin has run
    worst_margin: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [asdict(f) for f in self.failures],
            "seconds": self.seconds,
            "worst_margin": self.worst_margin,
        }

    def check(self, ok: bool, indices: str, parameter, expected, got, tolerance, margin: float | None = None) -> None:
        """One case; margin, when given, is its residual / tolerance."""
        self.cases += 1
        if margin is not None:
            self.note_margin(margin, indices, parameter)
        if not ok:
            self.fail(indices, parameter, expected, got, tolerance)

    def within(self, residual, tol, indices: str, parameter, expected) -> None:
        """One case: residual <= tol, reporting both; a NaN residual fails."""
        self.check(residual <= tol, indices, parameter, expected, residual, tol, residual / tol)

    def near(self, got, want, tol, indices: str, parameter) -> None:
        """One case: |got - want| <= tol, reporting want as expected."""
        off = abs(got - want)
        self.check(off <= tol, indices, parameter, want, got, tol, off / tol)

    def note_margin(self, margin: float, indices: str, parameter) -> None:
        """Keep the case as worst_margin if its margin is the largest so far;
        a NaN margin, once seen, stays."""
        worst = self.worst_margin
        if worst is None or not (math.isnan(worst["margin"]) or margin <= worst["margin"]):
            self.worst_margin = {"margin": float(margin), "indices": indices, "parameter": str(parameter)}

    def fail(self, indices: str, parameter, expected, got, tolerance) -> None:
        """Record a failure of a case already counted in cases."""
        self.failures.append(Failure(indices, str(parameter), str(expected), str(got), str(tolerance)))


def _grid(steps: int) -> list[float]:
    """A uniform grid of steps points on [0, 1]; fewer than 2 raise ValueError,
    and more than numerics._MAX_TABLE_ENTRIES DomainError, before any point."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    _check_size(steps, "the grid", unit="points")
    return [idx / (steps - 1) for idx in range(steps)]


def hom_sweep(steps: int = 101) -> list[tuple[float, float]]:
    """(eta, B(1,1->1)) over a uniform grid of steps >= 2 points on [0, 1]."""
    return [(eta, bs_prob_double_sum(1, 1, 1, eta)) for eta in _grid(steps)]


def tms_sweep(steps: int = 101) -> list[tuple[float, float]]:
    """(lam, A(1,1->1)) over a uniform grid of steps >= 2 points on [0, 1].

    The lam=1 endpoint is taken as the continuous limit through the reversed
    beam splitter at eta=0 (the parameter type itself keeps lam < 1).
    """
    return [(lam, (1.0 - lam) * bs_prob_double_sum(1, 1, 1, 1.0 - lam)) for lam in _grid(steps)]


# ---------------------------------------------------------------------------
# Suites

_AGREE_TOL = 1e-10  # every route-agreement pair in float


def _agree(res: VerificationResult, tables, label: str, parameter, expected="exact equality") -> None:
    """One case per pair of built tables of one device and size, over every
    row they serve: one array operation on their buffers where both store the
    same rows, else one per beam-splitter shell (ProbabilityTable._aligned).
    Float tables agree to _AGREE_TOL entrywise (a NaN fails), rational ones
    exactly, as every route holds the same integers."""
    for a, b in itertools.combinations(tables, 2):
        indices = f"{a.method} vs {b.method} {label}"
        if a.precision == "rational":
            equal = a == b
            res.check(equal, indices, parameter, expected, equal, "exact")
        else:
            worst = functools.reduce(nan_max, (float(abs(x - y).max()) for x, y in a._aligned(b)))
            res.within(worst, _AGREE_TOL, indices, parameter, expected)


def _suite_hom(res: VerificationResult) -> None:
    half = Fraction(1, 2)
    exact_bs = bs_prob_exact(PhotonConfig(1, 1, 1), half)
    res.check(exact_bs == 0, "(i=1,k=1,n=1)", "eta=1/2", "0 (exact)", exact_bs, "exact")
    exact_tms = tms_prob_exact(PhotonConfig(1, 1, 1, Device.TMS), half)
    res.check(exact_tms == 0, "(i=1,k=1,n=1)", "lam=1/2", "0 (exact)", exact_tms, "exact")

    p = BeamSplitterParam(0.5)
    cfg = PhotonConfig(1, 1, 1)
    for name, value in [
        ("direct", bs_prob_direct(cfg, p)),
        ("convolution", float(bs_table_convolution(1, 1, p).value(1, 1, 1))),
        ("recurrence", float(bs_table_recurrence(1, 1, p).value(1, 1, 1))),
    ]:
        res.near(value, 0.0, 1e-15, f"(1,1,1) float {name}", "eta=0.5")
    tms_float = tms_prob(PhotonConfig(1, 1, 1, Device.TMS), SqueezerParam(0.5))
    res.near(tms_float, 0.0, 1e-15, "(1,1,1) float tms", "lam=0.5")

    for lam, value in tms_sweep(101):
        res.near(value, (1.0 - lam) * (1.0 - 2.0 * lam) ** 2, 1e-12, f"sweep lam={lam:.2f}", "lam grid [0,1]")


def _suite_normalization(res: VerificationResult) -> None:
    total_max = 30
    residuals = {(i, k): r for i, k, r in _bs_residual_rows(BeamSplitterParam(0.7), total_max)}
    for i in range(total_max + 1):
        for k in range(total_max + 1 - i):
            r = residuals[(i, k)]
            res.check(r <= 1e-10, f"bs row (i={i},k={k})", "eta=0.7", "sum=1", f"residual {r:.3e}", 1e-10, r / 1e-10)

    kmax = 8
    lams = (0.5, 0.8)
    span = range(kmax + 1)
    scans = {lam: {(i, k): r for i, k, r in _tms_residual_rows(SqueezerParam(lam), span, span)} for lam in lams}
    for lam, residuals in scans.items():
        for (i, k), r in residuals.items():
            _tms_row_case(res, r, f"tms row (i={i},k={k})", lam, "sum=1", 1e-10)
    _tms_row_case(res, scans[0.5][(0, 0)], "tms row (0,0)", 0.5, "geometric sum 1", 1e-12)


def _tms_row_case(res: VerificationResult, r, indices: str, lam: float, expected: str, tol: float) -> None:
    """One case on a squeezer scan's residual r, or on the ConvergenceError
    the scan gave in its place, reported by its text."""
    if isinstance(r, ConvergenceError):
        res.check(False, indices, f"lam={lam}", expected, str(r), tol)
    else:
        res.check(r <= tol, indices, f"lam={lam}", expected, f"residual {r:.3e}", tol, r / tol)


def _identity_exact(res: VerificationResult, name: str, values, param, *sizes) -> None:
    """The general-j identity of param's device at each value, name=value,
    on the rows of _identity_rows(param.from_value(value), *sizes): each row
    adds the n it asserts to the cases and reports each failing n with its
    signed Fraction residual."""
    for value in values:
        for i, k, j, cells, failures in _identity_rows(param.from_value(value), *sizes):
            res.cases += cells  # a row is unpacked, and failure text built, only where it fails
            for n, residual in failures:
                res.fail(f"(i={i},k={k},n={n},j={j})", f"{name}={value}", "residual 0 (exact)", residual, "exact")


def _suite_recurrence_bs(res: VerificationResult) -> None:
    imax = 8
    etas = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    _identity_exact(res, "eta", etas, BeamSplitterParam, imax, imax)

    # j=1 in float against the direct table of the route-agreement checks
    fmax = 20
    rmax = 25
    p = BeamSplitterParam(0.7)
    table = bs_table_direct(rmax, rmax, p)
    worst = 0.0
    for i in range(fmax + 1):
        for k in range(fmax + 1):
            if i + k == 0:
                continue
            rhs = bs_tilde_row(i, k, 1, table)
            if min(i, k) >= 1:
                for n, v in enumerate(bs_tilde_row(i - 1, k - 1, 0, table), 1):
                    rhs[n] -= v
            for lhs, v in zip(table.span(i, k).tolist(), rhs):
                worst = nan_max(worst, abs(lhs - v))
    res.within(worst, 1e-10, f"j=1 float i,k<={fmax}", "eta=0.7", "residual<=1e-10")

    # route agreement: float tables pairwise, then exact tables pairwise equal
    routes = (table, bs_table_convolution(rmax, rmax, p), bs_table_recurrence(rmax, rmax, p))
    _agree(res, routes, f"i,k<={rmax}", "eta=0.7", "pairwise<=1e-10")

    emax = 10
    ep = BeamSplitterParam.from_value("1/3")
    builders = (bs_table_direct, bs_table_convolution, bs_table_recurrence)
    _agree(res, [build(emax, emax, ep, "rational") for build in builders], f"i,k<={emax}", "eta=1/3")


def _suite_recurrence_tms(res: VerificationResult) -> None:
    nmax = 6
    lams = ["1/4", "1/2", "3/4"]
    # tilde(i, k, j) reads only rows (i', k') with k' <= k, so k <= nmax is all it needs
    _identity_exact(res, "lam", lams, SqueezerParam, nmax, nmax, nmax)

    # recurrence table against the reversal-route values, float
    sp = SqueezerParam(0.2)
    rec = tms_table_recurrence(8, 8, 16, sp)
    _agree(res, (rec, tms_table_direct(8, 8, 16, sp)), "i,k<=8,n<=16", "lam=0.2", "<=1e-10")
    res.near(float(rec.value(1, 1, 1)), 0.288, 1e-12, "(1,1,1)", "lam=0.2")


def _suite_ptr(res: VerificationResult) -> None:
    rng = random.Random(20260810)
    points = 100
    for lam in (0.2, 0.5, 0.8):
        sp = SqueezerParam(lam)
        bp = sp.ptr_beamsplitter()
        worst_g = 0.0
        for _ in range(points):
            x, y, z, w = (rng.uniform(-0.5, 0.5) for _ in range(4))
            lhs = eval_g_tms(GenFunPoint(x, y, z, w), sp)
            rhs = math.sqrt(1.0 - lam) * eval_g_bs(GenFunPoint(x, w, z, y), bp)
            worst_g = nan_max(worst_g, abs(lhs - rhs))
        res.within(worst_g, 1e-12, "amplitude-gf grid", f"lam={lam}", "<=1e-12")
        worst_f = 0.0
        for _ in range(points):
            x, y, z, w = (rng.uniform(0.0, 0.6) for _ in range(4))
            lhs = eval_f_tms(GenFunPoint(x, y, z, w), sp)
            rhs = (1.0 - lam) * eval_f_bs(GenFunPoint(x, w, z, y), bp)
            worst_f = nan_max(worst_f, abs(lhs - rhs))
        res.within(worst_f, 1e-12, "probability-gf grid", f"lam={lam}", "<=1e-12")

    # exact probability-level relation against the squeezer-side recurrence fill
    nmax = 10
    sp = SqueezerParam.from_value(Fraction(2, 5))
    rec = tms_table_recurrence(nmax, nmax, nmax, sp, "rational")
    _agree(res, (rec, tms_table_direct(nmax, nmax, nmax, sp, "rational")), f"reversal relation i,k,n<={nmax}", "lam=2/5")


def _suite_energy(res: VerificationResult) -> None:
    rng = random.Random(42)
    pairs = 50
    bp = BeamSplitterParam(0.35)
    sp = SqueezerParam(0.45)
    worst_bs = worst_tms = 0.0
    for _ in range(pairs):
        pt = GenFunPoint(*(rng.uniform(0.05, 0.5) for _ in range(4)))
        t = rng.uniform(0.7, 1.4)
        worst_bs = nan_max(worst_bs, check_energy_scaling(pt, t, bp))
        worst_tms = nan_max(worst_tms, check_energy_scaling(pt, t, sp))
    res.within(worst_bs, 1e-12, f"{pairs} random (point,t)", "eta=0.35", "<=1e-12")
    res.within(worst_tms, 1e-12, f"{pairs} random (point,t)", "lam=0.45", "<=1e-12")
    pt = GenFunPoint(0.2, 0.3, 0.4, 0.5)
    res.check(check_energy_scaling(pt, 1.0, bp) == 0.0, "t=1", "eta=0.35", 0.0, "residual", "exact")


def _suite_genfun_series(res: VerificationResult) -> None:
    p = BeamSplitterParam(0.7)
    half = BeamSplitterParam(0.5)

    pt = GenFunPoint(0.3, 0.3, 0.3, 1.0)
    series = f_bs_series(pt, p, order=40)
    res.near(series.value, eval_f_bs(pt, p), 1e-8, "triple series (0.3,0.3,0.3,w=1)", "eta=0.7")

    order = 60
    diag = diagonal_series_bs(0.3, 0.5, half, order=order)
    closed = diagonal_gf_bs(0.3, 0.5, half)
    res.near(diag.value, closed, 1e-8, "diagonal series (0.3,0.5)", "eta=1/2")
    reduced = 1.0 / math.sqrt((1.0 - 0.3) * (1.0 - 0.5**2 * 0.3))
    res.near(closed, reduced, 1e-14, "diagonal closed form factorization", "eta=1/2")

    for coords in [(0.2, 0.2, 0.2, 0.2), (0.25, -0.25, 0.25, -0.25)]:
        gpt = GenFunPoint(*coords)
        res.near(g_bs_series(gpt, p, order=24).value, eval_g_bs(gpt, p), 1e-8, f"amplitude series {coords}", "eta=0.7")
    sp = SqueezerParam(0.36)
    gpt = GenFunPoint(0.2, 0.2, 0.2, 0.2)
    g_series = g_tms_series(gpt, sp, order=24)
    res.near(g_series.value, eval_g_tms(gpt, sp), 1e-8, "squeezer amplitude series (0.2,...)", "lam=0.36")

    sp_slice = SqueezerParam(0.36)
    for x in (0.0, 0.3, 0.7):
        for y in (0.0, 0.3, 0.7):
            want = 1.0 / ((1.0 - x) * (1.0 - y))
            slice_pt = GenFunPoint(x, y, 1.0, 1.0)
            res.near(eval_f_bs(slice_pt, p), want, 1e-12, f"bs normalization slice ({x},{y},1,1)", "eta=0.7")
            res.near(eval_f_tms(slice_pt, sp_slice), want, 1e-12, f"tms normalization slice ({x},{y},1,1)", "lam=0.36")

    # swapping (x,y) with (z,w) leaves the beam-splitter closed form fixed
    rng = random.Random(7)
    worst = 0.0
    for _ in range(50):
        x, y, z, w = (rng.uniform(0.0, 0.7) for _ in range(4))
        worst = nan_max(
            worst, abs(eval_f_bs(GenFunPoint(x, y, z, w), p) - eval_f_bs(GenFunPoint(y, x, w, z), p))
        )
    res.within(worst, 1e-14, "input-swap symmetry grid", "eta=0.7", "<=1e-14")


def _suite_classical(res: VerificationResult) -> None:
    kmax = 12
    p = BeamSplitterParam(0.6)
    ctf = ClassicalTable(p)
    worst = 0.0
    for i in range(1, kmax + 1):
        for k in range(1, kmax + 1):
            for n in range(i + k + 1):
                worst = nan_max(worst, ctf.recurrence_residual(i, k, n, 1))
    res.within(worst, 1e-12, f"j=1 half-sum i,k<={kmax}", "eta=0.6", "<=1e-12")

    jmax = 8
    worst = 0.0
    for i in range(jmax + 1):
        for k in range(jmax + 1):
            for j in range(i + k + 1):
                for n in range(i + k + 1):
                    worst = nan_max(worst, ctf.recurrence_residual(i, k, n, j))
    res.within(worst, 1e-12, f"general-j i,k<={jmax}", "eta=0.6", "<=1e-12")

    half = BeamSplitterParam.from_value("1/2")
    ct = ClassicalTable(half, "rational")
    classical = ct.prob(1, 1, 1)
    quantum = bs_prob_exact(PhotonConfig(1, 1, 1), Fraction(1, 2))
    res.check(classical == Fraction(1, 2), "p(1|1,1)", "eta=1/2", "1/2", classical, "exact")
    gap = classical - quantum
    res.check(gap == Fraction(1, 2), "interference gap", "eta=1/2", "1/2", gap, "exact")

    # dropping the interference term and halving reproduces the classical row
    eta = p.eta
    worst = 0.0
    for i in range(1, 9):
        for k in range(1, 9):
            for n in range(i + k + 1):
                four = (
                    eta * ctf.prob(i - 1, k, n - 1)
                    + (1.0 - eta) * ctf.prob(i - 1, k, n)
                    + eta * ctf.prob(i, k - 1, n)
                    + (1.0 - eta) * ctf.prob(i, k - 1, n - 1)
                )
                worst = nan_max(worst, abs(four - 2.0 * ctf.prob(i, k, n)))
    res.within(worst, 1e-12, "four-term doubling i,k<=8", "eta=0.6", "<=1e-12")

    ok = all(
        c_coeff(i, k, j) == min(j, k) - max(0, j - i) + 1
        for i in range(11) for k in range(11) for j in range(i + k + 1)
    )
    res.check(ok, "c(i,k,j) equals term count", "i,k<=10", True, ok, "exact")


def _suite_asymptotics(res: VerificationResult) -> None:
    probes = [50, 100, 200]
    report = convergence_report(probes, Device.BS)
    res.check(
        report.monotone,
        f"bs max central error over {probes}",
        "eta=1/2",
        "non-increasing",
        report.max_rel_error,
        "monotone",
    )
    exact = report.detail[200]
    idx = exact["n"].index(200.0)
    res.within(exact["rel_error"][idx], 0.10, "(i=200,n=200)", "eta=1/2", "rel err<=10%")

    tms_probes = [50, 100]
    tms_report = convergence_report(tms_probes, Device.TMS)
    res.check(
        tms_report.monotone,
        f"tms max central error over {tms_probes}",
        "lam=1/2",
        "non-increasing",
        tms_report.max_rel_error,
        "monotone",
    )

    # parity suppression is exact, checked in rational arithmetic
    pmax = 20
    table = bs_table_recurrence(pmax, pmax, BeamSplitterParam.from_value("1/2"), "rational")
    ok = all(table.value(i, i, n) == 0 for i in range(pmax + 1) for n in range(1, 2 * i + 1, 2))
    res.check(ok, f"odd-n diagonal zeros i<={pmax}", "eta=1/2", "exact zeros", ok, "exact")
    mid = bs_diag_asymptotic(100, 100)
    want = 2.0 / (math.pi * 100.0)
    off = abs(mid - want)
    res.check(off < 1e-15, "(i=100,n=100) formula", "-", want, mid, 1e-15, off / 1e-15)


_SUITES = {
    "normalization": _suite_normalization,
    "recurrence-bs": _suite_recurrence_bs,
    "recurrence-tms": _suite_recurrence_tms,
    "ptr": _suite_ptr,
    "hom": _suite_hom,
    "energy": _suite_energy,
    "genfun-series": _suite_genfun_series,
    "classical": _suite_classical,
    "asymptotics": _suite_asymptotics,
}
SUITE_NAMES = list(_SUITES)


def run_suite(name: str) -> VerificationResult:
    """Run one named suite (or 'all') and return its result."""
    import numpy  # the first table loads numpy; loaded before the clock, seconds times the suite alone

    if name == "all":
        merged = VerificationResult("all")
        start = time.perf_counter()
        for sub in SUITE_NAMES:
            part = run_suite(sub)
            merged.cases += part.cases
            merged.failures.extend(part.failures)
            if part.worst_margin is not None:
                merged.note_margin(**part.worst_margin)
        merged.seconds = time.perf_counter() - start
        return merged
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    res = VerificationResult(name)
    start = time.perf_counter()
    _SUITES[name](res)
    res.seconds = time.perf_counter() - start
    return res
