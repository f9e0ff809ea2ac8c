"""Command-line front end.

Exit codes: 0 success (verify: all checks passed), 1 verification failure or
a failed internal self-check, 2 usage errors (bad flags, out-of-range
parameters, points outside a convergence domain, a generating function with
no finite float value at the point, tables above the entry limit, an --out
that cannot be written, a rational value with more digits than
sys.get_int_max_str_digits() allows as text).

Parameters accept decimal literals ("0.3") or exact ratios ("1/3"); rational
precision requires the ratio form so the exact routes are never silently fed
a rounded decimal. Floats print in shortest round-trip form; rationals print
as canonical lowest-term fractions, which makes rational CSV output
bit-stable across runs. The "param" of a JSON table is the table's own
parameter, a float or, in rational precision, its canonical fraction, so
"2/4" and "1/2" export the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import math
import operator
import os
import stat
import sys
import time
from collections.abc import Iterable

import click

from .asymptotics import convergence_report
from .errors import DomainError
from .genfun import GenFunPoint, diagonal_gf_bs, eval_f_bs, eval_f_tms, eval_g_bs, eval_g_tms
from .numerics import log_binomial
from .params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from .probabilities import bs_prob_direct, bs_prob_double_sum, bs_prob_exact, tms_prob, tms_prob_exact
from .recurrences import (
    ClassicalTable,
    ProbabilityTable,
    bs_table_convolution,
    bs_table_direct,
    bs_table_recurrence,
    tms_table_direct,
    tms_table_recurrence,
)
from .amplitudes import bs_amplitude, tms_amplitude
from .verify import SUITE_NAMES, hom_sweep, run_suite, tms_sweep

_NORMALIZATION_TOLERANCE = 1e-10

# Largest table a command builds, in entries (80 MB as float64), checked
# before any allocation.
_MAX_TABLE_ENTRIES = 10_000_000
# Most work a rational double sum (prob --method convolution --precision
# rational) takes, in terms times the bits of its largest term: (999, 999,
# 999) at 1/3, 10**6 terms of at most 5983 bits, takes about 7 s on a 2-vCPU
# x86_64 Xeon VM (Python 3.11).
_MAX_DOUBLE_SUM_WORK = 5_982_383_802


def _param(device: str, eta: str | None, lam: str | None, rational: bool = False) -> BeamSplitterParam | SqueezerParam:
    """The BeamSplitterParam or SqueezerParam of the --eta or --lambda
    literal; rational precision takes only p/q literals."""
    bs = device == "bs"
    text = eta if bs else lam
    if text is None:
        raise click.UsageError("--eta is required for the beam splitter" if bs else
                               "--lambda is required for the squeezer")
    if rational and "/" not in text:
        raise click.UsageError("rational precision requires a p/q parameter literal")
    try:
        return (BeamSplitterParam if bs else SqueezerParam).from_value(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad parameter {text!r}: {exc}") from exc


class _FiniteFloat(click.types.FloatParamType):
    """A float option that refuses nan and the infinities (exit 2)."""

    name = "finite float"

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return x


def _check_table_size(device: Device, imax: int, kmax: int, nmax: int | None = None, what: str = "the table") -> None:
    """Refuse (exit 2) `what`, a table above _MAX_TABLE_ENTRIES, before it is
    built: beam-splitter rows (i, k) hold i+k+1 values, squeezer rows nmax+1."""
    if device is Device.BS:
        entries = (imax + 1) * (kmax + 1) * (imax + kmax + 2) // 2
    else:
        entries = (imax + 1) * (kmax + 1) * (nmax + 1)
    if entries > _MAX_TABLE_ENTRIES:
        raise click.UsageError(f"{what} would hold {entries} entries, above the limit of {_MAX_TABLE_ENTRIES}")


def _amplitude(pc: PhotonConfig, param: BeamSplitterParam | SqueezerParam, method: str) -> float:
    """The amplitude of pc by the route `method`, after refusing (exit 2) a
    convolution whose photon-addition fill of block (i, k), or of the
    squeezer's bridge block (i, n+k-i), is above the entry limit."""
    if method == "convolution":
        k = pc.k if pc.device is Device.BS else pc.m
        _check_table_size(Device.BS, pc.i, k, what=f"the photon-addition fill of block (i={pc.i}, k={k})")
    return (bs_amplitude if pc.device is Device.BS else tms_amplitude)(pc, param, method=method)


def _build_table(device: str, method: str, imax: int, kmax: int, nmax: int | None,
                 param: BeamSplitterParam | SqueezerParam, precision: str) -> ProbabilityTable:
    """The --device --method table, after refusing a squeezer convolution table
    and one above the entry limit; the builders are looked up when called."""
    if device == "tms" and method == "convolution":
        raise click.UsageError("squeezer tables support direct and recurrence methods")
    _check_table_size(Device(device), imax, kmax, nmax)
    if device == "bs":
        builder = {"direct": bs_table_direct, "convolution": bs_table_convolution,
                   "recurrence": bs_table_recurrence}[method]
        return builder(imax, kmax, param, precision)
    builder = tms_table_direct if method == "direct" else tms_table_recurrence
    return builder(imax, kmax, nmax, param, precision)


def _check_out(out: str | None) -> None:
    """Refuse (exit 2) before any work, with _emit's error, an --out that is a
    directory or lies in no directory. Nothing is opened here, and _emit
    moves a regular --out file into place only once every chunk is written,
    so a command that fails at any phase leaves no new --out file and an
    earlier one as it was."""
    if out is not None and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
        raise click.UsageError(f"cannot write --out {out}: {os.strerror(code)}")


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks of text in turn to stdout or to --out. A new or
    regular --out file is written to a temporary file in its directory and
    moved onto --out with os.replace once the last chunk is written: a new
    file with the mode of the one it replaces, or for a new --out 0o666 less
    the umask, as open(out, "w") gives it. On any failure the temporary file
    is removed and --out is left as it was. Any other --out (a device, a
    FIFO) is written in place; text written there or on stdout cannot be
    taken back. An --out that cannot be written (a missing parent directory,
    a directory) is a usage error."""
    if out is None:
        for chunk in chunks:
            click.echo(chunk, nl=False)
        return
    try:
        try:
            mode = os.stat(out).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
            return
        target = os.path.realpath(out)  # through a symlink, as open(out, "w") writes
        tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.urandom(6).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open(out, "w")
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise click.UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
        raise


@contextlib.contextmanager
def _text_limit():
    """Turn the ValueError of an int too long for text, raised as a rational
    value is printed, into a usage error (exit 2) that names the limit,
    sys.get_int_max_str_digits(); any other ValueError passes."""
    try:
        yield
    except ValueError as exc:
        if "int_max_str_digits" not in str(exc):
            raise
        raise click.UsageError(
            f"a rational value has more digits than the {sys.get_int_max_str_digits()} that Python turns into "
            "text (sys.get_int_max_str_digits); use float precision or smaller counts"
        ) from exc


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="print timing diagnostics to stderr")
@click.pass_context
def main(ctx: click.Context, verbose: bool) -> None:
    """Fock-basis transition amplitudes and probabilities for two-mode
    Gaussian couplers (beam splitter and two-mode squeezer).

    The process is single-threaded; table builds are vectorized internally.
    """
    ctx.obj = {"verbose": verbose}


def _note(record: dict) -> None:
    """Print the record as one JSON line on stderr under -v."""
    ctx = click.get_current_context(silent=True)
    if ctx is not None and ctx.obj and ctx.obj.get("verbose"):
        click.echo(json.dumps(record), err=True)


@main.command()
@click.option("--device", type=click.Choice(["bs", "tms"]), required=True)
@click.option("--i", "i", type=click.IntRange(min=0), required=True)
@click.option("--k", "k", type=click.IntRange(min=0), required=True)
@click.option("--n", "n", type=click.IntRange(min=0), required=True)
@click.option("--eta", default=None, help="transmittance, decimal or p/q")
@click.option("--lambda", "lam", default=None, help="squeezing parameter, decimal or p/q")
@click.option("--method", type=click.Choice(["direct", "convolution"]), default="direct")
def amp(device: str, i: int, k: int, n: int, eta: str | None, lam: str | None, method: str) -> None:
    """Print one transition amplitude."""
    param = _param(device, eta, lam)
    click.echo(repr(_amplitude(PhotonConfig(i, k, n, Device(device)), param, method)))


@main.command()
@click.option("--device", type=click.Choice(["bs", "tms"]), required=True)
@click.option("--i", "i", type=click.IntRange(min=0), required=True)
@click.option("--k", "k", type=click.IntRange(min=0), required=True)
@click.option("--n", "n", type=click.IntRange(min=0), required=True)
@click.option("--eta", default=None)
@click.option("--lambda", "lam", default=None)
@click.option("--precision", type=click.Choice(["float", "rational"]), default="float")
@click.option("--method", type=click.Choice(["direct", "convolution", "recurrence", "exact"]), default="direct")
def prob(device, i, k, n, eta, lam, precision, method) -> None:
    """Print one transition probability."""
    if method == "exact":
        precision, method = "rational", "direct"
    rational, bs = precision == "rational", device == "bs"
    param = _param(device, eta, lam, rational)
    pc = PhotonConfig(i, k, n, Device(device))
    if method == "recurrence":
        value = _build_table(device, method, i, k, n, param, precision).value(i, k, n)
    elif method == "convolution" and rational:
        if not bs:
            raise click.UsageError(
                "squeezer amplitudes are irrational; rational precision supports "
                "direct, exact and recurrence methods"
            )
        lo, hi = max(0, n - k), min(i, n)  # m and j run over lo..hi, so e = k-n+m+j
        (a, b), terms, bits = param.eta_exact.as_integer_ratio(), max(0, hi - lo + 1) ** 2, 0.0
        if terms:  # Vandermonde bounds the binomials; a**e (b-a)**(i+k-e) is largest at an end of e
            logs = math.log2(max(a, 1)), math.log2(max(b - a, 1))  # a zero factor makes its terms 0
            power = max(e * logs[0] + (i + k - e) * logs[1] for e in (k - n + 2 * lo, k - n + 2 * hi))
            bits = (log_binomial(i + k, n) + log_binomial(i + k, i)) / math.log(2) + power
        if terms * bits > _MAX_DOUBLE_SUM_WORK:
            raise click.UsageError(f"the double sum of (i={i}, k={k}, n={n}) would take {terms} terms of up to "
                                   f"{math.ceil(bits)} bits, above the limit of {_MAX_DOUBLE_SUM_WORK} term-bits")
        value = bs_prob_double_sum(i, k, n, param.eta_exact)
    elif method == "convolution":
        a = _amplitude(pc, param, method)
        value = a * a  # the table's entry bit for bit; a ** 2 may not be
    elif rational:
        value = bs_prob_exact(pc, param.eta_exact) if bs else tms_prob_exact(pc, param.lam_exact)
    else:
        value = (bs_prob_direct if bs else tms_prob)(pc, param)
    with _text_limit():
        click.echo(str(value) if rational else repr(float(value)))


def _table_chunks(table: ProbabilityTable, fmt: str):
    """The CSV or JSON export, one chunk of text per (i, k) row.

    The text is byte for byte what csv.writer and json.dumps(indent=2) write
    for the entries (i, k, n, m, value) with m >= 0: floats in shortest
    round-trip form, rationals as canonical fractions (quoted in JSON), the
    JSON "param" too. m is read off the row layout: beam-splitter rows hold
    n = 0..i+k with m = i+k-n, and squeezer rows start at n = max(0, i-k),
    the first n with m = n+k-i >= 0.
    """
    rational = table.precision == "rational"
    bs = table.device is Device.BS
    if fmt == "csv":
        yield "i,k,n,m,value\n"
        head, labels, tail = "{},{},", "{},{},", "\n"
    else:
        exact = table.param.eta_exact if bs else table.param.lam_exact
        param = str(exact) if rational else (table.param.eta if bs else table.param.lam)
        header = (table.device.value, param, table.method)
        yield '{\n  "device": %s,\n  "param": %s,\n  "method": %s,\n  "entries": [' % tuple(map(json.dumps, header))
        quote = '"' if rational else ""
        head = ',\n    {{\n      "i": {},\n      "k": {},\n'
        labels, tail = '      "n": {},\n      "m": {},\n      "value": ' + quote, quote + "\n    }"
    first = fmt == "json"  # the first JSON entry takes no leading comma
    layouts = {}  # the "n, m" texts of a row, by i+k (beam splitter) or k-i (squeezer)
    for (i, k) in sorted(table):
        row = table[(i, k)]
        start = 0 if bs else max(0, i - k)
        values = map(str, row[start:]) if rational else map(repr, row[start:].tolist())
        layout = i + k if bs else k - i
        if layout not in layouts:
            m = range(i + k, -1, -1) if bs else range(start + k - i, len(row) + k - i)
            layouts[layout] = [labels.format(n, m) for n, m in zip(range(start, len(row)), m)]
        lead = head.format(i, k)
        chunk = lead + (tail + lead).join(map(operator.add, layouts[layout], values)) + tail if start < len(row) else ""
        if first and chunk:
            chunk, first = chunk[1:], False
        yield chunk
    if fmt == "json":
        yield "\n  ]\n}\n"


@main.command()
@click.option("--device", type=click.Choice(["bs", "tms"]), required=True)
@click.option("--imax", type=click.IntRange(min=0), required=True)
@click.option("--kmax", type=click.IntRange(min=0), required=True)
@click.option("--nmax", type=click.IntRange(min=0), default=None, help="output cutoff, squeezer tables only")
@click.option("--eta", default=None)
@click.option("--lambda", "lam", default=None)
@click.option("--precision", type=click.Choice(["float", "rational"]), default="float")
@click.option("--method", type=click.Choice(["direct", "convolution", "recurrence", "exact"]), default="recurrence")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
def table(device, imax, kmax, nmax, eta, lam, precision, method, fmt, out) -> None:
    """Build a probability table and write it as CSV or JSON."""
    _check_out(out)
    if method == "exact":
        precision, method = "rational", "direct"
    param = _param(device, eta, lam, precision == "rational")
    if device == "bs" and nmax is not None:
        raise click.UsageError("--nmax applies to squeezer tables only")
    if device == "tms" and nmax is None:
        raise click.UsageError("--nmax is required for squeezer tables")
    import numpy  # the first table loads numpy; loaded before the clock, build_s times the build alone

    started = time.perf_counter()
    t = _build_table(device, method, imax, kmax, nmax, param, precision)
    built = time.perf_counter()
    residual = t.normalization_max_residual()
    checked = time.perf_counter()
    record = {"route": method, "rows": len(t), "build_s": built - started,
              "check_s": checked - built, "emit_s": None, "normalization_residual": residual}
    if not residual <= _NORMALIZATION_TOLERANCE:  # a nan residual fails too
        _note(record)
        click.echo(f"normalization self-check failed: residual {residual:.3e}", err=True)
        sys.exit(1)
    with _text_limit():
        _emit(_table_chunks(t, fmt), out)
    record["emit_s"] = time.perf_counter() - checked
    _note(record)


@main.command()
@click.option("--which", type=click.Choice(["g", "f", "diag"]), required=True)
@click.option("--device", type=click.Choice(["bs", "tms"]), default="bs")
@click.option("--x", type=_FiniteFloat(), default=0.0)
@click.option("--y", type=_FiniteFloat(), default=0.0)
@click.option("--z", type=_FiniteFloat(), default=0.0)
@click.option("--w", type=_FiniteFloat(), default=0.0)
@click.option("--eta", default=None)
@click.option("--lambda", "lam", default=None)
def genfun(which, device, x, y, z, w, eta, lam) -> None:
    """Evaluate a closed-form generating function at a real point; a point
    outside its domain, or where its value overflows the float range or is
    not finite (DomainError), exits 2 naming the point."""
    if which == "diag" and device != "bs":
        raise click.UsageError("the diagonal generating function is a beam-splitter object")
    param = _param(device, eta, lam)
    pt = GenFunPoint(x, y, z, w)
    try:
        if which == "diag":
            value = diagonal_gf_bs(x, z, param)
        elif device == "bs":
            value = (eval_g_bs if which == "g" else eval_f_bs)(pt, param)
        else:
            value = (eval_g_tms if which == "g" else eval_f_tms)(pt, param)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(repr(value))


@main.command()
@click.option("--suite", type=click.Choice(SUITE_NAMES + ["all"]), required=True)
@click.option("--scale", type=click.Choice(["full"]), default="full", expose_value=False,
              help="accepted so that existing command lines still parse; every suite runs at one scale")
@click.option("--out", type=click.Path(), default=None)
def verify(suite, out) -> None:
    """Run a named invariant suite; exit 0 on all-pass, 1 on any failure."""
    _check_out(out)
    result = run_suite(suite)
    _emit([json.dumps(result.to_dict(), indent=2) + "\n"], out)
    if not result.ok:
        sys.exit(1)


@main.command()
@click.option(
    "--kind",
    type=click.Choice(["hom-sweep", "tms-sweep", "diag-asymptotic", "quantum-classical"]),
    required=True,
)
@click.option("--steps", type=click.IntRange(min=2), default=101)
@click.option("--i", "i", type=click.IntRange(min=0), default=100,
              help="equal input count (diag-asymptotic) or input a count (quantum-classical)")
@click.option("--k", "k", type=click.IntRange(min=0), default=None, help="input b count for quantum-classical")
@click.option("--eta", default="1/2", help="transmittance for quantum-classical")
@click.option("--out", type=click.Path(), default=None)
def plotdata(kind, steps, i, k, eta, out) -> None:
    """Emit plot-ready CSV curves (suppression sweeps, asymptotic overlays,
    quantum versus distinguishable-photon output distributions)."""
    _check_out(out)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if kind in ("hom-sweep", "tms-sweep"):
        column, sweep = ("eta", hom_sweep) if kind == "hom-sweep" else ("lambda", tms_sweep)
        writer.writerow([column, "prob"])
        for x, v in sweep(steps):
            writer.writerow([repr(x), repr(v)])
    elif kind == "quantum-classical":
        k = i if k is None else k
        products = (i + 1) * (k + 1)  # the classical row's convolution of two binomial rows
        if products > _MAX_TABLE_ENTRIES:
            raise click.UsageError(f"the classical row of (i={i}, k={k}) would take {products} convolution "
                                   f"products, above the limit of {_MAX_TABLE_ENTRIES}")
        p = _param("bs", eta, None)
        table = ClassicalTable(p)
        writer.writerow(["n", "quantum", "classical"])
        for n in range(i + k + 1):
            quantum = bs_prob_direct(PhotonConfig(i, k, n), p)
            writer.writerow([n, repr(quantum), repr(float(table.prob(i, k, n)))])
    else:
        if i < 1:
            raise click.UsageError("--i must be positive")
        # convergence_report builds no table; its exact-cell work grows with
        # --i, which is bounded like an i x i beam-splitter table
        _check_table_size(Device.BS, i, i)
        report = convergence_report([i], Device.BS)
        detail = report.detail[i]
        writer.writerow(["n", "exact", "predicted"])
        for n, exact, pred in zip(detail["n"], detail["exact"], detail["predicted"]):
            writer.writerow([int(n), repr(exact), repr(pred)])
    _emit([buf.getvalue()], out)


if __name__ == "__main__":
    main()
