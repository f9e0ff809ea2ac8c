import csv
import hashlib
import io
import json
import math
import os
import stat
import sys
from fractions import Fraction

import numpy
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import fockmix.amplitudes
import fockmix.asymptotics
import fockmix.cli
import fockmix.numerics
import fockmix.probabilities
import fockmix.verify
from fock_oracle import moved, render_table_reference
from fockmix import recurrences
from fockmix.cli import main
from fockmix.params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from fockmix.probabilities import bs_prob_exact, tms_prob_exact


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_amp_examples():
    r = run("amp", "--device", "bs", "--i", "1", "--k", "1", "--n", "1", "--eta", "0.5")
    assert r.exit_code == 0
    assert abs(float(r.output)) <= 1e-15
    r = run("amp", "--device", "tms", "--i", "0", "--k", "0", "--n", "0", "--lambda", "0.5")
    assert r.exit_code == 0
    assert r.output.strip() == "0.7071067811865476"
    r = run("amp", "--device", "bs", "--i", "0", "--k", "0", "--n", "0", "--eta", "0.9")
    assert float(r.output) == 1.0
    r = run("amp", "--device", "bs", "--i", "2", "--k", "1", "--n", "2", "--eta", "0.4",
            "--method", "convolution")
    assert r.exit_code == 0


def _direct_sum_sign(i: int, k: int, n: int, eta: Fraction) -> int:
    """Sign of the direct amplitude sum with its positive common factor removed."""
    ratio = eta / (1 - eta)
    total = sum(
        (-1) ** (i - m) * math.comb(i, m) * math.comb(k, n - m) * ratio**m
        for m in range(max(0, n - k), min(i, n) + 1)
    )
    return (total > 0) - (total < 0)


@pytest.mark.parametrize(
    "args, exact, sign",
    [
        (
            ("--device", "bs", "--i", "200", "--k", "200", "--n", "200", "--eta", "0.3"),
            bs_prob_exact(PhotonConfig(200, 200, 200), Fraction(3, 10)),
            _direct_sum_sign(200, 200, 200, Fraction(3, 10)),
        ),
        (
            ("--device", "tms", "--i", "150", "--k", "150", "--n", "150", "--lambda", "0.6"),
            tms_prob_exact(PhotonConfig(150, 150, 150, Device.TMS), Fraction(3, 5)),
            _direct_sum_sign(150, 150, 150, Fraction(2, 5)),
        ),
    ],
)
def test_amp_at_high_total_is_root_of_exact_probability(args, exact, sign):
    r = run("amp", *args)
    assert r.exit_code == 0
    v = float(r.output)
    assert abs(v) <= 1.0
    assert abs(v * v - exact) <= 1e-12
    assert (v > 0) - (v < 0) == sign


def test_amp_usage_errors():
    assert run("amp", "--device", "bs", "--i", "1", "--k", "1", "--n", "1").exit_code == 2
    assert run("amp", "--device", "tms", "--i", "1", "--k", "1", "--n", "1",
               "--lambda", "1.5").exit_code == 2
    assert run("amp", "--device", "bs", "--i", "-1", "--k", "1", "--n", "1",
               "--eta", "0.5").exit_code == 2
    assert run("prob", "--device", "bs", "--i", "1", "--k", "1", "--n", "-1",
               "--eta", "0.5").exit_code == 2


def test_prob_rational_outputs():
    r = run("prob", "--device", "tms", "--i", "1", "--k", "1", "--n", "1",
            "--lambda", "1/2", "--precision", "rational")
    assert r.exit_code == 0 and r.output.strip() == "0"
    r = run("prob", "--device", "bs", "--i", "1", "--k", "1", "--n", "0",
            "--eta", "1/2", "--precision", "rational")
    assert r.output.strip() == "1/2"
    r = run("prob", "--device", "bs", "--i", "2", "--k", "0", "--n", "1",
            "--eta", "1/3", "--method", "exact")
    assert r.output.strip() == "4/9"
    r = run("prob", "--device", "bs", "--i", "0", "--k", "0", "--n", "0", "--eta", "0.3")
    assert float(r.output) == 1.0


@pytest.mark.parametrize("n", [0, 7, 20, 33, 40])
def test_prob_rational_convolution_is_the_exact_value_at_total_40(n):
    args = ("prob", "--device", "bs", "--i", "20", "--k", "20", "--n", str(n), "--eta", "1/3")
    conv = run(*args, "--precision", "rational", "--method", "convolution")
    exact = run(*args, "--method", "exact")
    assert conv.exit_code == exact.exit_code == 0
    assert conv.output == exact.output
    assert Fraction(conv.output.strip()) == bs_prob_exact(PhotonConfig(20, 20, n), Fraction(1, 3))


def test_prob_rational_tms_rejects_convolution():
    r = run("prob", "--device", "tms", "--i", "1", "--k", "1", "--n", "1",
            "--lambda", "1/2", "--precision", "rational", "--method", "convolution")
    assert r.exit_code == 2


def test_prob_rational_requires_ratio_literal():
    r = run("prob", "--device", "bs", "--i", "1", "--k", "1", "--n", "1",
            "--eta", "0.3", "--precision", "rational")
    assert r.exit_code == 2
    r = run("prob", "--device", "bs", "--i", "1", "--k", "1", "--n", "1",
            "--eta", "0.3", "--method", "exact")
    assert r.exit_code == 2


_UNWRITABLE_OUT = [
    ("table", "--device", "bs", "--imax", "2", "--kmax", "2", "--eta", "0.3"),
    ("verify", "--suite", "energy"),
    ("plotdata", "--kind", "hom-sweep", "--steps", "3"),
]


@pytest.mark.parametrize("argv", _UNWRITABLE_OUT, ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_an_unwritable_out_is_a_usage_error(monkeypatch, tmp_path, argv, where):
    # refused before any work: no table is built, no suite or sweep runs
    def refuse(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    monkeypatch.setattr(recurrences, "bs_table_recurrence", refuse)
    for name in ("run_suite", "hom_sweep"):
        monkeypatch.setattr(fockmix.verify, name, refuse)
    out = tmp_path / "missing" / "x.csv" if where == "missing-parent" else tmp_path
    r = run(*argv, "--out", str(out))
    assert r.exit_code == 2
    assert r.exception is None or isinstance(r.exception, SystemExit)
    (line,) = [x for x in r.output.splitlines() if x.startswith("Error:")]
    assert f"cannot write --out {out}" in line


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("existing", [False, True])
def test_a_failure_mid_emit_leaves_no_out_file(monkeypatch, tmp_path, error, existing):
    # The export goes to a temporary file in the --out directory and moves
    # into place only once written: a failure after the first chunk leaves
    # neither a cut --out nor the temporary file, and an earlier --out as it was.
    chunks = fockmix.cli._table_chunks

    def cut(*args):
        yield next(chunks(*args))
        raise error("emit failed")

    monkeypatch.setattr(fockmix.cli, "_table_chunks", cut)
    out = tmp_path / "t.csv"
    if existing:
        out.write_text("old")
    r = run("table", "--device", "bs", "--imax", "2", "--kmax", "2", "--eta", "0.3", "--out", str(out))
    assert r.exit_code not in (0, 2)
    assert [p.name for p in tmp_path.iterdir()] == (["t.csv"] if existing else [])
    assert not existing or out.read_text() == "old"


def test_an_out_file_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    # A new --out has the mode open(out, "w") gives a new file; a 0o600
    # export written over stays 0o600, not the umask's mode.
    argv = ("table", "--device", "bs", "--imax", "2", "--kmax", "2", "--eta", "0.3", "--out")
    out = tmp_path / "t.csv"
    reference = tmp_path / "reference"
    reference.touch()
    assert run(*argv, str(out)).exit_code == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    out.chmod(0o600)
    assert run(*argv, str(out)).exit_code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reference", "t.csv"]


def test_an_out_that_is_no_regular_file_takes_the_text_in_place(tmp_path):
    # A FIFO, like a device such as /dev/null, is written as it is and stays
    # what it was, not replaced by a regular file holding the table.
    argv = ("table", "--device", "bs", "--imax", "2", "--kmax", "2", "--eta", "0.3")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the few hundred bytes fit the pipe's buffer
    try:
        r = run(*argv, "--out", str(fifo))
        text = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert r.exit_code == 0
    assert text.decode() == run(*argv).output
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.fixture
def short_text_limit():
    """Python's limit on the digits of an int turned into text, lowered to its floor of 640 for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def test_a_rational_value_past_the_text_limit_exits_2_naming_it(short_text_limit, tmp_path):
    # (700, 700, 700) at 1/3 lies over 3**1400, 668 digits, and the rational
    # row of total 65 at 1/10**10 over 10**650; the table fails mid-emit and
    # leaves no file. Just below the limit both print.
    prob = ("prob", "--device", "bs", "--k", "700", "--n", "700", "--eta", "1/3", "--precision", "rational")
    table = ("table", "--device", "bs", "--kmax", "0", "--eta", "1/10000000000", "--precision", "rational",
             "--method", "recurrence")
    out = tmp_path / "t.csv"
    for argv in [(*prob, "--i", "700"), (*table, "--imax", "70", "--out", str(out))]:
        r = run(*argv)
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit), argv
        (line,) = [x for x in r.output.splitlines() if x.startswith("Error:")]
        assert "640" in line and "sys.get_int_max_str_digits" in line
    assert list(tmp_path.iterdir()) == []
    below = run(*prob, "--i", "580")
    assert below.exit_code == 0 and Fraction(below.output) == bs_prob_exact(PhotonConfig(580, 700, 700), Fraction(1, 3))
    assert run(*table, "--imax", "60").exit_code == 0


def test_prob_convolution_is_the_table_entry_near_the_direct_route():
    argv = ("prob", "--device", "bs", "--i", "20", "--k", "20", "--n", "20", "--eta", "0.37")
    conv = float(run(*argv, "--method", "convolution").output)
    assert conv == recurrences.bs_table_convolution(20, 20, BeamSplitterParam(0.37)).value(20, 20, 20)
    assert abs(conv - float(run(*argv).output)) <= 1e-15


def test_prob_methods_agree():
    base = None
    for method in ("direct", "convolution", "recurrence"):
        r = run("prob", "--device", "bs", "--i", "3", "--k", "2", "--n", "2",
                "--eta", "0.35", "--method", method)
        assert r.exit_code == 0
        value = float(r.output)
        base = value if base is None else base
        assert abs(value - base) <= 1e-11
    for method in ("direct", "recurrence"):
        r = run("prob", "--device", "tms", "--i", "2", "--k", "1", "--n", "2",
                "--lambda", "2/5", "--precision", "rational", "--method",
                "exact" if method == "direct" else method)
        assert r.exit_code == 0


def test_table_csv_schema_and_values(tmp_path):
    out = tmp_path / "t.csv"
    r = run("table", "--device", "bs", "--imax", "1", "--kmax", "1", "--eta", "0.5",
            "--format", "csv", "--out", str(out))
    assert r.exit_code == 0
    text = out.read_text(encoding="utf-8")
    assert "\r" not in text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert set(rows[0]) == {"i", "k", "n", "m", "value"}
    values = {(int(x["i"]), int(x["k"]), int(x["n"]), int(x["m"])): float(x["value"]) for x in rows}
    assert values[(1, 1, 1, 1)] == 0.0
    assert values[(1, 1, 0, 2)] == 0.5
    assert values[(1, 1, 2, 0)] == 0.5


def test_table_single_cell():
    r = run("table", "--device", "bs", "--imax", "0", "--kmax", "0", "--eta", "0.4")
    body = r.output.strip().splitlines()
    assert body[0] == "i,k,n,m,value"
    assert body[1:] == ["0,0,0,0,1.0"]


def test_table_json_roundtrip():
    r = run("table", "--device", "bs", "--imax", "3", "--kmax", "2", "--eta", "0.3",
            "--format", "json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert set(doc) == {"device", "param", "method", "entries"}
    assert doc["device"] == "bs" and doc["param"] == 0.3
    sums = {}
    for e in doc["entries"]:
        assert set(e) == {"i", "k", "n", "m", "value"}
        assert e["i"] + e["k"] == e["n"] + e["m"]
        sums.setdefault((e["i"], e["k"]), 0.0)
        sums[(e["i"], e["k"])] += e["value"]
    assert len(sums) == 12
    assert all(abs(s - 1.0) <= 1e-10 for s in sums.values())


def test_table_rational_bit_stable():
    args = ("table", "--device", "bs", "--imax", "4", "--kmax", "4", "--eta", "1/3",
            "--precision", "rational", "--method", "exact")
    first, second = run(*args), run(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    assert "4/9" in first.output


@pytest.mark.parametrize(
    "args, digest",
    [
        (("--device", "bs", "--imax", "40", "--kmax", "40", "--eta", "7/10", "--format", "csv"),
         "30e31cd22365faf56c714bb155b2fa4d5a8b75eb1db8a3527d8b4ae0680bffbe"),
        (("--device", "tms", "--imax", "20", "--kmax", "20", "--nmax", "80", "--lambda", "1/4", "--format", "json"),
         "b6987264007c43c882f187402c81c5388ca45ffae92a0c0b092a5284fc84c18a"),
        (("--device", "bs", "--imax", "10", "--kmax", "10", "--eta", "2/7", "--precision", "rational",
          "--format", "csv"),
         "81b0fb7f046c71c7c3b3bf0d18192a0240f2fde4202e7f8f2daacae391d55c4d"),
        (("--device", "tms", "--imax", "6", "--kmax", "6", "--nmax", "12", "--lambda", "2/5",
          "--precision", "rational", "--format", "json"),
         "09846ae1f6c1ff10d06977fed8b36bc97b7cd33021c5980a6a74fa9fd8bd2be9"),
    ],
    ids=["bs-float-csv", "tms-float-json", "bs-rational-csv", "tms-rational-json"],
)
def test_table_exports_keep_their_golden_bytes(tmp_path, args, digest):
    # Digests of the exports of the row-by-row fills the shell fills replaced,
    # except the float ones, taken from the fill whose vacuum rows are the
    # two-term step from the vacuum cell; the rational JSON one was taken
    # from the whole-document renderer that row-by-row streaming replaced.
    out = tmp_path / "table.out"
    r = run("table", *args, "--out", str(out))
    assert r.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_REFERENCE_SHAPES = [
    # (device, sizes, parameter literal, precision, method); the squeezer
    # rows with i - k > nmax, as in (6, 1, 2) and (7, 2, 3), have no entry.
    ("bs", (0, 0), "0.3", "float", "recurrence"),
    ("bs", (3, 2), "0.3", "float", "recurrence"),
    ("bs", (8, 0), "0", "float", "recurrence"),
    ("bs", (2, 3), "1", "float", "recurrence"),
    ("bs", (4, 4), "1e-12", "float", "recurrence"),
    ("bs", (20, 15), "7/10", "float", "direct"),
    ("bs", (20, 15), "0.3", "float", "convolution"),
    ("bs", (0, 0), "1/3", "rational", "recurrence"),
    ("bs", (5, 4), "1/3", "rational", "recurrence"),
    ("bs", (5, 4), "2/7", "rational", "direct"),
    ("bs", (4, 3), "1/3", "rational", "convolution"),
    ("tms", (0, 0, 0), "0.4", "float", "recurrence"),
    ("tms", (8, 0, 0), "0.4", "float", "recurrence"),
    ("tms", (6, 1, 2), "1/4", "float", "recurrence"),
    ("tms", (3, 4, 6), "1e-12", "float", "recurrence"),
    ("tms", (5, 2, 3), "0.25", "float", "direct"),
    ("tms", (0, 0, 0), "2/5", "rational", "recurrence"),
    ("tms", (7, 2, 3), "2/5", "rational", "recurrence"),
    ("tms", (4, 3, 5), "1/4", "rational", "direct"),
]

_BUILDERS = {
    ("bs", "direct"): recurrences.bs_table_direct,
    ("bs", "convolution"): recurrences.bs_table_convolution,
    ("bs", "recurrence"): recurrences.bs_table_recurrence,
    ("tms", "direct"): recurrences.tms_table_direct,
    ("tms", "recurrence"): recurrences.tms_table_recurrence,
}


def _table_argv(device, sizes, literal, precision, method, fmt):
    argv = ["table", "--device", device, "--imax", str(sizes[0]), "--kmax", str(sizes[1]),
            "--eta" if device == "bs" else "--lambda", literal,
            "--precision", precision, "--method", method, "--format", fmt]
    return argv + (["--nmax", str(sizes[2])] if device == "tms" else [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("device, sizes, literal, precision, method", _REFERENCE_SHAPES)
def test_table_export_matches_the_reference_renderer(tmp_path, device, sizes, literal, precision, method, fmt):
    param = (BeamSplitterParam if device == "bs" else SqueezerParam).from_value(literal)
    expected = render_table_reference(_BUILDERS[(device, method)](*sizes, param, precision), fmt).encode("utf-8")
    argv = _table_argv(device, sizes, literal, precision, method, fmt)
    streamed = run(*argv)
    assert streamed.exit_code == 0 and streamed.stdout_bytes == expected
    out = tmp_path / f"table.{fmt}"
    written = run(*argv, "--out", str(out))
    assert written.exit_code == 0 and written.stdout_bytes == b""
    assert out.read_bytes() == expected


@pytest.mark.parametrize("argv, spelled, canonical", [
    (("--device", "bs", "--imax", "3", "--kmax", "2"), ("--eta", "2/4"), ("--eta", "1/2")),
    (("--device", "tms", "--imax", "3", "--kmax", "2", "--nmax", "5"), ("--lambda", "4/10"), ("--lambda", "2/5")),
], ids=["bs", "tms"])
def test_rational_json_export_is_the_same_for_every_spelling_of_the_parameter(argv, spelled, canonical):
    tail = ("--precision", "rational", "--format", "json")
    exports = [run("table", *argv, *literal, *tail) for literal in (spelled, canonical)]
    assert [r.exit_code for r in exports] == [0, 0]
    assert exports[0].stdout_bytes == exports[1].stdout_bytes
    assert json.loads(exports[0].output)["param"] == canonical[1]


def test_table_past_the_float_range_of_binomials(tmp_path):
    out = tmp_path / "t.csv"
    r = run("table", "--device", "bs", "--imax", "1100", "--kmax", "0", "--eta", "0.5", "--out", str(out))
    assert r.exit_code == 0
    checked = 0
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        i, k, n, m, value = line.split(",")
        if int(i) in (1030, 1100):
            assert abs(float(value) - Fraction(math.comb(int(i), int(n)), 2 ** int(i))) <= 1e-14
            checked += 1
    assert checked == 1031 + 1101


def test_table_tms_needs_nmax():
    r = run("table", "--device", "tms", "--imax", "2", "--kmax", "2", "--lambda", "0.4")
    assert r.exit_code == 2
    r = run("table", "--device", "tms", "--imax", "2", "--kmax", "2", "--nmax", "6",
            "--lambda", "0.4")
    assert r.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(r.output)))
    assert all(int(x["m"]) >= 0 for x in rows)
    assert all(int(x["m"]) == int(x["n"]) + int(x["k"]) - int(x["i"]) for x in rows)


@pytest.mark.parametrize("nmax", ["0", "1", "40"])
def test_table_refuses_an_nmax_for_the_beam_splitter(nmax):
    r = run("table", "--device", "bs", "--imax", "2", "--kmax", "2", "--nmax", nmax, "--eta", "0.3")
    assert r.exit_code == 2
    assert r.output.endswith("Error: --nmax applies to squeezer tables only\n")


def test_table_bad_sizes():
    r = run("table", "--device", "bs", "--imax", "-2", "--kmax", "1", "--eta", "0.5")
    assert r.exit_code == 2
    r = run("table", "--device", "tms", "--imax", "1", "--kmax", "1", "--nmax", "-1", "--lambda", "0.5")
    assert r.exit_code == 2


@pytest.mark.parametrize("literal", ["abc", "1/0", "1.5/2"])
@pytest.mark.parametrize("param", [("bs", "--eta"), ("tms", "--lambda")])
def test_malformed_parameter_literals_exit_2(literal, param):
    device, flag = param
    prob = run("prob", "--device", device, "--i", "1", "--k", "1", "--n", "1", flag, literal)
    table = run("table", "--device", device, "--imax", "2", "--kmax", "2", "--nmax", "4",
                flag, literal)
    assert (prob.exit_code, table.exit_code) == (2, 2)


@pytest.mark.parametrize("argv", [
    ("--device", "bs", "--imax", "1000", "--kmax", "1000", "--eta", "0.5"),
    ("--device", "bs", "--imax", "1000", "--kmax", "1000", "--eta", "1/2", "--precision", "rational"),
    ("--device", "tms", "--imax", "300", "--kmax", "300", "--nmax", "300", "--lambda", "0.5"),
])
def test_table_above_the_entry_limit_exits_2_before_any_build(monkeypatch, argv):
    # the library refuses the table before its buffer is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("a buffer was allocated for an oversize table")

    monkeypatch.setattr(numpy, "zeros", refuse)
    r = run("table", *argv)
    assert r.exit_code == 2
    assert "above the limit of 10000000" in r.output


@pytest.mark.parametrize("device, sizes", [("bs", (5, 3)), ("tms", (3, 4, 6))])
def test_table_entry_limit_counts_every_entry_of_the_table(monkeypatch, device, sizes):
    param = (BeamSplitterParam if device == "bs" else SqueezerParam)(0.3)
    entries = sum(len(row) for row in _BUILDERS[(device, "recurrence")](*sizes, param).entries.values())
    argv = _table_argv(device, sizes, "0.3", "float", "recurrence", "csv")[1:]
    monkeypatch.setattr(fockmix.numerics, "_MAX_TABLE_ENTRIES", entries)
    assert run("table", *argv).exit_code == 0
    monkeypatch.setattr(fockmix.numerics, "_MAX_TABLE_ENTRIES", entries - 1)
    r = run("table", *argv)
    assert r.exit_code == 2
    assert f"the table would hold {entries} entries, above the limit of {entries - 1}" in r.output


_TABLE_BUILDING_COMMANDS = [
    ("prob", "--device", "bs", "--i", "6", "--k", "6", "--n", "3", "--eta", "0.5", "--method", "recurrence"),
    ("prob", "--device", "bs", "--i", "6", "--k", "6", "--n", "3", "--eta", "1/2", "--precision", "rational",
     "--method", "recurrence"),
    ("prob", "--device", "tms", "--i", "6", "--k", "6", "--n", "3", "--lambda", "0.5", "--method", "recurrence"),
    ("prob", "--device", "tms", "--i", "6", "--k", "6", "--n", "3", "--lambda", "1/2", "--precision", "rational",
     "--method", "recurrence"),
    ("plotdata", "--kind", "diag-asymptotic", "--i", "6"),
    # the convolution route fills the block (i, k), or the squeezer's bridge block (i, n+k-i)
    ("amp", "--device", "bs", "--i", "6", "--k", "6", "--n", "3", "--eta", "0.5", "--method", "convolution"),
    ("amp", "--device", "tms", "--i", "6", "--k", "6", "--n", "3", "--lambda", "0.5", "--method", "convolution"),
    ("prob", "--device", "bs", "--i", "6", "--k", "6", "--n", "3", "--eta", "0.5", "--method", "convolution"),
    ("prob", "--device", "tms", "--i", "6", "--k", "6", "--n", "3", "--lambda", "0.5", "--method", "convolution"),
]


@pytest.mark.parametrize("argv", _TABLE_BUILDING_COMMANDS)
def test_commands_that_build_tables_refuse_oversize_ones_before_building(monkeypatch, argv):
    # the work itself is refused: a table's buffer, the photon-addition fill,
    # the exact cells of the asymptotic probe
    def refuse(*args, **kwargs):
        raise AssertionError("work began for an oversize table")

    monkeypatch.setattr(numpy, "zeros", refuse)
    monkeypatch.setattr(fockmix.amplitudes, "_photon_addition_shells", refuse)
    monkeypatch.setattr(fockmix.asymptotics, "bs_prob_direct", refuse)
    monkeypatch.setattr(fockmix.numerics, "_MAX_TABLE_ENTRIES", 100)  # each table above holds 154, 196 or 343
    r = run(*argv)
    assert r.exit_code == 2
    assert "above the limit of 100" in r.output


@pytest.mark.parametrize("argv, entries", [
    (_TABLE_BUILDING_COMMANDS[0], 343),  # the 7x7 beam-splitter table, rows of i+k+1
    (_TABLE_BUILDING_COMMANDS[2], 196),  # the 7x7x4 squeezer table
    (_TABLE_BUILDING_COMMANDS[4], 343),  # bounded as a 7x7 beam-splitter table
    (_TABLE_BUILDING_COMMANDS[5], 343),  # the 7x7 block of the fill
    (_TABLE_BUILDING_COMMANDS[6], 154),  # the 7x4 bridge block, m = 3
    (_TABLE_BUILDING_COMMANDS[8], 154),
])
def test_commands_that_build_tables_run_at_the_entry_limit(monkeypatch, argv, entries):
    monkeypatch.setattr(fockmix.numerics, "_MAX_TABLE_ENTRIES", entries)
    assert run(*argv).exit_code == 0
    monkeypatch.setattr(fockmix.numerics, "_MAX_TABLE_ENTRIES", entries - 1)
    r = run(*argv)
    assert r.exit_code == 2
    assert f"would hold {entries} entries, above the limit of {entries - 1}" in r.output


@pytest.mark.parametrize("command", ["amp", "prob"])
@pytest.mark.parametrize("device, flag, k, n", [("bs", "--eta", "2000", "2000"), ("tms", "--lambda", "0", "4000")])
def test_a_convolution_refusal_names_the_fill_block(command, device, flag, k, n):
    # the squeezer cell (2000, 0 -> 4000) fills its bridge block (i, n+k-i) = (2000, 2000)
    r = run(command, "--device", device, "--i", "2000", "--k", k, "--n", n, flag, "0.37", "--method", "convolution")
    assert r.exit_code == 2
    assert ("the photon-addition fill of block (i=2000, k=2000) would hold 8012006001 entries, "
            "above the limit of 10000000") in r.output


@pytest.mark.parametrize("command", ["amp", "prob"])
def test_a_convolution_cell_past_the_photon_count_is_zero_at_any_size(command):
    # n > i+k conserves no photon count: the cell is 0.0 with no fill, as on
    # the direct route, though the block (2000, 2000) is above the budget
    argv = ("--device", "bs", "--i", "2000", "--k", "2000", "--n", "5000", "--eta", "0.37")
    for method in ("convolution", "direct"):
        r = run(command, *argv, "--method", method)
        assert (r.exit_code, r.output) == (0, "0.0\n")


def test_an_oversize_asymptotic_probe_is_refused_naming_the_probe():
    r = run("plotdata", "--kind", "diag-asymptotic", "--i", "300")
    assert r.exit_code == 2
    assert ("the largest probe 300, bounded as a 300 x 300 beam-splitter table, would hold 27270901 entries, "
            "above the limit of 10000000") in r.output


def test_table_self_check_failure_exits_1(monkeypatch):
    from fockmix.recurrences import ProbabilityTable

    monkeypatch.setattr(ProbabilityTable, "normalization_max_residual", lambda self: 1.0)
    r = run("table", "--device", "bs", "--imax", "1", "--kmax", "1", "--eta", "0.5")
    assert r.exit_code == 1


@pytest.mark.parametrize("device, builder", [("bs", "bs_table_recurrence"), ("tms", "tms_table_recurrence")])
def test_table_with_a_nan_row_exits_1_and_writes_nothing(monkeypatch, tmp_path, device, builder):
    original = getattr(recurrences, builder)

    def with_nan_row(*args):
        return moved(original(*args), (1, 1), 1, math.nan)

    monkeypatch.setattr(recurrences, builder, with_nan_row)
    argv = _table_argv(device, (2, 2, 4), "0.5", "float", "recurrence", "csv")
    out = tmp_path / "t.csv"
    r = run(*argv, "--out", str(out))
    assert r.exit_code == 1
    assert r.stdout_bytes == b""
    assert not out.exists()
    streamed = run("-v", *argv)
    assert streamed.exit_code == 1 and streamed.stdout_bytes == b""
    record = json.loads(streamed.stderr.splitlines()[0])
    assert record["emit_s"] is None and math.isnan(record["normalization_residual"])


def test_verbose_diagnostics_on_stderr():
    r = CliRunner().invoke(main, ["-v", "table", "--device", "bs", "--imax", "2",
                                  "--kmax", "2", "--eta", "0.5"])
    assert r.exit_code == 0
    lines = r.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"route", "rows", "build_s", "check_s", "emit_s", "normalization_residual"}
    assert record["route"] == "recurrence"
    assert record["rows"] == 9
    assert all(record[key] >= 0.0 for key in ("build_s", "check_s", "emit_s"))
    assert 0.0 <= record["normalization_residual"] <= 1e-10
    assert r.stdout.startswith("i,k,n,m,value\n")
    assert len(r.stdout.splitlines()) == 1 + sum(i + k + 1 for i in range(3) for k in range(3))


def test_genfun_examples():
    r = run("genfun", "--which", "f", "--device", "bs", "--x", "0", "--y", "0",
            "--z", "0", "--w", "0", "--eta", "0.4")
    assert float(r.output) == 1.0
    r = run("genfun", "--which", "f", "--device", "tms", "--x", "0", "--y", "0",
            "--z", "0", "--w", "0", "--lambda", "0.25")
    assert float(r.output) == 0.75
    r = run("genfun", "--which", "diag", "--x", "0", "--z", "0.7", "--eta", "0.5")
    assert float(r.output) == 1.0
    r = run("genfun", "--which", "g", "--device", "tms", "--x", "0.1", "--y", "0.1",
            "--z", "0.1", "--w", "0.1", "--lambda", "0.3")
    assert r.exit_code == 0


def test_genfun_domain_error_exits_2():
    r = run("genfun", "--which", "f", "--device", "bs", "--x", "3", "--y", "0",
            "--z", "1", "--w", "0", "--eta", "0.5")
    assert r.exit_code == 2
    r = run("genfun", "--which", "diag", "--x", "1.5", "--z", "0", "--eta", "0.5")
    assert r.exit_code == 2


@pytest.mark.parametrize("argv, message", [
    (["--which", "g", "--eta", "1/999983", "--y", "0.99", "--z", "-1", "--w", "1e308"],
     "amplitude generating function has no finite float value at GenFunPoint(x=0.0, y=0.99, z=-1.0, w=1e+308)"),
    (["--which", "diag", "--eta", "1/2", "--x", "1e308", "--z", "-1"],
     "diagonal generating function has no finite float value at x=1e+308, z=-1.0"),
    (["--which", "g", "--eta", "1/2", "--x", "nan", "--y", "0", "--z", "0", "--w", "0"],
     "Invalid value for '--x': 'nan' is not a finite number"),
    (["--which", "diag", "--eta", "1/2", "--x", "1e308", "--z", "1e308"],
     "diagonal generating function has no finite float value at x=1e+308, z=1e+308"),
    (["--which", "f", "--eta", "1/2", "--x", "-1e308", "--y", "1e308", "--z", "1e308", "--w", "-1e308"],
     "probability generating function has no finite float value at "
     "GenFunPoint(x=-1e+308, y=1e+308, z=1e+308, w=-1e+308)"),
    (["--which", "g", "--device", "tms", "--lambda", "1/2", "--w", "-inf"],
     "Invalid value for '--w': '-inf' is not a finite number"),
    (["--which", "g", "--eta", "1/2", "--z", "1e309"], "Invalid value for '--z': '1e309' is not a finite number"),
])
def test_genfun_without_a_finite_value_exits_2_naming_the_point(argv, message):
    # An overflow, a value that is not finite and a coordinate that is not
    # finite are usage errors, as a point outside the domain is.
    r = run("genfun", *argv)
    assert r.exit_code == 2
    assert r.output.endswith(f"Error: {message}\n")


# Every command line of amp, prob, table, genfun and plotdata ends in a value
# (exit 0, text that parses) or in a usage error (exit 2 with its message):
# never a traceback, another exit code, nan or inf. Counts are small, so a
# draw runs in milliseconds; the literals are the edges of the parameter
# parsers and of the routes. Each option holds (values it takes, values it
# refuses), and half the lines draw from both.
_COUNTS = ["0", "1", "2", "3", "4", "5"], ["-1", "1.5", "text"]
_LITERALS = (["0", "1", "0/1", "1/1", "1e-300", "5e-324", "1e-12", "1/999983", "-0.0", "1/2", "2/5", "0.3"],
             ["nan", "inf", "1.0000000000000002", "3/2", "1/0", "text"])
_POINTS = ["0", "-1", "0.5", "0.99", "1e308", "-1e308", "5e-324", "0.2"], ["nan", "inf", "-inf", "1e309", "text"]
_DEVICES, _PRECISIONS = (["bs", "tms"], []), (["float", "rational"], [])
_METHODS = ["direct", "convolution", "recurrence", "exact"], []
_GRAMMAR = {
    "amp": {"--device": _DEVICES, "--i": _COUNTS, "--k": _COUNTS, "--n": _COUNTS, "--eta": _LITERALS,
            "--lambda": _LITERALS, "--method": (["direct", "convolution"], [])},
    "prob": {"--device": _DEVICES, "--i": _COUNTS, "--k": _COUNTS, "--n": _COUNTS, "--eta": _LITERALS,
             "--lambda": _LITERALS, "--precision": _PRECISIONS, "--method": _METHODS},
    "table": {"--device": _DEVICES, "--imax": _COUNTS, "--kmax": _COUNTS, "--nmax": _COUNTS, "--eta": _LITERALS,
              "--lambda": _LITERALS, "--precision": _PRECISIONS, "--method": _METHODS,
              "--format": (["csv", "json"], [])},
    "genfun": {"--which": (["g", "f", "diag"], []), "--device": _DEVICES, "--x": _POINTS, "--y": _POINTS,
               "--z": _POINTS, "--w": _POINTS, "--eta": _LITERALS, "--lambda": _LITERALS},
    "plotdata": {"--kind": (["hom-sweep", "tms-sweep", "diag-asymptotic", "quantum-classical"], []),
                 "--steps": (["2", "3", "5"], ["1", "text", "10000001"]), "--i": _COUNTS, "--k": _COUNTS, "--eta": _LITERALS},
}
_RARE = {"bs": {"--lambda", "--nmax"}, "tms": {"--eta"}}  # the options a device takes no value from


@st.composite
def _command_lines(draw):
    """A command with its first option, most of the others and rarely one
    its device takes no value from; a missing or stray option is a usage
    error too."""
    command, edges = draw(st.sampled_from(sorted(_GRAMMAR))), draw(st.booleans())
    argv, rare = [command], _RARE["bs"]
    for index, (flag, (takes, refuses)) in enumerate(_GRAMMAR[command].items()):
        drawn = draw(st.integers(0, 9))
        if index == 0 or (drawn == 0 if flag in rare else drawn > 0):
            value = draw(st.sampled_from(takes + refuses if edges else takes))
            argv += [flag, value]
            rare = _RARE.get(value, rare) if flag == "--device" else rare
    return argv


def _printed_values(command: str, fmt: str, text: str) -> list:
    """Every number a command printed, as the Fraction of its text; nan and
    inf have none, so they raise ValueError."""
    if command in ("amp", "prob", "genfun"):
        (line,) = text.splitlines()
        return [Fraction(line)]
    if command == "table" and fmt == "json":
        def refuse(name):
            raise ValueError(f"{name} in a JSON export")
        entries = json.loads(text, parse_constant=refuse)["entries"]
        return [Fraction(str(e["value"])) for e in entries]
    rows = list(csv.reader(io.StringIO(text)))
    return [Fraction(v) for row in rows[1:] for v in row]


@settings(max_examples=400, deadline=None)  # about 1 s
@given(argv=_command_lines())
def test_every_command_line_ends_in_a_value_or_exit_2(argv):
    r = CliRunner().invoke(main, argv)
    assert r.exit_code in (0, 2) and isinstance(r.exception, (SystemExit, type(None))), (argv, r.exception)
    if r.exit_code == 2:
        assert "Error: " in r.output, argv
    else:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        assert _printed_values(argv[0], fmt, r.stdout), argv


def test_verify_contract(tmp_path):
    r = run("verify", "--suite", "hom")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert set(doc) == {"suite", "cases", "failures", "seconds", "worst_margin"}
    assert doc["suite"] == "hom" and doc["cases"] > 0 and doc["failures"] == []
    assert set(doc["worst_margin"]) == {"margin", "indices", "parameter"} and 0 <= doc["worst_margin"]["margin"] <= 1
    assert run("verify", "--suite", "nonsense").exit_code == 2
    out = tmp_path / "report.json"
    r = run("verify", "--suite", "energy", "--out", str(out))
    assert r.exit_code == 0
    assert json.loads(out.read_text())["suite"] == "energy"


def test_verify_scale_full_is_the_only_scale():
    # --scale full parses, so that existing command lines run the same suite;
    # any other scale is a usage error.
    full = run("verify", "--suite", "hom", "--scale", "full")
    default = run("verify", "--suite", "hom")
    assert full.exit_code == default.exit_code == 0
    assert json.loads(full.output)["cases"] == json.loads(default.output)["cases"] == 107
    assert run("verify", "--suite", "hom", "--scale", "quick").exit_code == 2


def test_verify_failure_exits_1(monkeypatch):
    def broken(res):
        res.check(False, "forced", "-", "0", "1", "0")

    monkeypatch.setitem(fockmix.verify._SUITES, "energy", broken)
    r = run("verify", "--suite", "energy")
    assert r.exit_code == 1
    doc = json.loads(r.output)
    assert doc["failures"][0]["indices"] == "forced"


def test_plotdata_hom_sweep():
    r = run("plotdata", "--kind", "hom-sweep", "--steps", "101")
    rows = list(csv.DictReader(io.StringIO(r.output)))
    assert len(rows) == 101
    grid = {float(x["eta"]): float(x["prob"]) for x in rows}
    assert grid[0.5] == 0.0
    assert math.isclose(grid[0.0], 1.0, rel_tol=1e-12)
    for eta, value in grid.items():
        assert abs(value - (2 * eta - 1) ** 2) <= 1e-12


def test_plotdata_tms_sweep():
    r = run("plotdata", "--kind", "tms-sweep", "--steps", "101")
    rows = list(csv.DictReader(io.StringIO(r.output)))
    grid = {float(x["lambda"]): float(x["prob"]) for x in rows}
    assert grid[0.5] == 0.0
    for lam, value in grid.items():
        assert abs(value - (1 - lam) * (1 - 2 * lam) ** 2) <= 1e-12


def test_plotdata_diag_asymptotic(tmp_path):
    out = tmp_path / "d.csv"
    r = run("plotdata", "--kind", "diag-asymptotic", "--i", "30", "--out", str(out))
    assert r.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert set(rows[0]) == {"n", "exact", "predicted"}
    mid = next(x for x in rows if x["n"] == "30")
    assert abs(float(mid["exact"]) - float(mid["predicted"])) / float(mid["exact"]) < 0.1


def test_plotdata_quantum_classical():
    r = run("plotdata", "--kind", "quantum-classical", "--i", "1", "--k", "1", "--eta", "1/2")
    assert r.exit_code == 0
    rows = {int(x["n"]): x for x in csv.DictReader(io.StringIO(r.output))}
    assert float(rows[1]["quantum"]) == 0.0
    assert float(rows[1]["classical"]) == 0.5
    assert math.isclose(sum(float(x["quantum"]) for x in rows.values()), 1.0, rel_tol=1e-12)
    assert math.isclose(sum(float(x["classical"]) for x in rows.values()), 1.0, rel_tol=1e-12)


def test_plotdata_quantum_classical_refuses_a_row_above_the_entry_limit_before_any_work(monkeypatch):
    # The classical row of (i, k) convolves two binomial rows, (i+1)(k+1) products.
    def refuse(*args, **kwargs):
        raise AssertionError("work ran for an oversize row")

    assert run("plotdata", "--kind", "quantum-classical").exit_code == 0  # i = k = 100
    # the binomial rows of the classical row, and the exact quantum cells
    monkeypatch.setattr(recurrences, "_bs_binomial_row", refuse)
    monkeypatch.setattr(fockmix.probabilities, "_cell_factors", refuse)
    r = run("plotdata", "--kind", "quantum-classical", "--i", "9999", "--k", "1000")
    assert r.exit_code == 2
    assert "would take 10010000 convolution products, above the limit of 10000000" in r.output
    argv = ("plotdata", "--kind", "quantum-classical", "--i", "6", "--k", "3")
    monkeypatch.setattr(fockmix.numerics, "_MAX_TABLE_ENTRIES", 27)
    assert run(*argv).exit_code == 2
    monkeypatch.undo()
    monkeypatch.setattr(fockmix.numerics, "_MAX_TABLE_ENTRIES", 28)
    assert run(*argv).exit_code == 0


_DOUBLE_SUM_ARGS = ("prob", "--device", "bs", "--method", "convolution", "--precision", "rational")


@pytest.mark.parametrize(
    "i, k, n, eta, printed",
    [
        (3, 5, 4, "1/3", "1000/6561"),
        (20, 17, 19, "3/10", "221610762767893243632462992032623/10000000000000000000000000000000000"),
        (2, 1, 5, "2/7", "0"),  # n past i+k: no term
        (0, 0, 2000, "1/3", "0"),
    ],
)
def test_rational_double_sum_prints_its_fraction(i, k, n, eta, printed):
    r = run(*_DOUBLE_SUM_ARGS, "--i", str(i), "--k", str(k), "--n", str(n), "--eta", eta)
    assert r.exit_code == 0 and r.output == printed + "\n"


def test_rational_double_sum_refuses_a_cell_above_the_work_limit_before_any_work(monkeypatch):
    # The cell (i, k, n) sums (min(i, n) - max(0, n-k) + 1)**2 terms, each of
    # at most log2 C(i+k, n) + log2 C(i+k, i) bits of binomials plus the bits
    # of the largest power a**e (b-a)**(i+k-e) at eta = a/b. (999, 100000,
    # 999) has as many terms as (999, 999, 999), but three times the bits.
    # The library refuses before the sum: _double_sum, which adds the terms,
    # is replaced by a zero total where the cell is accepted.
    def summed(left, right, powers):
        return 0

    def refuse(*args, **kwargs):
        raise AssertionError("work ran for an oversize double sum")

    monkeypatch.setattr(fockmix.probabilities, "_double_sum", summed)
    assert run(*_DOUBLE_SUM_ARGS, "--i", "999", "--k", "999", "--n", "999", "--eta", "1/3").output == "0\n"
    assert run(*_DOUBLE_SUM_ARGS, "--i", "5000", "--k", "0", "--n", "5000", "--eta", "1/3").output == "0\n"
    assert run(*_DOUBLE_SUM_ARGS, "--i", "500", "--k", "50000", "--n", "500", "--eta", "1/3").output == "0\n"
    assert run(*_DOUBLE_SUM_ARGS, "--i", "500", "--k", "500", "--n", "500", "--eta", "1/999983").output == "0\n"
    monkeypatch.setattr(fockmix.probabilities, "_double_sum", refuse)
    for i, k, n, terms, bits in [(1000, 1000, 1000, 1002001, 5989), (999, 20000, 999, 10**6, 13577),
                                 (999, 100000, 999, 10**6, 18160)]:
        r = run(*_DOUBLE_SUM_ARGS, "--i", str(i), "--k", str(k), "--n", str(n), "--eta", "1/3")
        assert r.exit_code == 2
        assert (f"the double sum of (i={i}, k={k}, n={n}) would take {terms} terms of up to {bits} bits, "
                "above the limit of 5982383802 term-bits") in r.output
    monkeypatch.undo()
    argv = (*_DOUBLE_SUM_ARGS, "--i", "3", "--k", "5", "--n", "4", "--eta", "1/3")  # 16 terms of 18.9 bits
    monkeypatch.setattr(fockmix.probabilities, "_MAX_DOUBLE_SUM_WORK", 302)
    assert run(*argv).exit_code == 2
    monkeypatch.setattr(fockmix.probabilities, "_MAX_DOUBLE_SUM_WORK", 303)
    assert run(*argv).output == "1000/6561\n"


def test_plotdata_usage_errors():
    assert run("plotdata", "--kind", "nonsense").exit_code == 2
    assert run("plotdata", "--kind", "hom-sweep", "--steps", "1").exit_code == 2
    assert run("plotdata", "--kind", "quantum-classical", "--i", "-1").exit_code == 2


_PARAM_COMMANDS = {
    "amp": ["amp", "--i", "1", "--k", "1", "--n", "1"],
    "prob": ["prob", "--i", "1", "--k", "1", "--n", "1"],
    "table": ["table", "--imax", "2", "--kmax", "2", "--nmax", "4"],
    "genfun": ["genfun", "--which", "g", "--x", "0.1", "--y", "0.2", "--z", "0.3"],
}
_FLAGS = {"bs": "--eta", "tms": "--lambda"}


def _single_param_errors():
    """(argv, message) for every input with one parameter error and no other."""
    for name, argv in _PARAM_COMMANDS.items():
        for device, flag in _FLAGS.items():
            base = argv + ["--device", device]
            yield base, f"{flag} is required for the {'beam splitter' if device == 'bs' else 'squeezer'}"
            yield base + [flag, "abc"], "bad parameter 'abc': could not convert string to float: 'abc'"
            yield base + [flag, "1/0"], "bad parameter '1/0': Fraction(1, 0)"
            if name in ("prob", "table"):
                for option in (["--precision", "rational"], ["--method", "exact"]):
                    yield base + [flag, "0.5", *option], "rational precision requires a p/q parameter literal"
        base = argv + ["--device", "tms", "--lambda", "1.5"]
        yield base, "bad parameter '1.5': squeezing parameter must lie in [0, 1), got 1.5"
    base = ["plotdata", "--kind", "quantum-classical", "--i", "2", "--eta"]
    yield base + ["abc"], "bad parameter 'abc': could not convert string to float: 'abc'"
    yield base + ["1/0"], "bad parameter '1/0': Fraction(1, 0)"
    yield base + ["1.5"], "bad parameter '1.5': transmittance must lie in [0, 1], got 1.5"


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0])) for case in _single_param_errors()])
def test_each_single_parameter_error_exits_2_with_its_message(argv, message):
    r = run(*argv)
    assert r.exit_code == 2
    assert r.output.endswith(f"Error: {message}\n")
