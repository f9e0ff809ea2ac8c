"""Every route that allocates or computes in proportion to a size checks it
against its budget first: at the budget it runs, one above it raises
DomainError naming the size and the budget. The budgets are shrunk here
rather than the work grown, so each case runs in milliseconds."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fockmix
from fockmix import numerics, probabilities
from fockmix.amplitudes import bs_amplitude, tms_amplitude
from fockmix.asymptotics import convergence_report
from fockmix.errors import DomainError
from fockmix.params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from fockmix.probabilities import bs_prob_double_sum
from fockmix.recurrences import (
    ClassicalTable,
    bs_table_convolution,
    bs_table_direct,
    bs_table_recurrence,
    tms_table_direct,
    tms_table_recurrence,
)
from fockmix.verify import _grid

_BS, _TMS = BeamSplitterParam.from_value("1/3"), SqueezerParam.from_value("2/5")


def _at_and_above(monkeypatch, module, budget_name, size, call, message, unit=""):
    """call() runs with the budget at size and raises DomainError with
    message, naming the budget in its unit, with the budget one below."""
    monkeypatch.setattr(module, budget_name, size)
    call()
    monkeypatch.setattr(module, budget_name, size - 1)
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == f"{message}, above the limit of {size - 1}{unit}"


@pytest.mark.parametrize("precision", ["float", "rational"])
@pytest.mark.parametrize("builder, args, entries", [
    (bs_table_direct, (3, 2, _BS), 42),  # 12 rows (i, k) of i+k+1 entries
    (bs_table_convolution, (3, 2, _BS), 42),
    (bs_table_recurrence, (3, 2, _BS), 42),
    (tms_table_direct, (2, 3, 4, _TMS), 60),  # 12 rows of nmax+1 entries
    (tms_table_recurrence, (2, 3, 4, _TMS), 60),
], ids=lambda x: getattr(x, "__name__", None))
def test_each_builder_refuses_a_table_above_the_entry_budget(monkeypatch, builder, args, entries, precision):
    served = sum(len(row) for row in builder(*args, precision).values())
    assert served == entries
    _at_and_above(monkeypatch, numerics, "_MAX_TABLE_ENTRIES", entries, lambda: builder(*args, precision),
                  f"the table would hold {entries} entries")


@pytest.mark.parametrize("amplitude, c, param", [
    (bs_amplitude, PhotonConfig(3, 2, 2), _BS),  # the block (3, 2), 42 entries
    (tms_amplitude, PhotonConfig(3, 2, 3, Device.TMS), _TMS),  # the bridge block (i, n+k-i) = (3, 2)
], ids=["bs", "tms"])
def test_a_convolution_amplitude_refuses_a_fill_block_above_the_entry_budget(monkeypatch, amplitude, c, param):
    _at_and_above(monkeypatch, numerics, "_MAX_TABLE_ENTRIES", 42, lambda: amplitude(c, param, "convolution"),
                  "the photon-addition fill of block (i=3, k=2) would hold 42 entries")


@pytest.mark.parametrize("amplitude, c, param", [
    (bs_amplitude, PhotonConfig(3, 2, 6), _BS),  # n > i+k: no photon count conserved
    (tms_amplitude, PhotonConfig(3, 2, 0, Device.TMS), _TMS),  # m = n+k-i < 0
], ids=["bs", "tms"])
def test_a_convolution_amplitude_that_is_zero_by_photon_count_is_never_refused(monkeypatch, amplitude, c, param):
    # the cell is 0.0 with no fill, whatever the fill of its block would hold
    monkeypatch.setattr(numerics, "_MAX_TABLE_ENTRIES", 0)
    assert amplitude(c, param, "convolution") == 0.0


def test_a_classical_row_refuses_more_products_than_the_entry_budget(monkeypatch):
    # the row (3, 2) convolves two binomial rows, 4 x 3 products; each call
    # takes a fresh table, whose rows are memoized
    _at_and_above(monkeypatch, numerics, "_MAX_TABLE_ENTRIES", 12, lambda: ClassicalTable(_BS).row(3, 2),
                  "the classical row of (i=3, k=2) would take 12 convolution products")


def test_a_double_sum_refuses_terms_times_bits_above_its_budget(monkeypatch):
    # (3, 5, 4) at 1/3 sums 16 terms of up to 18.9 bits: 302.6 term-bits
    _at_and_above(monkeypatch, probabilities, "_MAX_DOUBLE_SUM_WORK", 303,
                  lambda: bs_prob_double_sum(3, 5, 4, Fraction(1, 3)),
                  "the double sum of (i=3, k=5, n=4) would take 16 terms of up to 19 bits", " term-bits")


@pytest.mark.parametrize("device", [Device.BS, Device.TMS])
def test_a_convergence_report_bounds_its_largest_probe_as_a_table(monkeypatch, device):
    # the probe 4 is bounded as a 4 x 4 beam-splitter table, 5**3 entries
    _at_and_above(monkeypatch, numerics, "_MAX_TABLE_ENTRIES", 125, lambda: convergence_report([2, 4], device),
                  "the largest probe 4, bounded as a 4 x 4 beam-splitter table, would hold 125 entries")


def test_a_sweep_grid_refuses_more_points_than_the_entry_budget(monkeypatch):
    _at_and_above(monkeypatch, numerics, "_MAX_TABLE_ENTRIES", 5, lambda: _grid(5), "the grid would hold 5 points")


def test_an_oversize_table_is_refused_before_numpy_is_loaded():
    # 1003003001 entries served; storing one row of each mirror pair as
    # float64 would take about 4 GB
    code = (
        "import sys\n"
        "from fockmix import BeamSplitterParam, DomainError, bs_table_recurrence\n"
        "try:\n"
        "    bs_table_recurrence(1000, 1000, BeamSplitterParam.from_value('1/2'))\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(fockmix.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["the table would hold 1003003001 entries, above the limit of 10000000", "False"]
