import math

import pytest

from fockmix.asymptotics import bs_diag_asymptotic, convergence_report, tms_asymptotic
from fockmix.errors import DomainError
from fockmix.params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from fockmix.probabilities import bs_prob_direct, tms_prob
from fockmix.recurrences import ProbabilityTable, bs_table_recurrence


def test_bs_diag_formula():
    assert bs_diag_asymptotic(10, 7) == 0.0
    assert math.isclose(bs_diag_asymptotic(100, 100), 2.0 / (math.pi * 100.0), rel_tol=1e-14)
    assert math.isclose(bs_diag_asymptotic(2, 2), 1.0 / math.pi, rel_tol=1e-14)
    with pytest.raises(DomainError):
        bs_diag_asymptotic(5, 0)
    with pytest.raises(DomainError):
        bs_diag_asymptotic(5, 10)


def test_tms_formula_and_relation():
    assert tms_asymptotic(7, 10) == 0.0
    assert math.isclose(tms_asymptotic(100, 100), 1.0 / (math.pi * 100.0), rel_tol=1e-14)
    for i, k in ((4, 10), (8, 9), (60, 50)):
        assert math.isclose(tms_asymptotic(i, k), 0.5 * bs_diag_asymptotic(k, i), rel_tol=1e-14)
    with pytest.raises(DomainError):
        tms_asymptotic(0, 5)
    with pytest.raises(DomainError):
        tms_asymptotic(10, 5)


def test_parity_zeros_exact_small():
    table = bs_table_recurrence(12, 12, BeamSplitterParam.from_value("1/2"), "rational")
    for i in range(13):
        row = table.row(i, i)
        for n in range(1, 2 * i + 1, 2):
            assert row[n] == 0
        # even outcomes are symmetric about the middle at eta = 1/2
        for n in range(0, 2 * i + 1, 2):
            assert row[n] == row[2 * i - n]


def test_convergence_report_small_scale(monkeypatch):
    # The reports read single exact cells; building any table is an error.
    def no_table(*args, **kwargs):
        raise AssertionError("convergence_report built a ProbabilityTable")

    monkeypatch.setattr(ProbabilityTable, "__init__", no_table)
    report = convergence_report([20, 40], Device.BS)
    assert report.monotone
    assert report.index_list == [20, 40]
    assert all(err < 0.05 for err in report.max_rel_error)
    assert report.parity_zero_max == [0.0, 0.0]
    detail = report.detail[40]
    assert set(detail) == {"n", "exact", "predicted", "rel_error"}
    assert len(detail["n"]) == len(detail["exact"]) == len(detail["predicted"])

    tms_report = convergence_report([20, 40], Device.TMS)
    assert tms_report.monotone
    assert tms_report.device is Device.TMS
    assert tms_report.parity_zero_max == [0.0, 0.0]

    bp, sp = BeamSplitterParam(0.5), SqueezerParam(0.5)
    for probe in (20, 40):
        ns = [int(n) for n in report.detail[probe]["n"]]
        assert report.detail[probe]["exact"] == [bs_prob_direct(PhotonConfig(probe, probe, n), bp) for n in ns]
        ns = [int(n) for n in tms_report.detail[probe]["n"]]
        want = [tms_prob(PhotonConfig(n, probe, probe, Device.TMS), sp) for n in ns]
        assert tms_report.detail[probe]["exact"] == want


def test_convergence_report_rejects_unsorted_probes():
    with pytest.raises(ValueError):
        convergence_report([40, 20], Device.BS)
