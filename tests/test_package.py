"""The package's public surface and what loading it costs: importing fockmix
and its CLI loads only the errors and numerics modules, every other public
name is read from its defining module on first use, and a one-shot
probability loads neither the tables nor the suites."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockmix

PUBLIC = [
    "AsymptoticReport", "BeamSplitterParam", "ClassicalTable", "ConvergenceError", "Device", "DomainError",
    "GenFunPoint", "PhotonConfig", "ProbabilityTable", "SUITE_NAMES", "SeriesResult", "SqueezerParam",
    "TableCoverageError", "VerificationResult", "binomial_exact", "bs_amplitude", "bs_amplitude_convolution",
    "bs_amplitude_direct", "bs_diag_asymptotic", "bs_prob_direct", "bs_prob_double_sum", "bs_prob_exact",
    "bs_recurrence_check", "bs_table_convolution", "bs_table_direct", "bs_table_recurrence", "bs_tilde_row",
    "bs_vacuum_row", "c_coeff", "check_energy_scaling", "classical_gf", "classical_prob",
    "classical_recurrence_check", "convergence_report", "diagonal_gf_bs", "diagonal_series_bs", "eval_f_bs",
    "eval_f_bs_w1", "eval_f_tms", "eval_g_bs", "eval_g_tms", "f_bs_series", "g_bs_series", "g_tms_series",
    "gamma_capital", "gamma_small", "log_factorial", "normalization_residual", "run_suite", "sqrt_binomial",
    "tms_amplitude", "tms_asymptotic", "tms_prob", "tms_prob_exact", "tms_recurrence_check", "tms_table_direct",
    "tms_table_recurrence", "tms_tilde_row", "tms_vacuum_row",
]


def _fresh(code: str, *argv: str) -> list:
    """The lines that code prints in a fresh interpreter importing this fockmix."""
    src = str(Path(fockmix.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_all_and_dir_list_the_public_names():
    assert sorted(fockmix.__all__) == PUBLIC
    assert len(set(fockmix.__all__)) == len(PUBLIC)
    assert dir(fockmix) == PUBLIC


_RESOLVE = """
import sys
import fockmix

public = sys.argv[1:]
unread = [name for name in public if name not in vars(fockmix)]
wrong = []
for name in public:
    value = getattr(fockmix, name)
    module = sys.modules["fockmix.verify" if name == "SUITE_NAMES" else value.__module__]
    if not module.__name__.startswith("fockmix.") or getattr(module, name) is not value:
        wrong.append(name)
    elif vars(fockmix).get(name) is not value:  # bound on the package by the first read
        wrong.append(name)
namespace = {}
exec("from fockmix import *", namespace)
print(len(unread), wrong, [name for name in public if namespace.get(name) is not getattr(fockmix, name)])
"""


def test_each_public_name_is_the_object_of_its_defining_module():
    # In a fresh interpreter, as a module reloaded by another test rebinds
    # its names: the 51 names outside errors and numerics are unread until
    # their first use, each name is its defining module's object, and a star
    # import binds every name.
    assert _fresh(_RESOLVE, *PUBLIC) == ["51 [] []"]


def test_the_eager_numerics_names_are_the_numerics_functions_in_process():
    # No test reloads fockmix.numerics in this process, so the five names the
    # package binds from it at import (with the three errors, the 8 of 59
    # that are not lazy) are still the module's own functions.
    import fockmix.numerics

    eager = ["binomial_exact", "gamma_capital", "gamma_small", "log_factorial", "sqrt_binomial"]
    assert [name for name in eager if getattr(fockmix, name) is not getattr(fockmix.numerics, name)] == []


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'fockmix' has no attribute 'bs_prob_indirect'"):
        fockmix.bs_prob_indirect


_LOADED_MODULES = """
import sys
import fockmix, fockmix.cli

def loaded():
    return sorted(name for name in sys.modules if name.startswith("fockmix."))

fockmix.log_factorial(1)
print(loaded())
for device, flag in (("bs", "--eta"), ("tms", "--lambda")):
    fockmix.cli.main.main(["prob", "--device", device, "--i", "5", "--k", "4", "--n", "3", flag, "0.37"],
                          standalone_mode=False)
print(loaded())
"""


def test_the_package_and_a_one_shot_prob_load_only_what_they_use():
    setup, *cells, after = _fresh(_LOADED_MODULES)
    assert setup == "['fockmix.cli', 'fockmix.errors', 'fockmix.numerics']"
    assert len(cells) == 2 and all(0.0 < float(value) < 1.0 for value in cells)
    assert after == "['fockmix.cli', 'fockmix.errors', 'fockmix.numerics', 'fockmix.params', 'fockmix.probabilities']"
