"""Multiphoton transition amplitudes and probabilities for two-mode Gaussian
couplers (beam splitter and two-mode squeezer) in the Fock basis.

Three independent routes compute every probability: closed-form sums,
convolutions of vacuum-seeded rows, and five-term recurrences; an exact
rational oracle, closed-form generating functions, a distinguishable-photon
model, and large-photon asymptotic laws cross-validate them.

Importing the package loads only its errors and numerics modules. Every
other public name is read from the module that defines it the first time it
is asked for (PEP 562), so a process that computes one cell never loads the
tables, generating functions, asymptotics or verification suites.
"""

import importlib

from .errors import ConvergenceError, DomainError, TableCoverageError
from .numerics import (
    binomial_exact,
    gamma_capital,
    gamma_small,
    log_factorial,
    sqrt_binomial,
)

__version__ = "0.1.0"

_LAZY_NAMES = {
    "params": ("BeamSplitterParam", "Device", "PhotonConfig", "SqueezerParam"),
    "amplitudes": (
        "bs_amplitude",
        "bs_amplitude_convolution",
        "bs_amplitude_direct",
        "bs_vacuum_row",
        "tms_amplitude",
        "tms_vacuum_row",
    ),
    "probabilities": (
        "bs_prob_direct",
        "bs_prob_double_sum",
        "bs_prob_exact",
        "normalization_residual",
        "tms_prob",
        "tms_prob_exact",
    ),
    "recurrences": (
        "ClassicalTable",
        "ProbabilityTable",
        "bs_recurrence_check",
        "bs_table_convolution",
        "bs_table_direct",
        "bs_table_recurrence",
        "bs_tilde_row",
        "c_coeff",
        "classical_gf",
        "classical_prob",
        "classical_recurrence_check",
        "tms_recurrence_check",
        "tms_table_direct",
        "tms_table_recurrence",
        "tms_tilde_row",
    ),
    "genfun": (
        "GenFunPoint",
        "SeriesResult",
        "check_energy_scaling",
        "diagonal_gf_bs",
        "diagonal_series_bs",
        "eval_f_bs",
        "eval_f_bs_w1",
        "eval_f_tms",
        "eval_g_bs",
        "eval_g_tms",
        "f_bs_series",
        "g_bs_series",
        "g_tms_series",
    ),
    "asymptotics": ("AsymptoticReport", "bs_diag_asymptotic", "convergence_report", "tms_asymptotic"),
    "verify": ("SUITE_NAMES", "VerificationResult", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _LAZY_NAMES.items() for name in names}

__all__ = [
    "ConvergenceError",
    "DomainError",
    "TableCoverageError",
    "binomial_exact",
    "gamma_capital",
    "gamma_small",
    "log_factorial",
    "sqrt_binomial",
    *_MODULE_OF,
]


def __getattr__(name: str):
    """The public name from its defining module, imported on first use and
    then bound here, so later reads are plain attribute reads."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
