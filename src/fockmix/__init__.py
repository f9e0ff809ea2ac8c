"""Multiphoton transition amplitudes and probabilities for two-mode Gaussian
couplers (beam splitter and two-mode squeezer) in the Fock basis.

Three independent routes compute every probability: closed-form sums,
convolutions of vacuum-seeded rows, and five-term recurrences; an exact
rational oracle, closed-form generating functions, a distinguishable-photon
model, and large-photon asymptotic laws cross-validate them.
"""

from .errors import ConvergenceError, DomainError, TableCoverageError
from .numerics import (
    binomial_exact,
    gamma_capital,
    gamma_small,
    log_factorial,
    sqrt_binomial,
)
from .params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from .amplitudes import (
    bs_amplitude,
    bs_amplitude_convolution,
    bs_amplitude_direct,
    bs_vacuum_row,
    tms_amplitude,
    tms_vacuum_row,
)
from .probabilities import (
    bs_prob_direct,
    bs_prob_double_sum,
    bs_prob_exact,
    normalization_residual,
    tms_prob,
    tms_prob_exact,
)
from .recurrences import (
    ClassicalTable,
    ProbabilityTable,
    bs_recurrence_check,
    bs_table_convolution,
    bs_table_direct,
    bs_table_recurrence,
    bs_tilde_row,
    c_coeff,
    classical_gf,
    classical_prob,
    classical_recurrence_check,
    tms_recurrence_check,
    tms_table_direct,
    tms_table_recurrence,
    tms_tilde_row,
)
from .genfun import (
    GenFunPoint,
    SeriesResult,
    check_energy_scaling,
    diagonal_gf_bs,
    diagonal_series_bs,
    eval_f_bs,
    eval_f_bs_w1,
    eval_f_tms,
    eval_g_bs,
    eval_g_tms,
    f_bs_series,
    g_bs_series,
    g_tms_series,
)
from .asymptotics import AsymptoticReport, bs_diag_asymptotic, convergence_report, tms_asymptotic
from .verify import SUITE_NAMES, VerificationResult, run_suite

__version__ = "0.1.0"
