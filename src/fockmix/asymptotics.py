"""Large-photon-number laws for the balanced devices.

For a balanced beam splitter the equal-input diagonal obeys

    B(i,i->n) ~ (1 + (-1)^n) / (pi sqrt(n (2i-n))),    0 < n < 2i,

and the half-gain squeezer analog, reached through partial time reversal,

    A(i,k->k) ~ (1 + (-1)^i) / (2 pi sqrt(i (2k-i))),  0 < i < 2k.

Odd-parity outcomes vanish exactly, not just asymptotically; the formulas are
singular at the endpoints, so those are excluded from the comparisons and the
reports restrict to the central half-range where the laws are meant to hold.
Each exact value is one correctly rounded cell of the direct route
(`bs_prob_direct`, or `tms_prob` through its bridge), so the odd-parity cells
read exactly zero.
The comparison tolerance (monotone error decay plus 10% at the largest probe)
is a diagnostic choice, not a proven rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .numerics import nan_max
from .params import BeamSplitterParam, Device, PhotonConfig, SqueezerParam
from .probabilities import bs_prob_direct, tms_prob

__all__ = [
    "AsymptoticReport",
    "bs_diag_asymptotic",
    "tms_asymptotic",
    "convergence_report",
]


def bs_diag_asymptotic(i: int, n: int) -> float:
    """Predicted B(i,i->n) at eta=1/2; zero for odd n, singular at n in {0, 2i}."""
    if n <= 0 or n >= 2 * i:
        raise DomainError(f"asymptotic law needs 0 < n < 2i, got n={n}, i={i}")
    if n % 2:
        return 0.0
    return 2.0 / (math.pi * math.sqrt(n * (2 * i - n)))


def tms_asymptotic(i: int, k: int) -> float:
    """Predicted A(i,k->k) at lam=1/2; zero for odd i, singular at i in {0, 2k}."""
    if i <= 0 or i >= 2 * k:
        raise DomainError(f"asymptotic law needs 0 < i < 2k, got i={i}, k={k}")
    if i % 2:
        return 0.0
    return 1.0 / (math.pi * math.sqrt(i * (2 * k - i)))


@dataclass
class AsymptoticReport:
    """Exact-versus-predicted comparison over the central half-range.

    max_rel_error holds, per probed index, the worst relative error over the
    even-parity outcomes in the central half-range; parity_zero_max records
    the odd-parity cases separately (their prediction is exactly zero, so a
    relative error would be meaningless).
    """

    device: Device
    index_list: list[int]
    max_rel_error: list[float]
    parity_zero_max: list[float]
    detail: dict[int, dict[str, list[float]]] = field(default_factory=dict)

    @property
    def monotone(self) -> bool:
        return all(b <= a for a, b in zip(self.max_rel_error, self.max_rel_error[1:]))


def _central_range(probe: int) -> range:
    lo = max(1, probe // 2)
    hi = min(2 * probe - 1, (3 * probe) // 2)
    return range(lo, hi + 1)


def convergence_report(i_values: list[int], device: Device) -> AsymptoticReport:
    """Compare the exact diagonal cells against the asymptotic law at each probe.

    Probes must be strictly increasing. The beam-splitter report reads
    B(probe, probe -> n) and the squeezer report A(n, probe -> probe), each
    one correctly rounded cell of the direct route at eta = lam = 1/2.
    """
    if list(i_values) != sorted(set(i_values)):
        raise ValueError("probe indices must be strictly increasing")
    if device is Device.BS:
        bp = BeamSplitterParam(0.5)
        exact_of = lambda probe, n: bs_prob_direct(PhotonConfig(probe, probe, n), bp)
        predict = bs_diag_asymptotic
    else:
        sp = SqueezerParam(0.5)
        exact_of = lambda probe, n: tms_prob(PhotonConfig(n, probe, probe, Device.TMS), sp)
        predict = lambda probe, n: tms_asymptotic(n, probe)

    report = AsymptoticReport(device, list(i_values), [], [])
    for probe in i_values:
        worst = 0.0
        parity = 0.0
        ns, exacts, preds, errs = [], [], [], []
        for n in _central_range(probe):
            exact = exact_of(probe, n)
            pred = predict(probe, n)
            ns.append(float(n))
            exacts.append(exact)
            preds.append(pred)
            if n % 2:
                parity = nan_max(parity, abs(exact))
                errs.append(math.nan)
                continue
            rel = abs(exact - pred) / exact
            errs.append(rel)
            worst = nan_max(worst, rel)
        report.max_rel_error.append(worst)
        report.parity_zero_max.append(parity)
        report.detail[probe] = {"n": ns, "exact": exacts, "predicted": preds, "rel_error": errs}
    return report
