"""Device parameters and Fock index configurations.

Both device parameters carry the value twice: as a float for the numerical
routes and, optionally, as an exact rational for the exact routes. The CLI
keeps the exact carrier only for ``p/q`` literals so that "rational
precision" can never be silently fed an inexact decimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Device(str, Enum):
    BS = "bs"
    TMS = "tms"


def _parse_literal(value: str) -> float | Fraction:
    """p/q strings become exact rationals; anything else is a float literal."""
    if "/" in value:
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den))
    return float(value)


def _from_value(cls, value: float | str | Fraction):
    """The parameter of class cls from a number or a literal: a Fraction, or
    a p/q string, keeps the exact carrier beside its float; any other value
    is a float alone."""
    if isinstance(value, str):
        value = _parse_literal(value)
    if isinstance(value, Fraction):
        return cls(float(value), value)
    return cls(float(value))


def _check_counts(**counts: int) -> None:
    """Raise ValueError naming the first negative photon count."""
    for name, c in counts.items():
        if c < 0:
            raise ValueError(f"photon counts must be nonnegative, got {name}={c}")


@dataclass(frozen=True)
class PhotonConfig:
    """Fock indices (i, k) in, n out; the second output index is redundant.

    For a beam splitter the total photon number is conserved, so m = i+k-n;
    for a two-mode squeezer the photon-number difference is conserved, so
    m = n+k-i. A configuration is reachable iff m >= 0.
    """

    i: int
    k: int
    n: int
    device: Device = Device.BS

    def __post_init__(self) -> None:
        _check_counts(i=self.i, k=self.k, n=self.n)

    @property
    def m(self) -> int:
        if self.device is Device.BS:
            return self.i + self.k - self.n
        return self.n + self.k - self.i

    @property
    def reachable(self) -> bool:
        return self.m >= 0


@dataclass(frozen=True)
class BeamSplitterParam:
    """Transmittance eta in [0, 1], with eta = cos^2(theta)."""

    eta: float
    eta_exact: Fraction | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmittance must lie in [0, 1], got {self.eta}")
        if self.eta_exact is not None:
            if not 0 <= self.eta_exact <= 1:
                raise ValueError(f"exact transmittance out of range: {self.eta_exact}")
            if abs(float(self.eta_exact) - self.eta) > math.ulp(max(self.eta, 1e-300)):
                raise ValueError("exact and float transmittance disagree beyond 1 ulp")

    from_value = classmethod(_from_value)

    @property
    def theta(self) -> float:
        """Mixing angle, eta = cos^2(theta)."""
        return math.acos(math.sqrt(self.eta))


@dataclass(frozen=True)
class SqueezerParam:
    """Squeezing parameter lambda in [0, 1), lambda = tanh^2(r), gain 1/(1-lambda)."""

    lam: float
    lam_exact: Fraction | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"squeezing parameter must lie in [0, 1), got {self.lam}")
        if self.lam_exact is not None:
            if not 0 <= self.lam_exact < 1:
                raise ValueError(f"exact squeezing parameter out of range: {self.lam_exact}")
            if abs(float(self.lam_exact) - self.lam) > math.ulp(max(self.lam, 1e-300)):
                raise ValueError("exact and float squeezing parameter disagree beyond 1 ulp")

    from_value = classmethod(_from_value)

    @property
    def r(self) -> float:
        """Squeezing rapidity, lambda = tanh^2(r)."""
        return math.atanh(math.sqrt(self.lam))

    @property
    def gain(self) -> float:
        return 1.0 / (1.0 - self.lam)

    def ptr_beamsplitter(self) -> BeamSplitterParam:
        """Beam splitter of the partial-time-reversal partner, eta = 1 - lambda.

        The exact carrier is mirrored when present so exact routes survive the
        device swap.
        """
        if self.lam_exact is not None:
            eta_exact = 1 - self.lam_exact
            return BeamSplitterParam(float(eta_exact), eta_exact)
        return BeamSplitterParam(1.0 - self.lam)
