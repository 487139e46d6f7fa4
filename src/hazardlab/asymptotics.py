"""Catalog of asymptotic regimes: rate function, centering/trend and
limiting variance for the cumulative hazard, path-second moment and
path-variance of each worked (kernel, intensity) pair.

The catalog is static data plus moment plugging, not a derivation
engine; pairs outside it raise NotCatalogedError (linear functional) or
return Unsupported (quadratic functionals, where monotone-type kernels
genuinely fail the required negligibility conditions).

For a stationary kernel k(t, x) = phi(t - x) every constant is a
stationary-bulk integral with the jump moments K_i plugged in: the
kernel's bulk facts (m, r0, r2) = (int phi, int phi^2, int rho^2), rho
the autocorrelation of phi, give sigma0^2 = m^2 K2, and the quadratic
functionals' shot-noise covariances sigma1^2 = 2 K2^2 r2,
sigma2^2 = K4 r0^2 + 4 K3 K1 r0 m^2 + 4 K2 K1^2 m^4 and
sigma3^2 = K4 r0^2 (symmetric-kernel norms: the full product-space L2
norm of the bivariate kernel, the location integral of Q_T(x, .) over the
whole window).  The nested kernels and the non-homogeneous worked cases
carry their own constants.  Each is pinned by quadrature and Monte Carlo
tests.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

from . import crm, kernels

__all__ = [
    "Functional", "Power", "PowerLog", "RateFunction",
    "PowerTrend", "ConstantCentering", "MonteCarloMean", "CenteringRule",
    "RegimeSpec", "Unsupported", "NotCatalogedError",
    "regime_cumhaz", "regime_path2nd", "regime_pathvar", "regime",
    "catalog_rows", "default_catalog_pairs",
]


class NotCatalogedError(Exception):
    """The (kernel, intensity) pair has no cataloged regime."""


class Functional(enum.Enum):
    CUMULATIVE_HAZARD = "cumulative_hazard"
    PATH_SECOND_MOMENT = "path_second_moment"
    PATH_VARIANCE = "path_variance"


@dataclass(frozen=True)
class Power:
    """C(T) = T^p."""
    p: float

    def __call__(self, T: float) -> float:
        return T ** self.p

    def label(self) -> str:
        return f"T^{self.p:g}"


@dataclass(frozen=True)
class PowerLog:
    """C(T) = T^p (log T)^q, for T > 1 (where log T > 0)."""
    p: float
    q: float

    def __call__(self, T: float) -> float:
        if not T > 1.0:
            raise ValueError(f"rate {self.label()} is defined for T > 1 only, got T={T:g}")
        return T ** self.p * math.log(T) ** self.q

    def label(self) -> str:
        return f"T^{self.p:g}*logT^{self.q:g}"


RateFunction = Union[Power, PowerLog]


@dataclass(frozen=True)
class PowerTrend:
    """Centering tau(T) = coef * T^power."""
    coef: float
    power: float

    def __call__(self, T: float) -> float:
        return self.coef * T ** self.power

    def label(self) -> str:
        return f"{self.coef:g}*T^{self.power:g}"


@dataclass(frozen=True)
class ConstantCentering:
    value: float

    def __call__(self, T: float) -> float:
        return self.value

    def label(self) -> str:
        return f"{self.value:g}"


@dataclass(frozen=True)
class MonteCarloMean:
    """Center at the deterministic quadrature value of I_1(T); used where
    no closed trend constant is available."""

    def label(self) -> str:
        return "I1(T) by quadrature"


CenteringRule = Union[PowerTrend, ConstantCentering, MonteCarloMean]


@dataclass(frozen=True)
class RegimeSpec:
    functional: Functional
    rate: RateFunction
    centering: CenteringRule
    limit_variance: float
    delta: Optional[float] = None
    sigma0_sq: Optional[float] = None
    sigma1_sq: Optional[float] = None
    sigma2_sq: Optional[float] = None
    sigma3_sq: Optional[float] = None

    def __post_init__(self):
        if not (self.limit_variance > 0):
            raise ValueError("limit_variance must be > 0")
        if self.functional is Functional.PATH_VARIANCE and self.delta is None:
            raise ValueError("path-variance regimes carry delta")


@dataclass(frozen=True)
class Unsupported:
    """A pair for which the CLT hypotheses provably fail (or are not
    cataloged); `reason` says why."""
    reason: str


_MONOTONE_REASON = (
    "monotone-growth kernel: the normalized contraction quantity converges to a "
    "positive constant and the single-integral condition quantities diverge, so no "
    "rate function satisfies the quadratic-functional hypotheses"
)


def _moments(intensity, upto=4):
    return [crm.jump_moment(intensity, i) for i in range(1, upto + 1)]


def regime_cumhaz(kernel: kernels.Kernel, intensity: crm.JumpIntensity) -> RegimeSpec:
    """Theorem-level regime of C0(T) * [H(T) - trend(T)] -> N(0, sigma0^2)."""
    F = Functional.CUMULATIVE_HAZARD
    if intensity.homogeneous:
        k1, k2 = crm.jump_moment(intensity, 1), crm.jump_moment(intensity, 2)
        if kernel.nested:
            var = k2 / 3.0
            return RegimeSpec(F, Power(-1.5), PowerTrend(0.5 * k1, 2.0), var, sigma0_sq=var)
        m = kernel.bulk[0]
        var = m ** 2 * k2
        return RegimeSpec(F, Power(-0.5), PowerTrend(m * k1, 1.0), var, sigma0_sq=var)
    # non-homogeneous worked cases: sqrt-growth profiles with DL / rectangular
    b = intensity.profile.sqrt_slope
    if b is not None and isinstance(kernel, (kernels.DykstraLaud, kernels.Rectangular)):
        # extended gamma: K2(x) ~ 1/(b^2 x), so I2 ~ var * T^2 log T (Dykstra-
        # Laud) or var * log T (rectangular); beta: the first jump moment is
        # exactly 1 at every location
        extended = isinstance(intensity, crm.ExtendedGamma)
        if kernel.nested:
            rate, centering, var = ((PowerLog(-1.0, -0.5), MonteCarloMean(), 1.0 / b ** 2)
                                    if extended else
                                    (Power(-1.25), PowerTrend(0.5, 2.0), 16.0 / (15.0 * b)))
        else:
            m = kernel.bulk[0]
            rate, centering, var = ((PowerLog(0.0, -0.5), MonteCarloMean(), m ** 2 / b ** 2)
                                    if extended else
                                    (Power(-0.25), PowerTrend(m, 1.0), 2.0 * m ** 2 / b))
        return RegimeSpec(F, rate, centering, var, sigma0_sq=var)
    raise NotCatalogedError(
        f"no cumulative-hazard regime cataloged for ({kernel.label()}, {intensity.label()}); "
        "the numeric condition checker can still be run")


def _regime_quadratic(kernel: kernels.Kernel, intensity: crm.JumpIntensity,
                      F: Functional) -> Union[RegimeSpec, Unsupported]:
    if kernel.nested:
        return Unsupported(_MONOTONE_REASON)
    if not intensity.homogeneous:
        return Unsupported(
            "non-homogeneous intensity: the limiting variance depends on the whole profile")
    k1, k2, k3, k4 = _moments(intensity)
    m, r0, r2 = kernel.bulk
    s1 = 2.0 * k2 ** 2 * r2
    if F is Functional.PATH_SECOND_MOMENT:
        s2 = k4 * r0 ** 2 + 4.0 * k3 * k1 * r0 * m ** 2 + 4.0 * k2 * k1 ** 2 * m ** 4
        return RegimeSpec(F, Power(0.5), ConstantCentering(k2 * r0 + k1 ** 2 * m ** 2),
                          s1 + s2, sigma1_sq=s1, sigma2_sq=s2)
    s3 = k4 * r0 ** 2       # the delta * C0 * k0 term cancels the cross terms
    return RegimeSpec(F, Power(0.5), ConstantCentering(k2 * r0), s1 + s3,
                      delta=2.0 * k1 * m, sigma1_sq=s1, sigma3_sq=s3)


def regime_path2nd(kernel: kernels.Kernel,
                   intensity: crm.JumpIntensity) -> Union[RegimeSpec, Unsupported]:
    """sqrt(T) * [path-second-moment - centering] -> N(0, sigma1^2 + sigma2^2)."""
    return _regime_quadratic(kernel, intensity, Functional.PATH_SECOND_MOMENT)


def regime_pathvar(kernel: kernels.Kernel,
                   intensity: crm.JumpIntensity) -> Union[RegimeSpec, Unsupported]:
    """sqrt(T) * [path-variance - centering] -> N(0, sigma1^2 + sigma3^2)."""
    return _regime_quadratic(kernel, intensity, Functional.PATH_VARIANCE)


def regime(kernel: kernels.Kernel, intensity: crm.JumpIntensity,
           functional: Functional) -> Union[RegimeSpec, Unsupported]:
    if functional is Functional.CUMULATIVE_HAZARD:
        return regime_cumhaz(kernel, intensity)
    return _regime_quadratic(kernel, intensity, functional)


# ---------------------------------------------------------------------------
# catalog rendering
# ---------------------------------------------------------------------------

def default_catalog_pairs():
    """Reference parameterizations used by the `regimes` catalog dump."""
    ks = [kernels.Rectangular(1.0), kernels.DykstraLaud(),
          kernels.OrnsteinUhlenbeck(1.0), kernels.UShaped(2.0)]
    homog = [crm.GeneralizedGamma(0.5, 1.0),
             crm.ExtendedGamma(crm.Constant(1.0)),
             crm.Beta(crm.Constant(1.0))]
    nonhomog = [crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)),
                crm.Beta(crm.IndicatorSqrt(1.0))]
    pairs = [(k, i) for k in ks for i in homog]
    pairs += [(k, i) for k in (kernels.DykstraLaud(), kernels.Rectangular(1.0))
              for i in nonhomog]
    return pairs


def catalog_rows(pairs=None):
    """Rows (dicts) for the regimes table: kernel, crm, functional, rate,
    trend, variance, delta, supported."""
    rows = []
    for kernel, intensity in (pairs or default_catalog_pairs()):
        for functional in Functional:
            try:
                spec = regime(kernel, intensity, functional)
            except NotCatalogedError as exc:
                spec = Unsupported(str(exc))
            row = {"kernel": kernel.label(), "crm": intensity.label(),
                   "functional": functional.value}
            if isinstance(spec, Unsupported):
                row.update(rate="", trend="", variance="", delta="",
                           supported="no", reason=spec.reason)
            else:
                row.update(rate=spec.rate.label(), trend=spec.centering.label(),
                           variance=f"{spec.limit_variance:.12g}",
                           delta="" if spec.delta is None else f"{spec.delta:.12g}",
                           supported="yes", reason="")
            rows.append(row)
    return rows
