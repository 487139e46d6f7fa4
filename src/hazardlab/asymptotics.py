"""Catalog of asymptotic regimes: rate function, centering/trend and
limiting variance for the cumulative hazard, path-second moment and
path-variance of each worked (kernel, intensity) pair.

The catalog is static data plus moment plugging, not a derivation
engine.  regime() is its one lookup: a pair without a limit raises
NotCatalogedError, whose reason says why (monotone-type kernels, for
instance, genuinely fail the quadratic functionals' negligibility
conditions).

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
    "Functional", "Power", "PowerTrend", "MonteCarloMean", "CenteringRule",
    "RegimeSpec", "NotCatalogedError", "regime",
    "catalog_rows", "default_catalog_pairs",
]


class Functional(enum.Enum):
    CUMULATIVE_HAZARD = "cumulative_hazard"
    PATH_SECOND_MOMENT = "path_second_moment"
    PATH_VARIANCE = "path_variance"


class NotCatalogedError(ValueError):
    """The (kernel, intensity, functional) triple has no cataloged limit;
    `reason` says why."""

    def __init__(self, kernel: kernels.Kernel, intensity: crm.JumpIntensity,
                 functional: Functional, reason: str):
        super().__init__(f"no cataloged limit for ({kernel.label()}, {intensity.label()}, "
                         f"{functional.value}): {reason}; "
                         "run check-conditions for the numeric verdicts")
        self.reason = reason


@dataclass(frozen=True)
class Power:
    """C(T) = T^p (log T)^q; with q != 0 only for T > 1 (where log T > 0)."""
    p: float
    q: float = 0.0

    def __call__(self, T: float) -> float:
        if not self.q:
            return T ** self.p
        if not T > 1.0:
            raise ValueError(f"rate {self.label()} is defined for T > 1 only, got T={T:g}")
        return T ** self.p * math.log(T) ** self.q

    def label(self) -> str:
        return f"T^{self.p:g}*logT^{self.q:g}" if self.q else f"T^{self.p:g}"


@dataclass(frozen=True)
class PowerTrend:
    """Centering tau(T) = coef * T^power; a constant at power 0."""
    coef: float
    power: float = 0.0

    def __call__(self, T: float) -> float:
        return self.coef * T ** self.power

    def label(self) -> str:
        return f"{self.coef:g}*T^{self.power:g}" if self.power else f"{self.coef:g}"


@dataclass(frozen=True)
class MonteCarloMean:
    """Center at the deterministic quadrature value of I_1(T); used where
    no closed trend constant is available."""

    def label(self) -> str:
        return "I1(T) by quadrature"


CenteringRule = Union[PowerTrend, MonteCarloMean]


@dataclass(frozen=True)
class RegimeSpec:
    functional: Functional
    rate: Power
    centering: CenteringRule
    limit_variance: float
    delta: Optional[float] = None
    sigma1_sq: Optional[float] = None
    sigma2_sq: Optional[float] = None
    sigma3_sq: Optional[float] = None

    def __post_init__(self):
        if not (self.limit_variance > 0):
            raise ValueError("limit_variance must be > 0")
        if self.functional is Functional.PATH_VARIANCE and self.delta is None:
            raise ValueError("path-variance regimes carry delta")


_MONOTONE_REASON = (
    "monotone-growth kernel: the normalized contraction quantity converges to a "
    "positive constant and the single-integral condition quantities diverge, so no "
    "rate function satisfies the quadratic-functional hypotheses"
)


def _cumhaz(kernel: kernels.Kernel, intensity: crm.JumpIntensity) -> RegimeSpec:
    F = Functional.CUMULATIVE_HAZARD
    if intensity.homogeneous:
        k1, k2 = crm.jump_moment(intensity, 1), crm.jump_moment(intensity, 2)
        if kernel.nested:
            return RegimeSpec(F, Power(-1.5), PowerTrend(0.5 * k1, 2.0), k2 / 3.0)
        m = kernel.bulk[0]
        return RegimeSpec(F, Power(-0.5), PowerTrend(m * k1, 1.0), m ** 2 * k2)
    # non-homogeneous worked cases: sqrt-growth profiles with DL / rectangular
    b = intensity.fn.sqrt_slope
    if b is not None and isinstance(kernel, (kernels.DykstraLaud, kernels.Rectangular)):
        # extended gamma: K2(x) ~ 1/(b^2 x), so I2 ~ var * T^2 log T (Dykstra-
        # Laud) or var * log T (rectangular); beta: the first jump moment is
        # exactly 1 at every location
        extended = isinstance(intensity, crm.ExtendedGamma)
        if kernel.nested:
            rate, centering, var = ((Power(-1.0, -0.5), MonteCarloMean(), 1.0 / b ** 2)
                                    if extended else
                                    (Power(-1.25), PowerTrend(0.5, 2.0), 16.0 / (15.0 * b)))
        else:
            m = kernel.bulk[0]
            rate, centering, var = ((Power(0.0, -0.5), MonteCarloMean(), m ** 2 / b ** 2)
                                    if extended else
                                    (Power(-0.25), PowerTrend(m, 1.0), 2.0 * m ** 2 / b))
        return RegimeSpec(F, rate, centering, var)
    raise NotCatalogedError(
        kernel, intensity, F,
        "non-homogeneous intensity: the cumulative-hazard worked cases are the "
        "sqrt-growth profiles with the Dykstra-Laud and rectangular kernels")


def _quadratic(kernel: kernels.Kernel, intensity: crm.JumpIntensity,
               F: Functional) -> RegimeSpec:
    if kernel.nested:
        raise NotCatalogedError(kernel, intensity, F, _MONOTONE_REASON)
    if not intensity.homogeneous:
        raise NotCatalogedError(
            kernel, intensity, F,
            "non-homogeneous intensity: the limiting variance depends on the whole profile")
    k1, k2, k3, k4 = (crm.jump_moment(intensity, i) for i in (1, 2, 3, 4))
    m, r0, r2 = kernel.bulk
    s1 = 2.0 * k2 ** 2 * r2
    if F is Functional.PATH_SECOND_MOMENT:
        s2 = k4 * r0 ** 2 + 4.0 * k3 * k1 * r0 * m ** 2 + 4.0 * k2 * k1 ** 2 * m ** 4
        return RegimeSpec(F, Power(0.5), PowerTrend(k2 * r0 + k1 ** 2 * m ** 2),
                          s1 + s2, sigma1_sq=s1, sigma2_sq=s2)
    s3 = k4 * r0 ** 2       # the delta * C0 * k0 term cancels the cross terms
    return RegimeSpec(F, Power(0.5), PowerTrend(k2 * r0), s1 + s3,
                      delta=2.0 * k1 * m, sigma1_sq=s1, sigma3_sq=s3)


def regime(kernel: kernels.Kernel, intensity: crm.JumpIntensity,
           functional: Functional) -> RegimeSpec:
    """The cataloged limit of the functional for the pair:
    C0(T) * [H(T) - trend(T)] -> N(0, sigma0^2) for the cumulative hazard,
    sqrt(T) * [path-second-moment - centering] -> N(0, sigma1^2 + sigma2^2)
    and sqrt(T) * [path-variance - centering] -> N(0, sigma1^2 + sigma3^2).
    Raises NotCatalogedError for a pair without one."""
    if functional is Functional.CUMULATIVE_HAZARD:
        return _cumhaz(kernel, intensity)
    return _quadratic(kernel, intensity, functional)


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
            row = {"kernel": kernel.label(), "crm": intensity.label(),
                   "functional": functional.value}
            try:
                spec = regime(kernel, intensity, functional)
            except NotCatalogedError as exc:
                row.update(rate="", trend="", variance="", delta="",
                           supported="no", reason=exc.reason)
            else:
                row.update(rate=spec.rate.label(), trend=spec.centering.label(),
                           variance=f"{spec.limit_variance:.12g}",
                           delta="" if spec.delta is None else f"{spec.delta:.12g}",
                           supported="yes", reason="")
            rows.append(row)
    return rows
