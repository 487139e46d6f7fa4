"""The four mixing-kernel families and their closed time integrals.

Each kernel k(t, x) maps (time, location) to a nonnegative weight.  Two
derived quantities do most of the work downstream:

    K_T(x)    = int_0^T k(t, x) dt
    Q_T(x, y) = int_0^T k(t, x) k(t, y) dt

Both have exact closed forms for every family (interval intersections
for the indicator kernels, stable exponential expressions for the
Ornstein-Uhlenbeck kernel), valid for every T > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import crm
from ._numeric import integrate_piecewise_linear, quad_breaks

__all__ = [
    "Rectangular", "DykstraLaud", "OrnsteinUhlenbeck", "UShaped", "Kernel",
    "eval_kernel", "K_T", "Q_T", "mean_hazard", "kT3", "location_window",
    "UnsupportedRegimeError",
]


class UnsupportedRegimeError(Exception):
    """An integrability or catalog precondition fails for this pair."""


@dataclass(frozen=True)
class Rectangular:
    """k(t,x) = 1{|t-x| <= tau}; bandwidth tau > 0."""
    tau: float

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be > 0, got {self.tau}")

    def label(self) -> str:
        return f"rectangular(tau={self.tau:g})"


@dataclass(frozen=True)
class DykstraLaud:
    """k(t,x) = 1{0 <= x <= t}; yields monotone increasing hazard paths."""

    def label(self) -> str:
        return "dykstra_laud"


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """k(t,x) = sqrt(2 kappa) exp(-kappa (t-x)) 1{0 <= x <= t}."""
    kappa: float

    def __post_init__(self):
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be > 0, got {self.kappa}")

    def label(self) -> str:
        return f"ornstein_uhlenbeck(kappa={self.kappa:g})"


@dataclass(frozen=True)
class UShaped:
    """k(t,x) = 1{|t - beta| >= x}; bath-tub shape with minimum at beta > 0."""
    beta_center: float

    def __post_init__(self):
        if not (self.beta_center > 0 and math.isfinite(self.beta_center)):
            raise ValueError(f"beta_center must be > 0, got {self.beta_center}")

    def label(self) -> str:
        return f"u_shaped(beta={self.beta_center:g})"


Kernel = Union[Rectangular, DykstraLaud, OrnsteinUhlenbeck, UShaped]


def _check_T(T: float) -> float:
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon T must be > 0, got {T}")
    return float(T)


def eval_kernel(kernel: Kernel, t, x):
    """Pointwise kernel value; vectorized over t and/or x."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if isinstance(kernel, Rectangular):
        out = (np.abs(t - x) <= kernel.tau).astype(float)
    elif isinstance(kernel, DykstraLaud):
        out = ((x >= 0) & (x <= t)).astype(float)
    elif isinstance(kernel, OrnsteinUhlenbeck):
        k = kernel.kappa
        on = (x >= 0) & (x <= t)
        out = np.where(on, math.sqrt(2.0 * k) * np.exp(-k * np.where(on, t - x, 0.0)), 0.0)
    else:
        out = (np.abs(t - kernel.beta_center) >= x).astype(float)
    return out if out.ndim else float(out)


def K_T(kernel: Kernel, T: float, x):
    """K_T(x) = int_0^T k(t,x) dt, exact for all T > 0."""
    T = _check_T(T)
    x = np.asarray(x, dtype=float)
    if isinstance(kernel, Rectangular):
        tau = kernel.tau
        out = np.maximum(0.0, np.minimum(x + tau, T) - np.maximum(x - tau, 0.0))
    elif isinstance(kernel, DykstraLaud):
        out = np.where(x >= 0, np.maximum(T - x, 0.0), 0.0)
    elif isinstance(kernel, OrnsteinUhlenbeck):
        k = kernel.kappa
        on = (x >= 0) & (x <= T)
        out = np.where(on, math.sqrt(2.0 / k) * (-np.expm1(-k * np.where(on, T - x, 0.0))), 0.0)
    else:
        b = kernel.beta_center
        out = np.where(x >= 0,
                       np.maximum(0.0, np.minimum(b - x, T)) + np.maximum(0.0, T - (b + x)),
                       0.0)
    return out if out.ndim else float(out)


def Q_T(kernel: Kernel, T: float, x, y):
    """Q_T(x,y) = int_0^T k(t,x) k(t,y) dt; symmetric, exact for all T > 0."""
    T = _check_T(T)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.maximum(x, y)
    if isinstance(kernel, Rectangular):
        tau = kernel.tau
        lo = np.minimum(x, y)
        out = np.maximum(0.0, np.minimum(lo + tau, T) - np.maximum(m - tau, 0.0))
        out = np.where((x >= -tau) & (y >= -tau), out, 0.0)
    elif isinstance(kernel, (DykstraLaud, UShaped)):
        # nested supports: joint indicator equals the one with larger x
        return K_T(kernel, T, m)
    else:
        k = kernel.kappa
        on = (np.minimum(x, y) >= 0) & (m <= T)
        d = np.abs(x - y)
        out = np.where(on, np.exp(-k * d) - np.exp(-k * (2.0 * T - (x + y))), 0.0)
    return out if out.ndim else float(out)


def location_window(kernel: Kernel, T: float) -> tuple:
    """Support of x -> K_T(x): atoms outside it cannot affect horizon T."""
    T = _check_T(T)
    if isinstance(kernel, Rectangular):
        return (0.0, T + kernel.tau)
    if isinstance(kernel, UShaped):
        b = kernel.beta_center
        return (0.0, max(b, T - b))
    return (0.0, T)


def _slice_mass(kernel: Kernel, t: float) -> float:
    # int k(t,x) dx over x >= 0, closed form per family
    if isinstance(kernel, Rectangular):
        return min(t + kernel.tau, 2.0 * kernel.tau) if t > -kernel.tau else 0.0
    if isinstance(kernel, DykstraLaud):
        return max(t, 0.0)
    if isinstance(kernel, OrnsteinUhlenbeck):
        k = kernel.kappa
        return math.sqrt(2.0 / k) * (-math.expm1(-k * t)) if t > 0 else 0.0
    return abs(t - kernel.beta_center)


def mean_hazard(kernel: Kernel, intensity: crm.JumpIntensity, t: float) -> float:
    """E[h(t)] = int K_rho^(1)(x) k(t,x) dx.

    Closed form (first moment times slice mass) for homogeneous
    intensities, quadrature over the slice support otherwise.
    """
    t = float(t)
    if crm.is_homogeneous(intensity):
        return crm.moment(intensity, 1) * _slice_mass(kernel, t)
    lo, hi, breaks = _slice_support(kernel, t)
    if hi <= lo:
        return 0.0
    k1 = lambda x: np.asarray(crm.moment_general(intensity, 1.0, x), dtype=float)
    f = lambda x: k1(x) * eval_kernel(kernel, t, x)
    return quad_breaks(f, lo, hi, breaks, rel_tol=1e-9)


def _slice_support(kernel: Kernel, t: float):
    # support of x -> k(t,x) plus interior breakpoints
    if isinstance(kernel, Rectangular):
        return max(0.0, t - kernel.tau), t + kernel.tau, ()
    if isinstance(kernel, (DykstraLaud, OrnsteinUhlenbeck)):
        return 0.0, max(t, 0.0), ()
    return 0.0, abs(t - kernel.beta_center), ()


def _q_breaks(kernel: Kernel, T: float, x: float):
    # kinks of w -> Q_T(x, w)
    if isinstance(kernel, Rectangular):
        tau = kernel.tau
        pts = [0.0, x - 2 * tau, x - tau, x, x + tau, x + 2 * tau, tau, T - tau, T, T + tau]
        return [p for p in pts if 0.0 <= p <= T + tau]
    if isinstance(kernel, DykstraLaud):
        return [0.0, min(x, T), T]
    if isinstance(kernel, UShaped):
        b = kernel.beta_center
        hi = max(b, T - b)
        pts = [0.0, x, b, abs(T - b), hi]
        return sorted(p for p in pts if 0.0 <= p <= hi)
    return [0.0, min(x, T), T]


def kT3(kernel: Kernel, intensity: crm.JumpIntensity, T: float, x: float) -> float:
    """Third derived kernel divided by the jump size:

        kT3(x) = (1/T) int_0^T k(t,x) E[h(t)] dt
               = (1/T) int K_rho^(1)(w) Q_T(x,w) dw.

    Exact piecewise/exponential closed forms for homogeneous intensities;
    quadrature over the location window otherwise.
    """
    T = _check_T(T)
    x = float(x)
    lo_w, hi_w = location_window(kernel, T)
    if not (lo_w <= x <= hi_w):
        return 0.0
    if crm.is_homogeneous(intensity):
        k1 = crm.moment(intensity, 1)
        if isinstance(kernel, OrnsteinUhlenbeck):
            k = kernel.kappa
            # int_0^T Q_T(x,w) dw, split at w = x; all exponents <= 0
            t1 = 1.0 - math.exp(-k * x) - math.exp(-2.0 * k * (T - x)) + math.exp(-k * (2.0 * T - x))
            t2 = (-math.expm1(-k * (T - x))) ** 2
            return k1 * (t1 + t2) / (k * T)
        f = lambda w: Q_T(kernel, T, x, w)
        return k1 * integrate_piecewise_linear(f, _q_breaks(kernel, T, x)) / T
    k1 = lambda w: np.asarray(crm.moment_general(intensity, 1.0, w), dtype=float)
    f = lambda w: k1(w) * Q_T(kernel, T, x, w)
    val = quad_breaks(f, lo_w, hi_w, _q_breaks(kernel, T, x), rel_tol=1e-10) / T
    if not math.isfinite(val):
        raise UnsupportedRegimeError(
            f"kT3 integral did not converge for {kernel.label()} / {intensity.label()}")
    return val


def ou_panels(kernel: OrnsteinUhlenbeck, lo: float, hi: float, centers) -> np.ndarray:
    """Panel edges resolving the e^{-kappa |w - c|} decay scales around each
    center; panel width 1/kappa out to 45/kappa, so Gauss-Legendre of
    moderate order is exact to machine precision on every panel."""
    k = kernel.kappa
    edges = [lo, hi]
    offsets = np.arange(0.0, 45.0 + 1e-9, 1.0) / k
    for c in np.atleast_1d(centers):
        edges.extend(np.clip(c + offsets, lo, hi))
        edges.extend(np.clip(c - offsets, lo, hi))
    return np.unique(edges)

