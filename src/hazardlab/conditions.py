"""Numerical verification of the CLT hypotheses.

For a (kernel, intensity) pair and a horizon grid, this module evaluates
the condition quantities of the three limit theorems:

* linear (cumulative hazard):   C0^2 I_2(T),  C0^3 I_3(T)
* path-second moment:           2 C1^2 ||k1||^2,  C1^4 ||k1||^4_{L4},
                                C1^4 ||k1 *_1^1 k1||^2,  C1^4 ||k1 *_2^1 k1||^2,
                                C1^2 ||k2 + 2 k3||^2,  C1^3 ||k2 + 2 k3||^3_{L3}
* path-variance:                C1/(T C0)^2,  2 C1 I_1/(T^2 C0)  (-> delta),
                                ||C1 (k2 + 2 k3) - delta C0 k0||^2

All norms are over the full symmetric product space.  Jump coordinates
are integrated out analytically through the moment functions, leaving
1-2 dimensional location integrals; the bivariate ones are evaluated on
a kernel-structure-aware quadrature grid as quadratic forms of the
kernel's Q_T at its nodes, which also makes the Cauchy-Schwarz
contraction bound exact in the discretization.  The kernel reduces them:
carried O(n) sums for the Green's-function kernels, and for the
rectangular kernel sums over the band pairs, formed as they are used
from two vectors of the nodes (no band or matrix is stored).  Log-log
slope fits over the horizon grid turn the asymptotic claims into
verdicts.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import crm, kernels
from ._numeric import gl_panels, quad_breaks, sorted_unique
from .asymptotics import Functional, NotCatalogedError, Power, regime

__all__ = [
    "THEOREM_NAMES", "CONDITION_COUNTS", "Verdict", "ConditionReport", "FitResult",
    "I_moments", "ContractionNorms", "contraction_norms", "check_theorem",
    "fit_slope", "classify",
]


# each functional's theorem by its short name (the config's theorem key,
# the report's theorem field), and the number of condition quantities that
# theorem evaluates
THEOREM_NAMES = {Functional.CUMULATIVE_HAZARD: "cumhaz", Functional.PATH_SECOND_MOMENT: "path2nd",
                 Functional.PATH_VARIANCE: "pathvar"}
CONDITION_COUNTS = {Functional.CUMULATIVE_HAZARD: 2, Functional.PATH_SECOND_MOMENT: 6,
                    Functional.PATH_VARIANCE: 3}


# ---------------------------------------------------------------------------
# slope fitting and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float


def fit_slope(t_values: Sequence[float], y_values: Sequence[float]) -> FitResult:
    """Ordinary least squares of log y on log T."""
    t = np.asarray(t_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if t.size < 4:
        raise ValueError("need at least 4 points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_values must be strictly increasing")
    if np.any(y <= 0):
        raise ValueError("fit_slope needs strictly positive y values")
    lx, ly = np.log(t), np.log(y)
    intercept, slope = _line_fit(lx, ly)
    resid = ly - (intercept + slope * lx)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return FitResult(float(slope), float(intercept), float(r2))


def _line_fit(x, y):
    """Intercept and slope of the least-squares line through the points
    (x_i, y_i), in closed form: the slope is
    sum (x_i - mean x)(y_i - mean y) / sum (x_i - mean x)^2."""
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    return float(y.mean()) - slope * float(x.mean()), slope


@dataclass(frozen=True)
class Verdict:
    kind: str                      # converges_to_positive | vanishes | diverges | inconclusive
    slope: float
    r2: float
    limit_est: Optional[float] = None

    def label(self) -> str:
        if self.kind == "converges_to_positive":
            return f"ConvergesToPositive(limit~{self.limit_est:.6g})"
        if self.kind == "vanishes":
            return f"VanishesWithSlope(slope={self.slope:.3f},r2={self.r2:.4f})"
        if self.kind == "diverges":
            return f"Diverges(slope={self.slope:.3f},r2={self.r2:.4f})"
        return f"Inconclusive(slope={self.slope:.3f},r2={self.r2:.4f})"


_FLAT_SLOPE = 0.15      # matches the |slope - expected| <= 0.15 verdict band
_MIN_R2 = 0.99


def classify(t_grid, values) -> Verdict:
    """Three-way verdict from the log-log slope.

    R^2 >= 0.99 gates the power-law verdicts; a convergent sequence is
    nearly constant in log scale, where R^2 is degenerate, so convergence
    is decided by |slope| < 0.15 with the limit estimated at the largest T.
    """
    fit = fit_slope(t_grid, values)
    if abs(fit.slope) < _FLAT_SLOPE:
        return Verdict("converges_to_positive", fit.slope, fit.r2,
                       limit_est=float(np.asarray(values)[-1]))
    if fit.slope < 0 and fit.r2 >= _MIN_R2:
        return Verdict("vanishes", fit.slope, fit.r2)
    if fit.slope > 0 and fit.r2 >= _MIN_R2:
        return Verdict("diverges", fit.slope, fit.r2)
    return Verdict("inconclusive", fit.slope, fit.r2)


# ---------------------------------------------------------------------------
# I_i moments
# ---------------------------------------------------------------------------

def I_moments(kernel: kernels.Kernel, intensity: crm.JumpIntensity,
              T: float, i: int, epsilon: float = 0.0) -> float:
    """I_i(T) = int K_rho^(i)(x) K_T(x)^i dx, with the epsilon-truncated
    jump moment when epsilon > 0; I_1(T) is the exact mean of the
    cumulative hazard.  Raises ArithmeticError when the integral does not
    converge."""
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    lo, hi = kernels.location_window(kernel, T)
    f = lambda x: crm.jump_moment(intensity, float(i), x, epsilon) * kernels.K_T(kernel, T, x) ** i
    return quad_breaks(f, lo, hi, kernel.breaks(T) + list(intensity.kinks), rel_tol=1e-11)


# ---------------------------------------------------------------------------
# quadrature-grid engine for the bivariate norms
# ---------------------------------------------------------------------------

_GRID_ORDER = 8     # Gauss-Legendre nodes per panel of the condition grid
# A grid with more nodes than this is refused before it is built: OU(1) past
# T ~ 37,500, rectangular(1) past T ~ 18,750.  A rectangular grid holds 40-65
# band pairs per node plus at most ~120k near a sqrt profile's ladder, so its
# refusal stays below 20M band pairs (~25x the T=800 grid's 806k).
_MAX_NODES = 300_000


def _panel_edges(kernel, T, intensity) -> np.ndarray:
    """Panel edges over the location window resolving kernel kinks, OU decay
    scales, the intensity's kinks and (non-homogeneous) the profile's origin
    behavior.  A grid whose panel lattice alone holds more than _MAX_NODES
    nodes is refused with ValueError before any edge is allocated."""
    lo, hi = kernels.location_window(kernel, T)
    step = kernel.panel_step(T)
    nodes = _GRID_ORDER * math.ceil((hi - lo) / step)
    if nodes > _MAX_NODES:
        raise ValueError(f"the condition grid at T={T:g} needs {nodes} nodes, "
                         f"above the cap of {_MAX_NODES}")
    edges = np.arange(lo, hi + step, step)
    edges = np.concatenate([edges, [hi], np.asarray(kernel.breaks(T)),
                            np.asarray(intensity.kinks, dtype=float)])
    edges = edges[(edges >= lo) & (edges <= hi)]
    if not intensity.homogeneous:
        ladder = hi * 2.0 ** -np.arange(1.0, 42.0)
        edges = np.concatenate([edges, ladder[ladder > lo]])
    edges = sorted_unique(edges)
    return edges[np.concatenate([[True], np.diff(edges) > 1e-12 * max(1.0, hi)])]


class _Grid:
    """Quadrature nodes/weights on the location window; all bivariate
    norms reduce to the rows int mu_p(y) Q_T(x_i, y)^power dy and to
    ||A^2||_F^2 for A = diag(r) Q_T diag(r), both from the kernel.

    The panels end at every kink of the kernel and of the intensity.  The
    Green's-function kernels (Ornstein-Uhlenbeck, Dykstra-Laud, U-shaped;
    kernels._Green) compute both without a matrix: their row_integrals put
    the kink of Q_T at y = x_i on a segment edge, which makes the rows
    machine-exact where the tensor grid would carry ~1e-4 relative error
    from kink-straddling panels, and their contraction_11 is O(n).  The
    rectangular kernel sums over the tensor grid's band pairs, formed as
    they are used from two vectors of the nodes; no band is stored.  A
    grid of more than _MAX_NODES nodes is refused with ValueError before
    it is built."""

    def __init__(self, kernel, intensity, T):
        self.kernel, self.intensity, self.T = kernel, intensity, T
        self.edges = _panel_edges(kernel, T, intensity)
        x, w = gl_panels(self.edges[:-1], self.edges[1:], _GRID_ORDER)
        # increasing: the panels are consecutive and the nodes interior
        self.x, self.w = x.ravel(), w.ravel()
        self.KT = kernels.K_T(kernel, T, self.x)
        self.R = kernels.Q_T(kernel, T, self.x, self.x)
        self._rows = {}

    def mu(self, a: float) -> np.ndarray:
        return crm.jump_moment(self.intensity, a, self.x)

    # -- reduced quantities --------------------------------------------------
    def rows(self, p: float, power: int) -> np.ndarray:
        """int mu_p(y) Q(x_i, y)^power dy at every node x_i (memoised);
        rows(1, 1) is J(x_i) = int mu_1(w) Q(x_i, w) dw."""
        key = (float(p), power)
        if key not in self._rows:
            mu_p = lambda y: crm.jump_moment(self.intensity, float(p), y)
            self._rows[key] = self.kernel.row_integrals(self.T, self.x, self.w, self.edges,
                                                        mu_p, power)
        return self._rows[key]

    def qq(self, power: int) -> float:
        """intint mu_p(x) mu_p(y) Q^power dxdy with p = power."""
        return float(np.sum(self.w * self.mu(float(power)) * self.rows(power, power)))

    def contraction_11_norm_sq(self) -> float:
        """|| k1 *_1^1 k1 ||^2_{L2(nu^2)} * T^4 (the T factors are applied
        by the caller): intint mu2 mu2 G^2 with G = int mu2 Q Q, i.e.
        ||A^2||_F^2 for A = diag(r) Q diag(r), r = sqrt(w mu2), from the
        family's contraction_11."""
        return self.kernel.contraction_11(self.T, self.x, self.w * self.mu(2.0))

    def contraction_21_norm_sq(self) -> float:
        """|| k1 *_2^1 k1 ||^2_{L2(nu)} * T^4: int mu4(x) H(x)^2 dx with
        H(x) = int mu2(y) Q(x,y)^2 dy."""
        H = self.rows(2, 2)
        return float(np.sum(self.w * self.mu(4.0) * H ** 2))

    def k23_l2_sq(self) -> float:
        """|| k2 + 2 k3 ||^2_{L2(nu)} * T^2."""
        R, J = self.R, self.rows(1, 1)
        integ = self.mu(4.0) * R ** 2 + 4.0 * self.mu(3.0) * R * J \
            + 4.0 * self.mu(2.0) * J ** 2
        return float(np.sum(self.w * integ))

    def k23_l3_cubed(self) -> float:
        """|| k2 + 2 k3 ||^3_{L3(nu)} * T^3."""
        R, J = self.R, self.rows(1, 1)
        integ = self.mu(6.0) * R ** 3 + 6.0 * self.mu(5.0) * R ** 2 * J \
            + 12.0 * self.mu(4.0) * R * J ** 2 + 8.0 * self.mu(3.0) * J ** 3
        return float(np.sum(self.w * integ))

    def pathvar_combined_norm_sq(self, c1: float, c0: float, delta: float) -> float:
        """|| C1 (k2 + 2 k3) - delta C0 k0 ||^2_{L2(nu)}."""
        T = self.T
        R, J, K = self.R, self.rows(1, 1), self.KT
        phi = 2.0 * c1 * J / T - delta * c0 * K
        integ = self.mu(4.0) * (c1 * R / T) ** 2 \
            + 2.0 * self.mu(3.0) * (c1 * R / T) * phi + self.mu(2.0) * phi ** 2
        return float(np.sum(self.w * integ))


# ---------------------------------------------------------------------------
# contraction norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionNorms:
    """The six nonnegative quantities entering the path-second-moment
    conditions, before multiplication by the rate function."""
    k1_l2_sq: float        # ||k1||^2_{L2(nu^2)}
    k1_l4_4: float         # ||k1||^4_{L4(nu^2)}
    k11_l2_sq: float       # ||k1 *_1^1 k1||^2_{L2(nu^2)}
    k21_l2_sq: float       # ||k1 *_2^1 k1||^2_{L2(nu)}
    k23_l2_sq: float       # ||k2 + 2 k3||^2_{L2(nu)}
    k23_l3_3: float        # ||k2 + 2 k3||^3_{L3(nu)}


def contraction_norms(kernel: kernels.Kernel, intensity: crm.JumpIntensity,
                      T: float) -> ContractionNorms:
    """Evaluate the six norms at horizon T.

    The jump coordinates are reduced to moments (e.g. ||k1||^2 =
    (K^(2))^2/T^2 intint Q_T(x,y)^2 dxdy in the homogeneous case), leaving
    only location integrals.
    """
    T = float(T)
    g = _Grid(kernel, intensity, T)
    return ContractionNorms(
        k1_l2_sq=g.qq(2) / T ** 2,
        k1_l4_4=g.qq(4) / T ** 4,
        k11_l2_sq=g.contraction_11_norm_sq() / T ** 4,
        k21_l2_sq=g.contraction_21_norm_sq() / T ** 4,
        k23_l2_sq=g.k23_l2_sq() / T ** 2,
        k23_l3_3=g.k23_l3_cubed() / T ** 3,
    )


# ---------------------------------------------------------------------------
# theorem checking
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    theorem: Functional
    t_grid: List[float]
    values: Dict[int, List[float]]          # condition index (1-based) -> series
    verdicts: Dict[int, Verdict]
    delta_estimate: Optional[float] = None
    rate_label: str = ""

    def to_json_dict(self) -> dict:
        return {
            "theorem": THEOREM_NAMES[self.theorem],
            "rate": self.rate_label,
            "t_grid": list(self.t_grid),
            "values": {str(k): list(v) for k, v in self.values.items()},
            "verdicts": {str(k): {"kind": v.kind, "slope": v.slope, "r2": v.r2,
                                  "limit_est": v.limit_est}
                         for k, v in self.verdicts.items()},
            "delta_estimate": self.delta_estimate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv_text(self) -> str:
        lines = ["condition,T,value,verdict"]
        for idx in sorted(self.values):
            verdict = self.verdicts[idx].label()
            for T, v in zip(self.t_grid, self.values[idx]):
                lines.append(f"{idx},{T:.17g},{v:.17g},{verdict}")
        return "\n".join(lines) + "\n"


def check_theorem(kernel: kernels.Kernel, intensity: crm.JumpIntensity,
                  theorem: Functional, rate: Power,
                  t_grid: Sequence[float]) -> ConditionReport:
    """Evaluate every condition quantity of the functional's theorem on
    the horizon grid, fit log-log slopes, and issue verdicts.

    For the path-variance theorem the constant delta is estimated as the
    intercept of a linear-in-1/T fit of 2 C1 I_1(T) / (T^2 C0), and the
    third condition evaluates the combined L2 norm with that estimate.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 4 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be >= 4 strictly increasing horizons")
    if theorem not in CONDITION_COUNTS:
        raise ValueError(f"unknown theorem {theorem!r}")
    if not isinstance(rate, Power):
        raise ValueError(f"unknown rate function {rate!r}")
    rates = [rate(T) for T in t_grid]
    delta_est = None
    # rows: one tuple of condition values per horizon
    if theorem is Functional.CUMULATIVE_HAZARD:
        rows = [(c0 ** 2 * I_moments(kernel, intensity, T, 2),
                 c0 ** 3 * I_moments(kernel, intensity, T, 3)) for T, c0 in zip(t_grid, rates)]
    elif theorem is Functional.PATH_SECOND_MOMENT:
        norms = (contraction_norms(kernel, intensity, T) for T in t_grid)
        rows = [(2.0 * c1 ** 2 * n.k1_l2_sq, c1 ** 4 * n.k1_l4_4, c1 ** 4 * n.k11_l2_sq,
                 c1 ** 4 * n.k21_l2_sq, c1 ** 2 * n.k23_l2_sq, c1 ** 3 * n.k23_l3_3)
                for c1, n in zip(rates, norms)]
    else:
        try:
            c0_rate = regime(kernel, intensity, Functional.CUMULATIVE_HAZARD).rate
        except NotCatalogedError as exc:
            raise ValueError(
                f"the path-variance conditions take C0 from the catalog's cumulative-hazard "
                f"rate, and ({kernel.label()}, {intensity.label()}) has none: {exc.reason}"
            ) from None
        c = [(T, c1, c0_rate(T)) for T, c1 in zip(t_grid, rates)]
        seq2 = [2.0 * c1 * I_moments(kernel, intensity, T, 1) / (T ** 2 * c0) for T, c1, c0 in c]
        # delta = limit of seq2, extrapolated linearly in 1/T
        delta_est = _line_fit(1.0 / np.asarray(t_grid), np.asarray(seq2))[0]
        rows = [(c1 / (T * c0) ** 2, s2,
                 _Grid(kernel, intensity, T).pathvar_combined_norm_sq(c1, c0, delta_est))
                for (T, c1, c0), s2 in zip(c, seq2)]
    values = {i: list(col) for i, col in enumerate(zip(*rows), start=1)}

    verdicts = {}
    for idx, series in values.items():
        arr = np.asarray(series, dtype=float)
        if np.any(~np.isfinite(arr)):
            verdicts[idx] = Verdict("inconclusive", math.nan, math.nan)
        elif np.all(arr > 0):
            verdicts[idx] = classify(t_grid, arr)
        else:
            # an all-but-vanished series counts as vanishing
            verdicts[idx] = Verdict("vanishes", -math.inf, 1.0) if arr[-1] == 0 \
                else Verdict("inconclusive", math.nan, math.nan)
    return ConditionReport(theorem, t_grid, values, verdicts,
                           delta_estimate=delta_est,
                           rate_label=rate.label())
