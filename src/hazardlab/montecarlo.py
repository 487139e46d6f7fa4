"""Monte Carlo engine: exact functional evaluation from the jump
representation and empirical verification of the Gaussian limits.

Each replicate r draws its own random stream from a counter-based split
of the master seed (SeedSequence(entropy=seed, spawn_key=(r,))), so
results are bit-reproducible and independent of worker scheduling.
Functionals are exact jump sums - the only time discretization in the
package lives in test oracles.
"""
from __future__ import annotations

import math
import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import special

from . import crm, kernels
from ._numeric import comp_sum
from .asymptotics import (Functional, MonteCarloMean, RegimeSpec, Unsupported,
                          regime)

__all__ = [
    "ExperimentConfig", "CltReport", "TruncationBudgetError",
    "cumhaz", "path_second_moment", "path_variance", "hazard_path",
    "ks_test", "run_clt", "sample_crm", "resolve_workers",
]

CENTERING_CATALOG = "catalog"
CENTERING_QUADRATURE = "quadrature_i1"


class TruncationBudgetError(Exception):
    """The epsilon-truncation bias exceeds the tolerated fraction of the
    standardized statistic's scale."""


# ---------------------------------------------------------------------------
# exact functionals
# ---------------------------------------------------------------------------

def _check_window(sample: crm.CrmSample, kernel, T: float):
    lo, hi = kernels.location_window(kernel, T)
    if sample.window[0] > lo + 1e-12 or sample.window[1] < hi - 1e-12:
        raise ValueError(
            f"sample window {sample.window} does not cover the location window "
            f"[{lo:g}, {hi:g}] of {kernel.label()} at T={T:g}")


def cumhaz(sample: crm.CrmSample, kernel: kernels.Kernel, T: float) -> float:
    """H(T) = sum_i J_i K_T(x_i): exact integral of the hazard path."""
    _check_window(sample, kernel, T)
    if sample.size == 0:
        return 0.0
    return comp_sum(sample.jumps * kernels.K_T(kernel, T, sample.locations))


def _block_bounds(x, span):
    # [start, stop) index ranges of the sorted x cut every `span` from x[0];
    # empty blocks are dropped
    edges = np.arange(x[0], x[-1] + span, span)
    stops = np.unique(np.searchsorted(x, edges[1:], side="left").clip(1, x.size))
    if stops.size == 0 or stops[-1] != x.size:
        stops = np.append(stops, x.size).astype(int)
    starts = np.concatenate([[0], stops[:-1]])
    return starts, stops


def _compensated_prefix(v):
    # prefix sums s of v (leading 0) and the running sum e of each step's
    # rounding error, exact by TwoSum because np.cumsum adds in order:
    # (s[q] - s[p]) + (e[q] - e[p]) is accurate to the size of the
    # difference, however large the prefix has grown
    s = np.concatenate([[0.0], np.cumsum(v)])
    t = s[1:] - s[:-1]
    err = (s[:-1] - (s[1:] - t)) + (v - t)
    return s, np.concatenate([[0.0], np.cumsum(err)])


def _p2m_banded_rect(J, x, kernel, T):
    # run [L_j, j) of atom j: sum J_i (a_i - c) - (b_j - c) sum J_i.  From
    # one global c both parts reach ~T times the run's mass while their
    # difference is ~tau times it, so block k's segment [L_start, stop) is
    # measured from its own c = b[start].  The segments, laid end to end
    # (a block's first 2 tau reappear after the previous block), share one
    # compensated prefix sum in place of a loop over blocks.
    tau = kernel.tau
    order = np.argsort(x, kind="stable")
    x, J = x[order], J[order]
    a = np.minimum(x + tau, T)
    b = np.maximum(x - tau, 0.0)
    diag = float(np.sum(J * J * np.maximum(a - b, 0.0)))
    L = np.minimum(np.searchsorted(a, b, side="right"), np.arange(x.size))
    starts, stops = _block_bounds(x, 8.0 * tau)
    lo, ref = L[starts], b[starts]
    seg_len = stops - lo
    seg_at = np.concatenate([[0], np.cumsum(seg_len)[:-1]])
    atom = np.arange(seg_len.sum()) + np.repeat(lo - seg_at, seg_len)
    SA, EA = _compensated_prefix(J[atom] * (a[atom] - np.repeat(ref, seg_len)))
    S, ES = _compensated_prefix(J[atom])
    # positions of j and of L_j in the segment of j's block
    shift = np.repeat(seg_at - lo, stops - starts)
    q, p = np.arange(x.size) + shift, L + shift
    run = ((SA[q] - SA[p]) + (EA[q] - EA[p])) \
        - (b - np.repeat(ref, stops - starts)) * ((S[q] - S[p]) + (ES[q] - ES[p]))
    return math.fsum([diag, 2.0 * float(np.sum(J * run))]) / T


def _p2m_prefix_ou(J, x, kernel, T):
    # Q = e^{-k|xi-xj|} - e^{-k(2T-xi-xj)}; the first part is a carried
    # prefix sum over sorted locations, blocked so no exponential argument
    # exceeds ~60; the second factorizes.
    k = kernel.kappa
    order = np.argsort(x, kind="stable")
    x, J = x[order], J[order]
    starts, stops = _block_bounds(x, 60.0 / k)
    carry = 0.0          # sum over earlier blocks of J_i e^{-k (ref - x_i)}
    ref = x[0]
    parts = []
    for a, b in zip(starts, stops):
        xb, Jb = x[a:b], J[a:b]
        local_ref = xb[0]
        carry *= math.exp(-k * (local_ref - ref))
        up = np.exp(k * (xb - local_ref))           # bounded by e^{60}
        down = np.exp(-k * (xb - local_ref))
        prefix = np.cumsum(Jb * up)
        parts.append(float(np.sum(Jb * down * np.concatenate([[0.0], prefix[:-1]]))))
        parts.append(float(np.sum(Jb * down)) * carry)
        carry = (carry + float(prefix[-1])) * math.exp(-k * (xb[-1] - local_ref))
        ref = xb[-1]
    off = math.fsum(parts)
    diag = float(np.sum(J * J))
    first = 2.0 * off + diag
    second = float(np.sum(J * np.exp(-k * (T - x)))) ** 2
    return (first - second) / T


def _p2m_nested(J, x, kernel, T):
    # Q(x,y) = K_T(x v y): sort ascending and use prefix mass
    order = np.argsort(x, kind="stable")
    x, J = x[order], J[order]
    K = kernels.K_T(kernel, T, x)
    prev = np.concatenate([[0.0], np.cumsum(J)[:-1]])
    return comp_sum(J * K * (2.0 * prev + J)) / T


def path_second_moment(sample: crm.CrmSample, kernel: kernels.Kernel, T: float) -> float:
    """(1/T) sum_{i,j} J_i J_j Q_T(x_i, x_j): exact time average of the
    squared hazard path.

    All three strategies sort the locations and combine prefix sums; all
    equal the naive double sum.  Rectangular: for x_i <= x_j,
    Q_T = (a_i - b_j)_+ with a = min(x + tau, T) and b = max(x - tau, 0).
    a is nondecreasing, so each atom's partners form one run found by
    searchsorted, summed as prefix differences of J and of J a.  The
    prefix sums run over blocks 8 tau wide, each measuring a and b from its
    own reference point, and are compensated, so the digits lost grow with
    neither T / tau nor the atom count; O(n log n) in all.
    Ornstein-Uhlenbeck: a carried-prefix factorization.  Nested kernels: a
    sorted cumulative sum.
    """
    _check_window(sample, kernel, T)
    if sample.size == 0:
        return 0.0
    J, x = sample.jumps, sample.locations
    if isinstance(kernel, kernels.Rectangular):
        return _p2m_banded_rect(J, x, kernel, T)
    if isinstance(kernel, kernels.OrnsteinUhlenbeck):
        return _p2m_prefix_ou(J, x, kernel, T)
    return _p2m_nested(J, x, kernel, T)


def path_variance(sample: crm.CrmSample, kernel: kernels.Kernel, T: float) -> float:
    """(1/T) int_0^T [h(t) - H(T)/T]^2 dt = path_second_moment - (H/T)^2."""
    p2m = path_second_moment(sample, kernel, T)
    mean_sq = (cumhaz(sample, kernel, T) / T) ** 2
    v = p2m - mean_sq
    if v < 0:
        if v < -1e-12 * max(p2m, 1.0):
            raise ArithmeticError(
                f"path variance {v:g} negative beyond rounding (p2m={p2m:g})")
        v = 0.0
    return v


def hazard_path(sample: crm.CrmSample, kernel: kernels.Kernel, t_grid) -> np.ndarray:
    """h(t) = sum_i J_i k(t, x_i) on a time grid (for plotting/oracles)."""
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.zeros_like(t_grid)
    block = max(1, 2_000_000 // max(sample.size, 1))
    for i in range(0, t_grid.size, block):
        tb = t_grid[i:i + block]
        k = kernels.eval_kernel(kernel, tb[:, None], sample.locations[None, :])
        out[i:i + block] = k @ sample.jumps
    return out


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov against a fully specified normal
# ---------------------------------------------------------------------------

def _kolmogorov_sf(lam: float, terms: int = 100) -> float:
    """P(sup |B| > lam) for the Kolmogorov distribution, asymptotic series
    truncated at `terms`."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
    return min(1.0, max(0.0, 2.0 * total))


def ks_test(samples: Sequence[float], mean: float, variance: float) -> dict:
    """One-sample Kolmogorov-Smirnov statistic against N(mean, variance)
    and its asymptotic p-value."""
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    if n < 20:
        raise ValueError("need at least 20 samples")
    if not (variance > 0):
        raise ValueError("variance must be > 0")
    u = (z - mean) / math.sqrt(variance)
    cdf = 0.5 * (1.0 + special.erf(u / math.sqrt(2.0)))
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return {"statistic": d, "p_value": _kolmogorov_sf(math.sqrt(n) * d)}


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    kernel: kernels.Kernel
    intensity: crm.JumpIntensity
    functional: Functional
    horizon: float
    replicates: int = 2000
    seed: int = 0
    epsilon: float = 1e-6
    centering_mode: str = CENTERING_QUADRATURE

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be > 0")
        if self.replicates < 100:
            raise ValueError("need at least 100 replicates")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be > 0")
        if self.centering_mode not in (CENTERING_CATALOG, CENTERING_QUADRATURE):
            raise ValueError(f"unknown centering mode {self.centering_mode!r}")


@dataclass
class CltReport:
    standardized_samples: List[float]
    values: List[float]
    sample_mean: float
    sample_variance: float
    target_variance: float
    ks_statistic: float
    ks_p_value: float
    variance_ratio: float
    truncation_budget_ok: bool
    centering_value: float
    rate_value: float

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "sample_mean", "sample_variance", "target_variance", "ks_statistic",
            "ks_p_value", "variance_ratio", "truncation_budget_ok",
            "centering_value", "rate_value")}
        d["standardized_samples"] = list(self.standardized_samples)
        d["values"] = list(self.values)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def samples_csv_text(self) -> str:
        lines = ["replicate,value,standardized"]
        for r, (v, s) in enumerate(zip(self.values, self.standardized_samples)):
            lines.append(f"{r},{v:.17g},{s:.17g}")
        return "\n".join(lines) + "\n"


def resolve_workers(requested: Optional[int] = None) -> int:
    """Worker count: explicit argument, else HAZARDLAB_THREADS (a positive
    integer), else min(4, cpu_count); capped at cpu_count."""
    if requested is None:
        env = os.environ.get("HAZARDLAB_THREADS")
        if not env:
            requested = min(4, os.cpu_count() or 1)
        elif env.strip().isdecimal() and int(env) > 0:
            requested = int(env)
        else:
            raise ValueError(f"HAZARDLAB_THREADS must be a positive integer, got {env!r}")
    return max(1, min(requested, os.cpu_count() or 1))


def sample_crm(config: ExperimentConfig, replicate: int) -> crm.CrmSample:
    """Draw replicate r on the kernel's location window with the stream
    split from the master seed by the replicate index."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(replicate,)))
    window = kernels.location_window(config.kernel, config.horizon)
    if crm.is_homogeneous(config.intensity):
        return crm.sample_homogeneous(config.intensity, window, config.epsilon,
                                      rng, seed=config.seed)
    return crm.sample_nonhomogeneous(config.intensity, window, config.epsilon,
                                     rng, seed=config.seed)


_FUNCTIONALS = {
    Functional.CUMULATIVE_HAZARD: cumhaz,
    Functional.PATH_SECOND_MOMENT: path_second_moment,
    Functional.PATH_VARIANCE: path_variance,
}


def _replicate_range(args) -> List[float]:
    config, start, stop = args
    f = _FUNCTIONALS[config.functional]
    return [f(sample_crm(config, r), config.kernel, config.horizon)
            for r in range(start, stop)]


def _slice_sq_integral(kernel, T: float) -> float:
    # int_0^T (int k(t,x) dx)^2 dt, for the quadrature centerings
    from ._numeric import quad_breaks
    if isinstance(kernel, kernels.Rectangular):
        breaks = [kernel.tau]
    elif isinstance(kernel, kernels.UShaped):
        breaks = [kernel.beta_center]
    else:
        breaks = []
    return quad_breaks(lambda t: kernels._slice_mass(kernel, t) ** 2, 0.0, T,
                       breaks, rel_tol=1e-11)


def _mu(intensity, a: float, eps: float, x):
    # jump moment of the full (eps = 0) or truncated intensity; the
    # generalized-gamma branch ignores x, so passing it is always safe
    if eps > 0:
        return crm.moment_truncated(intensity, a, eps, x)
    return crm.moment_general(intensity, a, x)


def _mean_sq_hazard_quadrature(config: ExperimentConfig, truncated: bool) -> float:
    """(1/T) int_0^T E[h(t)^2] dt under the full or epsilon-truncated
    intensity: (1/T) [int m(t)^2 dt + int K2(x) Q_T(x,x) dx]."""
    kernel, intensity, T = config.kernel, config.intensity, config.horizon
    eps = config.epsilon if truncated else 0.0
    lo, hi = kernels.location_window(kernel, T)
    from ._numeric import quad_breaks

    if crm.is_homogeneous(intensity):
        k1 = _mu(intensity, 1.0, eps, 0.0)
        mean_part = k1 ** 2 * _slice_sq_integral(kernel, T)
    else:
        def m_of_t(t):
            lo_s, hi_s, _ = kernels._slice_support(kernel, t)
            if hi_s <= lo_s:
                return 0.0
            return quad_breaks(
                lambda x: _mu(intensity, 1.0, eps, x) * kernels.eval_kernel(kernel, t, x),
                lo_s, hi_s, rel_tol=1e-9)
        mean_part = quad_breaks(lambda t: m_of_t(t) ** 2, 0.0, T, rel_tol=1e-8)

    second_part = quad_breaks(
        lambda x: _mu(intensity, 2.0, eps, float(x))
        * kernels.Q_T(kernel, T, float(x), float(x)),
        lo, hi, rel_tol=1e-10)
    return (mean_part + second_part) / T


def _I1_quadrature(config: ExperimentConfig, truncated: bool) -> float:
    kernel, intensity, T = config.kernel, config.intensity, config.horizon
    eps = config.epsilon if truncated else 0.0
    lo, hi = kernels.location_window(kernel, T)
    from ._numeric import quad_breaks
    return quad_breaks(
        lambda x: _mu(intensity, 1.0, eps, float(x)) * kernels.K_T(kernel, T, float(x)),
        lo, hi, rel_tol=1e-11)


def _exact_center(config: ExperimentConfig, truncated: bool) -> float:
    """Quadrature value of the functional's mean under the full or the
    epsilon-truncated intensity (the latter is the exact mean of the
    simulated statistic)."""
    F = config.functional
    if F is Functional.CUMULATIVE_HAZARD:
        return _I1_quadrature(config, truncated)
    mean_sq = _mean_sq_hazard_quadrature(config, truncated)
    if F is Functional.PATH_SECOND_MOMENT:
        return mean_sq
    i1 = _I1_quadrature(config, truncated)
    return mean_sq - (i1 / config.horizon) ** 2


def _centering(config: ExperimentConfig, spec: RegimeSpec) -> float:
    """Centering tau(T): the cataloged trend/constant in catalog mode
    (MonteCarloMean falls back to quadrature I_1), the exact truncated
    mean in quadrature mode."""
    if config.centering_mode == CENTERING_CATALOG:
        if isinstance(spec.centering, MonteCarloMean):
            return _I1_quadrature(config, truncated=False)
        return spec.centering(config.horizon)
    return _exact_center(config, truncated=True)


def run_clt(config: ExperimentConfig, workers: Optional[int] = None,
            budget_fraction: float = 0.01) -> CltReport:
    """Simulate R replicates, standardize rate(T) * (value - centering(T)),
    and test the Gaussian limit (KS against N(0, target) plus the variance
    ratio).

    Refuses to run when the epsilon-truncation bias of the standardized
    statistic exceeds budget_fraction of the target standard deviation
    (with quadrature centering the bias is absorbed into the centering,
    so only catalog centering can trip the budget).
    """
    spec = regime(config.kernel, config.intensity, config.functional)
    if isinstance(spec, Unsupported):
        raise ValueError(
            f"no cataloged limit for ({config.kernel.label()}, "
            f"{config.intensity.label()}, {config.functional.value}): {spec.reason}; "
            "run check-conditions for the numeric verdicts")
    nworkers = resolve_workers(workers)
    T = config.horizon
    rate_value = spec.rate(T)
    target_sd = math.sqrt(spec.limit_variance)

    centering_used = _centering(config, spec)
    if config.centering_mode == CENTERING_QUADRATURE:
        residual_bias = 0.0     # the centering absorbs the truncation shift
    else:
        # bias of the standardized mean induced by epsilon-truncation alone
        residual_bias = abs(rate_value * (_exact_center(config, truncated=False)
                                          - _exact_center(config, truncated=True)))
    if residual_bias > budget_fraction * target_sd:
        raise TruncationBudgetError(
            f"truncation bias {residual_bias:.4g} exceeds {budget_fraction:.0%} of the "
            f"target sd {target_sd:.4g}; lower epsilon or use quadrature centering")

    R = config.replicates
    if nworkers <= 1 or R < 2 * nworkers:
        values = _replicate_range((config, 0, R))
    else:
        bounds = np.linspace(0, R, 4 * nworkers + 1).astype(int)
        jobs = [(config, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(nworkers) as pool:
            chunks = pool.map(_replicate_range, jobs)
        values = [v for chunk in chunks for v in chunk]

    values_arr = np.asarray(values, dtype=float)
    standardized = rate_value * (values_arr - centering_used)
    ks = ks_test(standardized, 0.0, spec.limit_variance)
    sample_var = float(np.var(standardized, ddof=1))
    return CltReport(
        standardized_samples=standardized.tolist(),
        values=values_arr.tolist(),
        sample_mean=float(standardized.mean()),
        sample_variance=sample_var,
        target_variance=spec.limit_variance,
        ks_statistic=ks["statistic"],
        ks_p_value=ks["p_value"],
        variance_ratio=sample_var / spec.limit_variance,
        truncation_budget_ok=True,
        centering_value=float(centering_used),
        rate_value=float(rate_value),
    )
