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
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import ClassVar, List, Optional, Sequence

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that out of
# the first replicate
import numpy.random  # noqa: F401

from . import crm, kernels
from ._numeric import _STREAM, block_partials, check_rules, erf, kolmogorov, quad_breaks
from .asymptotics import Functional, MonteCarloMean, regime
from .conditions import I_moments

__all__ = [
    "ExperimentConfig", "CltReport", "TruncationBudgetError",
    "cumhaz", "path_second_moment", "path_variance", "hazard_path",
    "ks_test", "run_clt", "sample_crm", "resolve_workers",
]

CENTERING_CATALOG = "catalog"
CENTERING_QUADRATURE = "quadrature"
# largest tolerated truncation bias of the standardized statistic, as a
# fraction of the target standard deviation
TRUNCATION_BUDGET = 0.01


class TruncationBudgetError(ValueError):
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
    """H(T) = sum_i J_i K_T(x_i): exact integral of the hazard path.  The
    terms are formed over blocks of _STREAM atoms, so K_T's temporaries
    stay in cache, and each block keeps only its block_partials: no array
    of the sample's length is added, and the result is math.fsum of the
    partials of all the terms, at every sample size."""
    _check_window(sample, kernel, T)
    partials = []
    for i in range(0, sample.size, _STREAM):
        block = slice(i, i + _STREAM)
        partials += block_partials(
            sample.jumps[block] * kernels.K_T(kernel, T, sample.locations[block]))
    return math.fsum(partials)


def path_second_moment(sample: crm.CrmSample, kernel: kernels.Kernel, T: float) -> float:
    """(1/T) sum_{i,j} J_i J_j Q_T(x_i, x_j): exact time average of the
    squared hazard path.

    The atoms go to the kernel's pair sum in the sample's order; it sorts
    what it sweeps and equals the naive double sum: a decayed prefix sum
    over the locations for the Green's-function kernels, and for the
    rectangular kernel the integral of h^2 from one sweep over the path's
    jumps at max(x_i - tau, 0) and min(x_i + tau, T).
    """
    _check_window(sample, kernel, T)
    if sample.size == 0:
        return 0.0
    return kernel.pair_sum(sample.jumps, sample.locations, T) / T


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
    cdf = 0.5 * (1.0 + erf(u / math.sqrt(2.0)))
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return {"statistic": d, "p_value": float(kolmogorov(math.sqrt(n) * d))}


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
    # each number's range, {field: (test, text)}, which check_rules and the
    # INI parser read; numpy's SeedSequence takes no negative entropy
    RULES: ClassVar[dict] = {"horizon": (lambda x: x > 0, "horizon > 0"),
                             "replicates": (lambda n: n >= 100, "replicates >= 100"),
                             "seed": (lambda n: n >= 0, "seed >= 0"),
                             "epsilon": (lambda x: x > 0, "epsilon > 0")}

    def __post_init__(self):
        check_rules(self)
        if self.centering_mode not in (CENTERING_CATALOG, CENTERING_QUADRATURE):
            raise ValueError(f"unknown centering mode {self.centering_mode!r}")


@dataclass
class CltReport:
    # declared in the order of the JSON report's keys
    sample_mean: float
    sample_variance: float
    target_variance: float
    ks_statistic: float
    ks_p_value: float
    variance_ratio: float
    truncation_budget_ok: bool
    centering_value: float
    rate_value: float
    standardized_samples: List[float]
    values: List[float]

    def to_json_dict(self) -> dict:
        # a shallow dict: asdict's deep copy of every sample doubles the
        # time that to_json takes
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def samples_csv_text(self) -> str:
        lines = ["replicate,value,standardized"]
        for r, (v, s) in enumerate(zip(self.values, self.standardized_samples)):
            lines.append(f"{r},{v:.17g},{s:.17g}")
        return "\n".join(lines) + "\n"


# A run whose replicates expect fewer atoms than this in all is drawn in
# this process.  Starting the worker pool costs 20-30 ms (imports 5.5-8 ms,
# Pool(2) 8-11 ms, first dispatch 1-6 ms, join 2-3 ms; 2 vCPUs), and two
# workers save at most half the serial time, less when the second vCPU is
# busy, so the pool pays only from ~50 ms of serial work: 5e5-5.7e5 atoms
# at the 88-97 ns an expected atom of a cumulative-hazard replicate (the
# draw and the sum; rectangular + GG at T = 500, seed 1).  The benchmark
# runs expect 3.4e5 (rectangular + GG cumulative hazard, drawn here),
# 1.79e6 (rectangular path variance) and 2.65e7 (OU path second moment).
_POOL_MIN_ATOMS = 1e6


def resolve_workers(requested: Optional[int] = None, atoms: float = math.inf) -> int:
    """Worker count: explicit argument, else HAZARDLAB_THREADS (a positive
    integer), else 1 for a run that expects fewer than _POOL_MIN_ATOMS atoms
    in all and min(4, cpu_count) for a larger one; capped at cpu_count."""
    if requested is None:
        env = os.environ.get("HAZARDLAB_THREADS")
        if not env:
            requested = 1 if atoms < _POOL_MIN_ATOMS else min(4, os.cpu_count() or 1)
        elif env.strip().isdecimal() and int(env) > 0:
            requested = int(env)
        else:
            raise ValueError(f"HAZARDLAB_THREADS must be a positive integer, got {env!r}")
    return max(1, min(requested, os.cpu_count() or 1))


def _stream(config: ExperimentConfig, replicate: int) -> np.random.Generator:
    # the stream split from the master seed by the replicate index
    return np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(replicate,)))


@lru_cache(maxsize=1)
def _draw_plan(config: ExperimentConfig) -> crm.Plan:
    """The crm.plan every replicate of the config draws from, memoised for
    the last config (forked pool workers inherit run_clt's; spawned ones
    build it once): the full series on the kernel's location window (the
    path of the path functionals and `sample-paths`), but the cumulative
    hazard, which weighs the atoms of an interval where K_T is flat by one
    value, draws their mass whole there (the plan's bulk) where the family
    has a total-mass law (mass_law)."""
    window = kernels.location_window(config.kernel, config.horizon)
    flat = config.kernel.flat(config.horizon)
    law = None
    if config.functional is Functional.CUMULATIVE_HAZARD and flat is not None:
        law = config.intensity.mass_law(flat[1] - flat[0])
    bulk = None if law is None else (flat, law)
    return crm.plan(config.intensity, window, config.epsilon, bulk)


def sample_crm(config: ExperimentConfig, replicate: int) -> crm.CrmSample:
    """Draw replicate r for the config's functional from its one plan
    (_draw_plan)."""
    return crm.sample(_draw_plan(config), _stream(config, replicate))


_FUNCTIONALS = {
    Functional.CUMULATIVE_HAZARD: cumhaz,
    Functional.PATH_SECOND_MOMENT: path_second_moment,
    Functional.PATH_VARIANCE: path_variance,
}


def _replicate(config: ExperimentConfig, r: int) -> float:
    """Replicate r's value.  The functional and sample_crm are looked up at
    each call, so the wrappers of perfbench/spans.py see every draw."""
    return _FUNCTIONALS[config.functional](sample_crm(config, r), config.kernel, config.horizon)


def _exact_mean(config: ExperimentConfig, epsilon: float) -> float:
    """Quadrature value of the mean of the functional as sample_crm draws
    it, with the jumps truncated at epsilon (0: the untruncated CRM); a
    bulk, where sample_crm draws one, is never truncated.  The path second
    moment is (1/T) [K1^2 int m(t)^2 dt + K2 int Q_T(x,x) dx] with m the
    kernel's slice mass, for homogeneous intensities only, the only ones
    the catalog has a quadratic limit for (a non-homogeneous one raises
    ValueError); the path variance subtracts E[(H/T)^2] = (I_1^2 + I_2)/T^2."""
    kernel, intensity, T = config.kernel, config.intensity, config.horizon
    if config.functional is Functional.CUMULATIVE_HAZARD:
        i1 = I_moments(kernel, intensity, T, 1, epsilon)
        bulk = _draw_plan(config).bulk
        if bulk is None:
            return i1
        # the mass below epsilon that the bulk keeps
        (a, b), _ = bulk
        k = kernels.K_T(kernel, T, 0.5 * (a + b))
        return i1 + k * (b - a) * crm.mean_below(intensity, epsilon)
    if not intensity.homogeneous:
        raise ValueError(f"the mean-square centering covers homogeneous intensities, "
                         f"not {intensity.label()}")
    lo, hi = kernels.location_window(kernel, T)
    k1 = crm.jump_moment(intensity, 1.0, 0.0, epsilon)
    k2 = crm.jump_moment(intensity, 2.0, 0.0, epsilon)
    # int_0^T (int k(t,x) dx)^2 dt
    mean_part = k1 ** 2 * quad_breaks(lambda t: kernel.slice_mass(t) ** 2, 0.0, T,
                                      kernel.slice_kinks, rel_tol=1e-11)
    second_part = k2 * quad_breaks(lambda x: kernels.Q_T(kernel, T, x, x), lo, hi,
                                   kernel.breaks(T), rel_tol=1e-10)
    mean_sq = (mean_part + second_part) / T
    if config.functional is Functional.PATH_SECOND_MOMENT:
        return mean_sq
    i2 = I_moments(kernel, intensity, T, 2, epsilon)
    return mean_sq - ((I_moments(kernel, intensity, T, 1, epsilon) / T) ** 2 + i2 / T ** 2)


def run_clt(config: ExperimentConfig, workers: Optional[int] = None) -> CltReport:
    """Simulate R replicates, standardize rate(T) * (value - centering(T)),
    and test the Gaussian limit (KS against N(0, target) plus the variance
    ratio).

    Refuses to run when the epsilon-truncation bias of the standardized
    statistic exceeds TRUNCATION_BUDGET of the target standard deviation
    (with quadrature centering the bias is absorbed into the centering,
    so only catalog centering can trip the budget), and raises the
    catalog's NotCatalogedError for a pair without a cataloged limit.
    The worker count is resolve_workers(workers), given the atoms all
    replicates expect (the draw plan's, whose build refuses an oversized
    draw before the centering quadrature and the pool start): by default a
    run too small to pay for the pool's start-up is drawn in this process.
    """
    spec = regime(config.kernel, config.intensity, config.functional)
    T, R = config.horizon, config.replicates
    nworkers = resolve_workers(workers, R * _draw_plan(config).atoms)
    rate_value = spec.rate(T)
    target_sd = math.sqrt(spec.limit_variance)

    if config.centering_mode == CENTERING_QUADRATURE:
        # the centering absorbs the truncation shift
        centering_used = _exact_mean(config, config.epsilon)
    else:
        full = _exact_mean(config, 0.0)
        centering_used = (full if isinstance(spec.centering, MonteCarloMean)
                          else spec.centering(T))
        # bias of the standardized mean induced by epsilon-truncation alone
        residual_bias = abs(rate_value * (full - _exact_mean(config, config.epsilon)))
        if residual_bias > TRUNCATION_BUDGET * target_sd:
            raise TruncationBudgetError(
                f"truncation bias {residual_bias:.4g} exceeds {TRUNCATION_BUDGET:.0%} of the "
                f"target sd {target_sd:.4g}; lower epsilon or use quadrature centering")

    draw = partial(_replicate, config)
    if nworkers == 1:
        values = [draw(r) for r in range(R)]
    else:
        with multiprocessing.Pool(nworkers) as pool:
            values = pool.map(draw, range(R))

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
