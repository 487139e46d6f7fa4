"""Completely random measures on the positive half-line.

Three jump-intensity families are supported, each with Lebesgue base
measure on locations:

* generalized gamma   rho(dv)   = e^{-gamma v} v^{-1-sigma} / Gamma(1-sigma) dv
* extended gamma      rho(dv|x) = e^{-beta(x) v} / v dv
* beta                rho(dv|x) = c(x) (1-v)^{c(x)-1} / v dv   on (0,1)

The module provides closed-form jump moments and tail masses, exact
truncated moments, a Ferguson-Klass inverse-tail sampler for the
homogeneous cases and a thinning sampler against a constant-parameter
envelope for the non-homogeneous ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np
from scipy import special

from ._numeric import comp_sum

__all__ = [
    "Constant", "AffineSqrt", "IndicatorSqrt", "PositiveFunction",
    "GeneralizedGamma", "ExtendedGamma", "Beta", "JumpIntensity",
    "CrmSample", "EnvelopeError",
    "is_homogeneous", "moment", "moment_general", "moment_truncated",
    "tail_mass", "jump_density", "mean_below", "jump_moment",
    "sample_homogeneous", "sample_nonhomogeneous",
]


class EnvelopeError(Exception):
    """No valid constant-parameter envelope exists on the window."""


# ---------------------------------------------------------------------------
# positive functions (non-homogeneity profiles)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """x -> a with a > 0."""
    a: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"Constant requires a > 0, got {self.a}")

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.a)

    def inf_on(self, lo: float, hi: float) -> float:
        return self.a

    def sup_on(self, lo: float, hi: float) -> float:
        return self.a

    def label(self) -> str:
        return f"constant({self.a:g})"


@dataclass(frozen=True)
class AffineSqrt:
    """x -> a + b*sqrt(x) with a > 0, b > 0.

    a = 0 is rejected: the function must stay strictly positive at x = 0.
    """
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"AffineSqrt requires a > 0 (value 0 at x=0 otherwise), got a={self.a}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"AffineSqrt requires b > 0, got b={self.b}")

    def __call__(self, x):
        return self.a + self.b * np.sqrt(np.asarray(x, dtype=float))

    def inf_on(self, lo: float, hi: float) -> float:
        return self.a + self.b * math.sqrt(max(lo, 0.0))   # increasing

    def sup_on(self, lo: float, hi: float) -> float:
        return self.a + self.b * math.sqrt(hi)

    def label(self) -> str:
        return f"affine_sqrt({self.a:g},{self.b:g})"


@dataclass(frozen=True)
class IndicatorSqrt:
    """x -> 1 on (0, b], sqrt(x) on (b, inf); b > 0."""
    b: float

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"IndicatorSqrt requires b > 0, got b={self.b}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.b, 1.0, np.sqrt(np.maximum(x, self.b)))

    def inf_on(self, lo: float, hi: float) -> float:
        vals = [1.0] if lo < self.b else []
        if hi > self.b:
            vals.append(math.sqrt(max(lo, self.b)))
        return min(vals)

    def sup_on(self, lo: float, hi: float) -> float:
        vals = [1.0] if lo < self.b else []
        if hi > self.b:
            vals.append(math.sqrt(hi))
        return max(vals)

    def label(self) -> str:
        return f"indicator_sqrt({self.b:g})"


PositiveFunction = Union[Constant, AffineSqrt, IndicatorSqrt]


# ---------------------------------------------------------------------------
# jump intensities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedGamma:
    """Tilted-stable family; sigma in (0, 1), gamma > 0.

    gamma = 0 (the stable case) is rejected: its jump moments diverge.
    """
    sigma: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise ValueError(f"sigma must lie in (0,1), got {self.sigma}")
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be > 0 (gamma = 0, the stable case, is excluded), got {self.gamma}")

    def label(self) -> str:
        return f"generalized_gamma(sigma={self.sigma:g},gamma={self.gamma:g})"


@dataclass(frozen=True)
class ExtendedGamma:
    """Weighted gamma family with rate profile beta_fn(x) > 0."""
    beta_fn: PositiveFunction

    def label(self) -> str:
        return f"extended_gamma({self.beta_fn.label()})"


@dataclass(frozen=True)
class Beta:
    """Beta family with concentration profile c_fn(x) > 0; jumps in (0,1)."""
    c_fn: PositiveFunction

    def label(self) -> str:
        return f"beta({self.c_fn.label()})"


JumpIntensity = Union[GeneralizedGamma, ExtendedGamma, Beta]


def is_homogeneous(intensity: JumpIntensity) -> bool:
    """True when rho(dv|x) does not depend on x."""
    if isinstance(intensity, GeneralizedGamma):
        return True
    fn = intensity.beta_fn if isinstance(intensity, ExtendedGamma) else intensity.c_fn
    return isinstance(fn, Constant)


def _profile_value(intensity: JumpIntensity, x) -> np.ndarray:
    if isinstance(intensity, ExtendedGamma):
        return np.asarray(intensity.beta_fn(x), dtype=float)
    if isinstance(intensity, Beta):
        return np.asarray(intensity.c_fn(x), dtype=float)
    raise TypeError("generalized gamma has no location profile")


# ---------------------------------------------------------------------------
# moments, tails, densities
# ---------------------------------------------------------------------------

def moment_general(intensity: JumpIntensity, a: float, x=None) -> float:
    """K_rho^(a)(x) = int v^a rho(dv|x) for any real order a >= 1.

    Closed forms: generalized gamma Gamma(a-sigma)/(Gamma(1-sigma) gamma^{a-sigma});
    extended gamma Gamma(a) beta(x)^{-a}; beta Gamma(a) Gamma(1+c) / Gamma(a+c).
    """
    if a < 1:
        raise ValueError(f"order must be >= 1, got {a}")
    if isinstance(intensity, GeneralizedGamma):
        s, g = intensity.sigma, intensity.gamma
        return math.exp(math.lgamma(a - s) - math.lgamma(1.0 - s) - (a - s) * math.log(g))
    if x is None:
        if not is_homogeneous(intensity):
            raise ValueError(f"{intensity.label()} is non-homogeneous: supply the location x")
        x = 0.0
    p = _profile_value(intensity, x)
    if isinstance(intensity, ExtendedGamma):
        val = np.exp(special.gammaln(a) - a * np.log(p))
    else:
        val = np.exp(special.gammaln(a) + special.gammaln(1.0 + p) - special.gammaln(a + p))
    return float(val) if np.ndim(val) == 0 or np.size(val) == 1 else val


def moment(intensity: JumpIntensity, order: int, x=None) -> float:
    """Jump moment K_rho^(order)(x) for order in {1, 2, 3, 4}.

    For homogeneous intensities x may be omitted; non-homogeneous ones
    require it.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be one of 1,2,3,4, got {order}")
    if not is_homogeneous(intensity) and x is None:
        raise ValueError(f"{intensity.label()} is non-homogeneous: supply the location x")
    return moment_general(intensity, float(order), x)


def moment_truncated(intensity: JumpIntensity, a: float, epsilon: float, x=None) -> float:
    """Truncated moment int_epsilon^inf v^a rho(dv|x), closed form.

    This is the exact jump moment of the epsilon-truncated simulation and
    drives the bias-corrected Monte Carlo centerings.
    """
    if epsilon <= 0:
        return moment_general(intensity, a, x)
    full = moment_general(intensity, a, x)
    if isinstance(intensity, GeneralizedGamma):
        return full * float(special.gammaincc(a - intensity.sigma, intensity.gamma * epsilon))
    if not is_homogeneous(intensity) and x is None:
        raise ValueError("non-homogeneous intensity needs x")
    p = _profile_value(intensity, 0.0 if x is None else x)
    if isinstance(intensity, ExtendedGamma):
        return full * float(special.gammaincc(a, p * epsilon))
    if epsilon >= 1.0:
        return 0.0
    return full * float(1.0 - special.betainc(a, p, epsilon))


def jump_moment(intensity: JumpIntensity, a: float, x, epsilon: float = 0.0):
    """Full (epsilon = 0) or epsilon-truncated jump moment of order a at
    the location(s) x, shaped like x.  A homogeneous family's moment does
    not depend on x: it is computed once and broadcast."""
    if is_homogeneous(intensity):
        c = moment_truncated(intensity, a, epsilon)
        return np.full(np.shape(x), c) if np.ndim(x) else c
    val = moment_truncated(intensity, a, epsilon, x)
    return np.asarray(val, dtype=float) if np.ndim(x) else val


def mean_below(intensity: JumpIntensity, epsilon: float, x=None) -> float:
    """int_0^epsilon v rho(dv|x): the mean jump mass lost to truncation."""
    if epsilon <= 0:
        return 0.0
    return moment_general(intensity, 1.0, x) - moment_truncated(intensity, 1.0, epsilon, x)


def jump_density(intensity: JumpIntensity, v, x=None):
    """Levy density rho(v|x) (with respect to dv)."""
    v = np.asarray(v, dtype=float)
    if isinstance(intensity, GeneralizedGamma):
        s, g = intensity.sigma, intensity.gamma
        return np.where(v > 0, np.exp(-g * v) * v ** (-1.0 - s) / math.gamma(1.0 - s), 0.0)
    if not is_homogeneous(intensity) and x is None:
        raise ValueError("non-homogeneous intensity needs x")
    p = _profile_value(intensity, 0.0 if x is None else x)
    if isinstance(intensity, ExtendedGamma):
        return np.where(v > 0, np.exp(-p * v) / np.where(v > 0, v, 1.0), 0.0)
    inside = (v > 0) & (v < 1)
    vsafe = np.where(inside, v, 0.5)
    return np.where(inside, p * np.exp(special.xlog1py(p - 1.0, -vsafe)) / vsafe, 0.0)


_BETA_SERIES_TERMS = 80
_GL128 = np.polynomial.legendre.leggauss(128)


def _beta_tail_const(c: float, v: np.ndarray) -> np.ndarray:
    # int_v^1 c (1-u)^{c-1} / u du, vectorized and accurate to ~1e-14.
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    live = (v > 0) & (v < 1)
    if not np.any(live):
        return out
    vv = v[live]
    # upper piece on [max(v, 1/2), 1): geometric series of int z^{c-1+k} dz
    m = np.maximum(vv, 0.5)
    z = 1.0 - m
    upper = np.zeros_like(vv)
    zpow = z ** c
    for k in range(_BETA_SERIES_TERMS):
        upper += c * zpow / (c + k)
        zpow *= z
    # lower piece on [v, 1/2) in log coordinates: int c (1-e^y)^{c-1} dy
    need = vv < 0.5
    lower = np.zeros_like(vv)
    if np.any(need):
        y0 = np.log(vv[need])
        y1 = math.log(0.5)
        nodes, wts = _GL128
        half = 0.5 * (y1 - y0)
        ys = half[:, None] * nodes[None, :] + (0.5 * (y0 + y1))[:, None]
        integ = c * np.exp(special.xlog1py(c - 1.0, -np.exp(ys)))
        lower[need] = half * np.sum(wts[None, :] * integ, axis=1)
    out[live] = upper + lower
    return out


def tail_mass(intensity: JumpIntensity, v, x=None):
    """N_rho(v|x) = int_v^inf rho(du|x): strictly decreasing, diverging as
    v -> 0+ (infinite activity).  Vectorized over v."""
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr <= 0):
        raise ValueError("tail_mass requires v > 0")
    if isinstance(intensity, GeneralizedGamma):
        s, g = intensity.sigma, intensity.gamma
        z = g * v_arr
        # Gamma(-s, z) through the recurrence Gamma(-s,z) = (z^-s e^-z - Gamma(1-s,z))/s
        upper = z ** (-s) * np.exp(-z) - math.gamma(1.0 - s) * special.gammaincc(1.0 - s, z)
        out = (g ** s / math.gamma(1.0 - s)) * upper / s
        out = np.maximum(out, 0.0)
    else:
        if not is_homogeneous(intensity) and x is None:
            raise ValueError("non-homogeneous intensity needs x")
        p = float(_profile_value(intensity, 0.0 if x is None else x))
        if isinstance(intensity, ExtendedGamma):
            out = special.exp1(p * v_arr)
        else:
            out = _beta_tail_const(p, v_arr)
    return float(out) if np.ndim(v) == 0 else out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrmSample:
    """A realized, epsilon-truncated CRM on a bounded window.

    jumps are non-increasing (Ferguson-Klass order); every jump is
    >= epsilon; mean_deficit bounds the mean mass discarded below
    epsilon.  envelope records the thinning envelope, when one was used.
    """
    jumps: np.ndarray
    locations: np.ndarray
    window: tuple
    epsilon: float
    mean_deficit: float
    seed: Optional[int] = None
    envelope: str = ""

    def __post_init__(self):
        object.__setattr__(self, "jumps", np.asarray(self.jumps, dtype=float))
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        if self.jumps.shape != self.locations.shape:
            raise ValueError("jumps and locations must have equal length")

    @property
    def size(self) -> int:
        return int(self.jumps.size)

    def total_mass(self) -> float:
        return comp_sum(self.jumps)

    def to_csv_text(self) -> str:
        a, b = self.window
        seed = "none" if self.seed is None else str(self.seed)
        lines = [
            f"# epsilon={self.epsilon:.17g} window={a:.17g},{b:.17g} "
            f"mean_deficit={self.mean_deficit:.17g} seed={seed}",
            "jump,location",
        ]
        lines.extend(f"{j:.17g},{x:.17g}" for j, x in zip(self.jumps, self.locations))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())


def _check_window(window) -> tuple:
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo >= 0.0):
        raise ValueError(f"window must be a bounded interval [a,b) with 0 <= a < b, got {window}")
    return lo, hi


def _jump_ceiling(intensity: JumpIntensity) -> float:
    return 1.0 if isinstance(intensity, Beta) else math.inf


@lru_cache(maxsize=64)
def _inverse_tail_table(intensity: JumpIntensity, rate: float, epsilon: float):
    """Cached monotone-cubic interpolant of a log jump coordinate against
    log N(v) = log(rate * tail_mass(v)), for inverse-tail sampling.

    The coordinate is log v for the unbounded families and log(1 - v)
    for the beta family, whose tail flattens only in 1 - v near the
    jump ceiling.
    """
    from scipy.interpolate import PchipInterpolator
    if isinstance(intensity, Beta):
        if epsilon >= 1.0:
            return None
        # logit coordinate resolves both the v -> 0 and v -> 1 regimes
        lo_side = np.geomspace(epsilon, 0.5, 4096)
        hi_side = 1.0 - np.geomspace(1e-13, 0.5, 4096)[::-1]
        grid = np.unique(np.concatenate([lo_side, hi_side]))
        coord = special.logit(grid)
        n = rate * tail_mass(intensity, grid)
        keep = n > 0
        # reverse so log N ascends; the coordinate then descends
        coord, n = coord[keep][::-1], n[keep][::-1]
    else:
        vmax = max(2.0 * epsilon, 1.0)
        while rate * tail_mass(intensity, vmax) > 1e-12 and vmax < 1e6:
            vmax *= 2.0
        grid = np.exp(np.linspace(math.log(epsilon), math.log(vmax), 8192))
        n = rate * tail_mass(intensity, grid)
        keep = n > 0
        coord, n = np.log(grid[keep])[::-1], n[keep][::-1]
    logN = np.log(n)
    lo, hi = float(np.min(coord)), float(np.max(coord))
    return PchipInterpolator(logN, coord.copy(), extrapolate=True), lo, hi


def _invert_tail(intensity: JumpIntensity, rate: float, epsilon: float,
                 gammas: np.ndarray) -> np.ndarray:
    """Solve rate * tail_mass(v) = g for each arrival time g.

    A dense cached monotone interpolant gives the start; one Newton step
    in the log coordinate against the exact tail polishes the inversion
    residual |N(v)/g - 1| below ~1e-11 (asserted by the property tests).
    """
    if gammas.size == 0:
        return gammas
    table = _inverse_tail_table(intensity, rate, epsilon)
    interp, lo, hi = table
    coord = np.clip(interp(np.log(gammas)), lo, hi)
    beta = isinstance(intensity, Beta)
    to_v = special.expit if beta else np.exp
    for _ in range(2 if beta else 1):
        v = to_v(coord)
        nv = rate * tail_mass(intensity, v)
        dens = rate * jump_density(intensity, v)
        # d log N / d coord: -v rho / N in log v, -v(1-v) rho / N in logit v
        dv_dcoord = v * (1.0 - v) if beta else v
        slope = -dv_dcoord * dens / nv
        step = (np.log(nv) - np.log(gammas)) / slope
        coord = np.clip(coord - np.clip(step, -1.0, 1.0), lo, hi)
    return to_v(coord)


def _fk_jumps(intensity: JumpIntensity, rate: float, epsilon: float,
              rng: np.random.Generator) -> np.ndarray:
    """Ferguson-Klass series for a homogeneous intensity scaled by `rate`:
    unit-rate Poisson arrivals inverted through v -> rate*tail_mass(v),
    stopped at the first jump below epsilon."""
    n_eps = rate * tail_mass(intensity, epsilon) if epsilon < _jump_ceiling(intensity) else 0.0
    if n_eps <= 0.0:
        return np.empty(0)
    chunks = []
    total = 0.0
    want = int(n_eps + 10.0 * math.sqrt(n_eps) + 64)
    while total < n_eps:
        e = rng.exponential(size=want)
        chunks.append(e)
        total += float(np.sum(e))
        want = max(64, want // 4)
    gammas = np.cumsum(np.concatenate(chunks))
    gammas = gammas[gammas < n_eps]
    return _invert_tail(intensity, rate, epsilon, gammas)


def sample_homogeneous(intensity: JumpIntensity, window, epsilon: float,
                       rng: np.random.Generator, seed: Optional[int] = None) -> CrmSample:
    """Exact-above-epsilon Ferguson-Klass sample of a homogeneous CRM.

    Jumps come out non-increasing; locations are uniform on the window;
    mean_deficit = |window| * int_0^epsilon v rho(dv).
    """
    lo, hi = _check_window(window)
    if not (epsilon > 0):
        raise ValueError("epsilon must be > 0")
    if not is_homogeneous(intensity):
        raise ValueError(
            f"{intensity.label()} is non-homogeneous; use sample_nonhomogeneous")
    measure = hi - lo
    jumps = _fk_jumps(intensity, measure, epsilon, rng)
    locations = rng.uniform(lo, hi, size=jumps.size)
    deficit = measure * mean_below(intensity, epsilon)
    return CrmSample(jumps, locations, (lo, hi), epsilon, deficit, seed=seed)


def _envelope(intensity: JumpIntensity, lo: float, hi: float):
    """Tightest constant-parameter envelope of the same family on the window.

    Returns (homogeneous envelope intensity, rate multiplier, acceptance
    probability function of (v, x)).
    """
    if isinstance(intensity, ExtendedGamma):
        L = intensity.beta_fn.inf_on(lo, hi)
        if L <= 0:
            raise ValueError("envelope infimum must be > 0 on the window")
        fn = intensity.beta_fn

        def accept(v, x):
            return np.exp(-(fn(x) - L) * v)

        return ExtendedGamma(Constant(L)), 1.0, accept, f"extended_gamma(constant({L:g}))"
    if isinstance(intensity, Beta):
        c_min = intensity.c_fn.inf_on(lo, hi)
        c_max = intensity.c_fn.sup_on(lo, hi)
        if c_min < 1.0:
            raise EnvelopeError(
                f"beta thinning needs inf c >= 1 on the window; got inf c = {c_min:g} "
                f"for {intensity.c_fn.label()} on [{lo:g},{hi:g}]")
        fn = intensity.c_fn

        def accept(v, x):
            c = fn(x)
            return (c / c_max) * np.exp(special.xlog1py(c - c_min, -v))

        return Beta(Constant(c_min)), c_max / c_min, accept, \
            f"beta(constant({c_min:g}))*{c_max / c_min:g}"
    raise ValueError("generalized gamma is homogeneous; use sample_homogeneous")


def sample_nonhomogeneous(intensity: JumpIntensity, window, epsilon: float,
                          rng: np.random.Generator, seed: Optional[int] = None) -> CrmSample:
    """Thinning sampler for extended-gamma / beta intensities.

    A homogeneous envelope (constant-parameter member of the same family,
    scaled for beta by sup c / inf c) is sampled by Ferguson-Klass; the
    atom (v, x) is accepted with probability rho(v|x)/rho_env(v), which is
    exp(-(beta(x)-L)v) resp. (c(x)/c_max)(1-v)^{c(x)-c_min}.
    """
    lo, hi = _check_window(window)
    if not (epsilon > 0):
        raise ValueError("epsilon must be > 0")
    if isinstance(intensity, GeneralizedGamma):
        raise ValueError("generalized gamma is homogeneous; use sample_homogeneous")
    env_intensity, rate_mult, accept, env_label = _envelope(intensity, lo, hi)
    measure = (hi - lo) * rate_mult
    jumps = _fk_jumps(env_intensity, measure, epsilon, rng)
    locations = rng.uniform(lo, hi, size=jumps.size)
    u = rng.uniform(size=jumps.size)
    p = accept(jumps, locations) if jumps.size else np.empty(0)
    keep = u < p
    jumps, locations = jumps[keep], locations[keep]
    # deficit of the *target* intensity, integrated over the window
    if is_homogeneous(intensity):
        deficit = (hi - lo) * mean_below(intensity, epsilon)
    else:
        from ._numeric import quad_breaks
        deficit = quad_breaks(
            lambda x: np.vectorize(lambda xx: mean_below(intensity, epsilon, xx))(x),
            lo, hi, rel_tol=1e-10)
    return CrmSample(jumps, locations, (lo, hi), epsilon, deficit,
                     seed=seed, envelope=env_label)
