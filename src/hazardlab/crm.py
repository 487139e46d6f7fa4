"""Completely random measures on the positive half-line.

Three jump-intensity families are supported, each with Lebesgue base
measure on locations:

* generalized gamma   rho(dv)   = e^{-gamma v} v^{-1-sigma} / Gamma(1-sigma) dv
* extended gamma      rho(dv|x) = e^{-beta(x) v} / v dv
* beta                rho(dv|x) = c(x) (1-v)^{c(x)-1} / v dv   on (0,1)

The module answers two questions: jump_moment gives the exact (full or
epsilon-truncated) jump moment at a location, and plan and sample give
an epsilon-truncated draw on a window.  plan lays the draw out once and
refuses it before anything is drawn (the series' measure, rate and
expected arrivals, its dominating measure, the thinning and the bulk);
sample draws from a plan, and every draw from one plan, on its own
stream, draws the same law.  A homogeneous draw is the Ferguson-Klass
series; a non-homogeneous one is thinned from a constant-parameter
envelope.  Ferguson-Klass runs on a dominating Levy measure nu0 >= rho
with a closed-form tail inverse and keeps each jump v with probability
rho(v)/nu0(v) (Rosinski's rejection method); extended gamma, which has
no such nu0 yet, inverts the tail of rho by one cubic per jump, from a
cached Hermite table of log v on nodes uniform in log(rate * N(v)).
Given a bulk, the draw takes that interval's mass whole, from the
family's exact total-mass law (mass_law): one exact tilted-stable draw
for generalized gamma (Devroye's double rejection), one gamma draw for
constant extended gamma.  Each family's class carries its facts; the
module functions are the validated entry points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple, Optional, Union

import numpy as np

from ._numeric import (_STREAM, betainc, betaincc, check_rules, exp1, gammainc,
                       gammaincc, gammaln, gl_panels, xlog1py)

__all__ = [
    "Constant", "AffineSqrt", "IndicatorSqrt", "PositiveFunction",
    "GeneralizedGamma", "ExtendedGamma", "Beta", "JumpIntensity",
    "CrmSample", "EnvelopeError", "Dominating", "MAX_EXPECTED_ATOMS", "Plan",
    "jump_moment", "tail_mass", "jump_density", "mean_below", "plan", "sample",
]


class EnvelopeError(ValueError):
    """No valid constant-parameter envelope exists on the window."""


# The sampler refuses a draw whose expected Ferguson-Klass series is longer
# than this: each per-atom float array of such a draw takes 160 MB.  A
# draw holds two at full length, the arrival times (overwritten by the
# jumps) and the locations; a thinned draw also holds its acceptance
# uniforms and probabilities and the thinned copies.  The
# inverse and keep steps run over blocks of _numeric._STREAM atoms.  The
# cumulative hazard adds no array of the draw's length (it keeps blocks
# and their partials).  The path
# functionals' pair sums do, each sorting the atoms it is handed: the
# Green's-function ones ~4.3 arrays of n at their peak (the location
# order and the sorted locations, J gathered, then J g and the decayed
# prefix sum), the rectangular sweep five of 2n (the gaps between the
# sorted starts and ends, the signed jumps in event order and the
# running sum's three).
MAX_EXPECTED_ATOMS = 2e7


class Dominating(NamedTuple):
    """A Levy measure nu0 >= rho for Rosinski's rejection method: its tail
    v -> nu0((v, inf)), the closed-form inverse of that tail, and the keep
    probability v -> rho(v) / nu0(v) in [0, 1]."""
    tail: Callable
    inverse: Callable
    keep: Callable


# ---------------------------------------------------------------------------
# positive functions (non-homogeneity profiles)
# ---------------------------------------------------------------------------
# Each profile also carries `constant` (it does not depend on x).  Only a
# non-constant profile is thinned, so only those carry the bounds
# inf_on(lo, hi) and sup_on(lo, hi) of its thinning envelope and
# `sqrt_slope`, the b with fn(x) ~ b sqrt(x) as x -> infinity (None when
# the profile does not grow like sqrt(x)).

@dataclass(frozen=True)
class Constant:
    """x -> value."""
    value: float
    # each parameter's range {field: (test, text)}: check_rules, the INI parser
    RULES: ClassVar[dict] = {"value": (lambda x: x > 0, "value > 0")}
    constant: ClassVar[bool] = True
    # the points where the profile is not smooth
    kinks: ClassVar[tuple] = ()
    __post_init__ = check_rules

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def label(self) -> str:
        return f"constant({self.value:g})"


@dataclass(frozen=True)
class AffineSqrt:
    """x -> a + b*sqrt(x)."""
    a: float
    b: float
    RULES: ClassVar[dict] = {"a": (lambda x: x > 0, "a > 0 (value 0 at x=0 otherwise)"),
                             "b": (lambda x: x > 0, "b > 0")}
    constant: ClassVar[bool] = False
    kinks: ClassVar[tuple] = (0.0,)
    __post_init__ = check_rules

    def __call__(self, x):
        return self.a + self.b * np.sqrt(np.asarray(x, dtype=float))

    @property
    def sqrt_slope(self) -> float:
        return self.b

    def inf_on(self, lo: float, hi: float) -> float:
        return self.a + self.b * math.sqrt(max(lo, 0.0))   # increasing

    def sup_on(self, lo: float, hi: float) -> float:
        return self.a + self.b * math.sqrt(hi)

    def label(self) -> str:
        return f"affine_sqrt({self.a:g},{self.b:g})"


@dataclass(frozen=True)
class IndicatorSqrt:
    """x -> 1 on (0, b], sqrt(x) on (b, inf)."""
    b: float
    RULES: ClassVar[dict] = {"b": (lambda x: x > 0, "b > 0")}
    constant: ClassVar[bool] = False
    sqrt_slope: ClassVar[Optional[float]] = 1.0
    __post_init__ = check_rules

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.b, 1.0, np.sqrt(np.maximum(x, self.b)))

    @property
    def kinks(self) -> tuple:
        return (self.b,)

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

class _Family:
    """Defaults for the family facts.  Every family also defines, at its
    parameter p = param(x): moment(a, p) = int v^a rho(dv), the shares
    above(a, epsilon, p) and below(a, epsilon, p) of that moment carried by
    jumps above and below epsilon (each a regularised incomplete function,
    so neither is 1 minus the other), density(v, p) and tail(v, p) =
    int_v^inf rho(du); the thinning envelope(lo, hi), the tightest
    constant-parameter envelope of the same family on the window, as
    (homogeneous envelope intensity, rate multiplier, acceptance probability
    function of (v, x)) (non-homogeneous members only).  dominating() gives
    the Dominating measure Ferguson-Klass runs on (homogeneous members
    only), or None where the sampler inverts the tail of rho itself
    (extended gamma).
    mass_law(length) gives the exact draw rng -> mass of the untruncated
    total mass on an interval of that length, or None where the family has
    no closed-form law (beta, non-constant profiles)."""
    # every jump lies below the ceiling
    ceiling: ClassVar[float] = math.inf
    homogeneous: ClassVar[bool] = True
    # the locations where rho(dv|x) is not smooth in x: breakpoints of
    # every quadrature over x
    kinks: ClassVar[tuple] = ()
    # each parameter's range, as on the profiles
    RULES: ClassVar[dict] = {}
    __post_init__ = check_rules

    def param(self, x):
        """The family parameter at the location(s) x; x may be None for a
        homogeneous intensity."""
        return None

    def dominating(self) -> Optional[Dominating]:
        return None

    def mass_law(self, length: float) -> Optional[Callable]:
        return None


@dataclass(frozen=True)
class _Profiled(_Family):
    """Families whose parameter at x is the value of the location profile fn."""
    fn: PositiveFunction

    @property
    def homogeneous(self) -> bool:
        return self.fn.constant

    @property
    def kinks(self) -> tuple:
        return self.fn.kinks

    def param(self, x):
        if x is None:
            if not self.homogeneous:
                raise ValueError(f"{self.label()} is non-homogeneous: supply the location x")
            x = 0.0
        return np.asarray(self.fn(x), dtype=float)


@dataclass(frozen=True)
class GeneralizedGamma(_Family):
    """Tilted-stable family.

    gamma = 0 (the stable case) is rejected: its jump moments diverge.
    """
    sigma: float
    gamma: float
    RULES: ClassVar[dict] = {"sigma": (lambda x: 0 < x < 1, "sigma in (0,1)"),
                             "gamma": (lambda x: x > 0, "gamma > 0")}

    def label(self) -> str:
        return f"generalized_gamma(sigma={self.sigma:g},gamma={self.gamma:g})"

    def moment(self, a, p):
        s, g = self.sigma, self.gamma
        return math.exp(math.lgamma(a - s) - math.lgamma(1.0 - s) - (a - s) * math.log(g))

    def above(self, a, epsilon, p):
        return gammaincc(a - self.sigma, self.gamma * epsilon)

    def below(self, a, epsilon, p):
        return gammainc(a - self.sigma, self.gamma * epsilon)

    def density(self, v, p):
        s, g = self.sigma, self.gamma
        return np.where(v > 0, np.exp(-g * v) * v ** (-1.0 - s) / math.gamma(1.0 - s), 0.0)

    def tail(self, v, p):
        s, g = self.sigma, self.gamma
        z = g * v
        # Gamma(-s, z) through the recurrence Gamma(-s,z) = (z^-s e^-z - Gamma(1-s,z))/s
        upper = z ** (-s) * np.exp(-z) - math.gamma(1.0 - s) * gammaincc(1.0 - s, z)
        return np.maximum((g ** s / math.gamma(1.0 - s)) * upper / s, 0.0)

    def dominating(self) -> Dominating:
        # the stable measure v^{-1-sigma} / Gamma(1-sigma) dv
        s, g = self.sigma, self.gamma
        c = s * math.gamma(1.0 - s)
        return Dominating(lambda v: v ** -s / c,
                          lambda n: (c * n) ** (-1.0 / s),
                          lambda v: np.exp(-g * v))

    def mass_law(self, length: float) -> Callable:
        # The mass has Laplace exponent length ((gamma + s)^sigma -
        # gamma^sigma) / sigma: (length / sigma)^{1/sigma} S, S positive
        # sigma-stable, tilted by e^{-lambda S} with lambda = gamma
        # (length / sigma)^{1/sigma}, so lambda^sigma = length gamma^sigma / sigma.
        s, g = self.sigma, self.gamma
        return _TiltedStable(s, length * g ** s / s, math.log(length / s) / s)


@dataclass(frozen=True)
class ExtendedGamma(_Profiled):
    """Weighted gamma family with rate profile fn(x) > 0."""

    def label(self) -> str:
        return f"extended_gamma({self.fn.label()})"

    def moment(self, a, p):
        return np.exp(gammaln(a) - a * np.log(p))

    def above(self, a, epsilon, p):
        return gammaincc(a, p * epsilon)

    def below(self, a, epsilon, p):
        return gammainc(a, p * epsilon)

    def density(self, v, p):
        return np.where(v > 0, np.exp(-p * v) / np.where(v > 0, v, 1.0), 0.0)

    def tail(self, v, p):
        return exp1(p * v)

    def envelope(self, lo: float, hi: float):
        fn, L = self.fn, self.fn.inf_on(lo, hi)

        def accept(v, x):
            return np.exp(-(fn(x) - L) * v)

        return ExtendedGamma(Constant(L)), 1.0, accept

    def mass_law(self, length: float) -> Optional[Callable]:
        # Gamma(length, beta)
        if not self.fn.constant:
            return None
        return lambda rng: float(rng.gamma(length, 1.0 / self.fn.value))

    # No dominating measure: dv / (v (1 + beta v)) would serve, with keep
    # probability e^{-beta v}(1 + beta v), but it moves the seeded stream
    # that the criterion-6 KS gates are pinned to (ROADMAP item 1).  The
    # family inverts its own tail through the Hermite table of
    # _inverse_tail_table instead, one cubic per jump; it is the table's
    # only user.


_BETA_SERIES_TERMS = 80
_BETA_ROW_BLOCK = 4096


@dataclass(frozen=True)
class Beta(_Profiled):
    """Beta family with concentration profile fn(x) > 0; jumps in (0,1)."""
    ceiling: ClassVar[float] = 1.0

    def label(self) -> str:
        return f"beta({self.fn.label()})"

    def moment(self, a, p):
        return np.exp(gammaln(a) + gammaln(1.0 + p) - gammaln(a + p))

    def above(self, a, epsilon, p):
        return betaincc(a, p, epsilon)

    def below(self, a, epsilon, p):
        return betainc(a, p, min(epsilon, 1.0))

    def density(self, v, p):
        inside = (v > 0) & (v < 1)
        vsafe = np.where(inside, v, 0.5)
        return np.where(inside, p * np.exp(xlog1py(p - 1.0, -vsafe)) / vsafe, 0.0)

    def tail(self, v, c):
        # int_v^1 c (1-u)^{c-1} / u du, vectorized and accurate to ~1e-14.
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
        # lower piece on [v, 1/2) in log coordinates: int c (1-e^y)^{c-1} dy,
        # in row blocks because the rule holds 128 nodes per point
        need = np.flatnonzero(vv < 0.5)
        lower = np.zeros_like(vv)
        for i in range(0, need.size, _BETA_ROW_BLOCK):
            rows = need[i:i + _BETA_ROW_BLOCK]
            ys, ws = gl_panels(np.log(vv[rows]), math.log(0.5), 128)
            integ = c * np.exp(xlog1py(c - 1.0, -np.exp(ys)))
            lower[rows] = np.sum(ws * integ, axis=1)
        out[live] = upper + lower
        return out

    def envelope(self, lo: float, hi: float):
        fn = self.fn
        c_min, c_max = fn.inf_on(lo, hi), fn.sup_on(lo, hi)
        if c_min < 1.0:
            raise EnvelopeError(
                f"beta thinning needs inf c >= 1 on the window; got inf c = {c_min:g} "
                f"for {fn.label()} on [{lo:g},{hi:g}]")

        def accept(v, x):
            c = fn(x)
            return (c / c_max) * np.exp(xlog1py(c - c_min, -v))

        return Beta(Constant(c_min)), c_max / c_min, accept

    def dominating(self) -> Dominating:
        c = self.fn.value
        if c >= 1.0:
            # c dv / v on (0, 1), tail -c log v, keep (1-v)^{c-1}
            return Dominating(lambda v: -c * np.log(v),
                              lambda n: np.exp(-n / c),
                              lambda v: np.exp(xlog1py(c - 1.0, -v)))
        # c < 1, where (1-v)^{c-1} is unbounded: c 2^{1-c} dv / v on (0, 1/2]
        # and 2c (1-v)^{c-1} dv on (1/2, 1), whose tail is t = 2^{1-c} at 1/2.
        # Each piece is evaluated on its own points only ((n/2)^{1/c}
        # overflows for large n at small c), and the jumps nearest the
        # ceiling, which round to 1, take the largest double below it.
        t, top = 2.0 ** (1.0 - c), math.nextafter(1.0, 0.0)
        return Dominating(
            lambda v: np.piecewise(v, [v >= 0.5], [lambda u: 2.0 * (1.0 - u) ** c,
                                                   lambda u: t * (1.0 - c * np.log(2.0 * u))]),
            lambda n: np.piecewise(n, [n <= t], [
                lambda g: np.minimum(1.0 - (0.5 * g) ** (1.0 / c), top),
                lambda g: 0.5 * np.exp((t - g) / (c * t))]),
            lambda v: np.piecewise(v, [v < 0.5], [lambda u: (2.0 * (1.0 - u)) ** (c - 1.0),
                                                  lambda u: 0.5 / u]))


JumpIntensity = Union[GeneralizedGamma, ExtendedGamma, Beta]


_HALF_PI_ROOT = math.sqrt(0.5 * math.pi)
_LOG_PI = math.log(math.pi)
# The tilted-stable draw's attempt cap.  Its acceptance per attempt
# depends on g = lambda^sigma sigma (1 - sigma) alone: ~0.99 as g -> 0,
# falling to 0.133 as g rises to 1, where the U proposal's body turns from
# uniform to normal (0.242 just above), and 0.535 at lambda^sigma = 1e6
# (sigma 0.05-0.95, 3,000-20,000 draws a point).  A correct draw reaches
# the cap with chance 0.867^500 ~ 1e-31.
_TILTED_STABLE_ATTEMPTS = 500


class _TiltedStable:
    """The draw rng -> e^{log_scale} S, for S positive sigma-stable with
    E e^{-s S} = e^{-s^sigma} tilted by e^{-lambda S}, lam_s = lambda^sigma:
    Devroye's double rejection (L. Devroye, "Random variate generation for
    exponentially and polynomially tilted stable distributions", ACM
    TOMACS 19(4), 2009), exact, in O(1) expected attempts for every sigma
    and tilt.  Raises ArithmeticError when _TILTED_STABLE_ATTEMPTS attempts
    all reject.

    By Kanter's representation S = X^{-b}, b = (1 - sigma)/sigma, where
    (U, X) on (0, pi) x (0, inf) has density a(U) e^{-a(U) X} / pi with
        a(u) = [sin(sigma u)^sigma sin((1 - sigma) u)^{1 - sigma} / sin u]^{1/(1 - sigma)};
    tilted, it is proportional to a(U) e^{-a(U) X - lambda X^{-b}}.  Given
    U, Y = a(U) X is log-concave with mode m = (1 - sigma) lambda^sigma /
    zeta^2, where zeta^2 = sinc u / (sinc(sigma u)^sigma
    sinc((1 - sigma) u)^{1 - sigma}).  Its envelope is a half-normal of sd
    delta = sqrt(g) / zeta below m, flat on [m, m + delta], and exponential
    of mean z = 1 / (1 - (1 + sigma zeta / sqrt(g))^{-1/sigma}) above, with
    g = lambda^sigma sigma (1 - sigma).  The envelope's mass, times
    e^{lambda^sigma}, is
        q(u) = e^{-lambda^sigma (1/zeta^2 - 1)} ((1 + sqrt(pi/2)) sqrt(g) / zeta + z),
    and U is drawn from q by rejection from pi d(u) >= q(u), with
    d(u) = xi e^{-g u^2 / 2} (xi alone when g < 1) + psi / sqrt(pi - u).
    An accepted U leaves Z = W pi d(U) / q(U) uniform on (0, 1], and -log Z
    is the exponential of the test of Y against its envelope.  Everything
    runs in logs: nothing overflows or underflows.
    """

    def __init__(self, sigma: float, lam_s: float, log_scale: float):
        self.sigma, self.lam_s, self.log_scale = sigma, lam_s, log_scale
        self.b = (1.0 - sigma) / sigma
        self.g = lam_s * sigma * (1.0 - sigma)
        self.rg = math.sqrt(self.g)
        c = 2.0 + _HALF_PI_ROOT
        xi = (1.0 + math.sqrt(2.0) * c * self.rg) / math.pi
        self.log_xi = math.log(xi)
        # psi = c sqrt(g) e^{-g pi^2 / 8} / sqrt(pi), in logs: it underflows
        # for large g
        self.log_psi = math.log(c * self.rg) - self.g * math.pi ** 2 / 8.0 - 0.5 * _LOG_PI
        # the masses on (0, pi) of d's body (a normal on (0, inf) when g >= 1)
        # and of its pole
        body = xi * math.sqrt(0.5 * math.pi / self.g) if self.g >= 1.0 else xi * math.pi
        self.p_body = body / (body + 2.0 * math.sqrt(math.pi) * math.exp(self.log_psi))

    def log_proposal(self, u: float) -> float:
        """log(pi d(u))."""
        body = self.log_xi - (0.5 * self.g * u * u if self.g >= 1.0 else 0.0)
        pole = self.log_psi - 0.5 * math.log(math.pi - u)
        return _LOG_PI + max(body, pole) + math.log1p(math.exp(-abs(body - pole)))

    def envelope(self, u: float) -> tuple:
        """(log q(u), m, delta, z): the log mass of the envelope of Y given
        U = u, and its mode, sd and exponential mean."""
        s, rg = self.sigma, self.rg
        log_iz2 = (s * math.log(math.sin(s * u) / (s * u))
                   + (1.0 - s) * math.log(math.sin((1.0 - s) * u) / ((1.0 - s) * u))
                   - math.log(math.sin(u) / u))
        delta = rg * math.exp(0.5 * log_iz2)
        z = -1.0 / math.expm1(-math.log1p(s / delta) / s)
        log_q = (-self.lam_s * math.expm1(log_iz2)
                 + math.log((1.0 + _HALF_PI_ROOT) * delta + z))
        return log_q, (1.0 - s) * self.lam_s * math.exp(log_iz2), delta, z

    def __call__(self, rng: np.random.Generator) -> float:
        s, b = self.sigma, self.b
        for _ in range(_TILTED_STABLE_ATTEMPTS):
            v, u1, u2, w, v2, u3, u4 = rng.random(7).tolist()
            if v >= self.p_body:
                u = math.pi * (1.0 - u1 * u1)         # density ~ 1 / sqrt(pi - u)
            elif self.g >= 1.0:
                u = _half_normal(u1, u2) / self.rg
            else:
                u = math.pi * u1
            if not 0.0 < u < math.pi:
                continue
            log_q, m, delta, z = self.envelope(u)
            log_z = math.log1p(-w) + self.log_proposal(u) - log_q
            if log_z > 0.0:
                continue
            tail = _HALF_PI_ROOT * delta
            pick = v2 * (tail + delta + z)
            if pick < tail:
                n = _half_normal(u3, u4)
                y, spent = m - delta * n, 0.5 * n * n
            elif pick < tail + delta:
                y, spent = m + delta * u3, 0.0
            else:
                spent = -math.log1p(-u3)
                y = m + delta + z * spent
            if not y > 0.0:
                continue
            # -log of Y's density over its envelope at y is
            # y - m + (m / b) ((m / y)^b - 1) - spent; from t = 700 on it
            # exceeds -log Z, which stays below 40
            t = b * math.log(m / y)
            if t < 700.0 and y - m + (m / b) * math.expm1(t) - spent <= -log_z:
                # log S = b (log a(u) - log y)
                log_ba = (s * math.log(math.sin(s * u))
                          + (1.0 - s) * math.log(math.sin((1.0 - s) * u))
                          - math.log(math.sin(u))) / s
                return math.exp(self.log_scale + log_ba - b * math.log(y))
        raise ArithmeticError(f"the tilted-stable draw (sigma={s:g}, lambda^sigma={self.lam_s:g}) "
                              f"accepted none of {_TILTED_STABLE_ATTEMPTS} attempts")


def _half_normal(u1: float, u2: float) -> float:
    """|N| for N standard normal, from two uniforms on [0, 1) (Box-Muller)."""
    return math.sqrt(-2.0 * math.log1p(-u1)) * abs(math.cos(2.0 * math.pi * u2))


# ---------------------------------------------------------------------------
# moments, tails, densities
# ---------------------------------------------------------------------------

def jump_moment(intensity: JumpIntensity, a: float, x=None, epsilon: float = 0.0):
    """int_epsilon^inf v^a rho(dv|x), the full (epsilon = 0) or
    epsilon-truncated jump moment of order a >= 1 at the location(s) x:
    the exact jump moment of the epsilon-truncated simulation.  Shaped like
    x, a float when x is a scalar or omitted (homogeneous intensities
    only); 0 once epsilon reaches the family's ceiling.  A homogeneous
    family's moment does not depend on x: it is computed once and
    broadcast.

    Closed forms at epsilon = 0: generalized gamma
    Gamma(a-sigma)/(Gamma(1-sigma) gamma^{a-sigma}); extended gamma
    Gamma(a) beta(x)^{-a}; beta Gamma(a) Gamma(1+c) / Gamma(a+c).  A
    positive epsilon multiplies them by the family's regularised upper
    incomplete function (above).
    """
    if a < 1:
        raise ValueError(f"order must be >= 1, got {a}")
    a = float(a)
    p = intensity.param(None if intensity.homogeneous else x)
    val = intensity.moment(a, p)
    if epsilon >= intensity.ceiling:
        val = 0.0 * val
    elif not epsilon <= 0:      # a NaN epsilon gives NaN, not the full moment
        val = val * intensity.above(a, epsilon, p)
    if not np.ndim(x):
        return float(val)
    return np.full(np.shape(x), val) if intensity.homogeneous else np.reshape(val, np.shape(x))


def mean_below(intensity: JumpIntensity, epsilon: float, x=None) -> float:
    """int_0^epsilon v rho(dv|x): the mean jump mass lost to truncation."""
    if epsilon <= 0:
        return 0.0
    p = intensity.param(x)
    val = intensity.moment(1.0, p) * intensity.below(1.0, epsilon, p)
    return float(val) if np.size(val) == 1 else val


def jump_density(intensity: JumpIntensity, v, x=None):
    """Levy density rho(v|x) (with respect to dv)."""
    return intensity.density(np.asarray(v, dtype=float), intensity.param(x))


def tail_mass(intensity: JumpIntensity, v, x=None):
    """N_rho(v|x) = int_v^inf rho(du|x): strictly decreasing, diverging as
    v -> 0+ (infinite activity).  Vectorized over v."""
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr <= 0):
        raise ValueError("tail_mass requires v > 0")
    out = intensity.tail(v_arr, intensity.param(x))
    return float(out) if np.ndim(v) == 0 else out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrmSample:
    """A realized, epsilon-truncated CRM on a bounded window.

    jumps are non-increasing (Ferguson-Klass order, which rejection and
    thinning keep) and every jump is >= epsilon.  A draw with a bulk
    (sample's bulk argument) ends in one aggregated atom, the bulk's whole
    untruncated mass: it is exempt from the ordering and from the epsilon
    floor.
    """
    jumps: np.ndarray
    locations: np.ndarray
    window: tuple

    def __post_init__(self):
        object.__setattr__(self, "jumps", np.asarray(self.jumps, dtype=float))
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        if self.jumps.shape != self.locations.shape:
            raise ValueError("jumps and locations must have equal length")

    @property
    def size(self) -> int:
        return int(self.jumps.size)


# Nodes of an inverse-tail table.  The cubic Hermite error falls as the
# fourth power of the node spacing; at 32768 nodes the inversion residual
# |N(v)/g - 1| is ~1e-14.
_TABLE_NODES = 32768


class _TailTable(NamedTuple):
    """log v against y = log(rate * tail_mass(v)) on the nodes y_lo + k h:
    on [y_k, y_k + h) it is the cubic with coefficients coef[:, k]
    (highest power first) in s = (y - y_k) / h, clipped to [lo, hi]."""
    y_lo: float
    h: float
    coef: np.ndarray
    lo: float
    hi: float


@lru_cache(maxsize=64)
def _inverse_tail_table(intensity: JumpIntensity, rate: float, epsilon: float) -> _TailTable:
    """Cached cubic Hermite table of log v against
    y = log(rate * tail_mass(v)), for inverse-tail sampling of the family
    without a dominating measure (extended gamma).

    The nodes are uniform in y.  Each is placed by linear interpolation on
    a grid uniform in log v, then solved by Newton's method against the
    exact tail, and stores its exact slope d(log v)/dy = -N / (rho(v) v).
    """
    vmax = max(2.0 * epsilon, 1.0)
    while rate * tail_mass(intensity, vmax) > 1e-12 and vmax < 1e6:
        vmax *= 2.0
    lo, hi = math.log(epsilon), math.log(vmax)
    grid = np.linspace(lo, hi, 8192)
    y = np.log(rate * tail_mass(intensity, np.exp(grid)))
    # y falls as log v rises.  The nodes are y_lo + k h with the h that
    # _invert_tail divides by, so node k falls in interval k.
    y_lo = float(y[-1])
    h = (float(y[0]) - y_lo) / (_TABLE_NODES - 1)
    nodes = y_lo + h * np.arange(_TABLE_NODES)
    c = np.interp(nodes, y[::-1], grid[::-1])
    for _ in range(2):
        v = np.exp(c)
        n = tail_mass(intensity, v)
        slope = -n / (jump_density(intensity, v) * v)
        step = (np.log(rate * n) - nodes) * slope
        c = np.clip(c - np.clip(step, -1.0, 1.0), lo, hi)
    m = h * slope
    c0, c1, m0, m1 = c[:-1], c[1:], m[:-1], m[1:]
    coef = np.stack([2.0 * (c0 - c1) + m0 + m1, 3.0 * (c1 - c0) - 2.0 * m0 - m1, m0, c0])
    return _TailTable(y_lo, h, coef, lo, hi)


def _invert_tail(intensity: JumpIntensity, rate: float, epsilon: float,
                 gammas: np.ndarray) -> np.ndarray:
    """Solve rate * tail_mass(v) = g for each arrival time g.

    The interval of log g in the cached Hermite table is found by
    arithmetic, and one cubic gives log v: no search and no tail
    evaluation per jump.  The inversion residual |N(v)/g - 1| stays below
    1e-13 (asserted by the property tests).
    """
    t = _inverse_tail_table(intensity, rate, epsilon)
    last = t.coef.shape[1]
    # arrivals outside the table take its end jumps
    s = np.log(gammas)
    s -= t.y_lo
    s /= t.h
    np.minimum(np.maximum(s, 0.0, out=s), last, out=s)
    k = s.astype(np.intp)
    np.minimum(k, last - 1, out=k)
    s -= k
    # ((a3 s + a2) s + a1) s + a0, each coefficient gathered into one buffer
    a3, a2, a1, a0 = t.coef
    log_v = a3.take(k)
    coef = np.empty_like(log_v)
    for a in (a2, a1, a0):
        log_v *= s
        log_v += a.take(k, out=coef)
    np.minimum(np.maximum(log_v, t.lo, out=log_v), t.hi, out=log_v)
    return np.exp(log_v, out=log_v)


class Plan(NamedTuple):
    """A draw laid out by plan: the window (lo, hi); the series' measure
    (the intensity, or its thinning envelope) and rate (the window's
    length, outside the bulk only or times the envelope's multiplier);
    epsilon; the thinning acceptance of (v, x); the measure's Dominating
    measure; the series' expected arrivals; and the bulk ((a, b), law)."""
    window: tuple
    measure: JumpIntensity
    rate: float
    epsilon: float
    accept: Optional[Callable]
    dominating: Optional[Dominating]
    atoms: float
    bulk: Optional[tuple]


def plan(intensity: JumpIntensity, window, epsilon: float, bulk=None) -> Plan:
    """Lay out the epsilon-truncated draw of the CRM on the window, and
    refuse it before anything is drawn: ValueError for a bad window,
    epsilon or bulk and when the series expects more than
    MAX_EXPECTED_ATOMS arrivals, EnvelopeError when a beta profile has no
    envelope on the window.  Every draw from one plan (sample) draws the
    same law; a plan holds no state from one draw to the next."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo >= 0.0):
        raise ValueError(f"window must be a bounded interval [a,b) with 0 <= a < b, got {window}")
    if not (epsilon > 0):
        raise ValueError("epsilon must be > 0")
    measure, rate, accept = intensity, hi - lo, None
    if bulk is not None:
        if not intensity.homogeneous:
            raise ValueError(
                f"{intensity.label()} is non-homogeneous: it has no total-mass law for a bulk")
        a, b = float(bulk[0][0]), float(bulk[0][1])
        if not (lo <= a < b <= hi):
            raise ValueError(f"bulk {bulk[0]} is not an interval of the window [{lo:g},{hi:g})")
        rate = (a - lo) + (hi - b)
        bulk = ((a, b), bulk[1])
    elif not intensity.homogeneous:
        measure, rate_mult, accept = intensity.envelope(lo, hi)
        rate *= rate_mult
    dom = measure.dominating()
    if epsilon >= measure.ceiling:
        atoms = 0.0
    elif dom is None:
        atoms = rate * tail_mass(measure, epsilon)
    else:
        # on a numpy scalar an overflowing tail reads inf
        atoms = rate * float(dom.tail(np.float64(epsilon)))
    if not atoms <= MAX_EXPECTED_ATOMS:
        raise ValueError(
            f"epsilon={epsilon:g} asks for {atoms:.3g} expected atoms per draw of "
            f"{measure.label()}, above the limit {MAX_EXPECTED_ATOMS:.3g}; raise epsilon")
    return Plan((lo, hi), measure, rate, epsilon, accept, dom, atoms, bulk)


def _fk_jumps(plan: Plan, rng: np.random.Generator) -> np.ndarray:
    """Ferguson-Klass series of the plan's measure scaled by its rate,
    stopped at the first jump below epsilon: unit-rate Poisson arrivals g
    up to the plan's count (atoms), each mapped to the jump v with
    rate * nu0((v, inf)) = g.

    nu0 is the plan's dominating measure, whose tail inverts in closed
    form; each jump is then kept with probability rho(v)/nu0(v), and the
    kept jumps are exactly the epsilon-truncated series of rho (Rosinski's
    rejection method).  The family without one (extended gamma) has
    nu0 = rho, inverted by _invert_tail: one cubic per arrival from the
    cached Hermite table, with no tail evaluation.  Both maps run
    over blocks of _STREAM arrivals, so their temporaries stay in cache.
    """
    n_eps, dom, rate = plan.atoms, plan.dominating, plan.rate
    if n_eps <= 0.0:
        return np.empty(0)
    chunks = []
    total = 0.0
    want = int(n_eps + 10.0 * math.sqrt(n_eps) + 64)
    while total < n_eps:
        e = rng.standard_exponential(size=want)
        chunks.append(e)
        total += float(e.sum())
        want = max(64, want // 4)
    gammas = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    np.cumsum(gammas, out=gammas)
    gammas = gammas[:np.searchsorted(gammas, n_eps)]
    # The kept jumps overwrite the arrivals block by block.  The map is
    # elementwise and successive rng.random calls continue one stream, so
    # the blocks give the same jumps as one pass over the series.
    kept = 0
    for i in range(0, gammas.size, _STREAM):
        g = gammas[i:i + _STREAM]
        if dom is None:
            v = _invert_tail(plan.measure, rate, plan.epsilon, g)
        else:
            v = dom.inverse(g / rate)
            v = v[rng.random(v.size) < dom.keep(v)]
        gammas[kept:kept + v.size] = v
        kept += v.size
    return gammas[:kept]


def sample(plan: Plan, rng: np.random.Generator) -> CrmSample:
    """An epsilon-truncated draw of the CRM as the plan lays it out, exact
    above epsilon.

    A homogeneous intensity is drawn by Ferguson-Klass with rejection from
    its dominating measure (see _fk_jumps): jumps non-increasing, locations
    uniform on the window.  A non-homogeneous one is thinned: its envelope,
    the constant-parameter member of the same family (scaled for beta by
    sup c / inf c), is drawn the same way and the atom (v, x) is accepted
    with probability rho(v|x)/rho_env(v), which is exp(-(beta(x)-L)v)
    resp. (c(x)/c_max)(1-v)^{c(x)-c_min}.

    The plan's bulk ((a, b), law), homogeneous intensities only, draws the
    mass of the interval [a, b) whole from law, the family's mass_law(b -
    a), untruncated, as one aggregated atom at its midpoint; the rest of the
    window is the series at epsilon.  That series runs over the window's
    length outside [a, b), its locations uniform on [lo, lo + length),
    and those at or past a move past b by adding (x >= a) (b - a): one
    arithmetic pass, exact, since the others gain +0.0.  The aggregated
    atom comes last.  A functional that is constant in x on the bulk sees
    the same law as on the full series there, with nothing below epsilon
    discarded.
    """
    (lo, hi), accept = plan.window, plan.accept
    series = _fk_jumps(plan, rng)
    if plan.bulk is None:
        locations = rng.uniform(lo, hi, size=series.size)
        if accept is None:
            return CrmSample(series, locations, (lo, hi))
        keep = rng.uniform(size=series.size) < accept(series, locations)
        return CrmSample(series[keep], locations[keep], (lo, hi))
    (a, b), law = plan.bulk
    n = series.size
    jumps, locations = np.empty(n + 1), np.empty(n + 1)
    jumps[:n] = series
    u = rng.uniform(lo, lo + plan.rate, size=n)
    # the series' locations at or past a move over the bulk by b - a; the
    # others gain +0.0, which is exact
    np.multiply(u >= a, b - a, out=locations[:n])
    locations[:n] += u
    jumps[n], locations[n] = law(rng), a + (b - a) * 0.5
    return CrmSample(jumps, locations, (lo, hi))
