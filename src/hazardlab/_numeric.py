"""Shared numerical helpers: the range check of numeric fields,
compensated summation, panel quadrature and the special functions of the
jump-intensity families and the KS test.

Nothing in here knows about hazard rates; it is plumbing used by the
domain modules.
"""
from __future__ import annotations

import math
from functools import lru_cache

# numpy only, and no call that loads numpy.ma (np.unique would;
# sorted_unique stands in for it), numpy.polynomial or LAPACK (the
# Gauss-Legendre rules come from the Legendre recurrence, the line fits
# from closed forms): no process or pool worker loads those modules or
# faults in LAPACK pages.
import numpy as np

__all__ = [
    "block_partials",
    "check_rules",
    "comp_sum",
    "gauss_legendre_panels",
    "gl_panels",
    "quad_breaks",
    "running_sum",
    "sorted_unique",
    "stable_order",
    "betainc", "betaincc", "erf", "exp1", "gammainc", "gammaincc",
    "gammaln", "kolmogorov", "xlog1py",
]

_BLOCK = 4096
# Atoms per block of a per-atom pass (the sampler's inverse and keep steps,
# the cumulative hazard's products): 256 KB per float array, so a pass's
# temporaries stay in a core's L2 cache instead of streaming from L3.
_STREAM = 8 * _BLOCK
# glibc's malloc serves a block above its mmap threshold (128 KB at start)
# from freshly mapped pages, unmaps it when it is freed, and raises the
# threshold to the largest such block freed so far.  Freeing one 8 MB block
# here lifts it above a replicate's temporaries (256 KB pass blocks, whole
# series of up to ~5 MB), which then reuse heap pages instead of faulting
# in new ones: the pool workers of 100 clt-pathvar-rect-gg replicates take
# ~10k minor page faults instead of ~95k.  Forked pool workers inherit it,
# spawned ones run this import; other allocators ignore it.
np.empty(1 << 20)


def check_rules(obj) -> None:
    """Refuse obj when a field named in its class's RULES, {field: (test,
    text)}, is not finite or fails its test: the __post_init__ of every
    class whose numeric fields have a range, stated there once."""
    for key, (test, text) in obj.RULES.items():
        x = getattr(obj, key)
        where = f"{type(obj).__name__}.{key}={x}"
        if not math.isfinite(x):
            raise ValueError(f"{where} must be finite")
        if not test(x):
            raise ValueError(f"{where} violates {text}")


def comp_sum(values) -> float:
    """Compensated sum of a 1-d array: math.fsum (Shewchuk exact
    summation) of its block_partials, at every size.

    For non-negative terms each pairwise-summed partial is accurate to
    O(log _BLOCK) ulps relative (Higham, SIAM J. Sci. Comput. 14, 1993),
    and math.fsum adds the partials exactly, so the sum is within rel
    1e-14 of the exact one at any length; with mixed signs the bound is
    relative to the sum of the magnitudes instead.
    """
    return math.fsum(block_partials(np.asarray(values, dtype=float).ravel()))


def block_partials(a) -> list:
    """comp_sum's partials of the 1-d float array a: the pairwise sums of
    its consecutive _BLOCK-term blocks, the last one possibly shorter.
    The partials of pieces cut at multiples of _BLOCK, concatenated, are
    those of the whole."""
    full = a.size - a.size % _BLOCK
    partial = a[:full].reshape(-1, _BLOCK).sum(axis=1).tolist()
    if full < a.size:
        partial.append(float(np.sum(a[full:])))
    return partial


def running_sum(v):
    """Running sums of v, each accurate to about an ulp of itself however
    large the partial sums grew before it: np.cumsum adds in order, so
    TwoSum recovers each step's rounding error exactly, and the running
    sum of those errors corrects the cumsum.  Three arrays of v's length
    are live at once: the sums, the errors and one temporary."""
    s = np.cumsum(v)
    err = np.empty_like(s)
    err[:1] = 0.0
    e = err[1:]
    t = np.subtract(s[1:], s[:-1])
    # e = (s[:-1] - (s[1:] - t)) + (v[1:] - t)
    np.subtract(s[1:], t, out=e)
    np.subtract(s[:-1], e, out=e)
    np.subtract(v[1:], t, out=t)
    e += t
    s += np.cumsum(err, out=err)
    return s


def sorted_unique(a):
    """The sorted distinct values of a, flattened, as np.unique gives them
    for a without NaN (dtype kept): one sort and a neighbour mask."""
    a = np.sort(np.ravel(a))
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def stable_order(a):
    """(order, a[order]) with order = np.argsort(a, kind="stable"), for a
    1-d float64 array of finite values, by one value sort instead of an
    argsort (numpy sorts floats with SIMD kernels, indices without).

    Each key is a's bit pattern with the sign bit and the low
    b = bit_length(n - 1) bits cleared and the index in those bits: a
    nonnegative float, so sorting the keys as floats orders them by
    truncated |a|, then by index, and the low bits read back give the
    order.  Equal values share their truncated key, so they come out in
    index order.  Where the gathered values decrease, the truncation
    misordered near-ties or the input has negative values, and a stable
    argsort of the gathered values, nearly sorted, repairs the order."""
    n = a.size
    low = (1 << (n - 1).bit_length()) - 1 if n else 0
    order = a.view(np.int64) & ((1 << 63) - 1 - low)
    order |= np.arange(n)
    order.view(np.float64).sort()
    order &= low
    s = a[order]
    if (s[1:] < s[:-1]).any():
        fix = np.argsort(s, kind="stable")
        s = s[fix]
        order = order[fix]
    return order, s


# Newton steps allowed per Gauss-Legendre rule; from the guesses below
# every order the package uses settles within 5
_GL_STEPS = 50


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) from the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    """Nodes (increasing) and weights of the order-point Gauss-Legendre
    rule on [-1, 1]: Newton's method on P_order from the guesses
    cos(pi (i - 1/4) / (order + 1/2)), the weights 2 / ((1 - x^2) P'(x)^2),
    both made symmetric about 0 as numpy's leggauss makes them.  Cached,
    so the arrays are read-only."""
    x = np.cos(np.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    for _ in range(_GL_STEPS):
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 4.0 * _EPS:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes of order {order} did not converge")
    dp = _legendre(order, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    for a in rule:
        a.flags.writeable = False
    return rule


def gl_panels(a, b, order: int):
    """Nodes and weights, each of shape (panels, order), of the order-point
    Gauss-Legendre rule on every panel [a[i], b[i]] (b may be a scalar)."""
    nodes, weights = _gl_rule(order)
    half = (0.5 * (b - a))[:, None]
    return half * nodes + (0.5 * (a + b))[:, None], half * weights


def gauss_legendre_panels(f, breaks, order: int = 20) -> float:
    """Integrate f over [breaks[0], breaks[-1]] with one Gauss-Legendre
    rule per panel between consecutive breakpoints.

    Exact for polynomials of degree < 2*order on each panel; used where
    the integrand is piecewise smooth with known breakpoints (kernel
    overlap integrals, exponential pieces).  f must accept arrays: it is
    evaluated once on the full flattened node set.
    """
    breaks = sorted_unique(np.asarray(breaks, dtype=float))
    if breaks.size < 2:
        return 0.0
    xs, ws = gl_panels(breaks[:-1], breaks[1:], order)
    return comp_sum(np.asarray(f(xs.ravel()), dtype=float) * ws.ravel())


# The adaptive rule of quad_breaks: a panel's _QUAD_ORDER-point
# Gauss-Legendre value is checked against the same rule on its two halves.
# The target is _QUAD_SAFETY * rel_tol because an outer rule over inner
# rule values sees the inner errors as noise: the nested non-homogeneous
# mean squares (outer rel_tol 1e-8) land 2.3e-9 from a QUADPACK oracle at
# safety 1, 3.6e-10 at 0.1 and 1.7e-11 at 0.01.
_QUAD_ORDER = 10
_QUAD_SAFETY = 0.01
# rounds of bisection (an undeclared jump needs ~45 at rel_tol 1e-11) and
# the panel count that, like the round cap, ends a refinement as unconverged
# (the test suite's integrals converge within 35 rounds on at most 36 panels)
_QUAD_ROUNDS = 100
_QUAD_PANELS = 1000


def _rule(f, lo, hi):
    """Sums of the _QUAD_ORDER-point rule over the panels [lo[i], hi[i]],
    from one call of f."""
    x, w = gl_panels(lo, hi, _QUAD_ORDER)
    fx = np.broadcast_to(np.asarray(f(x.ravel()), dtype=float), (x.size,))
    return np.sum(fx.reshape(x.shape) * w, axis=1)


def quad_breaks(f, a: float, b: float, breaks=(), rel_tol: float = 1e-10) -> float:
    """Adaptive Gauss-Legendre quadrature of f over [a, b]; the breaks
    inside (a, b) start the panels.

    f maps a 1-d array of nodes to the array of its values there (a scalar
    is broadcast); each round of refinement makes one call.  A panel's
    error estimate is the difference between the rule on the panel and the
    rule on its two halves, whose sum is the panel's value.  Each round
    bisects every panel whose estimate exceeds its equal share of the
    tolerance, until the estimates sum to at most
    _QUAD_SAFETY * rel_tol * |total|.  Raises ArithmeticError, naming
    [a, b], rel_tol and the estimate reached, when that takes more than
    _QUAD_ROUNDS rounds or _QUAD_PANELS panels, or when f is not finite.
    """
    if b <= a:
        return 0.0
    pts = np.asarray(breaks, dtype=float).ravel()
    edges = sorted_unique(np.concatenate([[a, b], pts[(pts > a) & (pts < b)]]))
    lo, hi = edges[:-1], edges[1:]
    n, mid = lo.size, 0.5 * (lo + hi)
    sums = _rule(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    whole, left, right = sums[:n], sums[n:2 * n], sums[2 * n:]
    tol = _QUAD_SAFETY * rel_tol
    for _ in range(_QUAD_ROUNDS):
        fine = left + right
        err = np.abs(fine - whole)
        total, estimate = math.fsum(fine.tolist()), math.fsum(err.tolist())
        if estimate <= tol * abs(total):
            return total
        if not math.isfinite(estimate) or lo.size > _QUAD_PANELS:
            break
        # the halves of a bisected panel are its children; only their own
        # halves are new
        split = err > tol * abs(total) / lo.size
        keep = ~split
        lo = np.concatenate([lo[keep], lo[split], mid[split]])
        hi = np.concatenate([hi[keep], mid[split], hi[split]])
        whole = np.concatenate([whole[keep], left[split], right[split]])
        n, mid = np.count_nonzero(keep), 0.5 * (lo + hi)
        sums = _rule(f, np.concatenate([lo[n:], mid[n:]]), np.concatenate([mid[n:], hi[n:]]))
        k = lo.size - n
        left = np.concatenate([left[keep], sums[:k]])
        right = np.concatenate([right[keep], sums[k:]])
    raise ArithmeticError(
        f"quadrature on [{a:g}, {b:g}] did not reach rel_tol={rel_tol:g}: "
        f"error estimate {estimate:.3g} of total {total:.6g}")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------
# Each accepts scalars or arrays (broadcast together) and returns a float
# for scalar arguments.  They cover the domains the package evaluates:
# orders and shapes up to a few tens, arguments in double range; each
# matches a reference implementation to 1e-13 relative there
# (tests/test_special.py).
# The incomplete gamma and beta functions run their series and continued
# fractions on Python floats, one entry at a time (a few us an entry): the
# package calls them on scalars and on the nodes of one quadrature round.
# exp1 also runs on whole arrays, for the inverse-tail tables.

_EPS = 2.0 ** -52
_TINY = 1e-300
_EULER = 0.57721566490153286061
_MAX_TERMS = 500


def _out(values, shape):
    return values.reshape(shape)[()]


def _elementwise(f, *args):
    """f, a function of floats, over the broadcast entries of args."""
    if all(isinstance(v, float) for v in args):
        return f(*map(float, args))
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    values = map(f, *(a.ravel().tolist() for a in arrays))
    return _out(np.fromiter(values, float, arrays[0].size), arrays[0].shape)


def gammaln(x):
    """log |Gamma(x)|."""
    return _elementwise(math.lgamma, x)


def erf(x):
    """The error function."""
    return _elementwise(math.erf, x)


def xlog1py(x, y):
    """x * log1p(y), and 0 where x = 0 (also at y = -1)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log1p(y)
    return np.where((x == 0) & ~np.isnan(y), 0.0, out)[()]


def kolmogorov(y: float) -> float:
    """P(K > y) for the Kolmogorov distribution K = sup |Brownian bridge|.

    Below y = 1 the complement of the CDF's theta series
    sqrt(2 pi)/y sum_k exp(-(2k-1)^2 pi^2 / (8 y^2)); from y = 1 the
    alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2).  Each series
    falls by at least e^-8 a term, so the first few carry every digit."""
    y = float(y)
    if math.isnan(y):
        return math.nan
    if y <= 0.0:
        return 1.0
    if y < 1.0:
        w = math.pi ** 2 / (8.0 * y * y)
        terms = [math.exp(-(2 * k - 1) ** 2 * w) for k in range(1, 8)]
        return 1.0 - math.sqrt(2.0 * math.pi) / y * math.fsum(terms)
    terms = [(-1) ** (k - 1) * math.exp(-2.0 * k * k * y * y) for k in range(1, 8)]
    return 2.0 * math.fsum(terms)


# exp1's continued fraction is evaluated from its depth-th term back; on
# z > edge, the exact-arithmetic convergent of that depth is within 2e-17
# relative of E1 at z = edge (the depth falls as z grows), plus two.
_E1_DEPTH = ((1.0, 110), (1.5, 76), (2.0, 59), (3.0, 42), (4.0, 34), (6.0, 25),
             (8.0, 20), (12.0, 16), (16.0, 13), (32.0, 10), (64.0, 8), (128.0, 6))


def _e1_series(z):
    """E1(z) = -gamma - log z - sum_k (-z)^k / (k k!) for 0 < z <= 1 (at 24
    terms the tail is below 1e-25); z a float or an array."""
    term = -z
    total = term
    for k in range(2, 25):
        term = term * (-z * (k - 1) / (k * k))
        total = total + term
    return -_EULER - np.log(z) - total


def _e1_fraction(z, depth: int):
    """E1(z) = e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) from its
    depth-th term back, for z > 1; z a float or an array."""
    f = 0.0
    for i in range(depth, 0, -1):
        f = -float(i * i) / (z + (2 * i + 1) + f)
    with np.errstate(under="ignore"):
        return np.exp(-z) / (z + 1.0 + f)


def exp1(z):
    """E1(z) = int_z^inf e^-t / t dt for z >= 0."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.full(flat.shape, np.nan)
    out[flat == 0] = np.inf
    small = (flat > 0) & (flat <= 1.0)
    if np.any(small):
        out[small] = _e1_series(flat[small])
    uppers = [edge for edge, _ in _E1_DEPTH[1:]] + [np.inf]
    for (edge, depth), upper in zip(_E1_DEPTH, uppers):
        part = (flat > edge) & (flat <= upper)
        if np.any(part):
            out[part] = _e1_fraction(flat[part], depth)
    return _out(out, z.shape)


@lru_cache(maxsize=None)
def _zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2: the sum to k = 19 and the
    Euler-Maclaurin tail from k = 20 (the next correction is below 1e-25)."""
    n = 20
    total = math.fsum(k ** -s for k in range(1, n))
    tail = n ** (1 - s) / (s - 1) + 0.5 * n ** -s
    rising = s                      # s (s+1) ... (s+2j-2)
    for j, b2j in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), 1):
        tail += b2j / math.factorial(2 * j) * rising * n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total + tail


@lru_cache(maxsize=256)
def _lgamma1p(a: float) -> float:
    """log Gamma(1 + a) for |a| <= 1/2, to a few ulp also where it is near
    0: -gamma a + sum_{n>=2} zeta(n) (-a)^n / n, summed until a term is
    below rounding (50 terms at |a| = 1/2).  Cached: a call's entries
    share their a."""
    total, power = -_EULER * a, -a
    for n in range(2, _MAX_TERMS):
        power *= -a
        term = _zeta(n) * power / n
        total += term
        if abs(term) <= _EPS * abs(total):
            return total
    raise ArithmeticError(f"log Gamma(1 + {a}) series did not converge")


def _lentz(b0: float, coef) -> float:
    """The continued fraction b0 + a1/(b1 + a2/(b2 + ...)) by the modified
    Lentz method; coef(i) gives (a_i, b_i).  It stops once the last factor
    is 1 to rounding (a zero a_i ends the fraction exactly)."""
    h = b0 if b0 != 0.0 else _TINY
    c, d = h, 0.0
    for i in range(1, _MAX_TERMS + 1):
        a, b = coef(i)
        d = b + a * d
        d = 1.0 / (d if d != 0.0 else _TINY)
        c = b + a / c
        if c == 0.0:
            c = _TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"continued fraction did not converge in {_MAX_TERMS} terms")


def _gamma_pq(a: float, x: float, upper: bool) -> float:
    """P(a, x) or, with upper, Q(a, x) = 1 - P(a, x), the regularised
    incomplete gamma functions, for a > 0, x >= 0.

    Below x = a + 1 the series P = x^a e^-x / Gamma(a + 1) sum_n
    x^n / ((a+1)...(a+n)), all terms positive; from there Legendre's
    continued fraction Q = x^a e^-x / Gamma(a) / (x + 1 - a - 1(1-a)/(x +
    3 - a - 2(2-a)/(x + 5 - a - ...))).  Each gives the larger of P and Q
    there, and the other is its complement, except for a <= 1/2 below
    x = a + 1, where Q ~ a E1(x) is small and comes from its own series
    Q = 1 - x^a / Gamma(1 + a) - x^a / Gamma(a) sum_{n>=1} (-x)^n / (n! (a+n))."""
    if not (a > 0.0 and x >= 0.0):
        return math.nan
    if x == 0.0:
        return 1.0 if upper else 0.0
    if math.isinf(x):
        return 0.0 if upper else 1.0
    ax = a * math.log(x)
    if x < a + 1.0:
        if upper and a <= 0.5:
            # sum_{n>=1} (-x)^n / (n! (a + n)) by its terms' powers f = (-x)^n / n!
            f, total = -x, 0.0
            for n in range(1, _MAX_TERMS):
                term = f / (a + n)
                total += term
                if abs(term) <= _EPS * abs(total):
                    return -math.expm1(ax - _lgamma1p(a)) - math.exp(ax - math.lgamma(a)) * total
                f *= -x / (n + 1)
        else:
            term = total = 1.0
            for n in range(1, _MAX_TERMS):
                term *= x / (a + n)
                total += term
                if term <= _EPS * total:
                    p = total * math.exp(ax - x - math.lgamma(a + 1.0))
                    return 1.0 - p if upper else p
        raise ArithmeticError(f"incomplete gamma series at a={a}, x={x} did not converge")
    q = math.exp(ax - x - math.lgamma(a)) / _lentz(x + 1.0 - a,
                                                   lambda i: (-i * (i - a), x + 2 * i + 1 - a))
    return q if upper else 1.0 - q


def gammainc(a, x):
    """Regularised lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    return _elementwise(lambda a, x: _gamma_pq(a, x, False), a, x)


def gammaincc(a, x):
    """Regularised upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    return _elementwise(lambda a, x: _gamma_pq(a, x, True), a, x)


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) with y = 1 - x, for x below about the mean (a+1)/(a+b+2):
    x^a y^b / (a B(a, b)) / (1 + d1/(1 + d2/(1 + ...))) with
    d_{2m+1} = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)) and
    d_{2m} = m(b-m) x / ((a+2m-1)(a+2m))."""
    def coef(i):
        m = i // 2
        if i % 2:
            return -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)), 1.0
        return m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)), 1.0

    if a + b < 170.0:
        # Gamma itself is good to a few ulp; its log is not, where large
        beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        return x ** a * y ** b / (a * beta * _lentz(1.0, coef))
    # the larger of x and y may be rounded (1 - x is exact for x >= 1/2), and
    # its power, ~b/2 ulp off at b ~ 400, comes from log1p of the smaller
    front = (x ** a * math.exp(b * math.log1p(-x) - _log_beta(a, b)) if x <= y
             else y ** b * math.exp(a * math.log1p(-y) - _log_beta(a, b)))
    return front / (a * _lentz(1.0, coef))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a + b >= 170, where Gamma(a + b) overflows.  With p <= q
    (so q >= 85), Stirling's series gives log(Gamma(q) / Gamma(p + q)) =
    -(q - 1/2) log1p(p/q) - p log(p + q) + p + s(q) - s(p + q), with no term
    much above the sum, where lgamma(q) - lgamma(p + q) cancels two numbers
    ~q log q; s(z) = 1/(12z) - 1/(360z^3) + 1/(1260z^5) - 1/(1680z^7) + O(z^-9)."""
    def s(z):
        r = 1.0 / (z * z)
        return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z

    p, q = min(a, b), max(a, b)
    return (math.lgamma(p) - (q - 0.5) * math.log1p(p / q) - p * math.log(p + q) + p
            + s(q) - s(p + q))


def _beta_value(a: float, b: float, x: float, upper: bool) -> float:
    """I_x(a, b) or, with upper, 1 - I_x(a, b), for a, b > 0, 0 <= x <= 1.

    Below (a+1)/(a+b+2), where it converges fastest, the continued
    fraction gives I_x(a, b), above it 1 - I_x(a, b) = I_{1-x}(b, a)
    (there 1 - x is exact).  The other value is the complement, unless
    the first exceeds 0.9: then the complement would lose digits, and the
    other side's fraction gives it too."""
    if not (a > 0.0 and b > 0.0 and 0.0 <= x <= 1.0):
        return math.nan
    if x == 0.0 or x == 1.0:
        return 1.0 - x if upper else x
    y = 1.0 - x
    # the side whose fraction converges fast, and whether it is the one asked for
    if x < (a + 1.0) / (a + b + 2.0):
        near, far, asked = (a, b, x, y), (b, a, y, x), not upper
    else:
        near, far, asked = (b, a, y, x), (a, b, x, y), upper
    value = _beta_fraction(*near)
    if asked:
        return value
    return _beta_fraction(*far) if value > 0.9 else 1.0 - value


def betainc(a, b, x):
    """Regularised incomplete beta I_x(a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt / B(a, b)."""
    return _elementwise(lambda a, b, x: _beta_value(a, b, x, False), a, b, x)


def betaincc(a, b, x):
    """1 - I_x(a, b), without the cancellation of the subtraction."""
    return _elementwise(lambda a, b, x: _beta_value(a, b, x, True), a, b, x)
