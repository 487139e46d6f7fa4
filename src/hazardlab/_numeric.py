"""Shared numerical helpers: compensated summation, panel quadrature.

Nothing in here knows about hazard rates; it is plumbing used by the
domain modules.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "block_bounds",
    "comp_sum",
    "compensated_prefix",
    "gauss_legendre_panels",
    "gl_panels",
    "quad_breaks",
]

_BLOCK = 4096
# Atoms per block of a per-atom pass (the sampler's inverse and keep steps,
# the cumulative hazard's products): 256 KB per float array, so a pass's
# temporaries stay in a core's L2 cache instead of streaming from L3.
_STREAM = 8 * _BLOCK


def comp_sum(values) -> float:
    """Compensated sum of a 1-d array.

    Pairwise-summed blocks are combined with math.fsum (Shewchuk exact
    summation), so the result is accurate to ~1 ulp even for 10^6 terms
    of mixed magnitude.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    if a.size <= _BLOCK:
        return math.fsum(a.tolist())
    full = a.size - a.size % _BLOCK
    partial = a[:full].reshape(-1, _BLOCK).sum(axis=1).tolist()
    if full < a.size:
        partial.append(float(np.sum(a[full:])))
    return math.fsum(partial)


def compensated_prefix(v):
    """Prefix sums s of v (leading 0) and the running sum e of each step's
    rounding error, exact by TwoSum because np.cumsum adds in order:
    (s[q] - s[p]) + (e[q] - e[p]) is accurate to the size of the
    difference, however large the prefix has grown."""
    s = np.concatenate([[0.0], np.cumsum(v)])
    t = s[1:] - s[:-1]
    err = (s[:-1] - (s[1:] - t)) + (v - t)
    return s, np.concatenate([[0.0], np.cumsum(err)])


def block_bounds(x, span):
    """[start, stop) index ranges of the sorted x cut every `span` from
    x[0]; empty blocks are dropped."""
    edges = np.arange(x[0], x[-1] + span, span)
    stops = np.unique(np.searchsorted(x, edges[1:], side="left").clip(1, x.size))
    if stops.size == 0 or stops[-1] != x.size:
        stops = np.append(stops, x.size).astype(int)
    starts = np.concatenate([[0], stops[:-1]])
    return starts, stops


_GL_CACHE = {}


def _gl_rule(order: int):
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = rule
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
    breaks = np.unique(np.asarray(breaks, dtype=float))
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
    edges = np.unique(np.concatenate([[a, b], pts[(pts > a) & (pts < b)]]))
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
