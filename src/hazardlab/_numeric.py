"""Shared numerical helpers: compensated summation, panel quadrature.

Nothing in here knows about hazard rates; it is plumbing used by the
domain modules.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate

__all__ = [
    "block_bounds",
    "comp_sum",
    "compensated_prefix",
    "gauss_legendre_panels",
    "gl_panels",
    "integrate_piecewise_linear",
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


def integrate_piecewise_linear(f, breaks) -> float:
    """Exact integral of a piecewise-linear f whose kinks are contained
    in `breaks` (trapezoid rule per panel is exact for linear pieces)."""
    breaks = np.unique(np.asarray(breaks, dtype=float))
    if breaks.size < 2:
        return 0.0
    y = f(breaks)
    widths = np.diff(breaks)
    return comp_sum(0.5 * widths * (y[:-1] + y[1:]))


def quad_breaks(f, a: float, b: float, breaks=(), rel_tol: float = 1e-10) -> float:
    """Adaptive quadrature on [a, b] with interior breakpoints."""
    if b <= a:
        return 0.0
    pts = [p for p in np.atleast_1d(np.asarray(breaks, dtype=float)) if a < p < b]
    val, _ = integrate.quad(f, a, b, points=sorted(set(pts)) or None,
                            epsabs=0.0, epsrel=rel_tol, limit=400)
    return val
