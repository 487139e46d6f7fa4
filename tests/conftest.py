import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from hazardlab import crm, kernels


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def seeded(entropy, key=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(key,)))


def series_arrivals(measure, rate, epsilon):
    """The expected arrivals of a Ferguson-Klass series of the homogeneous
    measure scaled by rate: rate times the tail at epsilon of its
    dominating measure, or of the measure itself where it has none."""
    dom = measure.dominating()
    if dom is None:
        return rate * crm.tail_mass(measure, epsilon)
    return rate * float(dom.tail(np.float64(epsilon)))


def traced_peak(f, *args):
    """Peak bytes that tracemalloc traces during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quad_moment(intensity, order, x=None, rel=1e-11):
    """Adaptive-quadrature oracle for jump moments.

    Near-singular integrands (sigma close to 1) make QUADPACK report a
    roundoff warning while still delivering ~1e-9; the assertions compare
    at 1e-8, so the flag carries no information here.
    """
    f = lambda v: v ** order * crm.jump_density(intensity, v, x)
    upper = 1.0 if isinstance(intensity, crm.Beta) else np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, 0.0, upper, epsabs=1e-14, epsrel=rel, limit=300)
    return val


def quad_K_T(kernel, T, x):
    """Time-quadrature oracle for K_T with the kernel's discontinuities."""
    if isinstance(kernel, kernels.Rectangular):
        pts = [x - kernel.tau, x + kernel.tau]
    elif isinstance(kernel, kernels.UShaped):
        pts = [kernel.beta - x, kernel.beta + x]
    else:
        pts = [x]
    pts = [p for p in pts if 0 < p < T]
    val, _ = integrate.quad(lambda t: kernels.eval_kernel(kernel, t, x), 0, T,
                            points=pts or None, limit=300)
    return val


def quad_Q_T(kernel, T, x, y):
    pts = []
    for c in (x, y):
        if isinstance(kernel, kernels.Rectangular):
            pts += [c - kernel.tau, c + kernel.tau]
        elif isinstance(kernel, kernels.UShaped):
            pts += [kernel.beta - c, kernel.beta + c]
        else:
            pts += [c]
    pts = [p for p in pts if 0 < p < T]
    f = lambda t: kernels.eval_kernel(kernel, t, x) * kernels.eval_kernel(kernel, t, y)
    val, _ = integrate.quad(f, 0, T, points=sorted(set(pts)) or None, limit=400)
    return val


def random_intensity(rng, homogeneous=None):
    """A random member of the three families (optionally only homogeneous)."""
    fams = ["gg", "eg", "beta"]
    fam = fams[rng.integers(0, 3)]
    if fam == "gg":
        return crm.GeneralizedGamma(rng.uniform(0.05, 0.95), rng.uniform(0.2, 4.0))
    fns = [crm.Constant(rng.uniform(0.3, 3.0))]
    if not homogeneous:
        fns += [crm.AffineSqrt(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)),
                crm.IndicatorSqrt(rng.uniform(0.5, 3.0))]
    fn = fns[rng.integers(0, len(fns))]
    return crm.ExtendedGamma(fn) if fam == "eg" else crm.Beta(fn)


def random_kernel(rng):
    i = rng.integers(0, 4)
    if i == 0:
        return kernels.Rectangular(rng.uniform(0.3, 2.5))
    if i == 1:
        return kernels.DykstraLaud()
    if i == 2:
        return kernels.OrnsteinUhlenbeck(rng.uniform(0.3, 3.0))
    return kernels.UShaped(rng.uniform(0.5, 4.0))
