"""The adaptive Gauss-Legendre rule behind every centering and I_i moment,
against closed forms and against QUADPACK (scipy.integrate, a test-only
oracle: the package itself never imports it)."""
import math

import numpy as np
import pytest
from scipy import integrate

from hazardlab import _numeric, crm, kernels
from hazardlab import montecarlo as mc
from hazardlab.asymptotics import Functional
from hazardlab.conditions import I_moments

KERNELS = [kernels.Rectangular(1.0), kernels.DykstraLaud(), kernels.OrnsteinUhlenbeck(1.0),
           kernels.UShaped(2.0)]
HOMOGENEOUS = [crm.GeneralizedGamma(0.5, 1.0), crm.ExtendedGamma(crm.Constant(1.0)),
               crm.Beta(crm.Constant(1.5))]


def quadpack(f, a, b, points=(), rel=1e-13):
    pts = sorted({float(p) for p in points if a < p < b})
    val, _ = integrate.quad(f, a, b, points=pts or None, epsabs=0.0, epsrel=rel, limit=1000)
    return val


# ---------------------------------------------------------------------------
# the rule itself
# ---------------------------------------------------------------------------

def test_smooth_and_endpoint_singular_integrals():
    q = _numeric.quad_breaks
    # degree 19 and below is exact on the starting panel
    assert q(lambda x: x ** 19, 0.0, 1.0) == pytest.approx(1.0 / 20.0, rel=1e-15)
    assert q(lambda x: np.exp(-x), 0.0, 50.0, rel_tol=1e-12) \
        == pytest.approx(-math.expm1(-50.0), rel=1e-13)
    # a sqrt singularity at an endpoint is bisected toward
    assert q(np.sqrt, 0.0, 2.0, rel_tol=1e-11) == pytest.approx(2.0 / 3.0 * 2.0 ** 1.5, rel=1e-12)
    # a jump at a break costs nothing; the same jump left to the rule is found
    step = lambda x: np.where(x < 0.3, 1.0, 2.0)
    assert q(step, 0.0, 1.0, [0.3]) == pytest.approx(1.7, rel=1e-15)
    assert q(step, 0.0, 1.0, rel_tol=1e-10) == pytest.approx(1.7, rel=1e-10)
    # breaks outside (a, b) are ignored; an empty interval is 0
    assert q(lambda x: x, 0.0, 2.0, [-1.0, 0.0, 2.0, 5.0]) == pytest.approx(2.0, rel=1e-15)
    assert q(lambda x: x, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("order", [8, 10, 12, 20])
def test_gauss_legendre_rule_matches_leggauss(order):
    # the package computes its rules itself (no numpy.polynomial, no LAPACK)
    x, w = _numeric._gl_rule(order)
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(x - ref_x)) <= 2e-15
    assert np.max(np.abs(w - ref_w)) <= 2e-15
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for degree in range(2 * order):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(float(np.sum(w * x ** degree)) - exact) <= 1e-14, degree


def test_sorted_unique_equals_np_unique():
    rng = np.random.default_rng(560)
    cases = [np.empty(0), np.array([2.5]), np.array([0.0, -0.0, 1.0, -0.0]),
             rng.integers(0, 12, 300), rng.integers(-3, 3, (6, 7)),
             np.round(rng.uniform(-1.0, 1.0, 2000), 2), rng.standard_normal(500)]
    for a in cases:
        got, ref = _numeric.sorted_unique(a), np.unique(a)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_one_array_call_per_round():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.exp(-x)
    _numeric.quad_breaks(f, 0.0, 500.0, rel_tol=1e-12)
    assert all(len(shape) == 1 and shape[0] % _numeric._QUAD_ORDER == 0 for shape in calls)
    assert 1 < len(calls) <= _numeric._QUAD_ROUNDS + 1
    # a constant may come back as a scalar
    assert _numeric.quad_breaks(lambda x: 3.0, 0.0, 2.0) == pytest.approx(6.0, rel=1e-15)


def test_unconverged_quadrature_is_refused():
    # 1/x on (0, 1] diverges: every bisection toward 0 adds ~log 2
    with pytest.raises(ArithmeticError,
                       match=r"quadrature on \[0, 1\] did not reach rel_tol=1e-10: "
                             r"error estimate \S+ of total"):
        _numeric.quad_breaks(lambda x: 1.0 / x, 0.0, 1.0)
    with pytest.raises(ArithmeticError, match=r"rel_tol=1e-08"):
        _numeric.quad_breaks(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# homogeneous intensities: every quadrature against QUADPACK at 1e-12
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kern", KERNELS, ids=lambda k: k.label())
def test_homogeneous_values_match_quadpack(kern):
    # the nested kernels have no quadratic limit, so no slice mass and no
    # mean-square centering
    for t in (0.5, 3.0, 15.0, 250.0) if not kern.nested else ():
        # int k(t, x) dx, with the slice's edges for rectangular(1) and its
        # end for OU among the points
        oracle = quadpack(lambda x: kernels.eval_kernel(kern, t, x), 0.0, t + 3.0,
                          [t, t - 1.0, t + 1.0])
        assert kern.slice_mass(t) == pytest.approx(oracle, rel=1e-12, abs=0)
    for intensity in HOMOGENEOUS:
        for T in (30.0, 500.0):
            lo, hi = kernels.location_window(kern, T)
            for eps in (0.0, 1e-3):
                k1, k2 = (crm.jump_moment(intensity, a, epsilon=eps) for a in (1.0, 2.0))
                for i in (1, 2, 3):
                    ki = crm.jump_moment(intensity, float(i), epsilon=eps)
                    oracle = quadpack(lambda x: ki * kernels.K_T(kern, T, x) ** i,
                                      lo, hi, kern.breaks(T))
                    assert I_moments(kern, intensity, T, i, eps) \
                        == pytest.approx(oracle, rel=1e-12, abs=0)
                if eps == 0.0 or kern.nested:
                    continue
                cfg = mc.ExperimentConfig(kern, intensity, Functional.PATH_SECOND_MOMENT, T,
                                          epsilon=eps)
                mean_part = quadpack(lambda t: float(kern.slice_mass(t)) ** 2, 0.0, T,
                                     kern.slice_kinks)
                second = quadpack(lambda x: kernels.Q_T(kern, T, x, x), lo, hi, kern.breaks(T))
                assert mc._exact_mean(cfg, eps) \
                    == pytest.approx((k1 ** 2 * mean_part + k2 * second) / T, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# non-homogeneous intensities: the cumulative-hazard centering against
# QUADPACK; the quadratic functionals have no cataloged limit for them
# ---------------------------------------------------------------------------

NONHOMOGENEOUS = [
    (kernels.Rectangular(1.0), crm.Beta(crm.IndicatorSqrt(1.0))),
    (kernels.DykstraLaud(), crm.ExtendedGamma(crm.IndicatorSqrt(2.0))),
    (kernels.UShaped(2.0), crm.Beta(crm.AffineSqrt(1.0, 0.7))),
    (kernels.OrnsteinUhlenbeck(1.0), crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0))),
]


@pytest.mark.parametrize("kern, intensity", NONHOMOGENEOUS,
                         ids=lambda v: v.label())
def test_nonhomogeneous_centerings_match_nested_quadpack(kern, intensity):
    # I_1 and I_2 by QUADPACK at epsrel 2e-14, with every kink of the
    # integrand as a point
    T, eps = 30.0, 1e-3
    lo, hi = kernels.location_window(kern, T)
    x_kinks = list(kern.breaks(T)) + list(intensity.kinks)
    for i in (1, 2):
        oracle = quadpack(lambda x: float(crm.jump_moment(intensity, float(i), x, eps))
                          * kernels.K_T(kern, T, x) ** i, lo, hi, x_kinks, rel=2e-14)
        assert I_moments(kern, intensity, T, i, eps) == pytest.approx(oracle, rel=1e-10, abs=0)

