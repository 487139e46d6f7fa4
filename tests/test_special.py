"""The package's special functions (_numeric) against scipy.special, a
test-only oracle, on argument grids that cover what the package evaluates:
incomplete-gamma and exponential-integral tails and truncated moments,
incomplete-beta truncated moments and the KS test's normal CDF and
Kolmogorov p-value."""
import math

import numpy as np
import pytest
from scipy import special

from hazardlab import _numeric

REL = 1e-13


def assert_rel(mine, ref, rel=REL):
    mine, ref = np.asarray(mine, dtype=float), np.asarray(ref, dtype=float)
    assert mine.shape == ref.shape
    assert np.all(np.isfinite(ref))
    err = np.abs(mine - ref) / np.abs(ref)
    assert np.max(err) <= rel, f"worst relative error {np.max(err):.3g}"


# shapes a - sigma (0 < sigma < 1) of the generalized-gamma truncated moments
# and 1 - sigma of its tail, orders a of the extended-gamma moments
GAMMA_A = np.concatenate([np.geomspace(0.005, 1.0, 40), np.linspace(1.0, 7.0, 61)])
GAMMA_X = np.geomspace(1e-12, 50.0, 300)


@pytest.mark.parametrize("name", ["gammainc", "gammaincc"])
def test_incomplete_gamma(name):
    a, x = np.meshgrid(GAMMA_A, GAMMA_X)
    assert_rel(getattr(_numeric, name)(a, x), getattr(special, name)(a, x))
    assert getattr(_numeric, name)(0.5, 0.25) == pytest.approx(getattr(special, name)(0.5, 0.25),
                                                               rel=REL)


def test_incomplete_gamma_edges():
    assert _numeric.gammainc(1.5, 0.0) == 0.0 and _numeric.gammaincc(1.5, 0.0) == 1.0
    assert _numeric.gammainc(1.5, np.inf) == 1.0 and _numeric.gammaincc(1.5, np.inf) == 0.0
    # integer a ends the continued fraction: Q(3, x) = e^-x (1 + x + x^2/2)
    x = np.array([4.0, 9.0, 30.0])
    assert_rel(_numeric.gammaincc(3.0, x), np.exp(-x) * (1.0 + x + x * x / 2.0))


def test_exp1():
    # extended-gamma tails E1(beta v) from the smallest truncation on
    z = np.geomspace(1e-10, 700.0, 5000)
    assert_rel(_numeric.exp1(z), special.exp1(z))
    # the edges of the series and of the continued-fraction depths
    edges = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0, 128.0])
    z = np.concatenate([edges, np.nextafter(edges, np.inf)])
    assert_rel(_numeric.exp1(z), special.exp1(z))
    assert _numeric.exp1(0.0) == np.inf
    assert isinstance(_numeric.exp1(3.0), float)


# orders a of the beta truncated moments against concentrations b = c(x)
BETA_A = np.linspace(1.0, 6.0, 11)
BETA_B = np.geomspace(0.05, 20.0, 25)
BETA_X = np.concatenate([np.geomspace(1e-12, 0.5, 60), 1.0 - np.geomspace(1e-13, 0.5, 60)[::-1]])


# concentrations with a + b >= 170, where B(a, b) comes from Stirling's
# series (a constant profile of value 200 reaches them), at truncation
# levels up to 0.02: above that scipy's betaincc itself is off by up to
# 5e-13 at b ~ 350 (x = 0.05, against 30-digit mpmath)
BETA_B_LARGE = np.geomspace(170.0, 400.0, 7)
BETA_X_SMALL = np.geomspace(1e-12, 0.02, 40)


@pytest.mark.parametrize("name", ["betainc", "betaincc"])
def test_incomplete_beta(name):
    for grid in ((BETA_A, BETA_B, BETA_X), (BETA_A, BETA_B_LARGE, BETA_X_SMALL)):
        a, b, x = np.meshgrid(*grid, indexing="ij")
        assert_rel(getattr(_numeric, name)(a, b, x), getattr(special, name)(a, b, x))


def test_incomplete_beta_edges():
    assert _numeric.betainc(2.0, 0.5, 0.0) == 0.0 and _numeric.betaincc(2.0, 0.5, 0.0) == 1.0
    assert _numeric.betainc(2.0, 0.5, 1.0) == 1.0 and _numeric.betaincc(2.0, 0.5, 1.0) == 0.0
    # b = 1 ends the continued fraction: I_x(a, 1) = x^a
    x = np.array([1e-6, 0.3, 0.9])
    assert_rel(_numeric.betainc(2.5, 1.0, x), x ** 2.5)
    # past (a+1)/(a+b+2) with I_x(a, b) small: 1 minus the upper tail would
    # lose three digits here
    a, b, x = np.array([6.0, 3.0]), np.array([0.002, 0.001]), np.array([0.95, 0.8])
    assert_rel(_numeric.betainc(a, b, x), special.betainc(a, b, x))


def test_gammaln():
    # the package takes exp of sums of gammaln: an absolute error there is a
    # relative error of the moment, so near the zeros at 1 and 2 the bound
    # is absolute
    x = np.concatenate([np.geomspace(1e-3, 1.0, 200), np.linspace(1.0, 30.0, 600)])
    ref = special.gammaln(x)
    assert np.all(np.abs(_numeric.gammaln(x) - ref) <= REL * np.maximum(np.abs(ref), 1.0))
    assert _numeric.gammaln(np.array([[2.5, 4.0]])).shape == (1, 2)


def test_xlog1py():
    x, y = np.meshgrid([-0.5, 0.25, 1.0, 2.5, 19.0],
                       np.concatenate([np.geomspace(1e-12, 10.0, 200),
                                       -np.geomspace(1e-12, 1.0 - 1e-12, 200)]))
    assert_rel(_numeric.xlog1py(x, y), special.xlog1py(x, y))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert _numeric.xlog1py(0.0, -1.0) == 0.0
        assert _numeric.xlog1py(np.zeros(3), np.array([-1.0, 0.5, 3.0])).tolist() == [0.0] * 3
        assert _numeric.xlog1py(2.0, -1.0) == -np.inf


def test_erf():
    u = np.linspace(-6.0, 6.0, 4001)
    u = u[u != 0.0]
    assert_rel(_numeric.erf(u), special.erf(u))


def test_kolmogorov():
    # lambda = sqrt(n) D of the KS test; below 0.05 the p-value is 1 to
    # rounding, which the alternating series alone gets wrong
    lam = np.geomspace(0.005, 10.0, 1000)
    assert_rel([_numeric.kolmogorov(v) for v in lam], special.kolmogorov(lam))
    assert _numeric.kolmogorov(0.0) == 1.0
    assert math.isnan(_numeric.kolmogorov(math.nan))
