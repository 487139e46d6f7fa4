import math

import numpy as np
import pytest
from scipy import integrate

from hazardlab import conditions as cond
from hazardlab import crm, kernels

from conftest import quad_K_T, quad_Q_T, seeded

GG = crm.GeneralizedGamma(0.5, 1.0)
EG1 = crm.ExtendedGamma(crm.Constant(1.0))


def test_eval_reference_values():
    assert kernels.eval_kernel(kernels.Rectangular(1.0), 2.0, 2.5) == 1.0
    assert kernels.eval_kernel(kernels.DykstraLaud(), 1.0, 2.0) == 0.0
    assert kernels.eval_kernel(kernels.OrnsteinUhlenbeck(2.0), 3.0, 3.0) == pytest.approx(2.0)
    assert kernels.eval_kernel(kernels.UShaped(2.0), 5.0, 3.0) == 1.0
    assert kernels.eval_kernel(kernels.UShaped(2.0), 3.0, 1.5) == 0.0


def test_u_shaped_vanishes_at_negative_locations():
    # like K_T and Q_T, the pointwise kernel is 0 left of the location range
    kern = kernels.UShaped(2.0)
    T = 10.0
    ts = np.linspace(0.0, T, 1001)
    assert np.all(kernels.eval_kernel(kern, ts, -1.0) == 0.0)
    for x in (-1.0, 0.5, 3.0):
        assert quad_K_T(kern, T, x) == pytest.approx(kernels.K_T(kern, T, x), rel=1e-12,
                                                     abs=1e-12)


def test_parameter_validation():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            kernels.Rectangular(bad)
        with pytest.raises(ValueError):
            kernels.OrnsteinUhlenbeck(bad)
        with pytest.raises(ValueError):
            kernels.UShaped(bad)
    with pytest.raises(ValueError):
        kernels.K_T(kernels.DykstraLaud(), 0.0, 1.0)
    with pytest.raises(ValueError):
        kernels.Q_T(kernels.DykstraLaud(), -3.0, 1.0, 1.0)


def test_K_T_reference_values():
    assert kernels.K_T(kernels.Rectangular(1.0), 10.0, 5.0) == pytest.approx(2.0)
    assert kernels.K_T(kernels.DykstraLaud(), 3.0, 1.0) == pytest.approx(2.0)
    assert kernels.K_T(kernels.UShaped(2.0), 10.0, 1.0) == pytest.approx(8.0)
    k = kernels.OrnsteinUhlenbeck(2.0)
    assert kernels.K_T(k, 10.0, 3.0) == pytest.approx(1.0 * (1 - math.exp(-14.0)), rel=1e-12)


def _variant_sweep(rng):
    # 100 draws per kernel variant
    for make in (lambda: kernels.Rectangular(rng.uniform(0.3, 2.5)),
                 kernels.DykstraLaud,
                 lambda: kernels.OrnsteinUhlenbeck(rng.uniform(0.3, 3.0)),
                 lambda: kernels.UShaped(rng.uniform(0.5, 4.0))):
        for _ in range(100):
            yield make()


def test_K_T_matches_quadrature_100_draws_per_variant():
    rng = seeded(201)
    for kern in _variant_sweep(rng):
        T = rng.uniform(0.3, 40.0)
        x = rng.uniform(0.0, T + 4.0)
        closed = kernels.K_T(kern, T, x)
        oracle = quad_K_T(kern, T, x)
        assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-11), (kern, T, x)


def test_Q_T_reference_values():
    assert kernels.Q_T(kernels.OrnsteinUhlenbeck(1.0), 20.0, 0.0, 0.0) \
        == pytest.approx(1.0 - math.exp(-40.0), rel=1e-14)
    assert kernels.Q_T(kernels.Rectangular(1.0), 20.0, 5.0, 5.0) == pytest.approx(2.0)
    assert kernels.Q_T(kernels.DykstraLaud(), 3.0, 1.0, 2.0) == pytest.approx(1.0)
    # no mass at a location past T or below 0; OU's exponent stays bounded
    assert kernels.Q_T(kernels.OrnsteinUhlenbeck(5.0), 20.0, 1.0, 400.0) == 0.0
    assert kernels.Q_T(kernels.DykstraLaud(), 3.0, -1.0, 2.0) == 0.0


def test_Q_T_properties_random_draws():
    rng = seeded(202)
    for kern in _variant_sweep(rng):
        T = rng.uniform(0.3, 30.0)
        x, y = rng.uniform(0.0, T + 3.0, 2)
        q = kernels.Q_T(kern, T, x, y)
        assert q == kernels.Q_T(kern, T, y, x)                  # exact symmetry
        qxx = kernels.Q_T(kern, T, x, x)
        qyy = kernels.Q_T(kern, T, y, y)
        assert q * q <= qxx * qyy + 1e-12                        # Cauchy-Schwarz
        if not isinstance(kern, kernels.OrnsteinUhlenbeck):
            assert qxx == pytest.approx(kernels.K_T(kern, T, x), abs=1e-14)
        sup_k = math.sqrt(2 * kern.kappa) if isinstance(kern, kernels.OrnsteinUhlenbeck) else 1.0
        assert qxx <= kernels.K_T(kern, T, x) * sup_k + 1e-12
        assert q == pytest.approx(quad_Q_T(kern, T, x, y), rel=1e-9, abs=1e-10)


def test_K_T_continuity_on_fine_grid():
    # no jump beyond the modulus bound for the continuous-K kernels
    for kern, lip in ((kernels.Rectangular(0.7), 2.0), (kernels.DykstraLaud(), 1.0),
                      (kernels.OrnsteinUhlenbeck(1.4), 2.0)):
        T = 9.0
        xs = np.linspace(0.0, T + 1.0, 4001)
        vals = kernels.K_T(kern, T, xs)
        h = xs[1] - xs[0]
        assert np.max(np.abs(np.diff(vals))) <= lip * h + 1e-12


def test_slice_mass_reference_values():
    # int k(t, x) dx, the mean hazard per unit first moment
    assert kernels.Rectangular(1.0).slice_mass(5.0) == pytest.approx(2.0)
    for kern in (kernels.Rectangular(1.0), kernels.OrnsteinUhlenbeck(1.0)):
        for t in (0.7, 3.0, 11.0):
            oracle, _ = integrate.quad(lambda x: kernels.eval_kernel(kern, t, x), 0.0, t + 2.0,
                                       points=[t - 1.0, t, t + 1.0], limit=300)
            assert kern.slice_mass(t) == pytest.approx(oracle, rel=1e-8, abs=1e-12)


def _slice_edges(kern, c):
    # the times t at which an edge of the slice x -> k(t, x) crosses x = c
    if isinstance(kern, kernels.Rectangular):
        return [c - kern.tau, c + kern.tau]
    if isinstance(kern, kernels.UShaped):
        return [kern.beta_center - c, kern.beta_center + c]
    return [c]


def quad_mean_hazard(kern, intensity, t):
    # E[h(t)] = int K_rho^(1)(x) k(t, x) dx over the slice, split at the
    # intensity's kinks; x = u^2 takes the sqrt profiles' singular slope at
    # x = 0 out of the integrand
    if isinstance(kern, kernels.Rectangular):
        lo, hi = max(t - kern.tau, 0.0), t + kern.tau
    else:
        lo, hi = 0.0, abs(t - kern.beta_center) if isinstance(kern, kernels.UShaped) else t
    if hi <= lo:
        return 0.0
    pts = [math.sqrt(c) for c in intensity.kinks if lo < c < hi]
    f = lambda u: 2.0 * u * crm.jump_moment(intensity, 1.0, u * u) \
        * kernels.eval_kernel(kern, t, u * u)
    return integrate.quad(f, math.sqrt(lo), math.sqrt(hi), points=pts or None, limit=200)[0]


def quad_kT3(kern, intensity, T, x):
    # independent double-quadrature oracle: (1/T) int k(t,x) E[h(t)] dt,
    # split where the slice's edges cross x, the origin or an intensity kink
    pts = [t for c in (x, 0.0) + tuple(intensity.kinks) for t in _slice_edges(kern, c)]
    f = lambda t: kernels.eval_kernel(kern, t, x) * quad_mean_hazard(kern, intensity, t)
    val, _ = integrate.quad(f, 0, T, points=sorted({t for t in pts if 0 < t < T}) or None,
                            limit=400)
    return val / T


def test_kT3_matches_double_quadrature():
    # kT3(x) = J(x) / T with J = int mu_1(w) Q_T(x, w) dw is the condition
    # grid's first row integral, rows(1, 1) / T.  The Green's-function
    # kernels (OU, Dykstra-Laud, U-shaped) integrate their rows along the
    # kinks (exact); the rectangular rows come from the banded tensor-grid
    # Q matrix and carry its kink-straddling error (~1e-4 relative, see
    # conditions._Grid).
    rng = seeded(203)
    eg = crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0))
    cases = [(kernels.Rectangular(1.0), GG, 10.0), (kernels.OrnsteinUhlenbeck(1.0), GG, 10.0),
             (kernels.DykstraLaud(), GG, 10.0), (kernels.UShaped(2.0), GG, 10.0),
             # non-homogeneous
             (kernels.Rectangular(1.0), eg, 12.0), (kernels.OrnsteinUhlenbeck(1.0), eg, 12.0)]
    for make in (lambda: kernels.Rectangular(rng.uniform(0.4, 2.0)),
                 kernels.DykstraLaud,
                 lambda: kernels.OrnsteinUhlenbeck(rng.uniform(0.4, 2.5)),
                 lambda: kernels.UShaped(rng.uniform(0.8, 3.0))):
        cases += [(make(), GG, rng.uniform(4.0, 20.0)) for _ in range(3)]
    for kern, intensity, T in cases:
        g = cond._Grid(kern, intensity, T)
        rel = 1e-3 if isinstance(kern, kernels.Rectangular) else 1e-7
        for i in rng.choice(g.x.size, 3, replace=False):
            assert g.rows(1, 1)[i] / T \
                == pytest.approx(quad_kT3(kern, intensity, T, g.x[i]), rel=rel, abs=1e-12)


def test_kT3_bulk_value_definition_consistent():
    # for x away from both boundaries the w-integral of Q is (int phi)^2,
    # 2 / kappa for OU (the boundary terms are below e^{-40} here), so
    # kT3 = (K1 / T) * 2 / kappa; the double-quadrature oracle pins the
    # definition
    kappa, T = 1.0, 80.0
    kern = kernels.OrnsteinUhlenbeck(kappa)
    g = cond._Grid(kern, GG, T)
    i = int(np.searchsorted(g.x, T / 2))
    val = g.rows(1, 1)[i] / T
    assert val == pytest.approx(2.0 / kappa * crm.jump_moment(GG, 1) / T, rel=1e-12)
    assert val == pytest.approx(quad_kT3(kern, GG, T, g.x[i]), rel=1e-9)


def test_location_window():
    assert kernels.location_window(kernels.Rectangular(2.0), 10.0) == (0.0, 12.0)
    assert kernels.location_window(kernels.DykstraLaud(), 5.0) == (0.0, 5.0)
    assert kernels.location_window(kernels.OrnsteinUhlenbeck(1.0), 5.0) == (0.0, 5.0)
    assert kernels.location_window(kernels.UShaped(3.0), 4.0) == (0.0, 3.0)
    # brute force: eval vanishes for all t <= T when x is beyond the window
    kern = kernels.UShaped(3.0)
    ts = np.linspace(0.0, 4.0, 500)
    for x in (3.01, 3.5, 6.0):
        assert np.all(kernels.eval_kernel(kern, ts, np.full_like(ts, x)) == 0.0)


def test_flat_interval_of_K_T():
    # rectangular(tau): K_T = 2 tau on [tau, T - tau] once T > 2 tau, and
    # below 2 tau outside it; the other kernels have no flat interval
    kern = kernels.Rectangular(1.5)
    assert kern.flat(10.0) == (1.5, 8.5)
    x = np.linspace(1.5, 8.5, 1001)
    assert np.allclose(kernels.K_T(kern, 10.0, x), 3.0, rtol=1e-15, atol=0.0)
    assert np.all(kernels.K_T(kern, 10.0, np.array([1.49, 8.51])) < 3.0)
    assert kern.flat(3.0) is None and kern.flat(2.0) is None
    for other in (kernels.DykstraLaud(), kernels.OrnsteinUhlenbeck(1.0), kernels.UShaped(2.0)):
        assert other.flat(10.0) is None


def test_small_T_rectangular_still_exact():
    # the interval-intersection forms stay valid for T <= 2 tau
    kern = kernels.Rectangular(1.0)
    for T in (0.5, 1.0, 1.9):
        for x in (0.0, 0.3, 1.1, 2.5):
            assert kernels.K_T(kern, T, x) == pytest.approx(quad_K_T(kern, T, x), abs=1e-10)
            assert kernels.Q_T(kern, T, x, 0.4) == pytest.approx(
                quad_Q_T(kern, T, x, 0.4), abs=1e-10)


def _decayed_prefix_sequential(k, x, a):
    """Oracle for kernels._decayed_prefix: the recurrence
    L_{j+1} = (L_j + a_j) e^{-k(x_{j+1} - x_j)} from L_0 = 0, one step at a
    time."""
    x, a = x.tolist(), a.tolist()
    L = [0.0]
    for j in range(len(x) - 1):
        L.append((L[-1] + a[j]) * math.exp(-k * (x[j + 1] - x[j])))
    return np.array(L[:len(x)])


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5])
def test_ou_g_equals_its_one_expression_form_bit_for_bit(kappa):
    # g is formed in place; on an array (1-d and 2-d), a 0-d array and a
    # float it returns -expm1(-2 kappa max(T - z, 0)) bit for bit, in z's
    # shape
    kern, T = kernels.OrnsteinUhlenbeck(kappa), 40.0
    z = np.concatenate([[0.0, -1.5, T, np.nextafter(T, 0.0), np.nextafter(T, np.inf), T + 3.0],
                        seeded(2305).uniform(-5.0, 45.0, 994)])
    ref = -np.expm1(-2.0 * kappa * np.maximum(T - z, 0.0))
    for arg, want in ((z, ref), (z.reshape(40, 25), ref.reshape(40, 25))):
        out = kern.g(T, arg)
        assert out.shape == arg.shape and out.tobytes() == want.tobytes()
    for zi, want in zip(z[:50], ref[:50]):
        for arg in (float(zi), np.array(zi)):
            out = kern.g(T, arg)
            assert np.shape(out) == () and np.float64(out).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 900, 20_000, 2 * kernels._STREAM + 7])
@pytest.mark.parametrize("k", [0.0, 1.0])
def test_decayed_prefix_matches_the_sequential_recurrence(n, k):
    # blocks cut by span (k = 1) and by length (> 2 _STREAM points); a tie,
    # a gap of 600, whose carry stays far above 0 only when moved from the
    # block's last point (e^{-600} ~ 3e-261), and one of 800, whose factor
    # underflows to 0; inflows over six decades; forward and backward
    rng = seeded(210, n)
    for scale in (0.01, 0.5):
        gaps = rng.exponential(scale, n)
        if n > 3:
            gaps[[n // 4, n // 2, 3 * n // 4]] = [0.0, 600.0, 800.0]
        x = np.cumsum(gaps)
        a = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        for xs, As in ((x, a), (-x[::-1], a[::-1])):
            L = kernels._decayed_prefix(k, xs, As)
            assert L.shape == (n,) and np.all(np.isfinite(L))
            np.testing.assert_allclose(L, _decayed_prefix_sequential(k, xs, As),
                                       rtol=1e-13, atol=0)
            if k == 0.0 and n < kernels._STREAM:
                # one block: the exclusive cumsum, bit for bit
                assert np.array_equal(L, np.cumsum(np.append(0.0, As))[:n])
