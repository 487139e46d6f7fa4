import math

import pytest
from scipy import integrate

from hazardlab import asymptotics as asy
from hazardlab import crm, kernels

from conftest import random_intensity, seeded

GG = crm.GeneralizedGamma(0.5, 1.0)


def _moments(intensity):
    return [crm.jump_moment(intensity, i, x=None if intensity.homogeneous else 0.0)
            for i in (1, 2, 3, 4)]


def test_cumhaz_catalog_formulas_20_draws():
    # hand-written forms: 4 K2 tau^2 | K2/3 | 2 K2/kappa | K2/3
    rng = seeded(301)
    for _ in range(20):
        intensity = random_intensity(rng, homogeneous=True)
        k2 = crm.jump_moment(intensity, 2, x=0.0)
        tau, kap = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        pairs = [
            (kernels.Rectangular(tau), 4.0 * k2 * tau ** 2),
            (kernels.DykstraLaud(), k2 / 3.0),
            (kernels.OrnsteinUhlenbeck(kap), 2.0 * k2 / kap),
            (kernels.UShaped(rng.uniform(0.5, 4.0)), k2 / 3.0),
        ]
        for kern, expected in pairs:
            spec = asy.regime_cumhaz(kern, intensity)
            assert spec.limit_variance == pytest.approx(expected, rel=1e-12)


def test_cumhaz_rates_and_trends():
    spec = asy.regime_cumhaz(kernels.Rectangular(1.0), GG)
    assert isinstance(spec.rate, asy.Power) and spec.rate.p == -0.5
    assert spec.centering(10.0) == pytest.approx(20.0)           # 2 tau K1 T
    spec = asy.regime_cumhaz(kernels.DykstraLaud(), GG)
    assert spec.rate.p == -1.5
    assert spec.centering(10.0) == pytest.approx(50.0)           # K1 T^2 / 2


def test_nonhomogeneous_cumhaz_catalog():
    dl, rect = kernels.DykstraLaud(), kernels.Rectangular(1.0)
    eg = crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0))
    be = crm.Beta(crm.IndicatorSqrt(1.0))
    spec = asy.regime_cumhaz(dl, eg)
    assert isinstance(spec.rate, asy.PowerLog) and (spec.rate.p, spec.rate.q) == (-1.0, -0.5)
    # T^p (log T)^q is real and finite only above T = 1
    assert spec.rate(math.e ** 4) == pytest.approx(math.e ** -4 / 2.0, rel=1e-15)
    for T in (1.0, 0.5):
        with pytest.raises(ValueError, match="defined for T > 1 only"):
            spec.rate(T)
    assert isinstance(spec.centering, asy.MonteCarloMean)
    assert spec.limit_variance == pytest.approx(1.0)
    spec = asy.regime_cumhaz(rect, eg)
    assert spec.limit_variance == pytest.approx(4.0)
    spec = asy.regime_cumhaz(dl, be)
    assert spec.rate.p == -1.25
    assert spec.centering(10.0) == pytest.approx(50.0)           # T^2/2 (K1(x) = 1)
    assert spec.limit_variance == pytest.approx(16.0 / 15.0)
    spec = asy.regime_cumhaz(rect, be)
    assert spec.rate.p == -0.25
    assert spec.limit_variance == pytest.approx(8.0)
    with pytest.raises(asy.NotCatalogedError):
        asy.regime_cumhaz(kernels.OrnsteinUhlenbeck(1.0), eg)


def test_quadratic_catalog_corrected_values():
    # independently written generalized-gamma specializations of the
    # corrected variances (full symmetric-norm convention)
    sigma, gamma = 0.5, 1.0
    K = lambda c: math.gamma(c - sigma) / (math.gamma(1 - sigma) * gamma ** (c - sigma))
    tau = 1.0
    spec = asy.regime_path2nd(kernels.Rectangular(tau), GG)
    s1 = 32 * tau ** 3 * K(2) ** 2 / 3
    s2 = 4 * tau ** 2 * K(4) + 32 * tau ** 3 * K(3) * K(1) + 64 * tau ** 4 * K(2) * K(1) ** 2
    assert spec.sigma1_sq == pytest.approx(s1, rel=1e-12)
    assert spec.sigma2_sq == pytest.approx(s2, rel=1e-12)
    assert spec.limit_variance == pytest.approx(s1 + s2, rel=1e-12)
    kap = 1.0
    spec = asy.regime_path2nd(kernels.OrnsteinUhlenbeck(kap), GG)
    assert spec.sigma1_sq == pytest.approx(2 * K(2) ** 2 / kap, rel=1e-12)
    assert spec.sigma2_sq == pytest.approx(
        K(4) + 8 * K(3) * K(1) / kap + 16 * K(2) * K(1) ** 2 / kap ** 2, rel=1e-12)
    spec = asy.regime_pathvar(kernels.Rectangular(tau), GG)
    assert spec.delta == pytest.approx(4 * tau * K(1), rel=1e-12)
    assert spec.sigma3_sq == pytest.approx(4 * tau ** 2 * K(4), rel=1e-12)
    assert spec.centering(123.0) == pytest.approx(2 * tau * K(2), rel=1e-12)
    spec = asy.regime_pathvar(kernels.OrnsteinUhlenbeck(kap), GG)
    assert spec.delta == pytest.approx(2 ** 1.5 * K(1) / math.sqrt(kap), rel=1e-12)
    assert spec.sigma3_sq == pytest.approx(K(4), rel=1e-12)


def test_variance_components_positive_over_draws():
    rng = seeded(302)
    for _ in range(25):
        intensity = random_intensity(rng, homogeneous=True)
        for kern in (kernels.Rectangular(rng.uniform(0.3, 3.0)),
                     kernels.OrnsteinUhlenbeck(rng.uniform(0.3, 3.0))):
            p2 = asy.regime_path2nd(kern, intensity)
            pv = asy.regime_pathvar(kern, intensity)
            assert p2.sigma1_sq > 0 and p2.sigma2_sq > 0
            assert pv.sigma3_sq > 0 and pv.delta > 0
            # sign flip of the cross terms: path-variance < path-2nd-moment
            k1, k3 = crm.jump_moment(intensity, 1, x=0.0), crm.jump_moment(intensity, 3, x=0.0)
            if k1 * k3 > 0:
                assert pv.sigma3_sq < p2.sigma2_sq
                assert pv.limit_variance < p2.limit_variance


def test_monotone_kernels_unsupported_quadratics():
    for kern in (kernels.DykstraLaud(), kernels.UShaped(2.0)):
        out = asy.regime_path2nd(kern, GG)
        assert isinstance(out, asy.Unsupported) and "diverge" in out.reason
        out = asy.regime_pathvar(kern, GG)
        assert isinstance(out, asy.Unsupported)
    out = asy.regime_path2nd(kernels.Rectangular(1.0),
                             crm.ExtendedGamma(crm.AffineSqrt(1, 1)))
    assert isinstance(out, asy.Unsupported)


def test_path2nd_centering_matches_mean_square_quadrature():
    # the cataloged constant equals lim (1/T) int [m(t)^2 + K2 Q_T(x,x)] dt
    # computed by quadrature; the deviation decays like 1/T (checked at two
    # horizons, absolute < 1e-4 at the larger)
    for kern in (kernels.Rectangular(1.0), kernels.OrnsteinUhlenbeck(1.0)):
        spec = asy.regime_path2nd(kern, GG)
        k1 = crm.jump_moment(GG, 1)
        devs = []
        for T in (3000.0, 30000.0):
            mean_part, _ = integrate.quad(
                lambda t: float(k1 * kern.slice_mass(t)) ** 2, 0.0, T, limit=400)
            k2 = crm.jump_moment(GG, 2)
            lo, hi = kernels.location_window(kern, T)
            second_part, _ = integrate.quad(
                lambda x: k2 * kernels.Q_T(kern, T, x, x), lo, hi, limit=400)
            devs.append(abs((mean_part + second_part) / T - spec.centering(T)))
        assert devs[1] < 1e-4
        assert devs[1] < 0.2 * devs[0]          # ~1/T decay


def test_regime_dispatch_and_rows():
    spec = asy.regime(kernels.Rectangular(1.0), GG, asy.Functional.PATH_VARIANCE)
    assert isinstance(spec, asy.RegimeSpec) and spec.delta is not None
    rows = asy.catalog_rows()
    assert len(rows) == (4 * 3 + 2 * 2) * 3
    supported = [r for r in rows if r["supported"] == "yes"]
    assert supported and all(r["variance"] for r in supported)
    rect_rows = [r for r in rows if r["kernel"].startswith("rect")
                 and r["crm"].startswith("generalized") and r["functional"] == "path_variance"]
    assert len(rect_rows) == 1 and rect_rows[0]["delta"]


def test_nonhomogeneous_quadratic_rows_give_the_profile_reason():
    # the regimes table says why and no more: check-conditions is named by
    # run_clt's refusal, and no envelope bracket covers a quadratic functional
    pairs = [(k, i) for k, i in asy.default_catalog_pairs()
             if not i.homogeneous and not k.nested]
    rows = [r for r in asy.catalog_rows(pairs)
            if r["functional"] != asy.Functional.CUMULATIVE_HAZARD.value]
    assert len(rows) == 2 * 2
    assert all(r["supported"] == "no" and r["reason"] ==
               "non-homogeneous intensity: the limiting variance depends on the whole profile"
               for r in rows)


def test_regime_spec_validation():
    with pytest.raises(ValueError):
        asy.RegimeSpec(asy.Functional.CUMULATIVE_HAZARD, asy.Power(-0.5),
                       asy.ConstantCentering(1.0), 0.0)
    with pytest.raises(ValueError):
        asy.RegimeSpec(asy.Functional.PATH_VARIANCE, asy.Power(0.5),
                       asy.ConstantCentering(1.0), 1.0)       # delta missing


def test_bulk_integrals_match_their_definitions():
    # away from 0 and T: m = K_T(x), r0 = Q_T(x, x), r2 = int Q_T(x, x + u)^2 du
    rng = seeded(303)
    T = 400.0
    x = T / 2.0
    draws = [kernels.Rectangular(rng.uniform(0.05, 5.0)) for _ in range(8)] \
        + [kernels.OrnsteinUhlenbeck(rng.uniform(0.2, 5.0)) for _ in range(8)]
    for kern in draws:
        m, r0, r2 = kern.bulk
        assert float(kernels.K_T(kern, T, x)) == pytest.approx(m, rel=1e-12, abs=0)
        assert float(kernels.Q_T(kern, T, x, x)) == pytest.approx(r0, rel=1e-12, abs=0)
        # Q_T(x, x + u) is smooth on each side of 0 and vanishes beyond the
        # rectangular band; the OU integrand beyond 30 / kappa is e^{-60} of r2
        reach = kern.band if isinstance(kern, kernels.Rectangular) else 30.0 / kern.kappa
        f = lambda u: float(kernels.Q_T(kern, T, x, x + u)) ** 2
        r2_quad = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for lo, hi in ((-reach, 0.0), (0.0, reach)))
        assert r2_quad == pytest.approx(r2, rel=1e-12, abs=0)


def test_catalog_matches_hand_written_rectangular_and_ou_constants():
    rng = seeded(304)
    exact = lambda v: pytest.approx(v, rel=1e-13, abs=0)
    for _ in range(25):
        intensity = random_intensity(rng, homogeneous=True)
        k1, k2, k3, k4 = _moments(intensity)
        tau, kap = rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        # (sigma0^2, trend coefficient, sigma1^2, sigma2^2, path-2nd centering,
        #  sigma3^2, delta, path-variance centering)
        reference = [
            (kernels.Rectangular(tau),
             4.0 * k2 * tau ** 2, 2.0 * tau * k1, 32.0 * tau ** 3 * k2 ** 2 / 3.0,
             4.0 * tau ** 2 * k4 + 32.0 * tau ** 3 * k3 * k1 + 64.0 * tau ** 4 * k2 * k1 ** 2,
             2.0 * tau * k2 + 4.0 * tau ** 2 * k1 ** 2,
             4.0 * tau ** 2 * k4, 4.0 * tau * k1, 2.0 * tau * k2),
            (kernels.OrnsteinUhlenbeck(kap),
             2.0 * k2 / kap, k1 * math.sqrt(2.0 / kap), 2.0 * k2 ** 2 / kap,
             k4 + 8.0 * k3 * k1 / kap + 16.0 * k2 * k1 ** 2 / kap ** 2,
             k2 + 2.0 * k1 ** 2 / kap,
             k4, 2.0 ** 1.5 * k1 / math.sqrt(kap), k2),
        ]
        for kern, s0, trend, s1, s2, c2, s3, delta, cv in reference:
            ch = asy.regime_cumhaz(kern, intensity)
            assert (ch.sigma0_sq, ch.limit_variance) == (exact(s0), exact(s0))
            assert (ch.centering.coef, ch.centering.power) == (exact(trend), 1.0)
            p2 = asy.regime_path2nd(kern, intensity)
            assert (p2.sigma1_sq, p2.sigma2_sq) == (exact(s1), exact(s2))
            assert p2.limit_variance == exact(s1 + s2)
            assert p2.centering.value == exact(c2)
            pv = asy.regime_pathvar(kern, intensity)
            assert (pv.sigma1_sq, pv.sigma3_sq, pv.delta) == (exact(s1), exact(s3), exact(delta))
            assert pv.limit_variance == exact(s1 + s3)
            assert pv.centering.value == exact(cv)
