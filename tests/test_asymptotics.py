import math

import pytest
from scipy import integrate

from hazardlab import asymptotics as asy
from hazardlab import crm, kernels

from conftest import random_intensity, seeded

GG = crm.GeneralizedGamma(0.5, 1.0)
CH, P2, PV = asy.Functional


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
            spec = asy.regime(kern, intensity, CH)
            assert spec.limit_variance == pytest.approx(expected, rel=1e-12)


def test_cumhaz_rates_and_trends():
    spec = asy.regime(kernels.Rectangular(1.0), GG, CH)
    assert spec.rate == asy.Power(-0.5)
    assert spec.centering(10.0) == pytest.approx(20.0)           # 2 tau K1 T
    spec = asy.regime(kernels.DykstraLaud(), GG, CH)
    assert spec.rate.p == -1.5
    assert spec.centering(10.0) == pytest.approx(50.0)           # K1 T^2 / 2


def test_nonhomogeneous_cumhaz_catalog():
    dl, rect = kernels.DykstraLaud(), kernels.Rectangular(1.0)
    eg = crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0))
    be = crm.Beta(crm.IndicatorSqrt(1.0))
    spec = asy.regime(dl, eg, CH)
    assert spec.rate == asy.Power(-1.0, -0.5)
    # T^p (log T)^q is real and finite only above T = 1
    assert spec.rate(math.e ** 4) == pytest.approx(math.e ** -4 / 2.0, rel=1e-15)
    for T in (1.0, 0.5):
        with pytest.raises(ValueError, match="defined for T > 1 only"):
            spec.rate(T)
    assert isinstance(spec.centering, asy.MonteCarloMean)
    assert spec.limit_variance == pytest.approx(1.0)
    spec = asy.regime(rect, eg, CH)
    assert spec.limit_variance == pytest.approx(4.0)
    spec = asy.regime(dl, be, CH)
    assert spec.rate.p == -1.25
    assert spec.centering(10.0) == pytest.approx(50.0)           # T^2/2 (K1(x) = 1)
    assert spec.limit_variance == pytest.approx(16.0 / 15.0)
    spec = asy.regime(rect, be, CH)
    assert spec.rate.p == -0.25
    assert spec.limit_variance == pytest.approx(8.0)
    with pytest.raises(asy.NotCatalogedError):
        asy.regime(kernels.OrnsteinUhlenbeck(1.0), eg, CH)


def test_quadratic_catalog_corrected_values():
    # independently written generalized-gamma specializations of the
    # corrected variances (full symmetric-norm convention)
    sigma, gamma = 0.5, 1.0
    K = lambda c: math.gamma(c - sigma) / (math.gamma(1 - sigma) * gamma ** (c - sigma))
    tau = 1.0
    spec = asy.regime(kernels.Rectangular(tau), GG, P2)
    s1 = 32 * tau ** 3 * K(2) ** 2 / 3
    s2 = 4 * tau ** 2 * K(4) + 32 * tau ** 3 * K(3) * K(1) + 64 * tau ** 4 * K(2) * K(1) ** 2
    assert spec.sigma1_sq == pytest.approx(s1, rel=1e-12)
    assert spec.sigma2_sq == pytest.approx(s2, rel=1e-12)
    assert spec.limit_variance == pytest.approx(s1 + s2, rel=1e-12)
    kap = 1.0
    spec = asy.regime(kernels.OrnsteinUhlenbeck(kap), GG, P2)
    assert spec.sigma1_sq == pytest.approx(2 * K(2) ** 2 / kap, rel=1e-12)
    assert spec.sigma2_sq == pytest.approx(
        K(4) + 8 * K(3) * K(1) / kap + 16 * K(2) * K(1) ** 2 / kap ** 2, rel=1e-12)
    spec = asy.regime(kernels.Rectangular(tau), GG, PV)
    assert spec.delta == pytest.approx(4 * tau * K(1), rel=1e-12)
    assert spec.sigma3_sq == pytest.approx(4 * tau ** 2 * K(4), rel=1e-12)
    assert spec.centering(123.0) == pytest.approx(2 * tau * K(2), rel=1e-12)
    spec = asy.regime(kernels.OrnsteinUhlenbeck(kap), GG, PV)
    assert spec.delta == pytest.approx(2 ** 1.5 * K(1) / math.sqrt(kap), rel=1e-12)
    assert spec.sigma3_sq == pytest.approx(K(4), rel=1e-12)


def test_variance_components_positive_over_draws():
    rng = seeded(302)
    for _ in range(25):
        intensity = random_intensity(rng, homogeneous=True)
        for kern in (kernels.Rectangular(rng.uniform(0.3, 3.0)),
                     kernels.OrnsteinUhlenbeck(rng.uniform(0.3, 3.0))):
            p2 = asy.regime(kern, intensity, P2)
            pv = asy.regime(kern, intensity, PV)
            assert p2.sigma1_sq > 0 and p2.sigma2_sq > 0
            assert pv.sigma3_sq > 0 and pv.delta > 0
            # sign flip of the cross terms: path-variance < path-2nd-moment
            k1, k3 = crm.jump_moment(intensity, 1, x=0.0), crm.jump_moment(intensity, 3, x=0.0)
            if k1 * k3 > 0:
                assert pv.sigma3_sq < p2.sigma2_sq
                assert pv.limit_variance < p2.limit_variance


def test_monotone_kernels_unsupported_quadratics():
    for kern in (kernels.DykstraLaud(), kernels.UShaped(2.0)):
        with pytest.raises(asy.NotCatalogedError) as info:
            asy.regime(kern, GG, P2)
        assert "diverge" in info.value.reason
        with pytest.raises(asy.NotCatalogedError):
            asy.regime(kern, GG, PV)
    with pytest.raises(asy.NotCatalogedError):
        asy.regime(kernels.Rectangular(1.0), crm.ExtendedGamma(crm.AffineSqrt(1, 1)), P2)


def test_path2nd_centering_matches_mean_square_quadrature():
    # the cataloged constant equals lim (1/T) int [m(t)^2 + K2 Q_T(x,x)] dt
    # computed by quadrature; the deviation decays like 1/T (checked at two
    # horizons, absolute < 1e-4 at the larger)
    for kern in (kernels.Rectangular(1.0), kernels.OrnsteinUhlenbeck(1.0)):
        spec = asy.regime(kern, GG, P2)
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



def test_catalog_rate_and_trend_text_is_pinned():
    # a constant trend reads as its coefficient alone, a log rate as
    # T^p*logT^q, and a pair without a trend constant names its quadrature
    pairs = [(kernels.OrnsteinUhlenbeck(1.0), crm.ExtendedGamma(crm.Constant(1.0))),
             (kernels.DykstraLaud(), crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)))]
    got = [(r["functional"], r["rate"], r["trend"], r["variance"], r["delta"])
           for r in asy.catalog_rows(pairs)]
    assert got[:4] == [
        ("cumulative_hazard", "T^-0.5", "1.41421*T^1", "2", ""),
        ("path_second_moment", "T^0.5", "3", "40", ""),
        ("path_variance", "T^0.5", "1", "8", "2.82842712475"),
        ("cumulative_hazard", "T^-1*logT^-0.5", "I1(T) by quadrature", "1", ""),
    ]


def test_power_rate_is_bit_exact_and_only_its_log_form_refuses_small_horizons():
    for p in (-1.5, -0.5, -0.25, 0.0, 0.5):
        for T in (0.3, 1.0, 1.7, 60.0, 12345.6):
            assert asy.Power(p)(T) == T ** p
            assert asy.PowerTrend(0.7)(T) == 0.7
    assert asy.Power(0.5, 0.0) == asy.Power(0.5)
    assert asy.Power(0.0, -0.5)(math.e) == 1.0
    for T in (1.0, 0.5):
        with pytest.raises(ValueError, match=r"^rate T\^0\*logT\^-0.5 is defined for T > 1 only"):
            asy.Power(0.0, -0.5)(T)


@pytest.mark.parametrize("kern, intensity, functional", [
    (kernels.UShaped(2.0), GG, P2),
    (kernels.OrnsteinUhlenbeck(1.0), crm.Beta(crm.IndicatorSqrt(1.0)), PV),
    (kernels.OrnsteinUhlenbeck(1.0), crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)), CH),
], ids=["nested", "nonhomogeneous-quadratic", "ou-sqrt-cumhaz"])
def test_refusal_reason_is_the_catalog_reason(kern, intensity, functional):
    with pytest.raises(asy.NotCatalogedError) as info:
        asy.regime(kern, intensity, functional)
    row, = [r for r in asy.catalog_rows([(kern, intensity)])
            if r["functional"] == functional.value]
    assert row["supported"] == "no" and info.value.reason == row["reason"]
    assert str(info.value) == (f"no cataloged limit for ({kern.label()}, {intensity.label()}, "
                               f"{functional.value}): {row['reason']}; "
                               "run check-conditions for the numeric verdicts")
    assert isinstance(info.value, ValueError)

def test_regime_spec_validation():
    with pytest.raises(ValueError):
        asy.RegimeSpec(asy.Functional.CUMULATIVE_HAZARD, asy.Power(-0.5),
                       asy.PowerTrend(1.0), 0.0)
    with pytest.raises(ValueError):
        asy.RegimeSpec(asy.Functional.PATH_VARIANCE, asy.Power(0.5),
                       asy.PowerTrend(1.0), 1.0)       # delta missing


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
            ch = asy.regime(kern, intensity, CH)
            assert ch.limit_variance == exact(s0)
            assert (ch.centering.coef, ch.centering.power) == (exact(trend), 1.0)
            p2 = asy.regime(kern, intensity, P2)
            assert (p2.sigma1_sq, p2.sigma2_sq) == (exact(s1), exact(s2))
            assert p2.limit_variance == exact(s1 + s2)
            assert (p2.centering.coef, p2.centering.power) == (exact(c2), 0.0)
            pv = asy.regime(kern, intensity, PV)
            assert (pv.sigma1_sq, pv.sigma3_sq, pv.delta) == (exact(s1), exact(s3), exact(delta))
            assert pv.limit_variance == exact(s1 + s3)
            assert (pv.centering.coef, pv.centering.power) == (exact(cv), 0.0)
