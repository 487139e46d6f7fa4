import math
import warnings
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from hazardlab import crm, kernels
from hazardlab._numeric import comp_sum

from conftest import quad_moment, random_intensity, seeded, series_arrivals


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_reference_values():
    assert crm.jump_moment(crm.GeneralizedGamma(0.5, 1.0), 1) == pytest.approx(1.0, rel=1e-14)
    assert crm.jump_moment(crm.ExtendedGamma(crm.Constant(1.0)), 2, x=7.0) \
        == pytest.approx(1.0, rel=1e-14)
    assert crm.jump_moment(crm.Beta(crm.Constant(1.0)), 2, x=0.1) == pytest.approx(0.5, rel=1e-14)
    # fourth moment of the sigma=0.3, gamma=2 member: (0.7*1.7*2.7)/2^3.7,
    # cross-checked against quadrature below
    val = crm.jump_moment(crm.GeneralizedGamma(0.3, 2.0), 4)
    assert val == pytest.approx((0.7 * 1.7 * 2.7) / 2 ** 3.7, rel=1e-12)
    assert val == pytest.approx(quad_moment(crm.GeneralizedGamma(0.3, 2.0), 4), rel=1e-8)


def test_moment_matches_quadrature_50_draws():
    rng = seeded(101)
    for _ in range(50):
        intensity = random_intensity(rng)
        x = None if intensity.homogeneous else rng.uniform(0.0, 9.0)
        for order in (1, 2, 3, 4):
            closed = crm.jump_moment(intensity, order, x)
            oracle = quad_moment(intensity, order, x)
            assert closed == pytest.approx(oracle, rel=1e-8), (intensity, order, x)


def test_moment_validation():
    gg = crm.GeneralizedGamma(0.5, 1.0)
    with pytest.raises(ValueError):
        crm.jump_moment(gg, 0)
    with pytest.raises(ValueError):
        crm.jump_moment(crm.ExtendedGamma(crm.AffineSqrt(1, 1)), 2)   # missing x


def test_intensity_validation():
    with pytest.raises(ValueError):
        crm.GeneralizedGamma(0.5, 0.0)      # stable case excluded
    with pytest.raises(ValueError):
        crm.GeneralizedGamma(1.2, 1.0)
    with pytest.raises(ValueError):
        crm.AffineSqrt(0.0, 1.0)            # vanishes at x = 0
    with pytest.raises(ValueError):
        crm.Constant(-1.0)
    for b in (0.0, -2.0):
        with pytest.raises(ValueError, match=rf"^AffineSqrt\.b={b} violates b > 0$"):
            crm.AffineSqrt(1.0, b)
        with pytest.raises(ValueError, match=rf"^IndicatorSqrt\.b={b} violates b > 0$"):
            crm.IndicatorSqrt(b)


def test_generalized_gamma_rejects_non_finite_gamma():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^GeneralizedGamma\.gamma={bad} must be finite$"):
            crm.GeneralizedGamma(0.5, bad)


def test_mean_below_is_the_lower_incomplete_share():
    # int_0^eps v rho(dv|x) in closed form: beta 1 - (1 - eps)^c,
    # extended gamma (1 - e^{-beta eps}) / beta; the difference of the full
    # and the truncated moment would lose ~1e-9 of it at eps = 1e-9
    x = 3.0
    level = 1.0 + 0.7 * math.sqrt(x)
    for eps in (1e-9, 1e-6, 1e-3, 0.5):
        assert crm.mean_below(crm.Beta(crm.AffineSqrt(1.0, 0.7)), eps, x) \
            == pytest.approx(-math.expm1(level * math.log1p(-eps)), rel=1e-14, abs=0)
        assert crm.mean_below(crm.ExtendedGamma(crm.AffineSqrt(1.0, 0.7)), eps, x) \
            == pytest.approx(-math.expm1(-level * eps) / level, rel=1e-14, abs=0)
    # every jump of a beta CRM lies below a truncation level >= 1
    assert crm.mean_below(crm.Beta(crm.Constant(2.0)), 1.5) \
        == crm.jump_moment(crm.Beta(crm.Constant(2.0)), 1)


def test_truncated_moments():
    rng = seeded(102)
    for _ in range(12):
        intensity = random_intensity(rng)
        x = None if intensity.homogeneous else rng.uniform(0.0, 4.0)
        eps = 10 ** rng.uniform(-6, -1)
        closed = crm.jump_moment(intensity, 2.0, x, eps)
        f = lambda v: v ** 2 * crm.jump_density(intensity, v, x)
        hi = 1.0 if isinstance(intensity, crm.Beta) else np.inf
        oracle, _ = integrate.quad(f, eps, hi, epsabs=0.0, epsrel=1e-11, limit=300)
        assert closed == pytest.approx(oracle, rel=1e-8)
        # mean_below + truncated first moment == full first moment
        total = crm.jump_moment(intensity, 1.0, x)
        assert crm.mean_below(intensity, eps, x) + crm.jump_moment(intensity, 1.0, x, eps) \
            == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("intensity", [
    family(fn) for family in (crm.ExtendedGamma, crm.Beta)
    for fn in (crm.AffineSqrt(0.8, 1.3), crm.IndicatorSqrt(2.0))], ids=lambda i: i.label())
def test_jump_moment_on_an_array_of_locations(intensity):
    # one call on an array of locations equals the per-location loop, also
    # for truncated moments and for beta's full truncation (epsilon >= 1)
    x = np.array([[0.0, 0.4, 2.0], [2.5, 7.0, 30.0]])
    for a in (1.0, 2.0, 3.5):
        for eps in (0.0, 1e-6, 0.05, 0.7, 1.0):
            got = crm.jump_moment(intensity, a, x, eps)
            loop = [crm.jump_moment(intensity, a, float(xi), eps) for xi in x.ravel()]
            assert got.shape == x.shape
            np.testing.assert_allclose(got.ravel(), loop, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# tail mass
# ---------------------------------------------------------------------------

def test_tail_mass_reference_values():
    eg = crm.ExtendedGamma(crm.Constant(1.0))
    assert crm.tail_mass(eg, 80.0) < 1e-30
    be = crm.Beta(crm.Constant(0.7))
    assert crm.tail_mass(be, 1.0) == 0.0
    gg = crm.GeneralizedGamma(0.5, 1.0)
    oracle, _ = integrate.quad(lambda u: np.exp(-u) * u ** -1.5 / math.gamma(0.5),
                               0.5, np.inf, epsabs=0.0, epsrel=1e-12)
    assert crm.tail_mass(gg, 0.5) == pytest.approx(oracle, rel=1e-10)


def test_tail_mass_monotone_and_diverging():
    rng = seeded(103)
    for _ in range(8):
        intensity = random_intensity(rng, homogeneous=True)
        hi = 0.999 if isinstance(intensity, crm.Beta) else 30.0
        vs = np.geomspace(1e-9, hi, 200)
        tails = crm.tail_mass(intensity, vs)
        assert np.all(np.diff(tails) < 0)
        # infinite activity as v -> 0+ (at least logarithmic growth)
        assert crm.tail_mass(intensity, 1e-12) > crm.tail_mass(intensity, 1e-6) + 3.0
    with pytest.raises(ValueError):
        crm.tail_mass(crm.GeneralizedGamma(0.5, 1.0), 0.0)


def test_tail_mass_vs_quadrature():
    rng = seeded(104)
    for _ in range(10):
        intensity = random_intensity(rng, homogeneous=True)
        hi = 1.0 if isinstance(intensity, crm.Beta) else np.inf
        v = rng.uniform(1e-4, 0.9 if isinstance(intensity, crm.Beta) else 3.0)
        oracle, _ = integrate.quad(lambda u: crm.jump_density(intensity, u), v, hi,
                                   epsabs=0.0, epsrel=1e-11, limit=300)
        assert crm.tail_mass(intensity, v) == pytest.approx(oracle, rel=1e-9)


def test_inverse_tail_identity():
    # N(N^{-1}(g)) = g to 1e-9 relative (design: bisection-grade table + Newton);
    # the table maps log v, so it serves the unbounded families only
    for intensity in (crm.GeneralizedGamma(0.5, 1.0),
                      crm.ExtendedGamma(crm.Constant(1.0))):
        measure = 50.0
        eps = 1e-6
        n_eps = measure * crm.tail_mass(intensity, eps)
        g = np.geomspace(1e-3, n_eps * 0.999999, 20000)
        v = crm._invert_tail(intensity, measure, eps, g)
        resid = np.abs(measure * crm.tail_mass(intensity, v) / g - 1.0)
        assert resid.max() < 1e-9


# ---------------------------------------------------------------------------
# homogeneous sampler
# ---------------------------------------------------------------------------

def test_sampler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        crm.plan(crm.GeneralizedGamma(0.5, 1.0), (0, 1), 0.0)
    with pytest.raises(ValueError):
        crm.plan(crm.GeneralizedGamma(0.5, 1.0), (3, 1), 1e-6)


def test_beta_full_truncation(rng):
    # epsilon >= 1 discards every jump
    be = crm.Beta(crm.Constant(1.0))
    s = crm.sample(crm.plan(be, (0.0, 5.0), 1.0), rng)
    assert s.size == 0


def test_jumps_nonincreasing_and_above_epsilon(rng):
    for intensity in (crm.GeneralizedGamma(0.4, 1.5),
                      crm.ExtendedGamma(crm.Constant(0.8)),
                      crm.Beta(crm.Constant(2.0))):
        s = crm.sample(crm.plan(intensity, (0.0, 30.0), 1e-5), rng)
        assert np.all(np.diff(s.jumps) <= 0)
        assert s.jumps.min() >= 1e-5
        if isinstance(intensity, crm.Beta):
            assert s.jumps.max() < 1.0
        assert np.all((s.locations >= 0) & (s.locations <= 30.0))


def test_poisson_count_law():
    # window [0,100], epsilon 1e-6: mean atom count over 200 seeded draws
    # from one plan matches 100 * tail_mass(1e-6) well within the Poisson
    # band
    gg = crm.GeneralizedGamma(0.5, 1.0)
    lam = 100.0 * crm.tail_mass(gg, 1e-6)
    plan = crm.plan(gg, (0.0, 100.0), 1e-6)
    mean = np.mean([crm.sample(plan, seeded(105, r)).size for r in range(200)])
    tol = 4.0 * math.sqrt(lam / 200.0)
    assert abs(mean - lam) <= tol, (mean, lam, tol)


def _truncated_law_cdf(intensity, jumps, eps):
    # 1 - N(v)/N(eps), in chunks: beta's tail holds a 128-node rule per point
    tails = np.concatenate([crm.tail_mass(intensity, chunk)
                            for chunk in np.array_split(jumps, max(1, jumps.size // 20000))])
    return 1.0 - tails / crm.tail_mass(intensity, eps)


@pytest.mark.parametrize("entropy,intensity", [
    (116, crm.GeneralizedGamma(0.5, 1.0)),
    (117, crm.ExtendedGamma(crm.Constant(1.0))),
    (118, crm.Beta(crm.Constant(1.0))),
    (119, crm.Beta(crm.Constant(1.5))),
    (127, crm.Beta(crm.Constant(0.3))),
    (128, crm.Beta(crm.Constant(0.5)))],
    ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_sampled_jumps_follow_the_truncated_law(entropy, intensity):
    # Given their count, the jumps of the epsilon-truncated CRM are iid with
    # CDF 1 - N(v)/N(eps), so the pooled jumps of 50 draws must pass a KS
    # test of their probability-integral transform.  At eps = 1e-3 rejection
    # removes 5.5% (GG) and 8.9% (beta(1.5)) of the dominating series,
    # keeps all of it for beta(1) and thins both pieces of the two-piece
    # measure of beta(0.3) and beta(0.5); gamma inverts its tail table.
    eps = 1e-3
    plan = crm.plan(intensity, (0.0, 200.0), eps)
    jumps = np.concatenate([crm.sample(plan, seeded(entropy, r)).jumps for r in range(50)])
    p = stats.kstest(_truncated_law_cdf(intensity, jumps, eps), "uniform").pvalue
    assert p > 1e-3, (intensity, jumps.size, p)


@pytest.mark.parametrize("entropy,intensity", [
    (120, crm.ExtendedGamma(crm.Constant(1.0))),
    (121, crm.Beta(crm.Constant(1.5))),
    (122, crm.Beta(crm.Constant(0.5)))], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_count_law_per_sampling_path(entropy, intensity, monkeypatch):
    # like test_poisson_count_law; extended gamma, which has no dominating
    # measure, inverts its own tail once per draw, and beta never does.  A
    # 2% error in the plan's count is 2.6 of extended gamma's 4-SE band
    inversions = []
    invert = crm._invert_tail
    monkeypatch.setattr(crm, "_invert_tail",
                        lambda *args: inversions.append(1) or invert(*args))
    lam = 100.0 * crm.tail_mass(intensity, 1e-6)
    plan = crm.plan(intensity, (0.0, 100.0), 1e-6)
    counts = [crm.sample(plan, seeded(entropy, r)).size for r in range(200)]
    assert len(inversions) == (200 if isinstance(intensity, crm.ExtendedGamma) else 0)
    tol = 4.0 * math.sqrt(lam / 200.0)
    assert abs(np.mean(counts) - lam) <= tol, (np.mean(counts), lam, tol)


def test_sampler_refuses_oversized_series_before_drawing():
    # GG(0.9, 1) at T = 500 (rectangular window) and eps = 1e-8 expects
    # ~9.3e8 atoms, ~7 GB per float array; criterion 5's ~565k still run
    window = kernels.location_window(kernels.Rectangular(1.0), 500.0)
    with pytest.raises(ValueError, match=r"epsilon=1e-08 asks for 9\.\d+e\+08 expected "
                                         r"atoms .* above the limit 2e\+07"):
        crm.plan(crm.GeneralizedGamma(0.9, 1.0), window, 1e-8)
    s = crm.sample(crm.plan(crm.GeneralizedGamma(0.5, 1.0), window, 1e-6), seeded(123))
    assert 5.6e5 < s.size < 5.7e5
    # the thinning sampler checks its envelope's series the same way
    with pytest.raises(ValueError, match="above the limit"):
        crm.plan(crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)), (0.0, 1e7), 1e-6)


def test_beta_small_c_preflight_counts_the_dominating_series():
    # beta(0.5) at eps = 1e-6 on a window of 2e6: the kept series expects
    # 2e6 * N(eps) = 1.52e7 atoms, under the limit, but the drawn series of
    # nu0 expects 2e6 * N0(eps) = 2.14e7, which is refused before any draw
    with pytest.raises(ValueError, match=r"^epsilon=1e-06 asks for 2\.14e\+07 expected atoms "
                                         r"per draw of beta\(constant\(0\.5\)\), above the "
                                         r"limit 2e\+07; raise epsilon$"):
        crm.plan(crm.Beta(crm.Constant(0.5)), (0.0, 2e6), 1e-6)


def test_campbell_mean_per_family():
    # sum_i J_i g(x_i) has mean int g(x) K1(x) dx - deficit, for g = 1 and g = x
    window = (0.0, 12.0)
    for entropy, intensity in ((106, crm.GeneralizedGamma(0.6, 1.0)),
                               (107, crm.ExtendedGamma(crm.Constant(1.2))),
                               (108, crm.Beta(crm.Constant(1.0)))):
        k1 = crm.jump_moment(intensity, 1, x=0.0)
        totals, moments_x = [], []
        for r in range(500):
            s = crm.sample(crm.plan(intensity, window, 1e-5), seeded(entropy, r))
            totals.append(comp_sum(s.jumps))
            moments_x.append(float(np.sum(s.jumps * s.locations)))
        deficit = window[1] * crm.mean_below(intensity, 1e-5)
        for series, target in ((totals, window[1] * k1 - deficit),
                               (moments_x, window[1] ** 2 / 2 * k1
                                - deficit * window[1] / 2)):
            mean = np.mean(series)
            se = np.std(series, ddof=1) / math.sqrt(len(series))
            assert abs(mean - target) <= 4.0 * se, (intensity, mean, target, se)


def test_campbell_total_mass_of_a_long_window():
    # the series of GG(0.5, 1) at eps = 1e-2 on (0, 1000) has total mass of
    # mean L int_eps^inf v rho(dv) and variance L int_eps^inf v^2 rho(dv);
    # 2000 draws resolve a keep probability of e^{-1.01 gamma v} (z -11.5
    # at this seed, against 0.56 for the exact keep)
    intensity, L, eps, n = crm.GeneralizedGamma(0.5, 1.0), 1000.0, 1e-2, 2000
    rng = seeded(2201)
    totals = [comp_sum(crm.sample(crm.plan(intensity, (0.0, L), eps), rng).jumps)
              for _ in range(n)]
    se = math.sqrt(L * crm.jump_moment(intensity, 2.0, 0.0, eps) / n)
    target = L * crm.jump_moment(intensity, 1.0, 0.0, eps)
    assert abs(np.mean(totals) - target) <= 4.0 * se, (np.mean(totals), target, se)


# ---------------------------------------------------------------------------
# total-mass laws (the bulk of crm.sample)
# ---------------------------------------------------------------------------

def _assert_mass_cumulants(x, intensity, length):
    # the mass of an interval is infinitely divisible with cumulants
    # kappa_j = length * m_j (untruncated jump moments); the k-statistics
    # k1, k2, k3 of the drawn masses lie within 4 SE of them, each SE from
    # the exact cumulants up to order 6 (the variances of k-statistics)
    kap = {j: length * crm.jump_moment(intensity, float(j)) for j in range(1, 7)}
    n = x.size
    var = {1: kap[2] / n,
           2: kap[4] / n + 2.0 * kap[2] ** 2 / (n - 1),
           3: kap[6] / n + 9.0 * (kap[2] * kap[4] + kap[3] ** 2) / (n - 1)
              + 6.0 * n * kap[2] ** 3 / ((n - 1) * (n - 2))}
    for j in (1, 2, 3):
        k = stats.kstat(x, j)
        assert abs(k - kap[j]) <= 4.0 * math.sqrt(var[j]), (j, k, kap[j], math.sqrt(var[j]))


@pytest.mark.parametrize("entropy, intensity, length, draws", [
    (2211, crm.GeneralizedGamma(0.1, 2.0), 20.0, 2000),
    (2212, crm.GeneralizedGamma(0.5, 1.0), 200.0, 4000),
    (2213, crm.GeneralizedGamma(0.9, 0.5), 20.0, 2000),
    (2214, crm.ExtendedGamma(crm.Constant(1.5)), 20.0, 4000),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_total_mass_law_cumulants(entropy, intensity, length, draws):
    # At sigma = 0.5, 4000 draws resolve a bulk tilt of e^{-1.01 gamma S}
    # (the mean moves by -0.5%, ~ -6 SE).
    law = intensity.mass_law(length)
    rng = seeded(entropy)
    _assert_mass_cumulants(np.array([law(rng) for _ in range(draws)]), intensity, length)


def _kanter_pieces(rng, intensity, length, draws):
    """The mass as the bulk drew it before the double rejection: cut into
    n = ceil(length gamma^sigma / sigma) pieces, each a positive stable draw
    by Kanter's representation, scaled by (length / (n sigma))^{1/sigma}
    and kept with probability e^{-gamma v} (at least e^{-1})."""
    s, g = intensity.sigma, intensity.gamma
    n = math.ceil(length * g ** s / s)
    log_scale = math.log(length / (n * s)) / s
    out, have, want = np.empty(n * draws), 0, n * draws
    while have < want:
        m = min(int(1.2 * math.e * (want - have)) + 64, 1 << 18)
        u = math.pi * (1.0 - rng.random(m))
        e = rng.standard_exponential((2, m))
        log_v = (np.log(np.sin(s * u)) - np.log(np.sin(u)) / s
                 + (1.0 - s) / s * (np.log(np.sin((1.0 - s) * u)) - np.log(e[0])) + log_scale)
        kept = log_v[np.exp(np.clip(log_v + math.log(g), -700.0, 700.0)) < e[1]][:want - have]
        out[have:have + kept.size] = np.exp(kept)
        have += kept.size
    return out.reshape(draws, n).sum(axis=1)


@pytest.mark.parametrize("entropy, intensity, length, draws", [
    # lambda^sigma 996: criterion 5's bulk
    (2241, crm.GeneralizedGamma(0.5, 1.0), 498.0, 5000),
    # lambda^sigma 1.67, g = 0.35 < 1: the uniform body
    (2242, crm.GeneralizedGamma(0.3, 1.0), 0.5, 20000),
    # g = 1.07, just above 1: the normal body
    (2243, crm.GeneralizedGamma(0.9, 0.5), 20.0, 20000),
    # lambda^sigma 214 at small sigma
    (2244, crm.GeneralizedGamma(0.1, 2.0), 20.0, 10000),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_tilted_stable_draw_has_the_law_of_the_kanter_pieces(entropy, intensity, length, draws):
    # the double-rejection draw against the piecewise Kanter sampler it
    # replaced (two-sample KS, the reference on a stream of its own), and
    # its k-statistics against the exact cumulants
    rng = seeded(entropy)
    law = intensity.mass_law(length)
    x = np.array([law(rng) for _ in range(draws)])
    ref = _kanter_pieces(seeded(entropy, 1), intensity, length, draws)
    assert stats.ks_2samp(x, ref).pvalue > 0.01
    _assert_mass_cumulants(x, intensity, length)


def _log_envelope_mass(u, sigma, lam_s):
    """log q(u) from its definition in X = E / a(U): e^{lambda^sigma} times
    the mass of the envelope of a e^{-a x - lambda x^{-b}} about its mode
    m = (b/a)^sigma lambda^sigma (half-normal of sd delta = sqrt(sigma m / a),
    flat over delta, exponential of rate a / z), in logs."""
    s, b = sigma, (1.0 - sigma) / sigma
    log_a = (s * np.log(np.sin(s * u)) + (1.0 - s) * np.log(np.sin((1.0 - s) * u))
             - np.log(np.sin(u))) / (1.0 - s)
    log_m = s * (math.log(b) - log_a) + math.log(lam_s)
    peak = lam_s - np.exp(log_a + log_m) - np.exp(math.log(lam_s) / s - b * log_m)
    a_delta = np.exp(0.5 * (math.log(s) + log_m + log_a))
    z = 1.0 / (1.0 - (1.0 + a_delta * np.exp(-log_a - log_m)) ** (-1.0 / s))
    return peak + np.log(a_delta * (1.0 + math.sqrt(math.pi / 2.0)) + z)


def test_tilted_stable_proposal_dominates_the_envelope_mass():
    # the U step of the double rejection is exact only where pi d(u) >= q(u):
    # on a u-grid dense at both ends, for sigma 0.05..0.95 and lambda^sigma
    # 1e-3..1e5 and on both sides of g = lambda^sigma sigma (1 - sigma) = 1.
    # The draw's log q (formed in Y = a X) equals the definition.
    u = np.concatenate([np.geomspace(1e-9, 1e-2, 30), np.linspace(0.0, math.pi, 1001)[1:-1],
                        math.pi - np.geomspace(1e-15, 1e-2, 60)])
    worst = -math.inf
    for sigma in np.linspace(0.05, 0.95, 19):
        g_one = 1.0 / (sigma * (1.0 - sigma))
        for lam_s in [*np.geomspace(1e-3, 1e5, 17), 0.99 * g_one, 1.01 * g_one]:
            draw = crm._TiltedStable(sigma, lam_s, 0.0)
            log_q = _log_envelope_mass(u, sigma, lam_s)
            own = np.array([draw.envelope(v)[0] for v in u])
            assert np.allclose(own, log_q, rtol=1e-9, atol=1e-9), (sigma, lam_s)
            gap = log_q - np.array([draw.log_proposal(v) for v in u])
            worst = max(worst, float(gap.max()))
            assert np.all(gap < 0.0), (sigma, lam_s, u[np.argmax(gap)], np.exp(gap.max()))
    # with room for rounding: the largest q / (pi d) is ~0.97.  Without the
    # sqrt(2) of xi it is 0.9999 on this grid and tends to 1 as lambda^sigma
    # grows, where the rounding of lambda^sigma (1/zeta^2 - 1) carries it
    # above 1 (1.0003 at lambda^sigma = 1e12)
    assert worst < math.log(0.98)


class _CountingRng:
    """A Generator's random(n), counting the calls: one per attempt of the
    tilted-stable draw."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, n):
        self.calls += 1
        return self.rng.random(n)


@pytest.mark.parametrize("entropy, sigma, lam_s, floor", [
    (2251, 0.05, 1e-3, 0.88), (2252, 0.5, 1e-3, 0.8), (2253, 0.95, 1e-3, 0.88),
    # g = lambda^sigma sigma (1 - sigma) just below 1, the least efficient
    # tilt, and just above, where the U proposal's body is normal
    (2254, 0.05, 0.99 / (0.05 * 0.95), 0.12), (2255, 0.5, 0.99 / 0.25, 0.12),
    (2256, 0.95, 0.99 / (0.05 * 0.95), 0.12),
    (2257, 0.05, 1.01 / (0.05 * 0.95), 0.21), (2258, 0.5, 1.01 / 0.25, 0.21),
    (2259, 0.95, 1.01 / (0.05 * 0.95), 0.21),
    (2260, 0.05, 1e4, 0.48), (2261, 0.5, 1e4, 0.48), (2262, 0.95, 1e4, 0.48),
])
def test_tilted_stable_acceptance_rate(entropy, sigma, lam_s, floor):
    # accepted draws per attempt over 2000 draws, bounded from below.  The
    # floors sit 5-13 SE under the least rate of a pilot at five other
    # seeds (0.924, 0.838, 0.924; 0.132 at g = 0.99; 0.237 at 1.01; 0.531
    # at lambda^sigma 1e4); an exact draw whose proposal wastes mass fails
    # them.
    rng = _CountingRng(seeded(entropy))
    draw = crm._TiltedStable(sigma, lam_s, 0.0)
    for _ in range(2000):
        draw(rng)
    assert 2000 / rng.calls >= floor, 2000 / rng.calls


class _Rejecting:
    """random(n) of zeros: U = 0, outside (0, pi), on every attempt."""
    calls = 0

    def random(self, n):
        self.calls += 1
        return np.zeros(n)


@pytest.mark.parametrize("lam_s", [0.5, 1e4])
def test_tilted_stable_draw_stops_at_its_attempt_cap(lam_s):
    rng = _Rejecting()
    with pytest.raises(ArithmeticError, match=rf"^the tilted-stable draw \(sigma=0\.3, "
                                              rf"lambda\^sigma={lam_s:g}\) accepted none of "
                                              rf"500 attempts$"):
        crm._TiltedStable(0.3, lam_s, 0.0)(rng)
    assert rng.calls == crm._TILTED_STABLE_ATTEMPTS == 500


def test_total_mass_draws_raise_no_floating_point_error():
    # the draw runs in logs: at the ends of sigma, gamma and the length
    # nothing overflows, underflows or divides by zero, also for GG(0.05, 1)
    # on 2e6 (lambda^sigma 4e7), which the piecewise sampler refused as 4e7
    # pieces, and on the flat interval of 1e-12 that a rectangular kernel
    # has at T just above 2 tau
    rng = seeded(2221)
    cases = [(s, g, length) for s in (0.05, 0.95) for g in (0.1, 10.0)
             for length in (1e-12, 1e-6, 50.0)]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sigma, gamma, length in cases + [(0.05, 1.0, 2e6)]:
            law = crm.GeneralizedGamma(sigma, gamma).mass_law(length)
            masses = np.array([law(rng) for _ in range(200)])
            assert np.all(np.isfinite(masses)) and np.all(masses >= 0.0)


def test_mass_law_facts_and_bulk_layout():
    gg = crm.GeneralizedGamma(0.5, 2.0)
    assert crm.Beta(crm.Constant(1.5)).mass_law(10.0) is None
    assert crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)).mass_law(10.0) is None
    # each law is the draw rng -> the whole mass
    assert isinstance(crm.ExtendedGamma(crm.Constant(1.5)).mass_law(10.0)(seeded(2222)), float)
    assert isinstance(gg.mass_law(10.0)(seeded(2222)), float)
    # Ferguson-Klass outside the bulk (10, 90), then one aggregated atom at
    # its midpoint
    s = crm.sample(crm.plan(gg, (0.0, 101.0), 1e-4, ((10.0, 90.0), gg.mass_law(80.0))),
                   seeded(2223))
    fk = slice(0, s.size - 1)
    assert np.all(s.jumps[fk] >= 1e-4) and np.all(np.diff(s.jumps[fk]) <= 0.0)
    assert np.all((s.locations[fk] < 10.0) | (s.locations[fk] >= 90.0))
    assert s.locations[-1] == 50.0 and s.jumps[-1] > 0.0


class _PlantedUniforms:
    """A Generator whose uniform draws start with the given values; every
    other draw, and the stream, are the wrapped generator's."""

    def __init__(self, rng, head):
        self._rng, self._head = rng, np.asarray(head)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self, *args, **kwargs):
        u = self._rng.uniform(*args, **kwargs)
        u[:self._head.size] = self._head
        return u


def _bulk_sample_reference(intensity, window, eps, rng, bulk):
    # the bulk draw as the masked assignment and np.append made it
    (a, b), law = bulk
    lo, hi = window
    edge = (a - lo) + (hi - b)
    jumps = crm._fk_jumps(crm.plan(intensity, (0.0, edge), eps), rng)
    x = rng.uniform(lo, lo + edge, size=jumps.size)
    x[x >= a] += b - a
    return np.append(jumps, law(rng)), np.append(x, a + (b - a) * 0.5)


@pytest.mark.parametrize("window,interval", [((0.0, 101.0), (10.0, 90.0)),
                                             ((3.5, 101.3), (10.25, 90.7))],
                         ids=["lo=0", "lo=3.5"])
def test_bulk_shift_equals_the_masked_assignment_bit_for_bit(window, interval):
    # locations exactly at lo and at a, one ulp either side of a and the
    # last double below lo + edge, then the draw's own
    gg = crm.GeneralizedGamma(0.5, 2.0)
    (lo, hi), (a, b) = window, interval
    head = [lo, a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf),
            np.nextafter(lo + (a - lo) + (hi - b), -np.inf)]
    bulk = ((a, b), gg.mass_law(b - a))
    rng = _PlantedUniforms(seeded(2304), head)
    ref_rng = _PlantedUniforms(seeded(2304), head)
    s = crm.sample(crm.plan(gg, window, 1e-4, bulk), rng)
    jumps, locations = _bulk_sample_reference(gg, window, 1e-4, ref_rng, bulk)
    assert s.size > 1000
    assert s.jumps.tobytes() == jumps.tobytes()
    assert s.locations.tobytes() == locations.tobytes()
    assert s.locations[0] == lo and s.locations[1] == a + (b - a)
    assert s.locations[2] == np.nextafter(a, -np.inf)
    # the stream continues where the reference leaves it
    assert rng.random() == ref_rng.random()


def test_bulk_of_a_non_homogeneous_intensity_refused_before_drawing():
    # a profiled intensity has no total-mass law; a bulk given with it is
    # refused, also when the law passed is another family member's
    law = crm.ExtendedGamma(crm.Constant(1.0)).mass_law(8.0)
    with pytest.raises(ValueError, match=r"^extended_gamma\(affine_sqrt\(1,1\)\) is "
                                         r"non-homogeneous: it has no total-mass law "
                                         r"for a bulk$"):
        crm.plan(crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)), (0.0, 10.0), 1e-3,
                 ((1.0, 9.0), law))


@pytest.mark.parametrize("window, interval", [((0.0, 10.0), (5.0, 12.0)),
                                              ((2.0, 10.0), (1.0, 5.0)),
                                              ((0.0, 10.0), (6.0, 4.0))],
                         ids=["past-hi", "before-lo", "reversed"])
def test_bulk_outside_the_window_refused_before_drawing(window, interval):
    gg = crm.GeneralizedGamma(0.5, 1.0)
    bulk = (interval, gg.mass_law(1.0))
    message = (rf"^bulk \({interval[0]}, {interval[1]}\) is not an interval of the window "
               rf"\[{window[0]:g},{window[1]:g}\)$")
    with pytest.raises(ValueError, match=message):
        crm.plan(gg, window, 1e-3, bulk)


def test_plan_counts_the_series_that_sample_draws():
    # the window's series, the edge outside a bulk, the thinning envelope's
    # series times its multiplier; each plan's count is the arrivals the
    # draw expects
    gg, eps = crm.GeneralizedGamma(0.5, 1.0), 1e-3
    plan = crm.plan(gg, (2, 12), eps)
    assert plan[:5] == ((2.0, 12.0), gg, 10.0, eps, None) and plan.bulk is None
    assert plan.atoms == series_arrivals(gg, 10.0, eps)
    law = gg.mass_law(7.0)
    plan = crm.plan(gg, (2.0, 12.0), eps, ((4, 11), law))
    assert plan.rate == 3.0 and plan.atoms == series_arrivals(gg, 3.0, eps)
    assert plan.bulk == ((4.0, 11.0), law)
    beta = crm.Beta(crm.AffineSqrt(1.0, 0.7))
    env, mult, _ = beta.envelope(0.0, 25.0)
    plan = crm.plan(beta, (0.0, 25.0), eps)
    assert plan.measure == env and plan.rate == 25.0 * mult and plan.accept is not None
    assert plan.atoms == series_arrivals(env, 25.0 * mult, eps)
    # at the ceiling the series is empty
    assert crm.plan(crm.Beta(crm.Constant(1.0)), (0.0, 5.0), 1.0).atoms == 0.0
    # extended gamma keeps every arrival: the mean size of its draws beside
    # a bulk is the count, at 4 SE over 400 draws
    eg = crm.ExtendedGamma(crm.Constant(1.0))
    plan = crm.plan(eg, (0.0, 30.0), eps, ((5.0, 25.0), eg.mass_law(20.0)))
    n = plan.atoms
    assert plan.dominating is None and n == series_arrivals(eg, 10.0, eps)
    sizes = [crm.sample(plan, seeded(2310, r)).size - 1 for r in range(400)]
    assert 60 < n < 70 and abs(np.mean(sizes) - n) <= 4.0 * math.sqrt(n / 400)
    # it refuses a bad window or epsilon
    for bad_window in ((1.0, 1.0), (-1.0, 2.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match=r"^window must be a bounded interval"):
            crm.plan(gg, bad_window, eps)
    with pytest.raises(ValueError, match=r"^epsilon must be > 0$"):
        crm.plan(gg, (0.0, 1.0), 0.0)


def _mass_law(intensity, interval):
    return None if interval is None else (interval, intensity.mass_law(interval[1] - interval[0]))


@pytest.mark.parametrize("intensity,interval", [
    (crm.GeneralizedGamma(0.5, 1.0), None),
    (crm.Beta(crm.Constant(1.5)), None),
    (crm.Beta(crm.Constant(0.5)), None),
    (crm.ExtendedGamma(crm.Constant(1.0)), None),
    (crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)), None),
    (crm.Beta(crm.IndicatorSqrt(1.0)), None),
    (crm.GeneralizedGamma(0.5, 1.0), (5.0, 25.0)),
    (crm.ExtendedGamma(crm.Constant(1.0)), (5.0, 25.0)),
], ids=lambda v: v.label() if hasattr(v, "label") else "bulk" if v else "series")
def test_one_plan_draws_as_fresh_plans_bit_for_bit(intensity, interval):
    # a plan carries no state from one draw to the next: five draws from
    # one plan equal five draws, on the same streams, each from a fresh
    # plan with a fresh total-mass law
    window, eps = (0.0, 30.0), 1e-3
    plan = crm.plan(intensity, window, eps, _mass_law(intensity, interval))
    once = [crm.sample(plan, seeded(2320, r)) for r in range(5)]
    for r, a in enumerate(once):
        b = crm.sample(crm.plan(intensity, window, eps, _mass_law(intensity, interval)),
                       seeded(2320, r))
        assert a.size > 10
        assert np.array_equal(a.jumps, b.jumps) and np.array_equal(a.locations, b.locations)


def test_sample_arrays_of_different_lengths_refused():
    with pytest.raises(ValueError, match=r"^jumps and locations must have equal length$"):
        crm.CrmSample([1.0, 0.5], [0.2], (0.0, 1.0))


def test_seeded_determinism_bit_for_bit():
    gg = crm.GeneralizedGamma(0.5, 1.0)
    a = crm.sample(crm.plan(gg, (0.0, 20.0), 1e-6), seeded(109))
    b = crm.sample(crm.plan(gg, (0.0, 20.0), 1e-6), seeded(109))
    assert np.array_equal(a.jumps, b.jumps) and np.array_equal(a.locations, b.locations)


# ---------------------------------------------------------------------------
# thinning sampler
# ---------------------------------------------------------------------------

def test_extended_gamma_thinning_campbell():
    # mean of sum J_i (T - x_i) -> int_0^T (T - x)/(1 + sqrt x) dx
    T = 10.0
    intensity = crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0))
    target, _ = integrate.quad(lambda x: (T - x) / (1 + math.sqrt(x)), 0, T)
    vals = []
    for r in range(500):
        s = crm.sample(crm.plan(intensity, (0.0, T), 1e-5), seeded(112, r))
        vals.append(float(np.sum(s.jumps * (T - s.locations))))
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    # the epsilon-deficit shifts the target down by < int (T-x) eps-mass dx
    assert abs(mean - target) <= 4.0 * se + 1e-4 * target


def test_beta_thinning_unit_mean():
    # the beta family has first jump moment exactly 1 at every location
    vals = []
    for r in range(400):
        s = crm.sample(crm.plan(crm.Beta(crm.AffineSqrt(1.0, 1.0)), (0.0, 10.0), 1e-5),
                       seeded(113, r))
        vals.append(comp_sum(s.jumps))
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - 10.0) <= 4.0 * se + 0.01


def test_beta_envelope_requires_c_at_least_one():
    bad = crm.Beta(crm.IndicatorSqrt(0.25))    # sqrt(x) < 1 on (0.25, 1)
    with pytest.raises(crm.EnvelopeError):
        crm.plan(bad, (0.0, 10.0), 1e-5)


def test_thinning_acceptance_probabilities_valid():
    intensity = crm.ExtendedGamma(crm.AffineSqrt(0.5, 1.5))
    env, mult, accept = intensity.envelope(0.0, 25.0)
    rng = seeded(115)
    v = rng.uniform(1e-6, 5.0, 500)
    x = rng.uniform(0.0, 25.0, 500)
    p = accept(v, x)
    assert np.all((p >= 0) & (p <= 1))
    b = crm.Beta(crm.AffineSqrt(1.0, 0.7))
    env, mult, accept = b.envelope(0.0, 25.0)
    v = rng.uniform(1e-6, 0.999, 500)
    p = accept(v, x)
    assert np.all((p >= 0) & (p <= 1 + 1e-12))


@pytest.mark.parametrize("entropy,intensity,hi,eps", [
    (2300, crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)), 1000.0, 1e-2),
    (2301, crm.Beta(crm.AffineSqrt(1.0, 0.7)), 100.0, 1e-3),
    (2302, crm.Beta(crm.IndicatorSqrt(1.0)), 100.0, 1e-3),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_thinning_acceptance_rate(entropy, intensity, hi, eps, monkeypatch):
    # accepted / envelope atoms against the exact rate
    # int N_eps(x) dx / ((hi - lo) mult N_env(eps)), at 4 SE over ~2e5
    # envelope atoms: an envelope that wastes mass, or an accept
    # probability that drops atoms, fails it.  The envelope atoms are
    # counted where the series returns them.
    env, mult, _ = intensity.envelope(0.0, hi)
    kinks = [k for k in intensity.fn.kinks if 0.0 < k < hi] or None
    accepted_mass, _ = integrate.quad(lambda x: crm.tail_mass(intensity, eps, x), 0.0, hi,
                                      points=kinks, limit=200)
    rate = accepted_mass / (hi * mult * crm.tail_mass(env, eps))
    drawn = []
    fk_jumps = crm._fk_jumps

    def counting(*args):
        jumps = fk_jumps(*args)
        drawn.append(jumps.size)
        return jumps
    monkeypatch.setattr(crm, "_fk_jumps", counting)
    plan = crm.plan(intensity, (0.0, hi), eps)
    kept, r = 0, 0
    while sum(drawn) < 2e5:
        kept += crm.sample(plan, seeded(entropy, r)).size
        r += 1
    n = sum(drawn)
    assert abs(kept / n - rate) <= 4.0 * math.sqrt(rate * (1.0 - rate) / n), (kept / n, rate)


def _beta_upper_share_exact(a, c, eps):
    # for integers a, c: 1 - I_eps(a, c) = P(Binomial(a + c - 1, eps) < a)
    x, n = Fraction(eps), a + c - 1
    return sum(comb(n, j) * x ** j * (1 - x) ** (n - j) for j in range(a))


def test_beta_upper_share_against_exact_binomial_sum():
    for a in range(1, 7):
        for c in range(1, 9):
            intensity = crm.Beta(crm.Constant(float(c)))
            full = Fraction(factorial(a - 1) * factorial(c), factorial(a + c - 1))
            for eps in (1e-6, 0.01, 0.3, 0.9, 0.95, 0.999, 0.999999):
                exact = _beta_upper_share_exact(a, c, eps)
                assert float(intensity.above(float(a), eps, float(c))) \
                    == pytest.approx(float(exact), rel=1e-13, abs=0)
                assert crm.jump_moment(intensity, float(a), epsilon=eps) \
                    == pytest.approx(float(full * exact), rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# inverse-tail table (extended gamma) and beta's two-piece nu0 (c < 1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.5, 0.8, 1.0, 2.0])
@pytest.mark.parametrize("rate,eps", [(50.0, 1e-6), (1000.0, 1e-6), (200.0, 1e-3)])
def test_extended_gamma_inversion_residual(beta, rate, eps):
    intensity = crm.ExtendedGamma(crm.Constant(beta))
    n_eps = rate * crm.tail_mass(intensity, eps)
    g = np.geomspace(1.0, n_eps, 20001)[:-1]
    v = crm._invert_tail(intensity, rate, eps, g)
    resid = np.abs(rate * crm.tail_mass(intensity, v) / g - 1.0)
    assert resid.max() <= 1e-13, resid.max()


def _beta_nu0_density(c, v):
    # the two-piece dominating measure of beta with c < 1, written out
    return np.where(v <= 0.5, c * 2.0 ** (1.0 - c) / v, 2.0 * c * (1.0 - v) ** (c - 1.0))


@pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.9])
def test_beta_small_c_dominating_measure(c):
    # nu0 >= rho and the keep probability rho/nu0 lies in [0, 1] on a grid
    # up to the ceiling; the tail of nu0 against quadrature of its density
    intensity = crm.Beta(crm.Constant(c))
    dom = intensity.dominating()
    v = np.concatenate([np.geomspace(1e-9, 0.5, 20000), 1.0 - np.geomspace(0.5, 1e-12, 20000)[1:]])
    rho, nu0 = crm.jump_density(intensity, v), _beta_nu0_density(c, v)
    keep = dom.keep(v)
    assert np.all(nu0 >= rho)
    assert np.all((keep >= 0.0) & (keep <= 1.0))
    np.testing.assert_allclose(keep, rho / nu0, rtol=1e-13, atol=0.0)
    for vi in (1e-6, 1e-3, 0.1, 0.4999, 0.5, 0.5001, 0.8, 0.99, 0.999999):
        # the upper piece's (1 - u)^(c-1) singularity goes into the weight
        upper, _ = integrate.quad(lambda u: 2.0 * c, max(vi, 0.5), 1.0, weight="alg",
                                  wvar=(0.0, c - 1.0), epsabs=0.0, epsrel=1e-13)
        lower = 0.0
        if vi < 0.5:
            lower, _ = integrate.quad(lambda u: _beta_nu0_density(c, u), vi, 0.5,
                                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert float(dom.tail(vi)) == pytest.approx(upper + lower, rel=1e-10, abs=0), vi


@pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.9])
def test_beta_small_c_inversion_residual(c):
    # rate * N0(v) = g for the jumps v <= 0.999; nearer the ceiling the
    # double v resolves 1 - v only to 1.1e-16, which alone moves N0(v) by
    # more than the bound
    dom = crm.Beta(crm.Constant(c)).dominating()
    rate, eps = 50.0, 1e-6
    n_eps = rate * float(dom.tail(eps))
    g = np.geomspace(rate * float(dom.tail(0.999)), n_eps, 20001)[:-1]
    v = dom.inverse(g / rate)
    assert np.all(v <= 0.999 * (1.0 + 1e-15))
    resid = np.abs(rate * dom.tail(v) / g - 1.0)
    assert resid.max() <= 1e-9, resid.max()


@pytest.mark.parametrize("intensity,rate,eps,top", [
    (crm.ExtendedGamma(crm.Constant(1.0)), 1000.0, 1e-6, 32.0)],
    ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_arrivals_beyond_the_table_take_its_end_jumps(intensity, rate, eps, top):
    # the table spans the jumps from epsilon up to the first power of two
    # with rate * N(v) <= 1e-12; an earlier arrival takes the top jump, and
    # jumps never rise as g grows
    n_eps = rate * crm.tail_mass(intensity, eps)
    v = crm._invert_tail(intensity, rate, eps, np.geomspace(1e-300, n_eps, 2001))
    assert v[0] == pytest.approx(top, rel=1e-15, abs=0)
    assert np.all(np.diff(v) <= 0)
    assert v[-1] == pytest.approx(eps, rel=1e-12, abs=0)


def _invert_tail_reference(intensity, rate, eps, gammas):
    # _invert_tail with one expression per step, as before its in-place
    # passes
    t = crm._inverse_tail_table(intensity, rate, eps)
    last = t.coef.shape[1]
    s = np.clip((np.log(gammas) - t.y_lo) / t.h, 0.0, last)
    k = np.minimum(s.astype(np.intp), last - 1)
    s -= k
    a3, a2, a1, a0 = t.coef
    log_v = ((a3[k] * s + a2[k]) * s + a1[k]) * s + a0[k]
    return np.exp(np.clip(log_v, t.lo, t.hi, out=log_v))


@pytest.mark.parametrize("intensity,rate,eps", [
    (crm.ExtendedGamma(crm.Constant(1.0)), 1000.0, 1e-6),
    (crm.ExtendedGamma(crm.Constant(0.5)), 50.0, 1e-3)],
    ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_invert_tail_equals_its_one_expression_form_bit_for_bit(intensity, rate, eps):
    # arrivals below the table's first node (the top jump), on every 997th
    # node, drawn across it and beyond its last node (epsilon)
    t = crm._inverse_tail_table(intensity, rate, eps)
    n_eps = rate * crm.tail_mass(intensity, eps)
    g = np.concatenate([np.geomspace(1e-300, math.exp(t.y_lo), 40),
                        np.exp(t.y_lo + t.h * np.arange(0, t.coef.shape[1] + 1, 997)),
                        seeded(2303).uniform(0.0, n_eps, 5000),
                        np.geomspace(n_eps, 1e3 * n_eps, 40)])
    assert (np.log(g) < t.y_lo).any() and (g > n_eps).any()
    assert crm._invert_tail(intensity, rate, eps, g).tobytes() \
        == _invert_tail_reference(intensity, rate, eps, g).tobytes()


def test_cached_tail_table_is_read_only():
    # every later extended-gamma draw of the process inverts this table
    t = crm._inverse_tail_table(crm.ExtendedGamma(crm.Constant(1.0)), 50.0, 1e-3)
    for view in (t.coef, t.coef[0]):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.0


@pytest.mark.parametrize("c", [1e-3, 0.1, 0.3])
def test_beta_small_c_jumps_stay_below_the_ceiling(c):
    # the early arrivals, whose 1 - (g/2)^(1/c) rounds to 1, take the
    # largest double below 1; jumps never rise as g grows and end at eps.
    # Each piece sees only its own arrivals: at c = 1e-3 the lower piece's
    # exponent (t - g)/(c t) would overflow on the upper piece's.
    dom = crm.Beta(crm.Constant(c)).dominating()
    rate, eps = 100.0, 1e-4
    n_eps = rate * float(dom.tail(eps))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        v = dom.inverse(np.geomspace(1e-300, n_eps, 2001) / rate)
    assert v[0] == np.nextafter(1.0, 0.0)
    assert np.all(np.diff(v) <= 0)
    assert v[-1] == pytest.approx(eps, rel=1e-12, abs=0)


def test_beta_small_c_draw_stays_below_the_ceiling():
    # c = 0.1 on a window of 501: the first arrivals round to 1 unclipped
    s = crm.sample(crm.plan(crm.Beta(crm.Constant(0.1)), (0.0, 501.0), 1e-6), seeded(129))
    assert s.size > 1000
    assert np.all((s.jumps >= 1e-6) & (s.jumps < 1.0))


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_extended_gamma_jumps_match_an_independent_root(beta):
    # rate * E1(beta v) = g solved by Brent's method in log v, for the first
    # 100 arrivals of a seeded unit-rate series and 100 uniform on (0, n_eps)
    intensity = crm.ExtendedGamma(crm.Constant(beta))
    rate, eps = 1000.0, 1e-6
    n_eps = rate * crm.tail_mass(intensity, eps)
    rng = seeded(123, int(beta * 10))
    g = np.sort(np.concatenate([np.cumsum(rng.exponential(size=100)),
                                rng.uniform(0.0, n_eps, 100)]))
    v = crm._invert_tail(intensity, rate, eps, g)
    for gi, vi in zip(g, v):
        root = optimize.brentq(
            lambda u: math.log(rate * special.exp1(beta * math.exp(u))) - math.log(gi),
            math.log(eps) - 1.0, math.log(100.0 / beta), xtol=1e-15, rtol=1e-15)
        assert vi == pytest.approx(math.exp(root), rel=1e-12, abs=0)


@pytest.mark.parametrize("intensity", [crm.ExtendedGamma(crm.Constant(1.0)),
                                       crm.Beta(crm.Constant(0.5))],
                         ids=lambda v: v.label())
def test_warm_table_draw_evaluates_no_tail_per_jump(intensity, monkeypatch):
    # the plan evaluates rho's tail at epsilon once for extended gamma and
    # never for beta, whose series length is the closed-form tail of its
    # nu0; a draw from the plan evaluates none once the table is warm
    window, eps = (0.0, 300.0), 1e-6
    calls = []
    tail_mass = crm.tail_mass
    monkeypatch.setattr(crm, "tail_mass",
                        lambda intensity, v, x=None: calls.append(v)
                        or tail_mass(intensity, v, x))
    crm._inverse_tail_table.cache_clear()
    plan = crm.plan(intensity, window, eps)
    eg = intensity.dominating() is None
    assert calls == ([eps] if eg else []), calls
    calls.clear()
    crm.sample(plan, seeded(124))
    # the cold draw builds extended gamma's table; beta's nu0 is closed form
    assert (calls != []) == eg
    calls.clear()
    s = crm.sample(plan, seeded(124, 1))
    assert s.size > 1000
    assert calls == []


@pytest.mark.parametrize("entropy,intensity,eps,rate_exact", [
    (2290, crm.GeneralizedGamma(0.5, 1.0), 1e-3, 0.945),
    (2291, crm.GeneralizedGamma(0.3, 2.0), 1e-4, 0.899),
    (2292, crm.Beta(crm.Constant(1.5)), 1e-3, 0.911),
    (2293, crm.Beta(crm.Constant(4.0)), 1e-3, 0.735),
    (2294, crm.Beta(crm.Constant(0.5)), 1e-3, 0.714),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_keep_step_acceptance_rate(entropy, intensity, eps, rate_exact, monkeypatch):
    # kept / drawn arrivals of the nu0 keep step against its exact rate
    # N(eps) / N0(eps), at 4 SE over ~2e5 arrivals: a dominating measure
    # that wastes mass, or a keep probability that drops jumps, fails it.
    # The arrivals are counted where the series inverts nu0's tail.
    dom = intensity.dominating()
    rate = crm.tail_mass(intensity, eps) / float(dom.tail(eps))
    assert rate == pytest.approx(rate_exact, abs=5e-4)
    drawn = []

    def counting():
        return crm.Dominating(dom.tail, lambda n: drawn.append(n.size) or dom.inverse(n),
                              dom.keep)
    monkeypatch.setattr(type(intensity), "dominating", lambda self: counting())
    plan = crm.plan(intensity, (0.0, 2e5 / float(dom.tail(eps))), eps)
    kept = crm._fk_jumps(plan, seeded(entropy)).size
    n = sum(drawn)
    assert n > 1.9e5
    assert abs(kept / n - rate) <= 4.0 * math.sqrt(rate * (1.0 - rate) / n), (kept / n, rate)


def _fk_one_pass(intensity, rate, epsilon, rng):
    # the series drawn in one pass over all arrivals (the block loop's
    # reference): same arrivals, one inverse, one rng.random call
    dom = intensity.dominating()
    tail = crm.tail_mass(intensity, epsilon) if dom is None else float(dom.tail(epsilon))
    n_eps = rate * tail
    chunks, total = [], 0.0
    want = int(n_eps + 10.0 * math.sqrt(n_eps) + 64)
    while total < n_eps:
        e = rng.exponential(size=want)
        chunks.append(e)
        total += float(np.sum(e))
        want = max(64, want // 4)
    gammas = np.cumsum(np.concatenate(chunks))
    gammas = gammas[:np.searchsorted(gammas, n_eps)]
    if dom is None:
        return crm._invert_tail(intensity, rate, epsilon, gammas)
    jumps = dom.inverse(gammas / rate)
    return jumps[rng.random(jumps.size) < dom.keep(jumps)]


@pytest.mark.parametrize("arrivals", [crm._STREAM, 2 * crm._STREAM + 1, 3 * crm._STREAM + 1234])
@pytest.mark.parametrize("intensity", [crm.GeneralizedGamma(0.5, 1.0), crm.Beta(crm.Constant(1.5)),
                                       crm.Beta(crm.Constant(0.5)),
                                       crm.ExtendedGamma(crm.Constant(1.0))],
                         ids=lambda v: v.label())
def test_block_loop_draws_the_one_pass_series_bit_for_bit(intensity, arrivals):
    # pick the rate whose cut falls between arrival `arrivals` and the next
    eps = 1e-6
    g = np.cumsum(seeded(126).exponential(size=arrivals + 1))
    dom = intensity.dominating()
    tail = crm.tail_mass(intensity, eps) if dom is None else float(dom.tail(eps))
    rate = 0.5 * (g[arrivals - 1] + g[arrivals]) / tail
    assert np.searchsorted(g, rate * tail) == arrivals
    rng, ref_rng = seeded(126), seeded(126)
    jumps = crm._fk_jumps(crm.plan(intensity, (0.0, rate), eps), rng)
    ref = _fk_one_pass(intensity, rate, eps, ref_rng)
    assert jumps.size == ref.size > 0
    if dom is None:
        assert jumps.size == arrivals
    assert np.array_equal(jumps, ref)
    # the stream continues where the one-pass draw leaves it
    assert rng.random() == ref_rng.random()


def test_beta_tail_in_row_blocks_is_pointwise():
    # each point's 128-node sum is the same whichever block it falls in
    intensity = crm.Beta(crm.Constant(0.5))
    v = np.geomspace(1e-9, 0.999, 3 * crm._BETA_ROW_BLOCK + 17)
    whole = crm.tail_mass(intensity, v)
    single = np.array([crm.tail_mass(intensity, v[i:i + 1])[0]
                       for i in range(0, v.size, 997)])
    assert np.array_equal(whole[::997], single)
