import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from hazardlab import asymptotics as asy
from hazardlab import conditions as cond
from hazardlab import crm, kernels

from conftest import seeded, traced_peak

GG = crm.GeneralizedGamma(0.5, 1.0)
EG1 = crm.ExtendedGamma(crm.Constant(1.0))
GRID = [50.0, 100.0, 200.0, 400.0, 800.0]


def _case_id(value):
    if hasattr(value, "label"):
        return value.label()
    return f"T={value:g}" if isinstance(value, float) else f"blocks={value}"


# ---------------------------------------------------------------------------
# I moments
# ---------------------------------------------------------------------------

def test_I_moments_closed_forms():
    k1, k2 = crm.jump_moment(GG, 1), crm.jump_moment(GG, 2)
    T = 7.0
    assert cond.I_moments(kernels.DykstraLaud(), GG, T, 2) \
        == pytest.approx(k2 * T ** 3 / 3, rel=1e-9)
    tau = 1.0
    assert cond.I_moments(kernels.Rectangular(tau), GG, T, 1) \
        == pytest.approx(k1 * (2 * T * tau - tau ** 2 / 2), rel=1e-9)
    with pytest.raises(ValueError):
        cond.I_moments(kernels.DykstraLaud(), GG, T, 4)


def test_I2_log_growth_for_sqrt_extended_gamma():
    # I2 ~ T^2 log T for the sqrt-profile extended gamma with the
    # monotone-increasing kernel
    eg = crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0))
    dl = kernels.DykstraLaud()
    ts = [100.0, 200.0, 400.0]
    vals = [cond.I_moments(dl, eg, T, 2) for T in ts]
    ratios = [v / (T * T * math.log(T)) for v, T in zip(vals, ts)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))    # approaching 1 from below
    assert 0.3 < ratios[-1] < 1.0


# ---------------------------------------------------------------------------
# contraction norms
# ---------------------------------------------------------------------------

def test_condition_quantities_vanish_as_T_to_zero():
    # with C1 = sqrt(T), every rate-multiplied condition quantity vanishes
    # as the time integral empties (the 1/T-normalized kernels themselves
    # have finite limits)
    T = 1e-3
    c1 = math.sqrt(T)
    n = cond.contraction_norms(kernels.Rectangular(1.0), GG, T)
    quantities = [2 * c1 ** 2 * n.k1_l2_sq, c1 ** 4 * n.k1_l4_4,
                  c1 ** 4 * n.k11_l2_sq, c1 ** 4 * n.k21_l2_sq,
                  c1 ** 2 * n.k23_l2_sq, c1 ** 3 * n.k23_l3_3]
    for value in quantities:
        assert 0.0 <= value < 1e-2
    bigger = cond.contraction_norms(kernels.Rectangular(1.0), GG, 1.0)
    assert 2 * 1.0 * bigger.k1_l2_sq > quantities[0] * 50


def test_rect_norm_limits():
    k = [crm.jump_moment(GG, i) for i in (1, 2, 3, 4)]
    T, tau = 800.0, 1.0
    n = cond.contraction_norms(kernels.Rectangular(tau), GG, T)
    assert 2 * T * n.k1_l2_sq == pytest.approx(32 * tau ** 3 * k[1] ** 2 / 3, rel=0.02)
    assert T * n.k23_l2_sq == pytest.approx(
        4 * tau ** 2 * k[3] + 32 * tau ** 3 * k[2] * k[0] + 64 * tau ** 4 * k[1] * k[0] ** 2,
        rel=0.02)


def test_ou_norm_limits():
    k = [crm.jump_moment(GG, i) for i in (1, 2, 3, 4)]
    T, kap = 800.0, 1.0
    n = cond.contraction_norms(kernels.OrnsteinUhlenbeck(kap), GG, T)
    assert 2 * T * n.k1_l2_sq == pytest.approx(2 * k[1] ** 2 / kap, rel=0.02)
    assert T * n.k23_l2_sq == pytest.approx(
        k[3] + 8 * k[2] * k[0] / kap + 16 * k[1] * k[0] ** 2 / kap ** 2, rel=0.02)


def test_dl_norm_limit():
    # (2/T^2) ||k1||^2 = (K2)^2 / 3 under the full symmetric norm: with
    # Q_T(x, y) = T - max(x, y) on [0, T]^2, intint Q^2 = T^4 / 6 and
    # intint Q^4 = T^6 / 15
    k2, k4 = crm.jump_moment(GG, 2), crm.jump_moment(GG, 4)
    for T in (10.0, 400.0):
        n = cond.contraction_norms(kernels.DykstraLaud(), GG, T)
        assert n.k1_l2_sq == pytest.approx(k2 ** 2 * T ** 2 / 6, rel=1e-13, abs=0)
        assert n.k1_l4_4 == pytest.approx(k4 ** 2 * T ** 2 / 15, rel=1e-13, abs=0)


def test_cauchy_schwarz_contraction_bound():
    for kern in (kernels.Rectangular(1.0), kernels.OrnsteinUhlenbeck(1.0),
                 kernels.DykstraLaud(), kernels.UShaped(2.0)):
        for T in (20.0, 100.0):
            n = cond.contraction_norms(kern, GG, T)
            assert n.k11_l2_sq <= n.k1_l2_sq ** 2 * (1 + 1e-9) + 1e-9


def test_diagonal_restriction_identity():
    # k2(s, x) = k1(s, x; s, x) pointwise
    rng = seeded(401)
    for _ in range(30):
        kern = kernels.Rectangular(rng.uniform(0.5, 2.0))
        T = rng.uniform(1.0, 30.0)
        s, x = rng.uniform(0.1, 3.0), rng.uniform(0.0, T)
        k1_diag = s * s / T * kernels.Q_T(kern, T, x, x)
        k2 = s ** 2 / T * kernels.Q_T(kern, T, x, x)
        assert k1_diag == k2


def test_nonnegativity_of_condition_values():
    rep = cond.check_theorem(kernels.Rectangular(1.0), GG, asy.Functional.PATH_SECOND_MOMENT,
                             asy.Power(0.5), [20.0, 40.0, 80.0, 160.0])
    for series in rep.values.values():
        assert all(v >= 0 for v in series)


class ThreeAtoms:
    """A homogeneous jump law rho = sum_c omega_c delta_{s_c} on three jump
    sizes, so that its moments 1-6 are generic; duck-typed to the family
    facts that contraction_norms and _Grid read."""
    homogeneous = True
    kinks = ()
    ceiling = math.inf
    s = np.array([0.3, 1.1, 2.7])
    omega = np.array([0.5, 1.3, 0.2])

    def param(self, x):
        return None

    def moment(self, a, p):
        return float(np.sum(self.omega * self.s ** a))

    def label(self):
        return "three_atoms"


ATOMS = ThreeAtoms()


def finite_measure(kern, T):
    """The points u = (s_a, x_i) of nu = rho x (the nodes and weights of the
    condition grid), their masses nu_u, and k1(u, v) = s_a s_b Q_T(x_i, x_j) / T
    and k2 + 2 k3 at every point, each written out from its definition as
    a sum over the points: k2(u) = s_a^2 Q_T(x_i, x_i) / T and
    k3(u) = sum_z k1(u, z) nu_z."""
    g = cond._Grid(kern, ATOMS, T)
    n, m = g.x.size, ATOMS.s.size
    # point (s_a, x_i) at index a n + i
    s, x = np.repeat(ATOMS.s, n), np.tile(g.x, m)
    nu = np.repeat(ATOMS.omega, n) * np.tile(g.w, m)
    Q = kernels.Q_T(kern, T, x[:, None], x[None, :])
    k1 = s[:, None] * s[None, :] * Q / T
    k23 = s ** 2 * np.diag(Q) / T + 2.0 * (k1 @ nu)
    return s, x, nu, k1, k23


# Rectangular kernels only: the engine forms their rows and ||A^2||_F^2 as
# sums over the grid's nodes, so they equal the sums over nu's points.  The
# Green's-function rows are exact integrals, which differ from node sums by
# the grid's kink error.  tau = 0.8 at T = 1.2 < 2 tau reaches both clamps
# of the band.
NU_CASES = [(kernels.Rectangular(1.0), 6.0), (kernels.Rectangular(0.8), 1.2),
            (kernels.Rectangular(2.5), 9.0)]


@pytest.mark.parametrize("kern, T", NU_CASES, ids=_case_id)
def test_contraction_norms_equal_their_definitions_on_a_finite_measure(kern, T):
    _, _, nu, k1, k23 = finite_measure(kern, T)
    k11 = (k1 * nu) @ k1                # (k1 *_1^1 k1)(u, v) = sum_z k1(u, z) k1(z, v) nu_z
    k21 = k1 ** 2 @ nu                  # (k1 *_2^1 k1)(u) = sum_z k1(u, z)^2 nu_z
    want = dict(k1_l2_sq=nu @ k1 ** 2 @ nu, k1_l4_4=nu @ k1 ** 4 @ nu,
                k11_l2_sq=nu @ k11 ** 2 @ nu, k21_l2_sq=nu @ k21 ** 2,
                k23_l2_sq=nu @ k23 ** 2, k23_l3_3=nu @ np.abs(k23) ** 3)
    got = dataclasses.asdict(cond.contraction_norms(kern, ATOMS, T))
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-13, abs=0), name


@pytest.mark.parametrize("kern, T", NU_CASES, ids=_case_id)
def test_pathvar_combined_norm_equals_its_definition_on_a_finite_measure(kern, T):
    # || C1 (k2 + 2 k3) - delta C0 k0 ||^2 with k0(s, x) = s K_T(x)
    c1, c0, delta = 1.7, 0.3, 0.9
    s, x, nu, _, k23 = finite_measure(kern, T)
    want = nu @ (c1 * k23 - delta * c0 * s * kernels.K_T(kern, T, x)) ** 2
    got = cond._Grid(kern, ATOMS, T).pathvar_combined_norm_sq(c1, c0, delta)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# the quadrature-grid engine
# ---------------------------------------------------------------------------

def quad_row(kern, intensity, T, x, p, power):
    """Adaptive-quadrature oracle for int mu_p(y) Q_T(x, y)^power dy over the
    location window, split at the diagonal kink y = x, the rectangular band's
    ends y = x -+ 2 tau, the kernel's breakpoints and the intensity's kinks."""
    lo, hi = kernels.location_window(kern, T)
    f = lambda y: crm.jump_moment(intensity, p, y) * kernels.Q_T(kern, T, x, y) ** power
    kinks = [x] + list(kern.breaks(T)) + list(intensity.kinks)
    if isinstance(kern, kernels.Rectangular):
        kinks += [x - kern.band, x + kern.band]
    cuts = np.unique([lo, hi] + [c for c in kinks if lo < c < hi])
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


GREEN_KERNELS = [pytest.param(kernels.OrnsteinUhlenbeck(1.0), id="1.0"),
                 pytest.param(kernels.OrnsteinUhlenbeck(2.5), id="2.5"),
                 pytest.param(kernels.DykstraLaud(), id="dykstra_laud"),
                 pytest.param(kernels.UShaped(2.0), id="u_shaped(beta=2)")]


@pytest.mark.parametrize("intensity", [GG, crm.ExtendedGamma(crm.AffineSqrt(1.0, 0.7))],
                         ids=lambda i: i.label())
@pytest.mark.parametrize("kern", GREEN_KERNELS)
def test_ou_rows_match_split_quadrature(kern, intensity):
    # the Green's-function kernels (OU and the nested ones) integrate their
    # rows with the kinks of Q_T on segment edges
    T = 20.0
    g = cond._Grid(kern, intensity, T)
    nodes = [0, g.x.size // 2, g.x.size - 1]       # nearest 0, the middle and the end
    for power in (1, 2, 4):
        row = g.rows(power, power)
        for i in nodes:
            assert row[i] == pytest.approx(
                quad_row(kern, intensity, T, g.x[i], power, power), rel=1e-11, abs=0), \
                (power, g.x[i])


@pytest.mark.parametrize("b", [1.5, 2.3])
@pytest.mark.parametrize("kern", [kernels.OrnsteinUhlenbeck(1.0), kernels.Rectangular(1.0)],
                         ids=lambda k: k.label())
def test_rows_resolve_the_intensity_kink(kern, b):
    # EG(indicator_sqrt(b))'s moments jump at x = b, which is a panel edge
    # whether or not it lies on the panel lattice (2.3 does not): the nodes
    # nearest b and a band's half-width to either side.  The rectangular
    # rows carry the tensor grid's error from panels straddling the kink of
    # Q_T at y = x_i, up to 2.2e-3 here at power 4; a panel straddling x = b
    # put up to 1.2% (OU) and 7.5% (rectangular) on these rows.
    T, intensity = 20.0, crm.ExtendedGamma(crm.IndicatorSqrt(b))
    g = cond._Grid(kern, intensity, T)
    assert b in g.edges
    nodes = np.searchsorted(g.x, [b - 1.0, b, b, b + 1.0]) - [0, 1, 0, 0]
    rel = 3e-3 if isinstance(kern, kernels.Rectangular) else 1e-11
    for power in (1, 2, 4):
        row = g.rows(power, power)
        for i in nodes:
            assert row[i] == pytest.approx(
                quad_row(kern, intensity, T, g.x[i], power, power), rel=rel, abs=0), \
                (power, g.x[i])


EG_SQRT = crm.ExtendedGamma(crm.AffineSqrt(1.0, 0.7))
# rectangular grids: both bandwidths, a horizon below 4 tau and the
# non-homogeneous grid with its panel ladder near 0
RECT_GRIDS = [(kernels.Rectangular(0.5), GG, 20.0), (kernels.Rectangular(1.0), GG, 3.0),
              (kernels.Rectangular(1.0), EG_SQRT, 12.0), (kernels.Rectangular(0.5), EG_SQRT, 5.0)]


def _dense_Q(kern, T, x):
    """Q_T(x_i, x_j) at every pair of the nodes x, 0 beyond the rectangular band."""
    dense = kernels.Q_T(kern, T, x[:, None], x[None, :])
    band = (x[None, :] <= x[:, None] + kern.band) & (x[:, None] <= x[None, :] + kern.band)
    return np.where(band, dense, 0.0)


@pytest.mark.parametrize("kern, intensity, T", RECT_GRIDS, ids=_case_id)
def test_rectangular_band_pairs_from_the_spans(kern, intensity, T):
    # for x_i <= x_j, Q_T(x_i, x_j) = max(0, end_i - start_j): Q's own
    # arithmetic, so equal bit for bit, and exactly 0 beyond the band
    x = cond._Grid(kern, intensity, T).x
    start, end = kern._span(T, x)
    dense = kernels.Q_T(kern, T, x[:, None], x[None, :])
    assert np.array_equal(np.triu(np.maximum(end[:, None] - start[None, :], 0.0)), np.triu(dense))
    assert np.array_equal(_dense_Q(kern, T, x), dense)


@pytest.mark.parametrize("kern, intensity, T", RECT_GRIDS, ids=_case_id)
def test_rectangular_rows_equal_dense_product(kern, intensity, T):
    g = cond._Grid(kern, intensity, T)
    Q = kernels.Q_T(kern, T, g.x[:, None], g.x[None, :])
    for power in (1, 2, 4):
        v = g.w * g.mu(float(power))
        np.testing.assert_allclose(g.rows(power, power), (Q ** power) @ v, rtol=1e-13, atol=0)


# 2 and 3 blocks of rows on the homogeneous grid, and the grids of
# RECT_GRIDS with their many blocks
@pytest.mark.parametrize("kern, intensity, T, blocks",
                         [(kernels.Rectangular(1.0), GG, 2.0, 2),
                          (kernels.Rectangular(1.0), GG, 3.0, 3)]
                         + [(*grid, None) for grid in RECT_GRIDS], ids=_case_id)
@pytest.mark.parametrize("batch", ["cache", "one_block", "two_blocks"])
def test_rectangular_contraction_11_equals_dense_square(kern, intensity, T, blocks, batch,
                                                        monkeypatch):
    g = cond._Grid(kern, intensity, T)
    bounds = kern._blocks(g.x)
    assert blocks in (None, len(bounds) - 1)
    # batches of one block, or of two of the widest, put batch edges
    # between the blocks
    if batch != "cache":
        m = int(np.max(np.diff(bounds)))
        monkeypatch.setattr(kernels, "_STREAM", (1 if batch == "one_block" else 2) * m * m)
    r = np.sqrt(g.w * g.mu(2.0))
    A = r[:, None] * kernels.Q_T(kern, T, g.x[:, None], g.x[None, :]) * r[None, :]
    assert g.contraction_11_norm_sq() == pytest.approx(np.sum((A @ A) ** 2), rel=1e-13, abs=0)


@pytest.mark.parametrize("batch", ["cache", "one_block"])
def test_rectangular_contraction_11_on_nodes_denser_to_the_right(batch, monkeypatch):
    # the blocks widen along the nodes, so the widest block a batch reads
    # is its last neighbour
    kern, T = kernels.Rectangular(1.0), 19.0
    x = 20.0 * np.sqrt(np.linspace(0.0, 1.0, 300))
    r2 = seeded(403).uniform(0.5, 1.5, x.size)
    widths = np.diff(kern._blocks(x))
    assert np.all(np.diff(widths[:-1]) > 0) and widths[-2] > 20 * widths[0]
    if batch == "one_block":
        monkeypatch.setattr(kernels, "_STREAM", 1)
    r = np.sqrt(r2)
    A = r[:, None] * kernels.Q_T(kern, T, x[:, None], x[None, :]) * r[None, :]
    assert kern.contraction_11(T, x, r2) == pytest.approx(np.sum((A @ A) ** 2), rel=1e-13, abs=0)


def test_rectangular_contraction_11_on_one_node():
    # one block: ||A^2||_F^2 = A_00^4
    kern, T = kernels.Rectangular(1.0), 3.0
    x = np.array([0.3])
    assert kern._blocks(x) == [0, 1]
    a = 0.7 * kernels.Q_T(kern, T, 0.3, 0.3)
    assert kern.contraction_11(T, x, np.array([0.7])) == pytest.approx(a ** 4, rel=1e-15, abs=0)


@pytest.mark.parametrize("intensity, mb", [(GG, 4.0), (crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)), 16.0)],
                         ids=lambda v: v.label() if hasattr(v, "label") else f"{v:g}MB")
def test_rectangular_contraction_norms_memory(intensity, mb):
    # no band is stored: the block products run in batches of about
    # _STREAM entries, and the sqrt profile's ladder only widens the blocks
    peak = traced_peak(cond.contraction_norms, kernels.Rectangular(1.0), intensity, 800.0)
    assert peak <= mb * 1e6


@pytest.mark.parametrize("intensity", [GG, crm.ExtendedGamma(crm.AffineSqrt(1.0, 0.7)),
                                       crm.Beta(crm.IndicatorSqrt(1.0))],
                         ids=lambda i: i.label())
@pytest.mark.parametrize("kern", [pytest.param(kernels.OrnsteinUhlenbeck(0.7), id="0.7")]
                         + GREEN_KERNELS)
def test_ou_contraction_11_equals_dense_full_square(kern, intensity):
    # the carried O(n) recurrence of the Green's-function kernels against
    # ||A^2||_F^2 on the full, unbanded Q
    T = 30.0
    g = cond._Grid(kern, intensity, T)
    r = np.sqrt(g.w * g.mu(2.0))
    A = r[:, None] * kernels.Q_T(kern, T, g.x[:, None], g.x[None, :]) * r[None, :]
    assert g.contraction_11_norm_sq() == pytest.approx(np.sum((A @ A) ** 2), rel=1e-13, abs=0)


# ||k1 *_1^1 k1||^2 for OU(1) + GG(0.5, 1) from dense products of the banded Q
OU_K11_BANDED = {50.0: 1.2029005654579863e-06, 100.0: 1.5402137482055057e-07,
                 200.0: 1.948134711121272e-08, 400.0: 2.449460592566833e-09,
                 800.0: 3.0707583679993213e-10}


@pytest.mark.parametrize("T", GRID)
def test_ou_contraction_11_matches_banded_block_products(T):
    kern = kernels.OrnsteinUhlenbeck(1.0)
    n = cond.contraction_norms(kern, GG, T)
    assert n.k11_l2_sq == pytest.approx(OU_K11_BANDED[T], rel=1e-12, abs=0)


@pytest.mark.parametrize("kern", [kernels.Rectangular(1.0), kernels.OrnsteinUhlenbeck(1.0)],
                         ids=lambda k: k.label())
def test_grid_refuses_nodes_above_the_cap(kern, monkeypatch):
    # the count comes from the panel lattice, before any node is placed
    nodes = cond._Grid(kern, GG, 20.0).x.size
    monkeypatch.setattr(cond, "_MAX_NODES", nodes - 1)

    def no_grid(*args):
        raise AssertionError("a grid built before the refusal")

    monkeypatch.setattr(cond, "gl_panels", no_grid)
    with pytest.raises(ValueError, match=rf"the condition grid at T=20 needs {nodes} nodes, "
                                         rf"above the cap of {nodes - 1}$"):
        cond.contraction_norms(kern, GG, 20.0)
    monkeypatch.undo()
    monkeypatch.setattr(cond, "_MAX_NODES", nodes)
    assert cond.contraction_norms(kern, GG, 20.0).k11_l2_sq > 0.0


@pytest.mark.parametrize("intensity", [GG, EG1], ids=lambda i: i.label())
@pytest.mark.parametrize("kappa", [1.0, 2.5])
def test_ou_first_row_is_kT3(kappa, intensity):
    # J(x) / T = int mu_1(w) Q_T(x, w) dw / T has a closed form for a
    # constant first moment: split at w = x, every exponent is <= 0
    kern, T = kernels.OrnsteinUhlenbeck(kappa), 30.0
    g = cond._Grid(kern, intensity, T)
    x, k = g.x, kappa
    t1 = 1.0 - np.exp(-k * x) - np.exp(-2.0 * k * (T - x)) + np.exp(-k * (2.0 * T - x))
    t2 = (-np.expm1(-k * (T - x))) ** 2
    kT3 = crm.jump_moment(intensity, 1) * (t1 + t2) / (k * T)
    np.testing.assert_allclose(g.rows(1, 1) / T, kT3, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# slope fitting and verdicts
# ---------------------------------------------------------------------------

def test_fit_slope_exact_power_laws():
    t = np.array(GRID)
    fit = cond.fit_slope(t, 1.0 / t)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12) and fit.r2 == pytest.approx(1.0)
    fit = cond.fit_slope(t, 5.0 * t ** 0.5)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)
    # precomputed: y = 1/T + 10/T^2 on the default grid fits in (-1.2, -1.0)
    fit = cond.fit_slope(t, 1.0 / t + 10.0 / t ** 2)
    assert -1.2 < fit.slope < -1.0 and fit.r2 > 0.99
    with pytest.raises(ValueError):
        cond.fit_slope(t, np.array([1.0, 2.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        cond.fit_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    for bad_t in ([1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0], [4.0, 3.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match=r"^t_values must be strictly increasing$"):
            cond.fit_slope(bad_t, [1.0, 2.0, 3.0, 4.0])


def test_verdict_classification():
    t = np.array(GRID)
    assert cond.classify(t, 3.0 + 1.0 / t).kind == "converges_to_positive"
    assert cond.classify(t, 2.0 / t).kind == "vanishes"
    assert cond.classify(t, 0.1 * t ** 0.8).kind == "diverges"
    # a steep but badly fit series earns no power-law verdict
    noisy = np.array([2.0 / 50, 0.05 / 100, 2.0 / 200, 0.03 / 400, 2.0 / 800])
    assert cond.classify(t, noisy).kind == "inconclusive"


def test_fit_slope_r2_of_a_noisy_line():
    # log y = 1 + 0.5 log T + e on log T = 0..4, with e orthogonal to the
    # centered log T and summing to 0, so the fit is exact: slope 0.5,
    # intercept 1, residuals e.  SS_res = 0.04 and SS_tot = sum (0.5 dx + e)^2
    # = 0.81 + 0.36 + 0 + 0.16 + 1.21 = 2.54, so R^2 = 1 - 0.04 / 2.54 = 125/127
    lx = np.arange(5.0)
    e = np.array([0.1, -0.1, 0.0, -0.1, 0.1])
    t, y = np.exp(lx), np.exp(1.0 + 0.5 * lx + e)
    fit = cond.fit_slope(t, y)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(125.0 / 127.0, rel=1e-12, abs=0)
    # R^2 < 0.99 alone withholds the verdict the same line earns without e
    assert cond.classify(t, np.exp(1.0 + 0.5 * lx)).kind == "diverges"
    assert cond.classify(t, y).kind == "inconclusive"


def test_pathvar_delta_estimates():
    # delta(k): 4 tau K1 for the bandwidth kernel, 2^{3/2} K1 / sqrt(kappa)
    # for the exponential one; combined condition-3 norm -> sigma3^2
    grid = [50.0, 100.0, 200.0, 400.0]
    rep = cond.check_theorem(kernels.OrnsteinUhlenbeck(1.0), GG,
                             asy.Functional.PATH_VARIANCE, asy.Power(0.5), grid)
    k1, k4 = crm.jump_moment(GG, 1), crm.jump_moment(GG, 4)
    assert rep.verdicts[1].kind == "vanishes"
    assert rep.verdicts[1].slope == pytest.approx(-0.5, abs=0.02)
    assert rep.delta_estimate == pytest.approx(2 ** 1.5 * k1, rel=0.03)
    assert rep.values[3][-1] == pytest.approx(k4, rel=0.02)
    rep = cond.check_theorem(kernels.Rectangular(1.0), GG,
                             asy.Functional.PATH_VARIANCE, asy.Power(0.5), grid)
    assert rep.delta_estimate == pytest.approx(4.0 * k1, rel=0.03)
    assert rep.values[3][-1] == pytest.approx(4.0 * k4, rel=0.02)


def test_dl_raw_norms_vanish_at_zero_horizon():
    # the monotone kernel has an empty time slice at t = 0, so even the
    # 1/T-normalized kernels vanish with T (at least linearly)
    small = dataclasses.asdict(cond.contraction_norms(kernels.DykstraLaud(), GG, 1e-3))
    big = dataclasses.asdict(cond.contraction_norms(kernels.DykstraLaud(), GG, 1e-1))
    for name, value in small.items():
        assert 0.0 <= value < 1e-2
        assert value < 0.2 * big[name], name


def test_check_theorem_cumhaz_and_errors():
    rep = cond.check_theorem(kernels.Rectangular(1.0), GG, asy.Functional.CUMULATIVE_HAZARD,
                             asy.Power(-0.5), GRID)
    assert rep.verdicts[1].kind == "converges_to_positive"
    assert rep.verdicts[1].limit_est == pytest.approx(2.0, rel=0.02)   # 4 K2 tau^2
    assert rep.verdicts[2].kind == "vanishes"
    with pytest.raises(ValueError):
        cond.check_theorem(kernels.Rectangular(1.0), GG, "bogus", asy.Power(0.5), GRID)
    with pytest.raises(ValueError):
        cond.check_theorem(kernels.Rectangular(1.0), GG, asy.Functional.CUMULATIVE_HAZARD,
                           asy.Power(-0.5), [10.0, 20.0])


@pytest.mark.parametrize("theorem", list(cond.THEOREM_NAMES), ids=cond.THEOREM_NAMES.get)
def test_check_theorem_refuses_bad_input_before_any_quadrature(monkeypatch, theorem):
    # an unknown theorem and a rate that is not a Power are
    # refused before I_moments, the contraction norms or a grid run
    def fail(*args, **kwargs):
        raise AssertionError("a quadrature ran before the input was checked")
    for name in ("I_moments", "contraction_norms", "_Grid"):
        monkeypatch.setattr(cond, name, fail)
    kern = kernels.Rectangular(1.0)
    with pytest.raises(ValueError, match="unknown theorem 'bogus'"):
        cond.check_theorem(kern, GG, "bogus", asy.Power(0.5), GRID)
    with pytest.raises(ValueError, match="unknown rate function"):
        cond.check_theorem(kern, GG, theorem, lambda T: math.sqrt(T), GRID)


def test_report_serialization_round_trip():
    import json
    rep = cond.check_theorem(kernels.DykstraLaud(), GG, asy.Functional.CUMULATIVE_HAZARD,
                             asy.Power(-1.5), [20.0, 40.0, 80.0, 160.0])
    blob = json.loads(rep.to_json())
    assert blob["theorem"] == "cumhaz" and len(blob["t_grid"]) == 4
    csv = rep.to_csv_text().splitlines()
    assert csv[0] == "condition,T,value,verdict"
    assert len(csv) == 1 + 2 * 4


def test_verdict_labels():
    assert cond.Verdict("diverges", 1.23456, 0.998765).label() == \
        "Diverges(slope=1.235,r2=0.9988)"
    assert cond.Verdict("inconclusive", -0.4321, 0.5).label() == \
        "Inconclusive(slope=-0.432,r2=0.5000)"
    assert cond.Verdict("inconclusive", math.nan, math.nan).label() == \
        "Inconclusive(slope=nan,r2=nan)"


def test_check_theorem_non_finite_and_zero_ending_series(monkeypatch):
    # the cumulative-hazard conditions are C0^2 I_2 and C0^3 I_3 (C0 = 1
    # here); crafted moments give condition 1 a non-finite series and
    # condition 2 one that ends in an exact 0 or has a 0 before its end
    t_grid = [10.0, 20.0, 40.0, 80.0]
    monkeypatch.setattr(cond, "I_moments",
                        lambda kernel, intensity, T, i: series[i][t_grid.index(T)])
    args = (kernels.Rectangular(1.0), crm.GeneralizedGamma(0.5, 1.0),
            asy.Functional.CUMULATIVE_HAZARD, asy.Power(0.0), t_grid)
    shown = lambda v: (v.kind, repr(v.slope), repr(v.r2), v.limit_est)
    inconclusive = ("inconclusive", "nan", "nan", None)
    # a non-finite value decides before the 0 at the end
    series = {2: [math.inf, 2.0, 1.0, 0.0], 3: [3.0, 2.0, 1.0, 0.0]}
    verdicts = cond.check_theorem(*args).verdicts
    assert shown(verdicts[1]) == inconclusive
    assert verdicts[2] == cond.Verdict("vanishes", -math.inf, 1.0)
    series = {2: [1.0, math.nan, 1.0, 1.0], 3: [3.0, 0.0, 1.0, 0.5]}
    verdicts = cond.check_theorem(*args).verdicts
    assert shown(verdicts[1]) == inconclusive
    assert shown(verdicts[2]) == inconclusive
