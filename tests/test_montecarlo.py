import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from hazardlab import _numeric, crm, kernels
from hazardlab import montecarlo as mc
from hazardlab.asymptotics import Functional, MonteCarloMean, regime
from hazardlab.conditions import I_moments

from conftest import quad_Q_T, seeded, series_arrivals, traced_peak

GG = crm.GeneralizedGamma(0.5, 1.0)
EG1 = crm.ExtendedGamma(crm.Constant(1.0))


def make_sample(kern, T, n, entropy=500, jump_scale=0.5):
    rng = seeded(entropy)
    lo, hi = kernels.location_window(kern, T)
    J = rng.exponential(jump_scale, n)
    x = rng.uniform(lo, hi, n)
    return crm.CrmSample(J, x, (lo, hi))


# ---------------------------------------------------------------------------
# exact functionals
# ---------------------------------------------------------------------------

def test_cumhaz_reference_values():
    kern = kernels.DykstraLaud()
    empty = crm.CrmSample(np.empty(0), np.empty(0), (0.0, 3.0))
    assert mc.cumhaz(empty, kern, 3.0) == 0.0
    single = crm.CrmSample(np.array([2.0]), np.array([1.0]), (0.0, 3.0))
    assert mc.cumhaz(single, kern, 3.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        mc.cumhaz(single, kernels.Rectangular(1.0), 3.0)   # window too small


@pytest.mark.parametrize("n", [0, 1, 4096, 4097, _numeric._STREAM + 1, 3 * _numeric._STREAM + 5])
def test_cumhaz_blocks_equal_one_pass(n):
    for kern in (kernels.Rectangular(0.8), kernels.OrnsteinUhlenbeck(1.3),
                 kernels.DykstraLaud(), kernels.UShaped(2.0)):
        T = 23.0
        s = make_sample(kern, T, n, entropy=502)
        terms = s.jumps * kernels.K_T(kern, T, s.locations)
        assert mc.cumhaz(s, kern, T) == math.fsum(_numeric.block_partials(terms))


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000, 3387, 4095, 4096])
def test_cumhaz_is_within_1e_14_of_the_exact_sum(n):
    # the terms are >= 0, so each block partial is within O(depth * u)
    # relative of its exact sum (Higham 1993); numpy's depth for 4096 terms
    # is about 15 + 3 + 5 = 23 (8 accumulators adding 16 terms each in
    # every 128-term leaf, then pairwise), far inside 1e-14; worst measured 2e-16
    for kern in (kernels.Rectangular(0.8), kernels.OrnsteinUhlenbeck(1.3),
                 kernels.DykstraLaud(), kernels.UShaped(2.0)):
        T = 23.0
        s = make_sample(kern, T, n, entropy=504)
        exact = math.fsum((s.jumps * kernels.K_T(kern, T, s.locations)).tolist())
        assert mc.cumhaz(s, kern, T) == pytest.approx(exact, rel=1e-14, abs=0), kern.label()


def _comp_sum_per_block(values):
    # comp_sum's partials taken one np.sum call per 4096-element block, at
    # every size
    a = np.asarray(values, dtype=float).ravel()
    nblocks = -(-a.size // 4096)
    return math.fsum([float(np.sum(a[i * 4096:(i + 1) * 4096])) for i in range(nblocks)])


def test_comp_sum_equals_per_block_partials():
    rng = seeded(503)
    for n in (0, 1, 4095, 4096, 4097, 3 * 4096, _numeric._STREAM + 5, 200_003):
        for _ in range(3):
            # mixed signs over 26 decades: a partial summed in another order
            # differs in its last bits
            a = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
            assert _numeric.comp_sum(a) == _comp_sum_per_block(a)


def test_comp_sum_of_non_negative_terms_is_within_1e_14_of_the_exact_sum():
    # at most one block: the pairwise sum alone, against math.fsum's exact
    # one, for non-negative terms over 26 decades
    rng = seeded(505)
    for n in (1, 2, 7, 100, 1000, 4095, 4096):
        for _ in range(3):
            a = rng.exponential(size=n) * np.exp(rng.uniform(-30.0, 30.0, n))
            assert _numeric.comp_sum(a) == pytest.approx(math.fsum(a.tolist()), rel=1e-14, abs=0)


def test_running_sum_equals_exact_prefixes():
    # np.cumsum loses the 1 under 1e16 and reads 0 where the sum is 1
    v = [1e16, 1.0, -1e16, 1.0, 1.0, -1.0, 0.5]
    exact = [math.fsum(v[:k + 1]) for k in range(len(v))]
    assert np.cumsum(v)[2] == 0.0
    assert _numeric.running_sum(np.array(v)).tolist() == exact
    assert _numeric.running_sum(np.empty(0)).size == 0
    # heavy-tailed jumps over six decades, each added once and taken off
    # once in shuffled order: the prefixes rise to ~1e5 and fall back to 0
    for entropy in (530, 531, 532):
        rng = seeded(entropy)
        J = (rng.pareto(1.1, 1000) + 1.0) * 10.0 ** rng.uniform(-3.0, 3.0, 1000)
        v = np.concatenate([J, -J])[rng.permutation(2000)]
        exact = np.array([math.fsum(v[:k + 1].tolist()) for k in range(v.size)])
        assert exact[-1] == 0.0
        assert np.all(np.abs(_numeric.running_sum(v) - exact) <= np.spacing(np.abs(exact)))


@pytest.mark.parametrize("n", [34_000, 1_130_000])
def test_running_sum_holds_three_arrays(n):
    # the sums, the TwoSum errors and one temporary; the values are pinned
    # by test_running_sum_equals_exact_prefixes
    v = seeded(533).standard_normal(n)
    assert traced_peak(_numeric.running_sum, v) <= 3.5 * v.nbytes


_NEAR = 1.0 + np.arange(1000) * 2.0 ** -52
_TINY = np.append(np.arange(1, 300) * 5e-324, np.zeros(50))
# each case draws from its own seeded stream
_STABLE_ORDER_CASES = {
    "empty": lambda rng: np.empty(0),
    "one": lambda rng: np.array([3.5]),
    "zeros": lambda rng: np.zeros(100),
    "signed-zeros": lambda rng: np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0]),
    "repeats": lambda rng: rng.integers(0, 5, 1000).astype(float),
    "near-ties": lambda rng: rng.permutation(_NEAR),
    "subnormals": lambda rng: rng.permutation(_TINY),
    "reversed": lambda rng: np.arange(1000.0)[::-1],
    "negative": lambda rng: -rng.uniform(0.0, 10.0, 1000),
    "mixed-sign": lambda rng: np.round(rng.standard_normal(1000), 1),
    "uniform-17k": lambda rng: rng.uniform(0.0, 500.0, 17_000),
    "uniform-2e6": lambda rng: rng.uniform(0.0, 500.0, 2_000_000),
}
# the cases whose truncated keys must misorder neighbours
_REPAIRED = {"near-ties", "subnormals", "negative", "mixed-sign", "uniform-2e6"}


@pytest.mark.parametrize("key,case", list(enumerate(_STABLE_ORDER_CASES)),
                         ids=list(_STABLE_ORDER_CASES))
def test_stable_order_equals_stable_argsort(key, case, monkeypatch):
    a = _STABLE_ORDER_CASES[case](seeded(570, key))
    repairs = []
    argsort = np.argsort

    def spy(*args, **kw):
        repairs.append(1)
        return argsort(*args, **kw)
    monkeypatch.setattr(np, "argsort", spy)
    order, s = _numeric.stable_order(a)
    monkeypatch.undo()
    ref = np.argsort(a, kind="stable")
    assert order.dtype == ref.dtype and np.array_equal(order, ref)
    # bit patterns, so that -0.0 and 0.0 must keep their places
    assert np.array_equal(s.view(np.int64), a[ref].view(np.int64))
    assert bool(repairs) == (case in _REPAIRED)


@pytest.mark.parametrize("kern", [kernels.Rectangular(0.8), kernels.Rectangular(2.5),
                                  kernels.OrnsteinUhlenbeck(1.3), kernels.DykstraLaud(),
                                  kernels.UShaped(2.0)], ids=lambda k: k.label())
def test_pair_sum_does_not_depend_on_the_atom_order(kern):
    # bit for bit: the sorted atoms against 40 random permutations, at a
    # horizon below and above the kernel's scale; the rectangular spans
    # tie at 0 and at T, and atoms past T + tau get empty spans
    rng = seeded(572)
    for T in (3.0, 23.0):
        for n in (1, 2, 7, 2000):
            lo, hi = kernels.location_window(kern, T)
            J = rng.exponential(0.5, n)
            x = np.sort(rng.uniform(lo, hi + 1.0, n))
            ref = kern.pair_sum(J, x, T)
            for _ in range(40 if n > 2 else 2):
                p = rng.permutation(n)
                assert kern.pair_sum(J[p], x[p], T) == ref


def test_cumhaz_adds_no_atom_length_array():
    # only _STREAM-atom blocks and their partials: ~0.8 MB traced at any
    # size, against 4.8 MB for each of the sample's two arrays here
    T = 23.0
    for kern in (kernels.Rectangular(0.8), kernels.OrnsteinUhlenbeck(1.3),
                 kernels.DykstraLaud(), kernels.UShaped(2.0)):
        s = make_sample(kern, T, 600_000, entropy=534)
        assert traced_peak(mc.cumhaz, s, kern, T) <= 0.25 * s.jumps.nbytes, kern.label()


@pytest.mark.parametrize("presorted", [True, False], ids=["sorted", "unsorted"])
def test_rect_pair_sum_holds_five_arrays_of_2n(presorted):
    # the gaps, the signed jumps in event order and running_sum's three,
    # whatever the order of the atoms; the values are pinned by the
    # pair-sum oracles below
    kern, T, n = kernels.Rectangular(1.0), 500.0, 500_000
    rng = seeded(535)
    x = rng.uniform(0.0, T + 1.0, n)
    if presorted:
        x.sort()
    J = rng.exponential(0.5, n)
    assert traced_peak(kern.pair_sum, J, x, T) <= 5.5 * 16 * n


@pytest.mark.parametrize("kern", [kernels.OrnsteinUhlenbeck(1.0), kernels.DykstraLaud(),
                                  kernels.UShaped(2.0)], ids=lambda k: k.label())
def test_green_path_second_moment_holds_under_five_arrays_of_n(kern):
    # on unsorted atoms: the order and the sorted locations, J gathered,
    # then J g and the decayed prefix sum, with its blocks of _STREAM
    # points (4.20 arrays of n); the values are pinned by the naive double
    # sums below
    T, n = 500.0, 500_000
    rng = seeded(536)
    s = crm.CrmSample(rng.exponential(0.5, n), rng.uniform(0.0, T, n), (0.0, T))
    assert traced_peak(mc.path_second_moment, s, kern, T) <= 4.6 * 8 * n


def test_path2nd_single_atom_ou():
    kern = kernels.OrnsteinUhlenbeck(1.0)
    T = 50.0
    s = crm.CrmSample(np.array([1.0]), np.array([0.0]), (0.0, T))
    assert mc.path_second_moment(s, kern, T) \
        == pytest.approx(kernels.Q_T(kern, T, 0.0, 0.0) / T, rel=1e-14)
    empty = crm.CrmSample(np.empty(0), np.empty(0), (0.0, T))
    assert mc.path_second_moment(empty, kern, T) == 0.0


def test_path2nd_equals_naive_double_sum():
    # the OU prefix sum runs in blocks of 60 / kappa: one block at T = 23,
    # while at T = 200 and 300 the carry crosses 8 and 24 block edges
    for kern, T, n in ((kernels.Rectangular(0.8), 23.0, 500),
                       (kernels.OrnsteinUhlenbeck(1.3), 23.0, 500),
                       (kernels.DykstraLaud(), 23.0, 500), (kernels.UShaped(2.0), 23.0, 500),
                       (kernels.OrnsteinUhlenbeck(2.5), 200.0, 2000),
                       (kernels.OrnsteinUhlenbeck(5.0), 300.0, 2000)):
        s = make_sample(kern, T, n)
        Q = kernels.Q_T(kern, T, s.locations[:, None], s.locations[None, :])
        naive = float(s.jumps @ Q @ s.jumps) / T
        assert mc.path_second_moment(s, kern, T) == pytest.approx(naive, rel=1e-12, abs=0)


@pytest.mark.parametrize("kern, T", [(kernels.OrnsteinUhlenbeck(1.3), 23.0),
                                     (kernels.OrnsteinUhlenbeck(2.5), 200.0),
                                     (kernels.DykstraLaud(), 23.0),
                                     (kernels.UShaped(2.0), 23.0)],
                         ids=["ou-1.3", "ou-2.5-blocks", "dykstra-laud", "u-shaped-2"])
def test_green_pair_sum_equals_quadrature_double_sum(kern, T):
    # the naive double sum above evaluates Q_T through the kernel's own
    # Green's-function form; this reference integrates products of the
    # kernel itself, so a wrong g(T, z) shows.  At T = 200 the OU prefix
    # sum's carry crosses block edges (blocks of 60 / kappa)
    s = make_sample(kern, T, 6, entropy=3601)
    J, x = s.jumps, s.locations
    ref = sum(J[i] * J[j] * quad_Q_T(kern, T, x[i], x[j])
              for i in range(6) for j in range(6)) / T
    assert mc.path_second_moment(s, kern, T) == pytest.approx(ref, rel=1e-9, abs=0)


def test_path_variance_identity_and_clamp():
    for kern in (kernels.Rectangular(0.8), kernels.OrnsteinUhlenbeck(1.3),
                 kernels.DykstraLaud(), kernels.UShaped(2.0)):
        T = 23.0
        s = make_sample(kern, T, 400, entropy=501)
        p2m = mc.path_second_moment(s, kern, T)
        v = mc.path_variance(s, kern, T)
        h = mc.cumhaz(s, kern, T)
        assert v + (h / T) ** 2 == pytest.approx(p2m, rel=1e-12, abs=0)
    # a hazard path that is constant on [0, T] has zero path variance
    kern = kernels.Rectangular(2.0)
    T = 1.0
    s = crm.CrmSample(np.array([1.3]), np.array([0.9]), (0.0, 3.0))
    assert mc.path_variance(s, kern, T) <= 1e-12


@pytest.mark.parametrize("case", [None, "three"] + list(range(40)))
def test_path_variance_clamp_at_scale(case):
    # n jumps J_k at (2k + 1) tau tile [0, T = 2n tau] with rectangular
    # spans, so h is J_k on the k-th tile and the path variance is the
    # population variance of the jumps.  With 1e5 equal jumps (case None)
    # p2m - (H/T)^2 cancels completely: what rounding leaves of it must stay
    # within the clamp.  The seeded tilings spread the jumps by a relative
    # r = 1e-8..1 around m, so the variance runs from far below rounding to
    # p2m / 3.  tau a power of 2 keeps the locations exact; at tau = 0.7
    # their rounding opens gaps and overlaps of an ulp, and the path
    # variance is ~5e-12 p2m in fact.  Three jumps of 0.1 (case "three")
    # leave p2m - (H/T)^2 = -1.7e-18, which the clamp sets to 0.
    if case is None:
        tau, jumps = 1.0, np.full(100_000, 0.3)
    elif case == "three":
        tau, jumps = 1.0, np.full(3, 0.1)
    else:
        rng = np.random.default_rng([9301, case])
        tau = 2.0 ** int(rng.integers(-3, 4))
        n = int(rng.integers(1_000, 100_001))
        m, r = rng.uniform(0.1, 10.0), 10.0 ** -rng.uniform(0.0, 8.0)
        jumps = m * (1.0 + r * rng.uniform(-1.0, 1.0, n))
    kern, n = kernels.Rectangular(tau), jumps.size
    T = 2.0 * n * tau
    x = (2.0 * np.arange(n) + 1.0) * tau
    s = crm.CrmSample(jumps, x, kernels.location_window(kern, T))
    p2m = mc.path_second_moment(s, kern, T)
    v = mc.path_variance(s, kern, T)
    mean = math.fsum(jumps) / n
    var_pop = math.fsum((jumps - mean) ** 2) / n
    assert v >= 0.0 and abs(v - var_pop) <= 1e-12 * p2m, (tau, n, v, var_pop, p2m)
    if case == "three":
        assert p2m - (mc.cumhaz(s, kern, T) / T) ** 2 < 0.0 and v == 0.0


def test_path_variance_raises_when_negative_beyond_rounding(monkeypatch):
    # a constant tiling has path variance 0; with its path second moment
    # halved, p2m - (H/T)^2 = -p2m / 2 lies far beyond rounding
    kern, T = kernels.Rectangular(1.0), 20.0
    s = crm.CrmSample(np.full(10, 0.3), 2.0 * np.arange(10) + 1.0,
                      kernels.location_window(kern, T))
    p2m = mc.path_second_moment
    monkeypatch.setattr(mc, "path_second_moment", lambda *args: 0.5 * p2m(*args))
    with pytest.raises(ArithmeticError, match="negative beyond rounding"):
        mc.path_variance(s, kern, T)


@pytest.mark.parametrize("kern", [kernels.Rectangular(0.8), kernels.OrnsteinUhlenbeck(1.3),
                                  kernels.DykstraLaud(), kernels.UShaped(2.0)],
                         ids=lambda k: k.label())
def test_pair_sums_below_one_at_relative_precision(kern):
    # small jumps keep the path second moment below 1, where approx's
    # default abs=1e-12 would loosen a rel=1e-12 gate, so abs=0; half the
    # locations sit on a 0.1 grid, so ties reach every pair sum
    T = 23.0
    s = make_sample(kern, T, 500, entropy=520, jump_scale=0.002)
    x = s.locations.copy()
    x[::2] = np.round(x[::2], 1)
    s = crm.CrmSample(s.jumps, x, s.window)
    assert np.unique(x).size < x.size
    Q = kernels.Q_T(kern, T, x[:, None], x[None, :])
    naive = float(s.jumps @ Q @ s.jumps) / T
    p2m = mc.path_second_moment(s, kern, T)
    assert 0.0 < p2m < 1.0
    assert p2m == pytest.approx(naive, rel=1e-12, abs=0)
    v = mc.path_variance(s, kern, T)
    h = mc.cumhaz(s, kern, T)
    assert v > 0.0
    assert v + (h / T) ** 2 == pytest.approx(p2m, rel=1e-12, abs=0)


def _trapezoid(sample, kern, T, what, n_grid=10_000):
    ts = np.linspace(0.0, T, n_grid)
    h = mc.hazard_path(sample, kern, ts)
    H = np.trapezoid(h, ts) if hasattr(np, "trapezoid") else np.trapz(h, ts)
    if what == "cumhaz":
        return H
    if what == "p2m":
        y = h ** 2
    else:
        y = (h - H / T) ** 2
    return (np.trapezoid(y, ts) if hasattr(np, "trapezoid") else np.trapz(y, ts)) / T


def _trap_bound(sample, kern, T, n_grid=10_000):
    # each atom contributes <= 2 jump discontinuities of height J * sup k;
    # the smooth part adds O(h^2); generous constants
    h = T / (n_grid - 1)
    sup_k = math.sqrt(2 * kern.kappa) if isinstance(kern, kernels.OrnsteinUhlenbeck) else 1.0
    return 4.0 * h * float(np.sum(sample.jumps)) * sup_k + 1e-9


def test_functionals_match_trapezoid_oracle():
    for kern in (kernels.Rectangular(0.8), kernels.OrnsteinUhlenbeck(1.0),
                 kernels.DykstraLaud(), kernels.UShaped(2.0)):
        T = 18.0
        s = make_sample(kern, T, 150, entropy=502)
        bound = _trap_bound(s, kern, T)
        assert abs(mc.cumhaz(s, kern, T) - _trapezoid(s, kern, T, "cumhaz")) <= bound
        peak = float(2.0 * np.max(mc.hazard_path(s, kern, np.linspace(0, T, 2000))) + 1.0)
        assert abs(mc.path_second_moment(s, kern, T) - _trapezoid(s, kern, T, "p2m")) \
            <= bound * peak / T
        assert abs(mc.path_variance(s, kern, T) - _trapezoid(s, kern, T, "pvar")) \
            <= bound * peak / T


def test_dykstra_laud_hazard_is_monotone():
    kern = kernels.DykstraLaud()
    s = crm.sample(crm.plan(EG1, (0.0, 40.0), 1e-5), seeded(503))
    path = mc.hazard_path(s, kern, np.linspace(0.0, 40.0, 3000))
    assert np.all(np.diff(path) >= -1e-12)


def test_rectangular_locality_speed():
    # the banded pair sum stays fast at production atom counts
    kern = kernels.Rectangular(1.0)
    T = 500.0
    s = crm.sample(crm.plan(EG1, kernels.location_window(kern, T), 1e-6), seeded(504))
    assert 3_000 <= s.size <= 12_000
    mc.path_second_moment(s, kern, T)          # warm allocation pools
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        mc.path_second_moment(s, kern, T)
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 0.05


def test_rect_prefix_pair_sum_equals_naive_double_sum():
    # T < 2 tau, atoms in (T, T + tau], tied locations (half the atoms
    # snapped to a 0.1 grid, so some pairs sit exactly 2 tau apart), and a
    # sample window wider than the kernel's, with atoms that Q_T ignores
    for tau in (0.3, 0.8, 2.5):
        for T in (1.0, 23.0):
            kern = kernels.Rectangular(tau)
            s = make_sample(kern, T, 600, entropy=510)
            extra = seeded(513).uniform(T + tau, T + 3 * tau, 20)
            x = np.concatenate([s.locations, extra])
            x[::2] = np.round(x[::2], 1)
            J = np.concatenate([s.jumps, np.ones(extra.size)])
            s = crm.CrmSample(J, x, (0.0, T + 3 * tau))
            assert np.unique(x).size < x.size
            assert np.any((x > T) & (x <= T + tau)) and np.any(x > T + tau)
            Q = kernels.Q_T(kern, T, x[:, None], x[None, :])
            naive = float(s.jumps @ Q @ s.jumps) / T
            assert mc.path_second_moment(s, kern, T) == pytest.approx(naive, rel=1e-12, abs=0)


def test_rect_path2nd_random_cases_equal_naive_double_sum():
    # 20 draws of tau, T (a third below 2 tau) and n; most locations on a
    # 1/16 grid and tau a multiple of 1/32, so locations, starts and ends
    # are exact and many pairs sit exactly 2 tau apart (one's end is the
    # other's start); jumps over four decades; a few atoms beyond T + tau
    rng = seeded(540)
    tied = short = 0
    for _ in range(20):
        tau = int(rng.integers(1, 49)) / 32.0
        T = tau * 10.0 ** float(rng.uniform(-0.3, 1.5))
        n = int(rng.integers(1, 800))
        kern = kernels.Rectangular(tau)
        x = rng.uniform(0.0, T + tau, n)
        snap = rng.random(n) < 0.8
        x[snap] = np.minimum(np.round(x[snap] * 16.0) / 16.0, T + tau)
        x = np.concatenate([x, rng.uniform(T + tau, T + 3.0 * tau, 5)])
        J = rng.exponential(1.0, x.size) * 10.0 ** rng.uniform(-4.0, 0.0, x.size)
        s = crm.CrmSample(J, x, (0.0, T + 3.0 * tau))
        tied += bool(np.any(np.abs(x[:, None] - x[None, :]) == 2.0 * tau))
        short += T < 2.0 * tau
        Q = kernels.Q_T(kern, T, x[:, None], x[None, :])
        naive = float(J @ Q @ J) / T
        assert mc.path_second_moment(s, kern, T) == pytest.approx(naive, rel=1e-12, abs=0)
    assert tied >= 12 and short >= 5


def test_green_path2nd_random_cases_equal_naive_double_sum():
    # 20 draws over OU(kappa in [0.1, 5]), Dykstra-Laud and U-shaped(beta
    # in [0.5, 4]) with random T and n < 800; half the locations on a grid
    # of 1/64 of the window, so ties occur; jumps over four decades; OU's
    # kappa T spans 60 to 1500, so the decayed prefix sum's carry crosses
    # the edges of its blocks of _SPAN / kappa
    rng = seeded(541)
    tied = crossing = 0
    for i in range(20):
        kind = ("ou", "ou", "dl", "u")[i % 4]
        if kind == "ou":
            kappa = float(rng.uniform(0.1, 5.0))
            kern = kernels.OrnsteinUhlenbeck(kappa)
            T = 60.0 / kappa * 10.0 ** float(rng.uniform(0.0, 1.4))
        elif kind == "dl":
            kern = kernels.DykstraLaud()
            T = 10.0 ** float(rng.uniform(0.0, 2.5))
        else:
            kern = kernels.UShaped(float(rng.uniform(0.5, 4.0)))
            T = 10.0 ** float(rng.uniform(0.0, 2.0))
        lo, hi = kernels.location_window(kern, T)
        n = int(rng.integers(1, 800))
        x = rng.uniform(lo, hi, n)
        snap = rng.random(n) < 0.5
        step = (hi - lo) / 64.0
        x[snap] = np.minimum(lo + np.round((x[snap] - lo) / step) * step, hi)
        J = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-4.0, 0.0, n)
        s = crm.CrmSample(J, x, (lo, hi))
        tied += np.unique(x).size < n
        if kind == "ou":
            crossing += kappa * np.ptp(x) > kernels._SPAN
        Q = kernels.Q_T(kern, T, x[:, None], x[None, :])
        naive = float(J @ Q @ J) / T
        assert mc.path_second_moment(s, kern, T) == pytest.approx(naive, rel=1e-12, abs=0)
    assert tied >= 15 and crossing >= 3


def _banded_oracle(sample, kern, T):
    # sum of J_i J_j Q_T(x_i, x_j) over the pairs closer than 2 tau, by
    # sorted-index offset; every other pair has Q_T = 0
    order = np.argsort(sample.locations)
    x, J = sample.locations[order], sample.jumps[order]
    parts = [float(np.sum(J * J * kernels.Q_T(kern, T, x, x)))]
    for d in range(1, x.size):
        near = x[d:] - x[:-d] < 2.0 * kern.tau
        if not near.any():
            break
        i = np.flatnonzero(near)
        parts.append(2.0 * float(np.sum(J[i] * J[i + d] * kernels.Q_T(kern, T, x[i], x[i + d]))))
    return math.fsum(parts) / T


def test_rect_prefix_pair_sum_matches_banded_oracle_at_56k_atoms():
    kern = kernels.Rectangular(1.0)
    T = 500.0
    s = crm.sample(crm.plan(GG, kernels.location_window(kern, T), 1e-4), seeded(511))
    assert 40_000 <= s.size <= 80_000
    # an uncompensated prefix over the laid-out blocks drifts to ~1e-13 here
    assert mc.path_second_moment(s, kern, T) == pytest.approx(_banded_oracle(s, kern, T),
                                                              rel=1e-14, abs=0.0)


def test_rect_path2nd_at_production_truncation():
    # ~565k atoms at the production truncation; pair enumeration takes ~48 s
    # on 2 vCPUs, the prefix sums ~0.2 s
    kern = kernels.Rectangular(1.0)
    T = 500.0
    s = crm.sample(crm.plan(GG, kernels.location_window(kern, T), 1e-6), seeded(512))
    assert 400_000 <= s.size <= 800_000
    t0 = time.perf_counter()
    p2m = mc.path_second_moment(s, kern, T)
    assert time.perf_counter() - t0 < 2.0
    assert math.isfinite(p2m) and p2m > 0
    v = mc.path_variance(s, kern, T)
    h = mc.cumhaz(s, kern, T)
    assert v + (h / T) ** 2 == pytest.approx(p2m, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# KS test
# ---------------------------------------------------------------------------

def test_ks_statistic_at_gaussian_quantiles():
    n = 40
    q = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    out = mc.ks_test(q, 0.0, 1.0)
    assert out["statistic"] == pytest.approx(1.0 / (2 * n), abs=1e-12)


def test_ks_degenerate_and_validation():
    out = mc.ks_test(np.zeros(25), 0.0, 1.0)
    assert out["statistic"] >= 0.5 and out["p_value"] < 1e-4
    with pytest.raises(ValueError):
        mc.ks_test(np.zeros(10), 0.0, 1.0)
    with pytest.raises(ValueError):
        mc.ks_test(np.zeros(25), 0.0, 0.0)


def test_ks_matches_scipy_and_calibration():
    x = seeded(505).normal(2.0, 3.0, 4000)
    mine = mc.ks_test(x, 2.0, 9.0)
    ref = stats.kstest(x, "norm", args=(2.0, 3.0))
    assert mine["statistic"] == pytest.approx(ref.statistic, rel=1e-12)
    assert mine["p_value"] == pytest.approx(ref.pvalue, abs=0.02)
    # p-values under the null: at least 9 of 10 fixed seeds above 0.001
    hits = 0
    for r in range(10):
        z = seeded(506, r).normal(0.0, 1.0, 10_000)
        hits += mc.ks_test(z, 0.0, 1.0)["p_value"] > 0.001
    assert hits >= 9


# ---------------------------------------------------------------------------
# run_clt
# ---------------------------------------------------------------------------

def test_run_clt_deterministic_and_worker_invariant():
    cfg = mc.ExperimentConfig(kernel=kernels.OrnsteinUhlenbeck(1.0), intensity=EG1,
                              functional=Functional.CUMULATIVE_HAZARD,
                              horizon=60.0, replicates=100, seed=99,
                              centering_mode=mc.CENTERING_CATALOG)
    a = mc.run_clt(cfg, workers=1)
    b = mc.run_clt(cfg, workers=2)
    assert a.standardized_samples == b.standardized_samples
    assert a.to_json() == b.to_json()


_SPAWN_RUN = """
import json, multiprocessing
multiprocessing.set_start_method("spawn")
from hazardlab import crm, kernels, montecarlo as mc
from hazardlab.asymptotics import Functional
cfg = mc.ExperimentConfig(kernel=kernels.OrnsteinUhlenbeck(1.0),
                          intensity=crm.ExtendedGamma(crm.Constant(1.0)),
                          functional=Functional.PATH_VARIANCE, horizon=40.0,
                          replicates=100, seed=7, epsilon=1e-3)
print(json.dumps(mc.run_clt(cfg, workers=2).values))
"""


def test_run_clt_worker_pool_under_spawn():
    # the pool takes the platform's start method; spawned workers import the
    # package afresh and must reproduce the serial run bit for bit
    if mc.resolve_workers(2) < 2:
        pytest.skip("needs 2 cores for a worker pool")
    cfg = mc.ExperimentConfig(kernel=kernels.OrnsteinUhlenbeck(1.0), intensity=EG1,
                              functional=Functional.PATH_VARIANCE, horizon=40.0,
                              replicates=100, seed=7, epsilon=1e-3)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SPAWN_RUN], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert json.loads(out.stdout) == mc.run_clt(cfg, workers=1).values


def test_unbiased_centering_and_variance_law():
    # cumulative-hazard samples: mean within 4 SE of the truncation-exact
    # I_1; variance within 4 SE-of-variance of I_2
    T = 50.0
    cfg = mc.ExperimentConfig(kernel=kernels.OrnsteinUhlenbeck(1.0), intensity=EG1,
                              functional=Functional.CUMULATIVE_HAZARD,
                              horizon=T, replicates=2000, seed=123,
                              centering_mode=mc.CENTERING_QUADRATURE)
    report = mc.run_clt(cfg)
    z = np.asarray(report.standardized_samples)
    n = z.size
    se_mean = z.std(ddof=1) / math.sqrt(n)
    assert abs(z.mean()) <= 4.0 * se_mean
    # variance law: Var[H(T)] = I_2(T) (truncation correction is ~1e-9 here)
    i2 = I_moments(cfg.kernel, cfg.intensity, T, 2)
    sample_var = np.var(np.asarray(report.values), ddof=1)
    m4 = stats.moment(report.values, 4)
    se_var = math.sqrt((m4 - (n - 3) / (n - 1) * sample_var ** 2) / n)
    assert abs(sample_var - i2) <= 4.0 * se_var


def test_path_variance_quadrature_centering_is_unbiased():
    # E[(H/T)^2] = (I_1^2 + I_2) / T^2, so the exact mean of the path
    # variance subtracts I_2 / T^2 as well; without it the centering sits
    # ~0.12 sd above the mean here.  Sample mean within 4 SE of the centering.
    cfg = mc.ExperimentConfig(kernel=kernels.Rectangular(1.0), intensity=GG,
                              functional=Functional.PATH_VARIANCE, horizon=30.0,
                              replicates=4000, seed=20261018, epsilon=1e-3,
                              centering_mode=mc.CENTERING_QUADRATURE)
    report = mc.run_clt(cfg)
    v = np.asarray(report.values)
    se = v.std(ddof=1) / math.sqrt(v.size)
    assert abs(v.mean() - report.centering_value) <= 4.0 * se, \
        (v.mean(), report.centering_value, se)


def test_budget_refusal_and_unsupported():
    # the bulk [1, 19] is drawn untruncated, so only the boundary's mass
    # below eps biases the statistic: at eps = 1e-2 by 0.0880, above 1% of
    # the target sd (0.0141), and at eps = 1e-6 by 0.00088
    cfg = mc.ExperimentConfig(kernel=kernels.Rectangular(1.0), intensity=GG,
                              functional=Functional.CUMULATIVE_HAZARD,
                              horizon=20.0, replicates=100, seed=5, epsilon=1e-2,
                              centering_mode=mc.CENTERING_CATALOG)
    with pytest.raises(mc.TruncationBudgetError):
        mc.run_clt(cfg, workers=1)
    assert len(mc.run_clt(dataclasses.replace(cfg, epsilon=1e-6), workers=1).values) == 100
    bad = mc.ExperimentConfig(kernel=kernels.DykstraLaud(), intensity=GG,
                              functional=Functional.PATH_SECOND_MOMENT,
                              horizon=100.0, replicates=100, seed=5)
    with pytest.raises(ValueError, match="check-conditions"):
        mc.run_clt(bad, workers=1)


def test_nonhomogeneous_quadratic_refusal_names_check_conditions_once():
    # the catalog says why (the limit depends on the whole profile) and
    # run_clt alone points to check-conditions
    cfg = mc.ExperimentConfig(kernels.OrnsteinUhlenbeck(1.0),
                              crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)),
                              Functional.PATH_VARIANCE, 100.0)
    with pytest.raises(ValueError) as info:
        mc.run_clt(cfg, workers=1)
    msg = str(info.value)
    assert "depends on the whole profile" in msg
    assert msg.count("check-conditions") == 1 and "envelope" not in msg


@pytest.mark.parametrize("intensity, T, eps, seeds", [
    (GG, 20.0, 1e-3, (2231, 2232)), (EG1, 20.0, 1e-3, (2233, 2234)),
    # short flat intervals at large eps, where the series expects few
    # arrivals: lambda^sigma 2 (the least efficient tilted-stable draws) and
    # 36, and Gamma(0.5, 1)
    (GG, 3.0, 1e-2, (2271, 2272)), (GG, 20.0, 1e-2, (2273, 2274)),
    (EG1, 2.5, 0.1, (2275, 2276)),
], ids=["gg", "eg", "gg-short-eps1e-2", "gg-eps1e-2", "eg-short-eps0.1"])
def test_bulk_cumhaz_has_the_law_of_the_full_series(intensity, T, eps, seeds):
    # rectangular(1): H from the bulk draw against H from the full series,
    # which lacks the bulk's mass below eps, shifted by its mean
    # 2 tau |flat| mean_below(eps); two-sample KS over 2000 replicates each,
    # from unrelated seeds.  The bulk draws' mean is the quadrature
    # centering within 4 SE.
    kern = kernels.Rectangular(1.0)
    bulk_cfg, full_cfg = (mc.ExperimentConfig(kern, intensity, Functional.CUMULATIVE_HAZARD, T,
                                              seed=seed, epsilon=eps) for seed in seeds)
    a, b = kern.flat(T)
    # the bulk is the last atom, at the flat interval's midpoint
    assert mc.sample_crm(bulk_cfg, 0).locations[-1] == 0.5 * (a + b)
    bulk = np.array([mc.cumhaz(mc.sample_crm(bulk_cfg, r), kern, T) for r in range(2000)])
    series = crm.plan(intensity, kernels.location_window(kern, T), eps)
    full = np.array([mc.cumhaz(crm.sample(series, mc._stream(full_cfg, r)), kern, T)
                     for r in range(2000)])
    shift = 2.0 * (b - a) * crm.mean_below(intensity, eps)
    assert stats.ks_2samp(bulk, full + shift).pvalue > 0.01
    se = bulk.std(ddof=1) / math.sqrt(bulk.size)
    assert abs(bulk.mean() - mc._exact_mean(bulk_cfg, eps)) <= 4.0 * se


@pytest.mark.parametrize("intensity, eps, deficit_per_mass",
                         [(crm.Beta(crm.Constant(1.5)), 1e-2, 2.0 * 20.0 - 0.5), (GG, 1e-6, 3.5)],
                         ids=["series", "bulk"])
def test_run_level_truncation_deficit(intensity, eps, deficit_per_mass):
    # what truncation leaves behind is the full minus the truncated center.
    # Rectangular(1) on the window [0, T + 1] has int K_T dx = 1.5 + 2(T - 2)
    # + 2 = 2T - 0.5, and K_T = 2 on its flat interval [1, T - 1], whose
    # mass below eps the bulk keeps: the deficit is mean_below(eps) times
    # 2T - 0.5 on the series (beta has no total-mass law) and 3.5 with the
    # bulk.  Both centers carry the quadrature's 1e-11 relative error on
    # I_1 ~ 40, up to 1e-7 of the bulk's deficit of ~4e-3.
    cfg = mc.ExperimentConfig(kernels.Rectangular(1.0), intensity, Functional.CUMULATIVE_HAZARD,
                              20.0, seed=2236, epsilon=eps)
    assert (mc._draw_plan(cfg).bulk is None) == (intensity is not GG)
    deficit = mc._exact_mean(cfg, 0.0) - mc._exact_mean(cfg, eps)
    assert deficit == pytest.approx(deficit_per_mass * crm.mean_below(intensity, eps), rel=1e-6)


def test_catalog_centering_without_a_trend_constant_is_the_full_I1():
    # rectangular(1) + EG(affine_sqrt(1, 1)) has no closed trend constant
    # (MonteCarloMean): catalog mode centers on I_1 of the untruncated CRM,
    # not on the epsilon-truncated mean the quadrature mode uses
    kern, intensity = kernels.Rectangular(1.0), crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0))
    assert isinstance(regime(kern, intensity, Functional.CUMULATIVE_HAZARD).centering,
                      MonteCarloMean)
    cfg = mc.ExperimentConfig(kern, intensity, Functional.CUMULATIVE_HAZARD, 60.0,
                              replicates=100, seed=2237, epsilon=1e-4,
                              centering_mode=mc.CENTERING_CATALOG)
    assert mc.run_clt(cfg, workers=1).centering_value == I_moments(kern, intensity, 60.0, 1)


def test_worker_resolution_env_cap(monkeypatch):
    monkeypatch.setenv("HAZARDLAB_THREADS", "1")
    assert mc.resolve_workers(None) == 1
    monkeypatch.delenv("HAZARDLAB_THREADS")
    assert 1 <= mc.resolve_workers(None) <= min(4, os.cpu_count() or 1)
    assert mc.resolve_workers(64) == (os.cpu_count() or 1)


class _PoolLog:
    """multiprocessing.Pool in this process: records each pool's size and
    maps serially."""
    sizes = []

    def __init__(self, n):
        self.sizes.append(n)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, f, jobs):
        return [f(job) for job in jobs]


def _cumhaz_config(**kw):
    # the benchmark's rectangular + GG cumulative-hazard run: 3,385 edge
    # arrivals and one bulk draw per replicate
    return mc.ExperimentConfig(kernels.Rectangular(1.0), GG, Functional.CUMULATIVE_HAZARD, 500.0,
                               replicates=100, seed=2238, **kw)


def _atoms(cfg):
    # the expected atoms of one sample_crm draw
    return mc._draw_plan(cfg).atoms


def test_default_workers_pool_only_a_run_that_pays_for_it(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("HAZARDLAB_THREADS", raising=False)
    monkeypatch.setattr(mc.multiprocessing, "Pool", _PoolLog)
    _PoolLog.sizes = []
    cfg = _cumhaz_config()
    atoms = _atoms(cfg)
    # the bulk draw counts as no atom
    assert atoms == series_arrivals(GG, 3.0, cfg.epsilon) and 3384 < atoms < 3386
    # 100 replicates expect 3.4e5 atoms, under the constant: no pool
    assert cfg.replicates * atoms < mc._POOL_MIN_ATOMS
    assert mc.resolve_workers(None, cfg.replicates * atoms) == 1
    serial = mc.run_clt(cfg)
    assert _PoolLog.sizes == []
    # at or above the constant the default pool runs, with the same values
    assert mc.resolve_workers(None, mc._POOL_MIN_ATOMS) == 4
    monkeypatch.setattr(mc, "_POOL_MIN_ATOMS", cfg.replicates * atoms)
    assert mc.run_clt(cfg).values == serial.values
    assert _PoolLog.sizes == [4]
    # without a bulk the series' arrivals count: the thinning envelope's for
    # a non-homogeneous intensity
    series = dataclasses.replace(cfg, functional=Functional.PATH_VARIANCE, epsilon=1e-3)
    assert _atoms(series) == series_arrivals(GG, 501.0, 1e-3)
    thinned = mc.ExperimentConfig(kernels.Rectangular(1.0),
                                  crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)),
                                  Functional.CUMULATIVE_HAZARD, 20.0, epsilon=1e-3)
    assert _atoms(thinned) == series_arrivals(crm.ExtendedGamma(crm.Constant(1.0)), 21.0, 1e-3)


def test_oversized_run_is_refused_before_the_centering_and_the_pool(monkeypatch):
    # OU(1) + GG(0.5, 1) path second moment at T = 1000 and eps = 1e-9
    # expects 3.57e7 atoms per draw: run_clt refuses it with the sampler's
    # message before it computes the centering or starts a pool
    calls = []
    monkeypatch.setattr(mc, "_exact_mean", lambda *a: calls.append("_exact_mean") or 0.0)
    monkeypatch.setattr(mc.multiprocessing, "Pool",
                        lambda *a, **k: calls.append("Pool") or _PoolLog(*a))
    cfg = mc.ExperimentConfig(kernels.OrnsteinUhlenbeck(1.0), GG, Functional.PATH_SECOND_MOMENT,
                              1000.0, replicates=100, epsilon=1e-9)
    with pytest.raises(ValueError, match=r"^epsilon=1e-09 asks for 3\.57e\+07 expected atoms "
                                         r"per draw of generalized_gamma\(sigma=0\.5,gamma=1\), "
                                         r"above the limit 2e\+07; raise epsilon$"):
        mc.run_clt(cfg, workers=2)
    assert calls == []


def test_explicit_workers_and_env_still_pool_a_small_run(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(mc.multiprocessing, "Pool", _PoolLog)
    _PoolLog.sizes = []
    cfg = _cumhaz_config(epsilon=1e-3)
    assert cfg.replicates * _atoms(cfg) < mc._POOL_MIN_ATOMS
    monkeypatch.delenv("HAZARDLAB_THREADS", raising=False)
    mc.run_clt(cfg, workers=2)
    monkeypatch.setenv("HAZARDLAB_THREADS", "3")
    mc.run_clt(cfg)
    assert _PoolLog.sizes == [2, 3]


def test_a_pool_of_more_workers_than_half_the_replicates_still_pools(monkeypatch):
    # the pool or the loop is resolve_workers' choice alone: 64 workers pool
    # a 100-replicate run, which draws the serial run's values
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(mc.multiprocessing, "Pool", _PoolLog)
    _PoolLog.sizes = []
    cfg = _cumhaz_config(epsilon=1e-3)
    pooled = mc.run_clt(cfg, workers=64)
    assert _PoolLog.sizes == [64]
    assert pooled.values == mc.run_clt(cfg, workers=1).values
    assert _PoolLog.sizes == [64]


def test_a_run_plans_its_draw_once(monkeypatch):
    # the serial 100-replicate run lays out its draw once, for the pool
    # rule, and every replicate draws from that plan
    calls = []
    plan = crm.plan
    monkeypatch.setattr(crm, "plan", lambda *args: calls.append(args) or plan(*args))
    mc._draw_plan.cache_clear()
    mc.run_clt(_cumhaz_config(), workers=1)
    assert len(calls) == 1


@pytest.mark.parametrize("kern,intensity,functional", [
    (kernels.Rectangular(1.0), GG, Functional.CUMULATIVE_HAZARD),
    (kernels.Rectangular(1.0), EG1, Functional.CUMULATIVE_HAZARD),
    (kernels.Rectangular(1.0), crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)),
     Functional.CUMULATIVE_HAZARD),
    (kernels.OrnsteinUhlenbeck(1.0), EG1, Functional.PATH_VARIANCE),
    (kernels.OrnsteinUhlenbeck(1.0), crm.Beta(crm.Constant(0.5)), Functional.PATH_SECOND_MOMENT),
], ids=["rect-gg-bulk", "rect-eg-bulk", "rect-eg-thinned", "ou-eg", "ou-beta-two-piece"])
def test_replicate_draws_as_a_fresh_plan_per_replicate(kern, intensity, functional):
    # successive replicates share one memoised plan; each value equals the
    # replicate drawn alone from a plan built for it
    cfg = mc.ExperimentConfig(kern, intensity, functional, 20.0, replicates=100, seed=2321,
                              epsilon=1e-3)
    mc._draw_plan.cache_clear()
    shared = [mc._replicate(cfg, r) for r in range(5)]
    alone = []
    for r in range(5):
        mc._draw_plan.cache_clear()
        alone.append(mc._FUNCTIONALS[functional](mc.sample_crm(cfg, r), kern, 20.0))
    assert shared == alone


def test_bulk_cumhaz_pool_equals_serial():
    # a real 2-worker pool over rectangular + GG cumulative-hazard
    # replicates that draw the bulk: the values equal the serial run's bit
    # for bit
    cfg = mc.ExperimentConfig(kernels.Rectangular(1.0), GG, Functional.CUMULATIVE_HAZARD, 50.0,
                              replicates=100, seed=2239, epsilon=1e-3)
    assert mc._draw_plan(cfg).bulk is not None
    assert mc.run_clt(cfg, workers=2).values == mc.run_clt(cfg, workers=1).values


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        mc.ExperimentConfig(kernel=kernels.DykstraLaud(), intensity=GG,
                            functional=Functional.CUMULATIVE_HAZARD,
                            horizon=-1.0, replicates=100, seed=0)
    with pytest.raises(ValueError):
        mc.ExperimentConfig(kernel=kernels.DykstraLaud(), intensity=GG,
                            functional=Functional.CUMULATIVE_HAZARD,
                            horizon=10.0, replicates=50, seed=0)
    with pytest.raises(ValueError):
        mc.ExperimentConfig(kernel=kernels.DykstraLaud(), intensity=GG,
                            functional=Functional.CUMULATIVE_HAZARD,
                            horizon=10.0, replicates=100, seed=0,
                            centering_mode="bogus")
    for epsilon, refusal in ((0.0, "violates epsilon > 0"), (-1e-6, "violates epsilon > 0"),
                             (math.nan, "must be finite"), (math.inf, "must be finite")):
        with pytest.raises(ValueError, match=rf"^ExperimentConfig\.epsilon={epsilon} {refusal}$"):
            mc.ExperimentConfig(kernel=kernels.DykstraLaud(), intensity=GG,
                                functional=Functional.CUMULATIVE_HAZARD,
                                horizon=10.0, replicates=100, seed=0, epsilon=epsilon)


def test_csv_and_json_reports():
    cfg = mc.ExperimentConfig(kernel=kernels.OrnsteinUhlenbeck(1.0), intensity=EG1,
                              functional=Functional.PATH_VARIANCE,
                              horizon=40.0, replicates=100, seed=7)
    rep = mc.run_clt(cfg, workers=1)
    lines = rep.samples_csv_text().splitlines()
    assert lines[0] == "replicate,value,standardized"
    assert len(lines) == 101
    blob = rep.to_json()
    assert '"variance_ratio"' in blob and '"truncation_budget_ok"' in blob


def test_run_clt_deficit_quadrature_is_clean_at_small_epsilon():
    # the non-homogeneous truncation deficit integrates mean_below over the
    # window; QUADPACK flags roundoff at eps = 1e-9 unless mean_below is
    # smooth to machine precision
    config = mc.ExperimentConfig(kernels.Rectangular(1.0),
                                 crm.Beta(crm.AffineSqrt(1.0, 0.7)),
                                 Functional.CUMULATIVE_HAZARD, 30.0, replicates=100,
                                 seed=5, epsilon=1e-9, centering_mode=mc.CENTERING_CATALOG)
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        report = mc.run_clt(config, workers=1)
    assert len(report.values) == 100


def test_ks_p_value_is_one_for_a_perfect_fit_at_2000_replicates():
    # D = 1/(2n), so lambda = sqrt(n) D ~ 0.0112, where P(K > lambda) = 1
    n = 2000
    q = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    out = mc.ks_test(q, 0.0, 1.0)
    assert math.sqrt(n) * out["statistic"] == pytest.approx(0.0112, abs=1e-4)
    assert out["p_value"] == 1.0


@pytest.mark.parametrize("tau", [1.0, 2.5])
@pytest.mark.parametrize("T", [30.0, 500.0, 1000.0, 2000.0])
def test_rectangular_mean_square_centering_is_exact(tau, T):
    # (1/T) E int_0^T h^2 dt on the window [0, T + tau] of rectangular(tau):
    # int slice_mass^2 = 4 tau^2 T - 5 tau^3 / 3 and int Q_T(x, x) dx
    # = 2 tau T - tau^2 / 2, weighted by K^(1)^2 and K^(2)
    for intensity in (EG1, crm.ExtendedGamma(crm.Constant(2.0)), crm.Beta(crm.Constant(1.5))):
        cfg = mc.ExperimentConfig(kernels.Rectangular(tau), intensity,
                                  Functional.PATH_SECOND_MOMENT, T, epsilon=1e-3)
        for eps in (0.0, cfg.epsilon):
            k1 = crm.jump_moment(intensity, 1.0, epsilon=eps)
            k2 = crm.jump_moment(intensity, 2.0, epsilon=eps)
            exact = (k1 ** 2 * (4 * tau ** 2 * T - 5 * tau ** 3 / 3)
                     + k2 * (2 * tau * T - tau ** 2 / 2)) / T
            assert mc._exact_mean(cfg, eps) \
                == pytest.approx(exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("functional", [Functional.PATH_SECOND_MOMENT, Functional.PATH_VARIANCE],
                         ids=lambda f: f.value)
def test_mean_square_centering_refuses_nonhomogeneous_intensities(functional):
    # the catalog has no quadratic-functional limit for them, so run_clt
    # never centers one; the centering itself refuses too
    cfg = mc.ExperimentConfig(kernels.Rectangular(1.0), crm.Beta(crm.IndicatorSqrt(1.0)),
                              functional, 30.0, epsilon=1e-3)
    with pytest.raises(ValueError, match=r"covers homogeneous intensities, "
                                         r"not beta\(indicator_sqrt\(1\)\)"):
        mc._exact_mean(cfg, cfg.epsilon)
