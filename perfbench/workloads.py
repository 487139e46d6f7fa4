"""Workload definitions for the hazardlab benchmark.

A workload is a fixed experiment shape plus a seed.  The seed enters only
through the generated INI text, so the same seed always gives the same
inputs.  The program sees nothing but those INI documents.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# Criterion 3: the positive path-2nd condition checks for OU(1)+GG and
# rectangular(1)+GG under the rate T^0.5.
CRITERION3_VERDICTS = {1: "converges_to_positive", 2: "vanishes", 3: "vanishes",
                       4: "vanishes", 5: "converges_to_positive", 6: "vanishes"}

# The default grid (50..800) takes ~30 s, 96% of it in OU.  This grid keeps
# criterion 3's verdict kinds (checked for sigma in [0.25, 0.75], gamma in
# [0.5, 2]) at about a tenth of the cost, so a run holds several repetitions.
CONDITIONS_GRID = (12.5, 25.0, 50.0, 100.0)

# The CLI rejects ks_alpha outside (0, 1).  The KS p-value is recorded, not
# gated at the usual 0.01; only a collapse below this counts as a failure.
KS_ALPHA = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                        # hazardlab subcommand
    configs: Callable[[int], List[Tuple[str, str]]]   # seed -> [(label, INI)]
    ops: int                            # replicates, or (kernel, horizon) evaluations
    expected_verdicts: Optional[Dict[int, str]] = None
    notes: str = ""


def _simulate_ini(seed: int, *, kernel: str, crm_: str, functional: str,
                  horizon: float, replicates: int, epsilon: float,
                  centering: str) -> str:
    return (
        "[experiment]\nkind = simulate\n"
        f"functional = {functional}\nhorizon = {horizon!r}\n"
        f"replicates = {replicates}\nseed = {seed}\nepsilon = {epsilon!r}\n"
        f"centering = {centering}\nks_alpha = {KS_ALPHA!r}\n\n"
        f"[kernel]\n{kernel}\n\n[crm]\n{crm_}\n\n[output]\nformat = json\n")


RECT1 = "type = rectangular\ntau = 1.0"
OU1 = "type = ornstein_uhlenbeck\nkappa = 1.0"
GG_05_1 = "family = generalized_gamma\nsigma = 0.5\ngamma = 1.0"
EG_CONST1 = "family = extended_gamma\nfn = constant\nvalue = 1.0"


def simulate_workload(name: str, why: str, *, replicates: int, notes: str = "",
                      **shape) -> Workload:
    def configs(seed: int):
        return [("simulate", _simulate_ini(seed, replicates=replicates, **shape))]
    return Workload(name, why, "simulate", configs, replicates, notes=notes)


def _conditions_configs(seed: int, kernels_=(("ou", OU1), ("rect", RECT1))):
    # The seed draws the generalized-gamma parameters.  For a homogeneous
    # intensity they scale the moments only, so the work per horizon is the
    # same for every seed and the expected verdicts do not change.
    rnd = random.Random(seed)
    sigma = round(rnd.uniform(0.25, 0.75), 6)
    gamma = round(2.0 ** rnd.uniform(-1.0, 1.0), 6)
    crm_ = f"family = generalized_gamma\nsigma = {sigma!r}\ngamma = {gamma!r}"
    t_grid = ",".join(repr(t) for t in CONDITIONS_GRID)
    return [(label,
             "[experiment]\nkind = check-conditions\ntheorem = path2nd\n"
             f"rate = power:0.5\nt_grid = {t_grid}\nseed = {seed}\n\n"
             f"[kernel]\n{kernel}\n\n[crm]\n{crm_}\n\n[output]\nformat = json\n")
            for label, kernel in kernels_]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    simulate_workload(
        "clt-cumhaz-rect-gg",
        "loads the sampler: ~564k atoms per replicate, half its time in "
        "crm.tail_mass; condition engine and pair sums idle",
        replicates=100, kernel=RECT1, crm_=GG_05_1,
        functional="cumulative_hazard", horizon=500.0, epsilon=1e-6,
        centering="quadrature"),
    simulate_workload(
        "clt-pathvar-rect-gg",
        "exercises the banded rectangular pair sum (~16.8k atoms, pair sum "
        "~25x the sampling time); eps=1e-3 because 1e-6 takes 46 s a replicate",
        replicates=100, kernel=RECT1, crm_=GG_05_1,
        functional="path_variance", horizon=500.0, epsilon=1e-3,
        centering="quadrature",
        notes="At 100-200 replicates the KS p-value can dip near 0.01 for "
              "some seeds (0.011 and 0.007 at seeds 11 and 12 with 200).  At "
              "1000 replicates the same config gave p = 0.24, variance ratio "
              "1.01, mean 0.05 +- 0.10, skewness 0.50: finite-T skew at "
              "T=500, not bias.  A seed-dependent dip is not a regression."),
    simulate_workload(
        "clt-path2nd-ou-eg",
        "many short replicates: pool dispatch, per-worker tail-table build, "
        "exp1 tail path and the OU prefix pair sum (criterion 6a)",
        replicates=2000, kernel=OU1, crm_=EG_CONST1,
        functional="path_second_moment", horizon=1000.0, epsilon=1e-6,
        centering="catalog"),
    Workload(
        "conditions-path2nd",
        "condition engine only, no sampling: OU and rectangular contraction "
        "norms (criterion 3); the bypass for every Monte Carlo change",
        "check-conditions", _conditions_configs, 2 * len(CONDITIONS_GRID),
        expected_verdicts=CRITERION3_VERDICTS),
)}

# Smallest sizes, for selftest.py only: they never appear in BENCHMARK.json.
SELFTEST_WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    simulate_workload(
        "selftest-clt", "smallest simulate run", replicates=100, kernel=OU1,
        crm_=EG_CONST1, functional="path_variance", horizon=40.0, epsilon=1e-3,
        centering="quadrature"),
    Workload(
        "selftest-conditions", "smallest check-conditions run", "check-conditions",
        lambda seed: _conditions_configs(seed, kernels_=(("rect", RECT1),)),
        len(CONDITIONS_GRID), expected_verdicts=CRITERION3_VERDICTS),
)}


def lookup(name: str) -> Workload:
    return WORKLOADS.get(name) or SELFTEST_WORKLOADS[name]
