"""Self-test of the benchmark's correctness checks, at the smallest size.

    python3 perfbench/selftest.py        (from the repository root)

Runs the smallest simulate and check-conditions workloads for real, three
fresh-process repetitions each, and confirms that the checks count no
failure on the untouched outputs.  Then it feeds the same outputs with one
fault at a time (a perturbed replicate value inside and outside the serially
recomputed subset, a non-finite value, a perturbed condition value, a wrong
verdict) and confirms that each fault is counted as exactly one failed
operation.  Last, it checks that BENCHMARK.json lists the workloads and
metrics that run.py defines.  Exits 0 when every case holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import SELFTEST_WORKLOADS, WORKLOADS  # noqa: E402


def _bump(values: list, i: int) -> None:
    values[i] = math.nextafter(values[i], math.inf)      # one ulp


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hazardlab", "cli.py")):
        print("error: run from the root of a hazardlab checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cases = []

    def case(name, workload, col, want):
        cases.append((name, sum(run.failures(workload, col)), want))

    clt = SELFTEST_WORKLOADS["selftest-clt"]
    col = run.collect(root, work, clt, seed=7, seconds=0)
    case("simulate, untouched", clt, col, 0)
    outside = next(i for i in range(clt.ops) if i not in col.subset)
    for name, rep, index in (("outside the recomputed subset", 0, outside),
                             ("inside the recomputed subset", 1, col.subset[-1])):
        bad = copy.deepcopy(col)
        _bump(bad.reps[rep].reports[0]["values"], index)
        case(f"simulate, one replicate value off by one ulp, {name}", clt, bad, 1)
    bad = copy.deepcopy(col)
    bad.reps[2].reports[0]["standardized_samples"][3] = math.nan
    case("simulate, one non-finite standardized value", clt, bad, 1)

    cond = SELFTEST_WORKLOADS["selftest-conditions"]
    col = run.collect(root, work, cond, seed=7, seconds=0)
    case("check-conditions, untouched", cond, col, 0)
    bad = copy.deepcopy(col)
    _bump(bad.reps[1].reports[0]["values"]["4"], 2)
    case("check-conditions, one condition value off by one ulp", cond, bad, 1)
    bad = copy.deepcopy(col)
    bad.reps[0].reports[0]["verdicts"]["3"]["kind"] = "diverges"
    case("check-conditions, one wrong verdict", cond, bad, 1)

    # BENCHMARK.json must describe what run.py prints
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    printed = {(n, u, b) for n, (u, b) in {**run.END_TO_END, **run.PER_LAYER}.items()}
    cases.append(("BENCHMARK.json metrics match run.py", len(listed ^ printed), 0))
    workloads = {(w["name"], w["why"]) for w in spec["workloads"]}
    cases.append(("BENCHMARK.json workloads match workloads.py",
                  len(workloads ^ {(w.name, w.why) for w in WORKLOADS.values()}), 0))

    for name, got, want in cases:
        print(f"{'ok  ' if got == want else 'FAIL'} {name}: counted {got}, expected {want}")
    return 0 if all(got == want for _, got, want in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
