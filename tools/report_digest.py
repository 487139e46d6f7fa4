"""Bit-identity of run_clt reports between two commits.

    python3 tools/report_digest.py --parent REV --change REV

Run from the root of the repository.  Each revision is exported with
`git archive` into its own directory under a temporary directory, removed
at the end, as tools/bench_pairs.py does.  In each export a child process imports that export's
hazardlab (PYTHONPATH=<export>/src) and prints, for each config of
_configs() and for 1 and 2 workers, the sha256 of
`run_clt(config, workers).to_json()`.  The tool prints one line per config
and worker count with both digests, and exits 1 when any pair differs, a
config is missing on one side, or a child fails.

The configs: the three `simulate` workloads of perfbench/workloads.py at
seeds 1-3, criterion 5's two runs (seed 20260809), criterion 6's two runs
(seed 20260810), one beta(0.5) run (the two-piece dominating measure and
the OU pair sum) and one extended-gamma thinning run (affine_sqrt(1, 1)).
Both sides run the same configs, so they must build with both revisions'
APIs.  A full pass takes about 20 s per revision on 2 vCPUs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import SIDES, _export

WORKERS = (1, 2)


def _configs() -> list:
    """(label, ExperimentConfig) pairs, built with the hazardlab on sys.path."""
    from hazardlab import crm, kernels
    from hazardlab import montecarlo as mc
    from hazardlab.asymptotics import Functional

    rect, ou = kernels.Rectangular(1.0), kernels.OrnsteinUhlenbeck(1.0)
    gg, eg = crm.GeneralizedGamma(0.5, 1.0), crm.ExtendedGamma(crm.Constant(1.0))
    cumhaz = Functional.CUMULATIVE_HAZARD
    p2m, pv = Functional.PATH_SECOND_MOMENT, Functional.PATH_VARIANCE
    quad, cat = mc.CENTERING_QUADRATURE, mc.CENTERING_CATALOG

    def cfg(kernel, intensity, functional, horizon, replicates, seed, epsilon, centering):
        return mc.ExperimentConfig(kernel=kernel, intensity=intensity, functional=functional,
                                   horizon=horizon, replicates=replicates, seed=seed,
                                   epsilon=epsilon, centering_mode=centering)

    out = []
    for s in (1, 2, 3):
        out += [
            (f"clt-cumhaz-rect-gg seed {s}", cfg(rect, gg, cumhaz, 500.0, 100, s, 1e-6, quad)),
            (f"clt-pathvar-rect-gg seed {s}", cfg(rect, gg, pv, 500.0, 100, s, 1e-3, quad)),
            (f"clt-path2nd-ou-eg seed {s}", cfg(ou, eg, p2m, 1000.0, 2000, s, 1e-6, cat)),
        ]
    out += [
        ("criterion 5 rect+gg", cfg(rect, gg, cumhaz, 500.0, 2000, 20260809, 1e-6, quad)),
        ("criterion 5 ou+eg", cfg(ou, eg, cumhaz, 500.0, 2000, 20260809, 1e-6, quad)),
        ("criterion 6a ou+eg path2nd", cfg(ou, eg, p2m, 1000.0, 2000, 20260810, 1e-6, cat)),
        ("criterion 6c ou+eg pathvar", cfg(ou, eg, pv, 1000.0, 2000, 20260810, 1e-6, cat)),
        ("ou+beta(0.5) path2nd",
         cfg(ou, crm.Beta(crm.Constant(0.5)), p2m, 200.0, 200, 7, 1e-3, quad)),
        ("rect+eg(affine_sqrt(1,1)) cumhaz",
         cfg(rect, crm.ExtendedGamma(crm.AffineSqrt(1.0, 1.0)), cumhaz, 60.0, 200, 2237, 1e-4,
             quad)),
    ]
    return out


def _emit() -> int:
    """Child side: one JSON line [label, workers, sha256] per config and
    worker count, from the hazardlab of the export it runs in."""
    import hazardlab
    from hazardlab.montecarlo import run_clt

    if not os.path.abspath(hazardlab.__file__).startswith(os.getcwd() + os.sep):
        raise SystemExit(f"imported {hazardlab.__file__}, not the export's hazardlab")

    for label, config in _configs():
        for workers in WORKERS:
            digest = hashlib.sha256(run_clt(config, workers).to_json().encode()).hexdigest()
            print(json.dumps([label, workers, digest]), flush=True)
    return 0


def _digests(tree: str) -> dict:
    """{(label, workers): sha256} from a child run in the export `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"], cwd=tree,
                         env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"digest run in {tree} exited {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    return {(label, workers): digest for label, workers, digest
            in map(json.loads, out.stdout.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--change", help="git revision of the change side")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        return _emit()
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    base = tempfile.mkdtemp(prefix="report-digest-")
    try:
        digests = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            tree = os.path.join(base, side)
            _export(rev, tree)
            digests[side] = _digests(tree)
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    keys = list(dict.fromkeys([*digests["parent"], *digests["change"]]))
    differ = 0
    for label, workers in keys:
        p = digests["parent"].get((label, workers))
        c = digests["change"].get((label, workers))
        same = p is not None and p == c
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  {label}, {workers} worker(s): "
              f"parent {p or '-'} change {c or '-'}")
    print(f"{len(keys) - differ} of {len(keys)} reports bit-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
