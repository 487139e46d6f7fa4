"""Bit-identity of run_clt reports, or of command-line output files,
between two commits; and the golden reports the test suite pins.

    python3 tools/report_digest.py --parent REV --change REV [--cli]
    python3 tools/report_digest.py --write-golden

Run from the root of the repository.  Each revision is exported with
`git archive` into its own directory under a temporary directory, removed
at the end, as tools/bench_pairs.py does.  In each export a child process imports that export's
hazardlab (PYTHONPATH=<export>/src) and prints, for each config of
_configs() and for 1 and 2 workers, the sha256 of
`run_clt(config, workers).to_json()`.  The tool prints one line per digest
with both sides' values, and exits 1 when any pair differs, a digest is
missing on one side, or a child fails.

With --cli the child instead runs `hazardlab.cli.main` on every INI that
the export's perfbench/workloads.py builds for its four benchmark
workloads at seeds 1-3, on the small INIs of CLI_CONFIGS, and `regimes`
without a config, each with `--format json` and with `--format csv`
(`sample-paths`, which writes CSV only and takes no `--format`, once).
Each run writes to the same relative `--out` name in both exports, so the
provenance lines match; the digest is the exit status, the sha256 of the
written file and that of the printed lines.  A --cli pass takes about
20 s per revision.

The configs: the three `simulate` workloads at seeds 1-3, parsed by the
export's `cli.parse_config` from the INIs of its perfbench/workloads.py
(as the --cli pass and perfbench/child.py's verify do), criterion 5's two
runs (seed 20260809), criterion 6's two runs (seed 20260810), one
beta(0.5) run (the two-piece dominating measure and the OU pair sum) and
one extended-gamma thinning run (affine_sqrt(1, 1)).
Both sides run the same configs, so they must build with both revisions'
APIs.  A full pass takes about 20 s per revision on 2 vCPUs.

--write-golden runs `run_clt(config, workers=1)` with the working tree's
hazardlab (src/) on each small config of GOLDEN, one per sampling path,
and rewrites tests/data/golden_reports.json with each config's INI, the
first and last 5 standardized values, the sample mean and variance and
the KS statistic, and the numpy version.  tests/test_golden_reports.py
compares a fresh run with the file at rel 1e-12; rewrite the file only
for a change that is meant to move a stream, and say so in its commit.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import SIDES, _export

WORKERS = (1, 2)
SEEDS = (1, 2, 3)


def _ini(experiment: str, kernel: str, crm: str) -> str:
    return f"[experiment]\n{experiment}\n\n[kernel]\n{kernel}\n\n[crm]\n{crm}\n"


_GRID = "t_grid = 5,10,20,40"
_GG = "family = generalized_gamma\nsigma = 0.5\ngamma = 1.0"
_EG_SQRT = "family = extended_gamma\nfn = affine_sqrt\na = 1.0\nb = 1.0"
_BETA_2 = "family = beta\nfn = constant\nvalue = 2.0"
_BETA_SQRT = "family = beta\nfn = indicator_sqrt\nb = 1.0"
_RECT, _DL = "type = rectangular\ntau = 1.0", "type = dykstra_laud"
_OU, _U = "type = ornstein_uhlenbeck\nkappa = 1.0", "type = u_shaped\nbeta = 2.0"
# (label, subcommand, INI): each kernel type, family and profile and each
# theorem, besides the benchmark workloads' rectangular and OU kernels,
# generalized gamma and constant extended gamma and theorem path2nd; each
# run takes well under a second
CLI_CONFIGS = [
    ("conditions cumhaz dykstra_laud+gg", "check-conditions",
     _ini(f"kind = check-conditions\ntheorem = cumhaz\n{_GRID}", _DL, _GG)),
    ("conditions cumhaz dykstra_laud+eg(affine_sqrt)", "check-conditions",
     _ini(f"kind = check-conditions\ntheorem = cumhaz\n{_GRID}", _DL, _EG_SQRT)),
    ("conditions pathvar rectangular+beta(constant)", "check-conditions",
     _ini(f"kind = check-conditions\ntheorem = pathvar\nrate = power:0.5\n{_GRID}\n"
          "expect_condition_1 = vanishes", _RECT, _BETA_2)),
    ("conditions path2nd u_shaped+beta(indicator_sqrt)", "check-conditions",
     _ini(f"kind = check-conditions\ntheorem = path2nd\nrate = power:0.5\n{_GRID}", _U,
          _BETA_SQRT)),
    ("simulate cumhaz rectangular+beta(indicator_sqrt)", "simulate",
     _ini("kind = simulate\nfunctional = cumulative_hazard\nhorizon = 20\nreplicates = 100\n"
          "seed = 4\nepsilon = 1e-3", _RECT, _BETA_SQRT)),
    ("simulate cumhaz dykstra_laud+eg(affine_sqrt) catalog", "simulate",
     _ini("kind = simulate\nfunctional = cumulative_hazard\nhorizon = 20\nreplicates = 100\n"
          "seed = 5\nepsilon = 1e-4\ncentering = catalog", _DL, _EG_SQRT)),
    ("simulate pathvar ornstein_uhlenbeck+beta(constant)", "simulate",
     _ini("kind = simulate\nfunctional = path_variance\nhorizon = 20\nreplicates = 100\n"
          "seed = 6\nepsilon = 1e-3", _OU, _BETA_2)),
    ("sample-paths u_shaped+beta(constant)", "sample-paths",
     _ini("kind = sample-paths\nhorizon = 20\nseed = 7\nepsilon = 1e-3\ngrid_n = 50", _U,
          _BETA_2)),
    ("sample-paths ornstein_uhlenbeck+eg(affine_sqrt)", "sample-paths",
     _ini("kind = sample-paths\nhorizon = 20\nseed = 8\nepsilon = 1e-3\ngrid_n = 50", _OU,
          _EG_SQRT)),
]


_SIM = "kind = simulate\nreplicates = 100\nepsilon = 1e-3\n"
_CUM = _SIM + "functional = cumulative_hazard\nhorizon = 20\n"
# (label, INI) of the golden reports: the generalized-gamma bulk and
# series, the extended-gamma tail table, beta with c < 1 (its two-piece
# dominating measure), and extended-gamma and beta thinning; each run takes
# a few hundredths of a second
GOLDEN = [
    ("rectangular+gg cumhaz, bulk", _ini(_SIM + "functional = cumulative_hazard\nhorizon = 50\n"
                                         "seed = 11", _RECT, _GG)),
    ("ornstein_uhlenbeck+gg path2nd, series",
     _ini(_SIM + "functional = path_second_moment\nhorizon = 20\nseed = 12", _OU, _GG)),
    ("rectangular+gg pathvar, series",
     _ini(_SIM + "functional = path_variance\nhorizon = 20\nseed = 13", _RECT, _GG)),
    ("ornstein_uhlenbeck+eg(constant) cumhaz, tail table",
     _ini(_CUM + "seed = 14", _OU, "family = extended_gamma\nfn = constant\nvalue = 1.0")),
    ("rectangular+beta(constant(0.5)) cumhaz, c < 1",
     _ini(_CUM + "seed = 15", _RECT, "family = beta\nfn = constant\nvalue = 0.5")),
    ("rectangular+eg(affine_sqrt) cumhaz, thinning", _ini(_CUM + "seed = 16", _RECT, _EG_SQRT)),
    ("rectangular+beta(indicator_sqrt) cumhaz, thinning",
     _ini(_CUM + "seed = 17", _RECT, _BETA_SQRT)),
]
GOLDEN_FILE = os.path.join("tests", "data", "golden_reports.json")


def _experiment(text: str):
    """The ExperimentConfig of a simulate INI, parsed by the hazardlab on
    sys.path."""
    from hazardlab import cli
    from hazardlab.montecarlo import ExperimentConfig

    c = cli.parse_config(text)
    return ExperimentConfig(kernel=c.kernel, intensity=c.intensity, functional=c.functional,
                            horizon=c.horizon, replicates=c.replicates, seed=c.seed,
                            epsilon=c.epsilon, centering_mode=c.centering)


def _write_golden() -> int:
    """Rewrite GOLDEN_FILE from the working tree's hazardlab."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy as np
    from hazardlab.montecarlo import run_clt

    reports = []
    for label, text in GOLDEN:
        report = run_clt(_experiment(text), workers=1)
        z = report.standardized_samples
        reports.append({"label": label, "config": text, "first": z[:5], "last": z[-5:],
                        "sample_mean": report.sample_mean,
                        "sample_variance": report.sample_variance,
                        "ks_statistic": report.ks_statistic})
    with open(GOLDEN_FILE, "w") as fh:
        json.dump({"written_by": "python3 tools/report_digest.py --write-golden",
                   "numpy": np.__version__, "reports": reports}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_FILE} ({len(reports)} reports, numpy {np.__version__})")
    return 0


def _workloads() -> dict:
    """The benchmark workloads of the export's perfbench/workloads.py."""
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    from workloads import WORKLOADS
    return WORKLOADS


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

    workloads, out = _workloads(), []
    for s in SEEDS:
        out += [(f"{name} seed {s}", _experiment(workloads[name].configs(s)[0][1]))
                for name in ("clt-cumhaz-rect-gg", "clt-pathvar-rect-gg", "clt-path2nd-ou-eg")]
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


def _report_digests():
    """(label, sha256) of each run_clt report, from the hazardlab on sys.path."""
    from hazardlab.montecarlo import run_clt

    for label, config in _configs():
        for workers in WORKERS:
            report = run_clt(config, workers).to_json()
            yield f"{label}, {workers} worker(s)", hashlib.sha256(report.encode()).hexdigest()


def _cli_digests():
    """(label, digest) of each command-line run, in a fresh directory of the
    export, from the hazardlab on sys.path and the export's workloads."""
    from hazardlab import cli
    workloads = _workloads()

    runs = [("regimes", None)]
    for name in sorted(workloads):
        runs += [(f"{name} seed {seed} {label}", (workloads[name].command, text))
                 for seed in SEEDS for label, text in workloads[name].configs(seed)]
    runs += [(label, (command, text)) for label, command, text in CLI_CONFIGS]
    os.mkdir("cli-runs")
    os.chdir("cli-runs")
    for i, (label, config) in enumerate(runs):
        argv = ["regimes"]
        if config is not None:
            with open(f"run{i}.ini", "w") as fh:
                fh.write(config[1])
            argv = [config[0], "--config", f"run{i}.ini"]
        paths = argv[0] == "sample-paths"
        for fmt in ("csv",) if paths else ("json", "csv"):
            out = f"run{i}.{fmt}"
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                status = cli.main(argv + ([] if paths else ["--format", fmt]) + ["--out", out])
            written = "-"
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    written = hashlib.sha256(fh.read()).hexdigest()
            printed = hashlib.sha256(printed.getvalue().encode()).hexdigest()
            yield f"{label} {fmt}", f"exit {status} file {written} stdout {printed}"


def _emit(cli: bool) -> int:
    """Child side: one JSON line [label, digest] per report or command-line
    run, from the hazardlab of the export it runs in."""
    import hazardlab

    if not os.path.abspath(hazardlab.__file__).startswith(os.getcwd() + os.sep):
        raise SystemExit(f"imported {hazardlab.__file__}, not the export's hazardlab")

    for label, digest in (_cli_digests() if cli else _report_digests()):
        print(json.dumps([label, digest]), flush=True)
    return 0


def _digests(tree: str, cli: bool) -> dict:
    """{label: digest} from a child run in the export `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit",
                          *(["--cli"] if cli else [])], cwd=tree,
                         env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"digest run in {tree} exited {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    return dict(map(json.loads, out.stdout.splitlines()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--change", help="git revision of the change side")
    parser.add_argument("--cli", action="store_true",
                        help="digest the files that hazardlab's commands write")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"rewrite {GOLDEN_FILE} from the working tree")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        return _emit(args.cli)
    if args.write_golden:
        return _write_golden()
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    base = tempfile.mkdtemp(prefix="report-digest-")
    try:
        digests = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            tree = os.path.join(base, side)
            _export(rev, tree)
            digests[side] = _digests(tree, args.cli)
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    keys = list(dict.fromkeys([*digests["parent"], *digests["change"]]))
    differ = 0
    for label in keys:
        p, c = digests["parent"].get(label), digests["change"].get(label)
        same = p is not None and p == c
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  {label}: parent {p or '-'} change {c or '-'}")
    print(f"{len(keys) - differ} of {len(keys)} {'outputs' if args.cli else 'reports'} "
          "bit-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
