"""hazardlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hazardlab checkout; the package is imported from
./src.  Every repetition is a fresh process (child.py) that imports
hazardlab, writes the workload's INI files and calls `hazardlab.cli.main`
on them, so each repetition pays the same cold costs a user pays and no
in-process cache carries over from one repetition to the next.

--trace 0  repeats the workload for S seconds (at least MIN_REPS times)
           and reports the end-to-end metrics as medians over repetitions.
--trace 1  runs the workload untraced (default pool), untraced serial
           (simulate only) and traced serial, and reports the per-layer
           metrics from the traced process plus the tracing overhead.

Outputs are checked in both modes; see the check functions below.  The last
line of stdout is the result JSON; the lines before it are the run context,
a human-readable summary, and the path of the full result file written
under ./.perfbench/.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Workload  # noqa: E402

MIN_REPS = 3
# No legitimate repetition takes more than ~20 s.  A child that hangs is
# killed with its pool workers, so that a run ends within 180 s even with
# three children timing out.
CHILD_TIMEOUT_S = 50
BLAS_VARS = ("HAZARDLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better); BENCHMARK.json lists the same names (selftest.py
# checks that the two agree)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),     # replicates or (kernel, horizon) evaluations
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "crm.sample.ms_p50": ("ms", "lower"),
    "crm.sample.ms_p95": ("ms", "lower"),
    "crm.sample.first_ms": ("ms", "lower"),
    "crm.sample.atoms": ("count", "lower"),
    "crm.sample.atoms_per_s": ("1/s", "higher"),
    "crm.tail_mass.calls": ("count", "lower"),
    "crm.tail_mass.self_ms": ("ms", "lower"),
    "montecarlo.functional.ms_p50": ("ms", "lower"),
    "montecarlo.functional.ms_p95": ("ms", "lower"),
    "montecarlo.replicate.ms_p50": ("ms", "lower"),
    "montecarlo.replicate.ms_p95": ("ms", "lower"),
    "montecarlo.p2m.pairs": ("count", "lower"),
    "montecarlo.run_clt.parallel_efficiency": ("ratio", "higher"),
    "montecarlo.ks_test.ms": ("ms", "lower"),
    "conditions.contraction_norms.ou.s": ("s", "lower"),
    "conditions.contraction_norms.rect.s": ("s", "lower"),
    "conditions.fit_slope.ms": ("ms", "lower"),
    "kernels.Q_T.calls": ("count", "lower"),
    "kernels.Q_T.self_ms": ("ms", "lower"),
    "kernels.K_T.calls": ("count", "lower"),
    "kernels.K_T.self_ms": ("ms", "lower"),
    "numeric.comp_sum.calls": ("count", "lower"),
    "numeric.comp_sum.self_ms": ("ms", "lower"),
    "numeric.gauss_legendre_panels.calls": ("count", "lower"),
    "numeric.gauss_legendre_panels.self_ms": ("ms", "lower"),
    "numeric.quad_breaks.calls": ("count", "lower"),
    "numeric.quad_breaks.self_ms": ("ms", "lower"),
    "cli.overhead_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """One child process: its measurements and the reports it wrote."""
    result: dict
    reports: Optional[List[dict]]       # None when the child or a call failed


@dataclass
class Collected:
    reps: List[Rep] = field(default_factory=list)
    subset: List[int] = field(default_factory=list)     # replicates recomputed serially
    recomputed: Dict[int, float] = field(default_factory=dict)


def _read_report(path: str) -> dict:
    with open(path) as fh:
        fh.readline()                       # provenance comment
        return json.load(fh)


def _child(work: str, args: List[str], env: Optional[dict] = None) -> dict:
    tag = args[5]
    # own session, so a timeout can kill the child's pool workers with it
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                            cwd=work, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        try:                        # anything left of the session, e.g. orphaned workers
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            proc.communicate()
    out = os.path.join(work, f"{tag}.json")
    if proc.returncode != 0 or not os.path.exists(out):
        return {"error": f"child exit {proc.returncode}: {err[-2000:]}"}
    with open(out) as fh:
        return json.load(fh)


def measure_once(root: str, work: str, workload: Workload, seed: int, tag: str,
                 trace: bool = False, serial: bool = False) -> Rep:
    env = dict(os.environ)
    if serial:
        env["HAZARDLAB_THREADS"] = "1"
    spawned = time.monotonic_ns()
    result = _child(work, ["measure", root, workload.name, str(seed), work, tag,
                           str(spawned), "1" if trace else "0"], env)
    result["wall_s"] = (time.monotonic_ns() - spawned) / 1e9
    reports = None
    if not result.get("error") and all(s == 0 for s in result["status"]):
        reports = [_read_report(p) for p in result["outputs"]]
    return Rep(result, reports)


def chunk_edges(replicates: int, workers: int) -> List[int]:
    """First and last replicate of each pool chunk, split as run_clt splits
    them; a serial run is one chunk."""
    if workers <= 1 or replicates < 2 * workers:
        bounds = [0, replicates]
    else:
        bounds = np.linspace(0, replicates, 4 * workers + 1).astype(int).tolist()
    return sorted({i for a, b in zip(bounds, bounds[1:]) if b > a for i in (a, b - 1)})


def recompute(root: str, work: str, workload: Workload, seed: int,
              indices: List[int]) -> Dict[int, float]:
    result = _child(work, ["verify", root, workload.name, str(seed), work, "verify",
                           *map(str, indices)])
    if result.get("error"):
        return {}
    return {int(k): v for k, v in result["recomputed"].items()}


def collect(root: str, work: str, workload: Workload, seed: int, seconds: float) -> Collected:
    col = Collected()
    start = time.monotonic()
    while True:
        rep = measure_once(root, work, workload, seed, f"rep{len(col.reps)}")
        col.reps.append(rep)
        elapsed = time.monotonic() - start
        enough = len(col.reps) >= MIN_REPS or rep.reports is None
        if enough and elapsed + rep.result["wall_s"] > seconds:
            break
    if workload.command == "simulate":
        col.subset = chunk_edges(workload.ops, _workers(col))
        col.recomputed = recompute(root, work, workload, seed, col.subset)
    return col


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def _key(values) -> tuple:
    return tuple(float(v).hex() for v in values)


def _majority(keys: List[tuple]) -> Optional[tuple]:
    top, count = collections.Counter(keys).most_common(1)[0]
    return top if count * 2 > len(keys) else None


def clt_failures(workload: Workload, col: Collected) -> List[int]:
    """Failed replicates per repetition.  A replicate fails when its run
    failed, when its value or standardized value is not finite, or when it
    differs bit for bit from its reference: the serial recomputation for the
    checked subset (first and last of each pool chunk), else the value most
    repetitions agree on (all repetitions of a run use the same seed)."""
    R = workload.ops
    runs = [r.reports[0] if r.reports else None for r in col.reps]
    failed = [0 if run else R for run in runs]
    if set(col.recomputed) != set(col.subset):
        return [R] * len(runs)                  # the serial recomputation failed
    live = [k for k, run in enumerate(runs) if run]
    for i in range(R):
        cells = {k: (runs[k]["values"][i], runs[k]["standardized_samples"][i]) for k in live}
        ref = _key([col.recomputed[i]]) if i in col.recomputed else \
            _majority([_key(c[:1]) for c in cells.values()]) if cells else None
        for k, (v, z) in cells.items():
            if not (math.isfinite(v) and math.isfinite(z)) or _key([v]) != ref:
                failed[k] += 1
    return failed


def _workers(col: Collected) -> int:
    return next((r.result["workers"] for r in col.reps if "workers" in r.result), 1)


def conditions_failures(workload: Workload, col: Collected) -> List[int]:
    """Failed (kernel, horizon) evaluations per repetition.  An evaluation
    fails when its run failed, when any of its condition values is not
    finite, or when its values differ bit for bit from those most
    repetitions agree on.  Each verdict whose kind differs from criterion 3
    counts one more failed operation."""
    nops = workload.ops
    failed = []
    cells_by_rep = []
    for rep in col.reps:
        if rep.reports is None:
            cells_by_rep.append(None)
            continue
        cells = {}
        for k, report in enumerate(rep.reports):
            conds = sorted(report["values"], key=int)
            for h in range(len(report["t_grid"])):
                cells[k, h] = [report["values"][c][h] for c in conds]
        cells_by_rep.append(cells)
    live = [c for c in cells_by_rep if c is not None]
    for rep, cells in zip(col.reps, cells_by_rep):
        if cells is None:
            failed.append(nops)
            continue
        bad = 0
        for op, vals in cells.items():
            ref = _majority([_key(c[op]) for c in live if op in c])
            if not all(math.isfinite(v) for v in vals) or _key(vals) != ref:
                bad += 1
        for report in rep.reports:
            for idx, expected in workload.expected_verdicts.items():
                got = report["verdicts"].get(str(idx), {}).get("kind")
                bad += got != expected
        failed.append(min(nops, bad))
    return failed


def failures(workload: Workload, col: Collected) -> List[int]:
    check = clt_failures if workload.command == "simulate" else conditions_failures
    return check(workload, col)


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def _git_sha(root: str) -> Optional[str]:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref[5:]:
                    return sha
    return None


def _src_sha256(root: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "hazardlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _llc_bytes() -> Optional[int]:
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def run_context(root: str, workers: Optional[int]) -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workers": workers,
        "env": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _peak_rss(rep: Rep) -> float:
    return max(rep.result["maxrss_self_mb"], rep.result["maxrss_workers_mb"])


def end_to_end(workload: Workload, col: Collected) -> Dict[str, float]:
    ok = [r for r in col.reps if "call_s" in r.result]
    if not ok:
        errors = "; ".join(str(r.result.get("error")) for r in col.reps)
        raise RuntimeError(f"no repetition got as far as the timed call: {errors}")
    return {
        "ops_per_s": statistics.median(workload.ops / r.result["call_s"] for r in ok),
        "setup_s": statistics.median(r.result["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(_peak_rss(r) for r in ok),
    }


def _outputs(workload: Workload, rep: Rep) -> dict:
    if not rep.reports:
        return {}
    if workload.command == "simulate":
        r = rep.reports[0]
        return {k: r[k] for k in ("ks_p_value", "variance_ratio", "sample_mean",
                                  "target_variance", "centering_value")}
    return {f"verdicts.{label}": {k: v["kind"] for k, v in r["verdicts"].items()}
            for (label, _), r in zip(workload.configs(0), rep.reports)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def untraced(root, work, workload, seed, seconds):
    col = collect(root, work, workload, seed, seconds)
    failed = failures(workload, col)
    metrics = end_to_end(workload, col)
    summary = {
        "reps": len(col.reps),
        "ops_per_rep": workload.ops,
        "failed_ops_ratio": sum(failed) / (workload.ops * len(col.reps)),
        "per_rep": [{k: r.result.get(k) for k in
                     ("setup_s", "call_s", "wall_s", "maxrss_self_mb",
                      "maxrss_workers_mb", "status", "error")} for r in col.reps],
        "outputs": _outputs(workload, col.reps[0]),
        "checked_replicates": col.subset,
    }
    return col, failed, metrics, summary


def traced(root, work, workload, seed):
    col = Collected()
    parallel = measure_once(root, work, workload, seed, "untraced")
    col.reps.append(parallel)
    walls = {}
    if workload.command == "simulate":
        serial = measure_once(root, work, workload, seed, "untraced-serial", serial=True)
        col.reps.append(serial)
        walls["untraced"] = serial.result.get("call_s")
    else:
        walls["untraced"] = parallel.result.get("call_s")
    tr = measure_once(root, work, workload, seed, "traced", trace=True, serial=True)
    col.reps.append(tr)
    walls["traced"] = tr.result.get("call_s")
    layers = dict(tr.result.get("layers") or {})
    replicate_ms = layers.pop("_replicate_ms_total", 0.0)
    workers = parallel.result.get("workers", 1)
    if workload.command == "simulate" and parallel.result.get("call_s"):
        # summed serial replicate time over the pool's capacity
        layers["montecarlo.run_clt.parallel_efficiency"] = \
            replicate_ms / 1e3 / (workers * parallel.result["call_s"])
    if None not in walls.values():
        layers["trace.overhead_ms"] = (walls["traced"] - walls["untraced"]) * 1e3
    # a layer the workload does not reach reports 0; so does every layer of
    # a failed traced process, whose operations count as failed below
    layers = {name: layers.get(name, 0.0) for name in PER_LAYER}
    # the processes replay the same seeded inputs, and the traced serial
    # replay is itself a serial recomputation: any value that differs
    # between them, traced or not, is a failed operation
    failed = failures(workload, col)
    summary = {
        "reps": len(col.reps),
        "walls_s": walls,
        "workers_untraced": workers,
        "failed_ops_ratio": sum(failed) / (workload.ops * len(col.reps)),
        "per_rep": [{k: r.result.get(k) for k in ("call_s", "status", "error")}
                    for r in col.reps],
        "spans_file": os.path.join(work, "traced-spans.jsonl"),
    }
    return col, failed, layers, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hazardlab", "cli.py")):
        print(f"error: {root} is not a hazardlab checkout (no src/hazardlab); "
              "run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench",
                        f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    if args.trace:
        col, failed, metrics, summary = traced(root, work, workload, args.seed)
        table = PER_LAYER
    else:
        try:
            col, failed, metrics, summary = untraced(root, work, workload, args.seed,
                                                     args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        table = END_TO_END
    attempted = workload.ops * len(col.reps)
    context = run_context(root, _workers(col))
    full = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "why": workload.why, "notes": workload.notes,
            "context": context, "summary": summary,
            "attempted": attempted, "failed": sum(failed), "metrics": metrics}
    result_path = os.path.join(work, "result.json")
    with open(result_path, "w") as fh:
        json.dump(full, fh, indent=2)

    print("context " + json.dumps(context))
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"reps={summary['reps']} failed_ops_ratio={summary['failed_ops_ratio']:.6g} "
          f"({sum(failed)}/{attempted}) outputs={json.dumps(summary.get('outputs', {}))}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {table[k][0]}")
    print(f"result file: {os.path.relpath(result_path, root)}")
    print(json.dumps({"correct": sum(failed) == 0, "attempted": attempted,
                      "failed": sum(failed),
                      "metrics": {k: {"value": v, "unit": table[k][0]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
