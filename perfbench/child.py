"""One repetition of a workload in a fresh process.

    python3 perfbench/child.py measure ROOT WORKLOAD SEED WORKDIR TAG SPAWNED_NS TRACE
    python3 perfbench/child.py verify  ROOT WORKLOAD SEED WORKDIR TAG INDEX...

`measure` imports hazardlab from ROOT/src, writes the workload's INI files,
and calls `hazardlab.cli.main` on each in this process (simulate keeps its
default worker pool unless HAZARDLAB_THREADS says otherwise).  With TRACE=1
the calls run under the span wrappers of spans.py.  `verify` recomputes the
given replicates serially with `sample_crm` and the functional.  Both write
WORKDIR/TAG.json for run.py to read.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _import_hazardlab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hazardlab
    if os.path.dirname(os.path.dirname(os.path.abspath(hazardlab.__file__))) != src:
        raise ImportError(f"hazardlab imported from {hazardlab.__file__}, not {src}")
    return hazardlab


def measure(root, name, seed, work, tag, spawned_ns, trace):
    _import_hazardlab(root)
    from hazardlab import cli, montecarlo
    from workloads import lookup
    workload = lookup(name)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    calls = []
    for label, ini in workload.configs(seed):
        path = os.path.join(work, f"{tag}-{label}.ini")
        with open(path, "w") as fh:
            fh.write(ini)
        calls.append([workload.command, "--config", path,
                      "--out", os.path.join(work, f"{tag}-{label}.json")])
    start = time.monotonic_ns()
    status, error = [], None
    for argv in calls:
        try:
            status.append(cli.main(argv))
        except Exception:                      # a failed operation, reported below
            error = traceback.format_exc()
            status.append(None)
            break
    end = time.monotonic_ns()
    result = {
        "setup_s": (start - spawned_ns) / 1e9,
        "call_s": (end - start) / 1e9,
        "status": status, "error": error,
        "outputs": [argv[-1] for argv in calls],
        "workers": montecarlo.resolve_workers(None),
        "maxrss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "maxrss_workers_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.dump(os.path.join(work, f"{tag}-spans.jsonl"))
        result["layers"] = spans.layer_metrics(tracer)
    return result


def verify(root, name, seed, work, tag, indices):
    _import_hazardlab(root)
    from hazardlab import cli, montecarlo
    from hazardlab.asymptotics import Functional
    from workloads import lookup
    (_, ini), = lookup(name).configs(seed)
    cfg = cli.parse_config(ini)
    config = montecarlo.ExperimentConfig(
        kernel=cfg.kernel, intensity=cfg.intensity, functional=cfg.functional,
        horizon=cfg.horizon, replicates=cfg.replicates, seed=cfg.seed,
        epsilon=cfg.epsilon, centering_mode=cfg.centering)
    functional = {Functional.CUMULATIVE_HAZARD: montecarlo.cumhaz,
                  Functional.PATH_SECOND_MOMENT: montecarlo.path_second_moment,
                  Functional.PATH_VARIANCE: montecarlo.path_variance}[cfg.functional]
    return {"recomputed": {str(r): functional(montecarlo.sample_crm(config, r),
                                              config.kernel, config.horizon)
                           for r in indices}}


def main(argv):
    mode, root, name, seed, work, tag = argv[:6]
    if mode == "measure":
        result = measure(root, name, int(seed), work, tag, int(argv[6]), argv[7] == "1")
    else:
        result = verify(root, name, int(seed), work, tag, [int(i) for i in argv[6:]])
    with open(os.path.join(work, f"{tag}.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
