"""Alternating benchmark pairs of two commits, written as one BENCH file.

    python3 tools/bench_pairs.py --parent REV --change REV --pairs N
        [--first-seed K]

Run from the root of the repository.  Each revision is exported with
`git archive` into its own directory under a temporary directory, removed
at the end.  Then, for pair i = 0..N-1 and each workload of
BENCHMARK.json, `python3 perfbench/run.py --workload W --seed K+i
--seconds S --trace 0` runs once in each export, S being BENCHMARK.json's
run_seconds, with the side that runs first alternating from pair to pair,
so that a drift of the host's speed falls on both sides alike.  Each side runs its own committed perfbench/;
nothing under perfbench/ is changed or imported.

The output, BENCH_<short sha of --change>.json, holds, per
workload and side, the seeds, each run's end-to-end metrics, their
medians and interquartile ranges, whether every run was correct and the
operations that failed; per workload and metric, the pairs the change
won and the ratio of the medians; and once, the machine context that
perfbench/run.py reports, with the CPU model and the load average before
and after.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line and context, or why it has none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=max(600.0, 10 * seconds))
    except subprocess.TimeoutExpired:
        return {"seed": seed, "correct": False, "error": "timed out"}
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"seed": seed, "correct": False,
                "error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    context = next((json.loads(line[len("context "):]) for line in lines
                    if line.startswith("context ")), {})
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "context": context}


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarize(runs: dict, metrics: list) -> dict:
    """Per side: the runs, and each metric's median and IQR over the runs
    that have it; per metric: the pairs the change won, and the ratio of
    the change's median to the parent's."""
    out = {}
    for side in SIDES:
        rs = runs[side]
        side_out = {"seeds": [r["seed"] for r in rs],
                    "correct": all(r["correct"] for r in rs),
                    "failed": sum(r.get("failed", 0) for r in rs),
                    "runs": [{k: v for k, v in r.items() if k != "context"} for r in rs],
                    "median": {}, "iqr": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in rs if "metrics" in r]
            if len(values) >= 2:
                side_out["median"][m["name"]], side_out["iqr"][m["name"]] = _quartiles(values)
        out[side] = side_out
    compared = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if "metrics" in p and "metrics" in c]
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        parent_median = out["parent"]["median"].get(name)
        change_median = out["change"]["median"].get(name)
        compared[name] = {
            "better": m["better"], "bound": m.get("bound"),
            "change_won": f"{wins} of {len(pairs)}",
            "median_ratio": (change_median / parent_median
                             if parent_median and change_median is not None else None)}
    out["compared"] = compared
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the change side")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    shas = {side: _git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = float(bench["run_seconds"])
    out_path = f"BENCH_{_git('rev-parse', '--short=7', shas['change'])}.json"

    base = tempfile.mkdtemp(prefix="bench-pairs-")
    trees = {side: os.path.join(base, side) for side in SIDES}
    try:
        for side in SIDES:
            _export(shas[side], trees[side])
        load_before, started = os.getloadavg(), time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        contexts = {}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    run = _run(trees[side], w, seed, seconds)
                    runs[w][side].append(run)
                    contexts.setdefault(side, run.get("context"))
                    ops = run.get("metrics", {}).get("ops_per_s")
                    print(f"pair {i} {w} {side}: seed {seed} correct={run['correct']} "
                          f"ops_per_s={ops}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    context = dict(next((c for c in contexts.values() if c), {}))
    for key in ("git_sha", "src_sha256", "workers"):
        context.pop(key, None)
    report = {
        "parent": {"git_sha": shas["parent"],
                   "src_sha256": (contexts.get("parent") or {}).get("src_sha256")},
        "change": {"git_sha": shas["change"],
                   "src_sha256": (contexts.get("change") or {}).get("src_sha256")},
        "pairs": args.pairs, "seconds": seconds, "first_seed": args.first_seed,
        "order": "parent first in even pairs, change first in odd pairs",
        "machine": {**context, "cpu_model": _cpu_model(),
                    "loadavg_before": list(load_before), "loadavg_after": list(os.getloadavg()),
                    "started": started,
                    "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "workloads": {w: summarize(runs[w], bench["end_to_end"]) for w in workloads},
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for w in workloads:
        for name, c in report["workloads"][w]["compared"].items():
            print(f"{w} {name}: change won {c['change_won']}, median ratio {c['median_ratio']}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
