"""Span tracing around hazardlab's public calls, from outside the package.

Each wrapper replaces the module attribute the caller looks up, records a
span (name, start, end, parent) and returns the wrapped function's result
untouched.  Spans stay in memory until `Tracer.dump`.  Nothing in the
package is edited; the benchmark installs the wrappers in its own process.
"""
from __future__ import annotations

import functools
import json
import time
from typing import Dict, List

import numpy as np


class Tracer:
    def __init__(self):
        # one row per finished span: [name, start_ns, end_ns, parent, child_ns, attrs]
        self.spans: List[list] = []
        self._stack: List[list] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return fn wrapped in a span; attrs(args, result) may add fields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0]            # [own index, child ns]
            self.spans.append(None)                 # reserve: parents precede children
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[frame[0]] = [name, start, end, parent, frame[1], None]
            if attrs is not None:
                self.spans[frame[0]][5] = attrs(args, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, child_ns, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "self_ns": end - start - child_ns,
                                     **({"attrs": attrs} if attrs else {})}) + "\n")

    # -- summaries ---------------------------------------------------------
    def select(self, name: str) -> List[list]:
        return [s for s in self.spans if s[0] == name]

    def durations_ms(self, name: str) -> np.ndarray:
        return np.array([(s[2] - s[1]) / 1e6 for s in self.select(name)], dtype=float)

    def self_ms(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.select(name)) / 1e6


_NUMERIC = ("comp_sum", "gauss_legendre_panels", "quad_breaks")


def _pairs_within(sample, tau: float) -> int:
    # atom pairs i < j with |x_i - x_j| < 2 tau: the pairs the banded
    # rectangular pair sum visits (computed from the sample, not counted
    # inside the program)
    x = np.sort(sample.locations)
    right = np.searchsorted(x, x + 2.0 * tau, side="left")
    return int(np.sum(right - np.arange(x.size) - 1))


def install(tracer: Tracer) -> None:
    """Wrap every traced call site in the imported hazardlab package."""
    from hazardlab import (_numeric, asymptotics, cli, conditions, crm, kernels,
                           montecarlo)

    # numeric helpers: the defining module (covers internal calls and the
    # imports done inside functions) and every module that imported them by
    # name at load time
    for name in _NUMERIC:
        original = getattr(_numeric, name)
        wrapped = tracer.wrap(f"numeric.{name}", original)
        for mod in (_numeric, asymptotics, cli, conditions, crm, kernels, montecarlo):
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)

    kernels.K_T = tracer.wrap("kernels.K_T", kernels.K_T)
    kernels.Q_T = tracer.wrap("kernels.Q_T", kernels.Q_T)
    crm.tail_mass = tracer.wrap("crm.tail_mass", crm.tail_mass)
    montecarlo.sample_crm = tracer.wrap(
        "crm.sample", montecarlo.sample_crm,
        attrs=lambda args, sample: {"atoms": sample.size, "replicate": args[1]})

    for functional, fn in list(montecarlo._FUNCTIONALS.items()):
        pair_sum = functional is not asymptotics.Functional.CUMULATIVE_HAZARD

        def attrs(args, _, pair_sum=pair_sum):
            sample, kernel = args[0], args[1]
            if pair_sum and isinstance(kernel, kernels.Rectangular):
                return {"pairs": _pairs_within(sample, kernel.tau)}
            return None
        montecarlo._FUNCTIONALS[functional] = tracer.wrap(
            "montecarlo.functional", fn, attrs=attrs)
    montecarlo.ks_test = tracer.wrap("montecarlo.ks_test", montecarlo.ks_test)
    conditions.contraction_norms = tracer.wrap(
        "conditions.contraction_norms", conditions.contraction_norms,
        attrs=lambda args, _: {"kernel": type(args[0]).__name__, "T": float(args[2])})
    conditions.fit_slope = tracer.wrap("conditions.fit_slope", conditions.fit_slope)
    cli.run_clt = tracer.wrap("cli.run_clt", cli.run_clt)
    cli.check_theorem = tracer.wrap("cli.check_theorem", cli.check_theorem)
    cli.main = tracer.wrap("cli.main", cli.main)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures from one traced process.  A layer the workload does
    not reach reports 0 calls and 0 time."""
    t = tracer
    sample_ms = t.durations_ms("crm.sample")
    func_ms = t.durations_ms("montecarlo.functional")
    atoms = sum(s[5]["atoms"] for s in t.select("crm.sample"))
    n = min(sample_ms.size, func_ms.size)
    # a serial replicate is one sample_crm call followed by one functional
    replicate_ms = sample_ms[:n] + func_ms[:n]
    pairs = sum((s[5] or {}).get("pairs", 0) for s in t.select("montecarlo.functional"))
    norms = t.select("conditions.contraction_norms")
    main_ms = t.durations_ms("cli.main").sum()
    wrapped_ms = t.durations_ms("cli.run_clt").sum() + t.durations_ms("cli.check_theorem").sum()
    out = {
        "crm.sample.ms_p50": _pct(sample_ms, 50),
        "crm.sample.ms_p95": _pct(sample_ms, 95),
        "crm.sample.first_ms": float(sample_ms[0]) if sample_ms.size else 0.0,
        "crm.sample.atoms": int(atoms),
        "crm.sample.atoms_per_s": atoms / (sample_ms.sum() / 1e3) if sample_ms.size else 0.0,
        "crm.tail_mass.calls": len(t.select("crm.tail_mass")),
        "crm.tail_mass.self_ms": t.self_ms("crm.tail_mass"),
        "montecarlo.functional.ms_p50": _pct(func_ms, 50),
        "montecarlo.functional.ms_p95": _pct(func_ms, 95),
        "montecarlo.replicate.ms_p50": _pct(replicate_ms, 50),
        "montecarlo.replicate.ms_p95": _pct(replicate_ms, 95),
        "montecarlo.p2m.pairs": int(pairs),
        "montecarlo.ks_test.ms": float(t.durations_ms("montecarlo.ks_test").sum()),
        "conditions.contraction_norms.ou.s": sum(
            s[2] - s[1] for s in norms if s[5]["kernel"] == "OrnsteinUhlenbeck") / 1e9,
        "conditions.contraction_norms.rect.s": sum(
            s[2] - s[1] for s in norms if s[5]["kernel"] == "Rectangular") / 1e9,
        "conditions.fit_slope.ms": float(t.durations_ms("conditions.fit_slope").sum()),
        "cli.overhead_ms": float(main_ms - wrapped_ms),
    }
    for name in ("kernels.Q_T", "kernels.K_T") + tuple(f"numeric.{n}" for n in _NUMERIC):
        out[f"{name}.calls"] = len(t.select(name))
        out[f"{name}.self_ms"] = t.self_ms(name)
    out["_replicate_ms_total"] = float(replicate_ms.sum())
    return out

