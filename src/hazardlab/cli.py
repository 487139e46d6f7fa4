"""Command-line entry point.

Subcommands:

* ``regimes``          dump the regime catalog (CSV or JSON)
* ``check-conditions`` numeric verification of a theorem's hypotheses
* ``simulate``         Monte Carlo CLT run
* ``sample-paths``     one seeded hazard path on a time grid (plot-ready CSV)

Configuration files are INI-style: ``key = value`` lines grouped under
bracketed section headers ``[experiment]``, ``[kernel]``, ``[crm]``,
``[output]``.  Unknown keys are rejected with their line number.  Exit
codes: 0 success, 1 operational error, 2 a statistical verdict failed
(a KS p-value below threshold or an ``expect_condition_*`` mismatch).
"""
from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built
import locale  # noqa: F401
import math
import sys
from dataclasses import dataclass, field as dc_field, fields as dc_fields, replace
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from . import __version__, crm, kernels
from ._numeric import check_rules
from .asymptotics import Functional, NotCatalogedError, Power, catalog_rows, regime
from .conditions import CONDITION_COUNTS, THEOREM_NAMES, check_t_grid, check_theorem
from .montecarlo import (CENTERING_CATALOG, CENTERING_QUADRATURE,
                         ExperimentConfig, hazard_path, run_clt, sample_crm)

__all__ = ["RunConfig", "ConfigError", "parse_config", "render_config", "run", "main"]

# subcommand (and experiment.kind) -> help text
_KINDS = {"regimes": "dump the regime catalog (CSV or JSON)",
          "check-conditions": "numeric verification of a theorem's hypotheses",
          "simulate": "Monte Carlo CLT run",
          "sample-paths": "one seeded hazard path on a time grid (plot-ready CSV)"}
_DEFAULT_T_GRID = (50.0, 100.0, 200.0, 400.0, 800.0)


class ConfigError(ValueError):
    """Configuration parse/validation failure, with line context."""


@dataclass
class RunConfig:
    """One run's settings, checked whenever one is built (in code, by parse_config or
    by main's flags): the kind, each number, the sections the kind needs and t_grid."""
    kind: str
    kernel: Optional[kernels.Kernel] = None
    intensity: Optional[crm.JumpIntensity] = None
    functional: Functional = Functional.CUMULATIVE_HAZARD
    theorem: Functional = Functional.PATH_SECOND_MOMENT
    rate: Optional[object] = None            # None: take the catalog rate
    horizon: float = 500.0
    replicates: int = 2000
    seed: int = 0
    epsilon: float = 1e-6
    t_grid: Tuple[float, ...] = _DEFAULT_T_GRID
    centering: str = CENTERING_QUADRATURE
    ks_alpha: float = 0.01
    expects: Dict[int, str] = dc_field(default_factory=dict)
    grid_n: int = 2000
    out_path: Optional[str] = None
    out_format: str = "json"
    # each number's range, {field: (test, text)}, read by check_rules and the INI
    # parser: ExperimentConfig's four, simulate's KS level and the sample-paths grid
    RULES: ClassVar[dict] = {**ExperimentConfig.RULES,
                             "ks_alpha": (lambda x: 0 < x < 1, "ks_alpha in (0,1)"),
                             "grid_n": (lambda n: n >= 2, "grid_n >= 2")}

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}")
        check_rules(self)
        check_t_grid(self.t_grid)
        for section, part in (("kernel", self.kernel), ("crm", self.intensity)):
            if part is None and self.kind != "regimes":
                raise ConfigError(f"{self.kind} requires a [{section}] section")
        if self.kind == "regimes" and (self.kernel is None) != (self.intensity is None):
            raise ConfigError("regimes takes a [kernel] and a [crm] section together, or neither")
        if self.kind == "sample-paths":    # the one format it writes
            self.out_format = "csv"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SECTIONS = ("experiment", "kernel", "crm", "output")


def _tokenize(text: str):
    """Yield (lineno, section, key, value) for every assignment line."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        yield lineno, section, key.strip().lower(), value.strip()


def _as_number(value, lineno, key, rule=None, kind=float):
    """value as a kind, finite, and passing rule = (test, text) if given; a
    lineno of None reports key alone (a command-line flag)."""
    where = key if lineno is None else f"line {lineno}: {key}"
    try:
        x = kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    if kind is float and not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if rule is not None and not rule[0](x):
        raise ConfigError(f"{where}={value} violates {rule[1]}")
    return x


# kernel.type, crm.family and crm.fn -> class; each field of a class is
# the INI key of the same name
_KERNEL_TYPES = {"rectangular": kernels.Rectangular, "dykstra_laud": kernels.DykstraLaud,
                 "ornstein_uhlenbeck": kernels.OrnsteinUhlenbeck, "u_shaped": kernels.UShaped}
_FAMILIES = {"generalized_gamma": crm.GeneralizedGamma, "extended_gamma": crm.ExtendedGamma,
             "beta": crm.Beta}
_PROFILES = {"constant": crm.Constant, "affine_sqrt": crm.AffineSqrt,
             "indicator_sqrt": crm.IndicatorSqrt}
# a key naming a table (default type or None) builds its argument from that
# table; every other key is a number, checked by its class's RULES
_TABLES = {"type": (_KERNEL_TYPES, None), "family": (_FAMILIES, None),
           "fn": (_PROFILES, "constant")}


def _build(fields: dict, section: str, tkey: str, lineno: Optional[int] = None):
    """Pop fields[tkey] and its type's parameters from fields and build the
    object; lineno is where a missing key is reported."""
    table, default = _TABLES[tkey]
    if tkey in fields:
        name, lineno = fields.pop(tkey)
    elif default is None:
        raise ConfigError(f"missing required key {section}.{tkey}")
    else:
        name = default
    if name not in table:
        raise ConfigError(f"line {lineno}: unknown {section}.{tkey} {name!r} "
                          f"(one of {', '.join(table)})")
    cls, args = table[name], {}
    for key in (f.name for f in dc_fields(cls)):
        if key in _TABLES:
            args[key] = _build(fields, section, key, lineno)
        elif key not in fields:
            raise ConfigError(f"line {lineno}: missing required key {section}.{key}")
        else:
            value, at = fields.pop(key)
            args[key] = _as_number(value, at, f"{section}.{key}", cls.RULES.get(key))
    try:
        return cls(**args)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}")


def _build_section(fields: dict, section: str, tkey: str):
    built = _build(fields, section, tkey)
    if fields:
        key, (_, lineno) = next(iter(fields.items()))
        raise ConfigError(f"line {lineno}: {section}.{key} is not used by {built.label()}")
    return built


def _g(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_rate(value: str, lineno: int, key: str):
    # forms: auto | power:<p> | powerlog:<p>,<q>
    if value == "auto":
        return None
    if value.startswith("power:"):
        return Power(_as_number(value[6:], lineno, key))
    if value.startswith("powerlog:"):
        parts = value[9:].split(",")
        if len(parts) != 2:
            raise ConfigError(f"line {lineno}: powerlog rate needs p,q")
        return Power(_as_number(parts[0], lineno, key), _as_number(parts[1], lineno, key))
    raise ConfigError(f"line {lineno}: rate must be auto, power:<p> or powerlog:<p>,<q>")


def _render_rate(rate) -> str:
    return f"powerlog:{_g(rate.p)},{_g(rate.q)}" if rate.q else f"power:{_g(rate.p)}"


def _parse_t_grid(value: str, lineno: int, key: str):
    try:
        grid = [float(p) for p in value.split(",")]
    except ValueError:
        raise ConfigError(f"line {lineno}: t_grid must be comma-separated numbers")
    try:
        return check_t_grid(grid)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}")


def _choice(names: dict, message: str):
    """Parser for a value that names one entry of `names`; message is the
    error text, formatted with the value."""
    def parse(value, lineno, key):
        if value not in names:
            raise ConfigError(f"line {lineno}: " + message.format(value=value))
        return names[value]
    return parse


_FORMATS = ("csv", "json")

# [experiment] and [output] key with a syntax of its own -> (RunConfig
# field, parse(value, lineno, "section.key") carrying the key's rule,
# render(field value)).  Every other [experiment] key is a number of
# RunConfig.RULES, parsed by its rule as the type of its default.
_FIELDS = {
    "experiment": {
        "functional": ("functional", _choice({f.value: f for f in Functional},
                                             "unknown functional {value!r}"),
                       lambda f: f.value),
        "theorem": ("theorem", _choice({name: f for f, name in THEOREM_NAMES.items()},
                                       f"theorem must be one of {tuple(THEOREM_NAMES.values())}"),
                    THEOREM_NAMES.get),
        "rate": ("rate", _parse_rate, _render_rate),
        "t_grid": ("t_grid", _parse_t_grid, lambda grid: ",".join(map(_g, grid))),
        "centering": ("centering", _choice({c: c for c in (CENTERING_CATALOG,
                                                           CENTERING_QUADRATURE)},
                                           "centering must be catalog or quadrature"), str),
    },
    "output": {
        # an empty path means the subcommand's default file name
        "path": ("out_path", lambda value, lineno, key: value or None, str),
        "format": ("out_format", _choice({f: f for f in _FORMATS},
                                         "format must be json or csv"), str),
    },
}
# section -> its keys, besides experiment.expect_condition_<i>
_ALLOWED = {"experiment": {"kind", *_FIELDS["experiment"], *RunConfig.RULES},
            "output": set(_FIELDS["output"]),
            "kernel": {"type", *(f.name for cls in _KERNEL_TYPES.values()
                                 for f in dc_fields(cls))},
            "crm": {"family", *(f.name for cls in [*_FAMILIES.values(), *_PROFILES.values()]
                                for f in dc_fields(cls))}}


def _parse_fields(section: str, fields: dict) -> dict:
    """RunConfig field -> value of a section's keys, parsed in document
    order."""
    values = {}
    for key, (value, lineno) in fields.items():
        if key in RunConfig.RULES:
            values[key] = _as_number(value, lineno, f"{section}.{key}", RunConfig.RULES[key],
                                     type(getattr(RunConfig, key)))
        else:
            name, parse, _ = _FIELDS[section][key]
            values[name] = parse(value, lineno, f"{section}.{key}")
    return values


def _render_fields(cfg: RunConfig, section: str) -> list:
    """A section's `key = value` lines in RunConfig's field order, None left out."""
    rows = {name: (key, render) for key, (name, _, render) in _FIELDS[section].items()}
    rows.update((key, (key, _g)) for key in cfg.RULES if section == "experiment")
    return [f"{rows[f.name][0]} = {rows[f.name][1](value)}" for f in dc_fields(cfg)
            if f.name in rows and (value := getattr(cfg, f.name)) is not None]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    sections: Dict[str, Dict[str, tuple]] = {s: {} for s in _SECTIONS}
    for lineno, section, key, value in _tokenize(text):
        if key not in _ALLOWED[section] and not (section == "experiment"
                                                 and key.startswith("expect_condition_")):
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if key in sections[section]:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        sections[section][key] = (value, lineno)

    exp = sections["experiment"]
    if "kind" not in exp:
        raise ConfigError("missing required key experiment.kind")
    kind, lineno = exp.pop("kind")
    if kind not in _KINDS:
        raise ConfigError(f"line {lineno}: experiment.kind must be one of {', '.join(_KINDS)}")

    expects = {key: exp.pop(key) for key in list(exp) if key.startswith("expect_condition_")}
    values = _parse_fields("experiment", exp)
    theorem, values["expects"] = values.get("theorem", RunConfig.theorem), {}
    for key, (value, lineno) in expects.items():
        if kind != "check-conditions":
            raise ConfigError(f"line {lineno}: {key}: only check-conditions reads "
                              f"condition expectations, not {kind}")
        try:
            idx = int(key.rsplit("_", 1)[1])
        except ValueError:
            raise ConfigError(f"line {lineno}: bad condition index in {key}")
        count = CONDITION_COUNTS[theorem]
        if not 1 <= idx <= count:
            raise ConfigError(f"line {lineno}: {key}: theorem {THEOREM_NAMES[theorem]} "
                              f"has conditions 1-{count}")
        if value not in ("converges_to_positive", "vanishes", "diverges"):
            raise ConfigError(
                f"line {lineno}: {key} must be converges_to_positive, vanishes or diverges")
        values["expects"][idx] = value

    if sections["kernel"]:
        values["kernel"] = _build_section(dict(sections["kernel"]), "kernel", "type")
    if sections["crm"]:
        values["intensity"] = _build_section(dict(sections["crm"]), "crm", "family")
    values.update(_parse_fields("output", sections["output"]))
    cfg = RunConfig(kind=kind, **values)
    # RunConfig writes a sample-paths run as csv whatever it is given
    if kind == "sample-paths" and values.get("out_format", "csv") != "csv":
        raise ConfigError(f"line {sections['output']['format'][1]}: sample-paths writes "
                          f"csv, not output.format = {values['out_format']}")
    return cfg


def _render(obj, tkey: str) -> list:
    table, _ = _TABLES[tkey]
    lines = [f"{tkey} = {next(name for name, cls in table.items() if type(obj) is cls)}"]
    for key in (f.name for f in dc_fields(obj)):
        value = getattr(obj, key)
        lines += _render(value, key) if key in _TABLES else [f"{key} = {value:.17g}"]
    return lines


def render_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig; parse_config(render_config(c)) == c."""
    lines = ["[experiment]", f"kind = {cfg.kind}", *_render_fields(cfg, "experiment")]
    lines += [f"expect_condition_{idx} = {cfg.expects[idx]}" for idx in sorted(cfg.expects)]
    if cfg.kernel is not None:
        lines += ["", "[kernel]", *_render(cfg.kernel, "type")]
    if cfg.intensity is not None:
        lines += ["", "[crm]", *_render(cfg.intensity, "family")]
    lines += ["", "[output]", *_render_fields(cfg, "output")]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _provenance(cfg: RunConfig) -> str:
    echo = " ; ".join(line for line in render_config(cfg).splitlines() if line)
    return f"# hazardlab {__version__} | seed={cfg.seed} | config: {echo}\n"


def _write(cfg: RunConfig, body: str, default_name: str) -> str:
    path = cfg.out_path or default_name
    with open(path, "w") as fh:
        fh.write(_provenance(cfg))
        fh.write(body)
    return path


def _auto_rate(cfg: RunConfig):
    if cfg.rate is not None:
        return cfg.rate
    if cfg.theorem is not Functional.CUMULATIVE_HAZARD:
        return Power(0.5)   # C1 = sqrt(T), the quadratic-functional convention
    try:
        return regime(cfg.kernel, cfg.intensity, Functional.CUMULATIVE_HAZARD).rate
    except NotCatalogedError as exc:
        raise ConfigError(
            f"rate = auto: the catalog has no cumulative-hazard rate for "
            f"({cfg.kernel.label()}, {cfg.intensity.label()}): {exc.reason}; "
            "set rate = power:<p> or powerlog:<p>,<q>") from None


def run(cfg: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    try:
        if cfg.kind == "regimes":
            rows = catalog_rows(None if cfg.kernel is None else [(cfg.kernel, cfg.intensity)])
            if cfg.out_format == "csv":
                cols = ["kernel", "crm", "functional", "rate", "trend",
                        "variance", "delta", "supported"]
                body = ",".join(cols) + "\n" + "\n".join(
                    ",".join(str(r[c]) for c in cols) for r in rows) + "\n"
            else:
                body = json.dumps(rows, indent=2) + "\n"
            path = _write(cfg, body, f"regimes.{cfg.out_format}")
            print(f"wrote {path} ({len(rows)} rows)")
            return 0

        if cfg.kind == "check-conditions":
            report = check_theorem(cfg.kernel, cfg.intensity, cfg.theorem,
                                   _auto_rate(cfg), cfg.t_grid)
            body = report.to_csv_text() if cfg.out_format == "csv" else report.to_json() + "\n"
            path = _write(cfg, body, f"conditions_{THEOREM_NAMES[cfg.theorem]}.{cfg.out_format}")
            status = 0
            for idx, expected in sorted(cfg.expects.items()):
                got = report.verdicts.get(idx)
                ok = got is not None and got.kind == expected
                print(f"condition {idx}: expected {expected}, got "
                      f"{got.kind if got else 'absent'}{'' if ok else '  <-- MISMATCH'}")
                if not ok:
                    status = 2
            print(f"wrote {path}")
            return status

        # sample-paths draws the path that the path functionals integrate
        config = ExperimentConfig(
            kernel=cfg.kernel, intensity=cfg.intensity,
            functional=cfg.functional if cfg.kind == "simulate" else Functional.PATH_VARIANCE,
            horizon=cfg.horizon, replicates=cfg.replicates, seed=cfg.seed,
            epsilon=cfg.epsilon, centering_mode=cfg.centering)
        if cfg.kind == "simulate":
            report = run_clt(config)
            body = report.samples_csv_text() if cfg.out_format == "csv" else report.to_json() + "\n"
            path = _write(cfg, body, f"simulate.{cfg.out_format}")
            print(f"wrote {path}: ks_p={report.ks_p_value:.4g} "
                  f"variance_ratio={report.variance_ratio:.4g}")
            return 0 if report.ks_p_value >= cfg.ks_alpha else 2

        sample = sample_crm(config, 0)
        ts = np.linspace(0.0, cfg.horizon, cfg.grid_n)
        hs = hazard_path(sample, cfg.kernel, ts)
        body = "t,hazard\n" + "\n".join(
            f"{t:.17g},{h:.17g}" for t, h in zip(ts, hs)) + "\n"
        path = _write(cfg, body, "paths.csv")
        print(f"wrote {path} ({sample.size} atoms)")
        return 0
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hazardlab",
        description="simulation and asymptotic verification of CRM-driven random hazard rates")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, help_text in _KINDS.items():
        p = sub.add_parser(kind, help=help_text)
        p.add_argument("--config", required=kind != "regimes", default=None)
        p.add_argument("--out", default=None)
        if kind == "sample-paths":
            p.add_argument("--grid", type=int, default=None)
        else:
            p.add_argument("--format", choices=_FORMATS, default=None)

    args = parser.parse_args(argv)
    try:
        # only regimes runs without --config, on the default catalog
        if args.config is None:
            cfg = RunConfig(kind="regimes", out_format="csv")
        else:
            cfg = _load(args.config)
        if cfg.kind != args.command:
            raise ConfigError(f"config kind={cfg.kind!r} does not match "
                              f"subcommand {args.command!r}")
        flags = {} if args.out is None else {"out_path": args.out or None}
        if getattr(args, "format", None):
            flags["out_format"] = args.format
        if getattr(args, "grid", None) is not None:
            flags["grid_n"] = _as_number(args.grid, None, "--grid", RunConfig.RULES["grid_n"], int)
        cfg = replace(cfg, **flags)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
