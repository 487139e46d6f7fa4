import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hazardlab import _numeric, cli, crm, kernels, montecarlo
from hazardlab.asymptotics import Functional, Power
from hazardlab.montecarlo import ExperimentConfig

MINIMAL = """
[experiment]
kind = regimes
"""

SIMULATE = """
[experiment]
kind = simulate
functional = cumulative_hazard
horizon = 40
replicates = 100
seed = 3
centering = quadrature

[kernel]
type = ornstein_uhlenbeck
kappa = 1.0

[crm]
family = extended_gamma
fn = constant
value = 1.0

[output]
format = json
"""


def test_minimal_document_gets_defaults():
    cfg = cli.parse_config(MINIMAL)
    assert cfg.kind == "regimes"
    assert cfg.epsilon == 1e-6
    assert cfg.t_grid == (50.0, 100.0, 200.0, 400.0, 800.0)
    assert cfg.replicates == 2000
    assert cfg.out_format == "json"


def test_unknown_key_reports_line_number():
    text = "[experiment]\nkind = regimes\nbogus_key = 3\n"
    with pytest.raises(cli.ConfigError, match=r"line 3: unknown key experiment.bogus_key"):
        cli.parse_config(text)
    with pytest.raises(cli.ConfigError, match=r"line 1: unknown section"):
        cli.parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(cli.ConfigError, match=r"line 2: expected key = value"):
        cli.parse_config("[experiment]\nnot an assignment\n")


def test_missing_required_kernel_parameter():
    text = SIMULATE.replace("kappa = 1.0\n", "")
    with pytest.raises(cli.ConfigError, match="kernel.kappa"):
        cli.parse_config(text)
    text = "[experiment]\nkind = simulate\n\n[kernel]\ntype = rectangular\n\n[crm]\nfamily = beta\nvalue = 1\n"
    with pytest.raises(cli.ConfigError, match="kernel.tau"):
        cli.parse_config(text)


def test_constraint_violations_cite_the_rule():
    text = SIMULATE.replace("family = extended_gamma\nfn = constant\nvalue = 1.0",
                            "family = generalized_gamma\nsigma = 1.5\ngamma = 1.0")
    with pytest.raises(cli.ConfigError, match=r"sigma in \(0,1\)"):
        cli.parse_config(text)
    with pytest.raises(cli.ConfigError, match="replicates >= 100"):
        cli.parse_config(MINIMAL + "replicates = 10\n")


def test_round_trip_identity():
    cfg = cli.parse_config(SIMULATE)
    again = cli.parse_config(cli.render_config(cfg))
    assert again == cfg
    cfg2 = cli.parse_config(MINIMAL)
    assert cli.parse_config(cli.render_config(cfg2)) == cfg2
    # with a rate and expectations, which only check-conditions reads
    text = MINIMAL.replace("regimes", "check-conditions") + (
        "rate = powerlog:-1,-0.5\nexpect_condition_5 = diverges\nt_grid = 10,20,40,80\n"
        "[kernel]\ntype = dykstra_laud\n"
        "[crm]\nfamily = generalized_gamma\nsigma = 0.5\ngamma = 1.0\n")
    cfg3 = cli.parse_config(text)
    assert cfg3.rate == Power(-1.0, -0.5)
    assert cli.parse_config(cli.render_config(cfg3)) == cfg3


def test_kernel_and_crm_builders():
    cfg = cli.parse_config(SIMULATE)
    assert cfg.kernel == kernels.OrnsteinUhlenbeck(1.0)
    assert cfg.intensity == crm.ExtendedGamma(crm.Constant(1.0))
    text = SIMULATE.replace("type = ornstein_uhlenbeck\nkappa = 1.0",
                            "type = u_shaped\nbeta = 2.0") \
                   .replace("family = extended_gamma\nfn = constant\nvalue = 1.0",
                            "family = beta\nfn = indicator_sqrt\nb = 1.0")
    cfg = cli.parse_config(text)
    assert cfg.kernel == kernels.UShaped(2.0)
    assert cfg.intensity == crm.Beta(crm.IndicatorSqrt(1.0))


def test_regimes_command(tmp_path, capsys):
    out = tmp_path / "regimes.csv"
    rc = cli.main(["regimes", "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# hazardlab ")       # provenance comment
    assert lines[1] == "kernel,crm,functional,rate,trend,variance,delta,supported"
    assert len(lines) > 40



_LONE = "regimes takes a [kernel] and a [crm] section together, or neither"


@pytest.mark.parametrize("section", ["[kernel]\ntype = rectangular\ntau = 2\n",
                                     "[crm]\nfamily = beta\nvalue = 1\n"],
                         ids=["kernel", "crm"])
def test_regimes_refuses_a_lone_kernel_or_crm_section(tmp_path, capsys, section):
    # one section alone would otherwise give way to the whole default catalog
    text = MINIMAL + "\n" + section
    with pytest.raises(cli.ConfigError, match=r"^regimes takes a \[kernel\] and a \[crm\] "
                                              r"section together, or neither$"):
        cli.parse_config(text)
    cfg_path = tmp_path / "lone.ini"
    cfg_path.write_text(text)
    out = tmp_path / "regimes.json"
    assert cli.main(["regimes", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {_LONE}"]
    assert not out.exists()


def test_regimes_with_both_sections_writes_the_pair_rows(tmp_path):
    cfg_path = tmp_path / "pair.ini"
    cfg_path.write_text(MINIMAL + "\n[kernel]\ntype = rectangular\ntau = 2\n"
                        "\n[crm]\nfamily = beta\nvalue = 1\n")
    out = tmp_path / "regimes.json"
    assert cli.main(["regimes", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = json.loads("\n".join(out.read_text().splitlines()[1:]))
    assert [(r["kernel"], r["crm"]) for r in rows] == [("rectangular(tau=2)",
                                                        "beta(constant(1))")] * 3


_OU_SQRT = """
[experiment]
kind = check-conditions
theorem = {theorem}
t_grid = 12.5,25,50,100

[kernel]
type = ornstein_uhlenbeck
kappa = 1.0

[crm]
family = extended_gamma
fn = affine_sqrt
a = 1.0
b = 1.0
"""
_OU_SQRT_PAIR = "ornstein_uhlenbeck(kappa=1), extended_gamma(affine_sqrt(1,1))"
_OU_SQRT_REASON = ("non-homogeneous intensity: the cumulative-hazard worked cases are the "
                   "sqrt-growth profiles with the Dykstra-Laud and rectangular kernels")


@pytest.mark.parametrize("theorem, line", [
    ("cumhaz", f"error: rate = auto: the catalog has no cumulative-hazard rate for "
               f"({_OU_SQRT_PAIR}): {_OU_SQRT_REASON}; "
               "set rate = power:<p> or powerlog:<p>,<q>"),
    ("pathvar", f"error: the path-variance conditions take C0 from the catalog's "
                f"cumulative-hazard rate, and ({_OU_SQRT_PAIR}) has none: {_OU_SQRT_REASON}"),
])
def test_check_conditions_refusals_give_the_catalog_reason(tmp_path, capsys, theorem, line):
    # a pair without a cumulative-hazard regime: the cumhaz rate must be
    # given, and the path-variance C0 has no source; neither line points the
    # user at check-conditions, the command that refused
    cfg_path = tmp_path / "ou_sqrt.ini"
    cfg_path.write_text(_OU_SQRT.format(theorem=theorem))
    out = tmp_path / "out.json"
    assert cli.main(["check-conditions", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()

def test_simulate_deterministic_files(tmp_path):
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(SIMULATE)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    body1 = out1.read_text().splitlines()[1:]        # drop the path-bearing header
    body2 = out2.read_text().splitlines()[1:]
    assert body1 == body2
    blob = json.loads("\n".join(body1))
    assert 0.0 <= blob["ks_p_value"] <= 1.0
    assert len(blob["standardized_samples"]) == 100


def test_check_conditions_expectations_drive_exit_code(tmp_path):
    base = """
[experiment]
kind = check-conditions
theorem = path2nd
rate = power:-1
t_grid = 30,60,120,240
{expect}

[kernel]
type = dykstra_laud

[crm]
family = generalized_gamma
sigma = 0.5
gamma = 1.0

[output]
format = json
"""
    good = tmp_path / "good.ini"
    good.write_text(base.format(expect="expect_condition_5 = diverges"))
    out = tmp_path / "cond.json"
    assert cli.main(["check-conditions", "--config", str(good), "--out", str(out)]) == 0
    bad = tmp_path / "bad.ini"
    bad.write_text(base.format(expect="expect_condition_5 = vanishes"))
    assert cli.main(["check-conditions", "--config", str(bad), "--out", str(out)]) == 2


def test_oversized_condition_grid_is_one_line_error(tmp_path, capsys):
    # 640k nodes: twice the condition grid's node cap, refused before the
    # grid is built
    cfg_path = tmp_path / "big.ini"
    cfg_path.write_text("""
[experiment]
kind = check-conditions
theorem = path2nd
rate = power:0.5
t_grid = 2000,2200,2400,2600

[kernel]
type = rectangular
tau = 0.05

[crm]
family = generalized_gamma
sigma = 0.5
gamma = 1.0
""")
    out = tmp_path / "big.json"
    assert cli.main(["check-conditions", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0] == "error: the condition grid at T=2000 needs 640016 nodes, above the cap of 300000"
    assert not out.exists()


# SIMULATE as a sample-paths config with no output format
PATHS = SIMULATE.replace("kind = simulate", "kind = sample-paths").replace("format = json\n", "")


def test_sample_paths_csv(tmp_path):
    # the provenance line echoes the CSV that sample-paths writes
    cfg_path = tmp_path / "paths.ini"
    cfg_path.write_text(PATHS)
    out = tmp_path / "paths.csv"
    assert cli.main(["sample-paths", "--config", str(cfg_path), "--grid", "257",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == "t,hazard"
    assert lines[0].endswith(" ; format = csv")
    assert len(lines) == 2 + 257
    assert cli.parse_config(PATHS + "format = csv\n").out_format == "csv"


def test_sample_paths_refuses_a_json_format(tmp_path, capsys):
    text = PATHS + "format = json\n"
    lineno = len(text.splitlines())
    with pytest.raises(cli.ConfigError, match=rf"^line {lineno}: sample-paths writes csv, "
                                              rf"not output\.format = json$"):
        cli.parse_config(text)
    cfg_path = tmp_path / "paths.ini"
    cfg_path.write_text(text)
    out = tmp_path / "paths.csv"
    assert cli.main(["sample-paths", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: line {lineno}: sample-paths writes csv, "
                                         f"not output.format = json"]
    assert captured.out == "" and not out.exists()


def test_sample_paths_config_built_in_code_echoes_csv(tmp_path, monkeypatch):
    # the format is decided by RunConfig itself, not by parse_config
    monkeypatch.chdir(tmp_path)
    cfg = cli.RunConfig(kind="sample-paths", kernel=kernels.OrnsteinUhlenbeck(1.0),
                        intensity=crm.GeneralizedGamma(0.5, 1.0), horizon=5.0, epsilon=1e-3,
                        grid_n=3, out_path="lib.csv")
    assert cli.run(cfg) == 0
    lines = (tmp_path / "lib.csv").read_text().splitlines()
    assert lines[0].endswith(" ; format = csv") and lines[1] == "t,hazard"
    assert len(lines) == 2 + 3


def test_rectangular_gg_paths_draw_the_full_series(tmp_path):
    # only the cumulative hazard draws the bulk whole: sample-paths (whose
    # config's functional defaults to the cumulative hazard) and the
    # path-functional replicates evaluate the full series, bit for bit the
    # bulk-free crm.sample draw of each replicate's stream
    gg, kern = crm.GeneralizedGamma(0.5, 1.0), kernels.Rectangular(1.0)
    cfg_path = tmp_path / "paths.ini"
    cfg_path.write_text("[experiment]\nkind = sample-paths\nhorizon = 20\nseed = 1\n\n"
                        "[kernel]\ntype = rectangular\ntau = 1.0\n\n[crm]\n"
                        "family = generalized_gamma\nsigma = 0.5\ngamma = 1.0\n")
    out = tmp_path / "paths.csv"
    assert cli.main(["sample-paths", "--config", str(cfg_path), "--grid", "50",
                     "--out", str(out)]) == 0
    window = kernels.location_window(kern, 20.0)
    series = crm.sample(crm.plan(gg, window, 1e-6), _stream(1, 0))
    ts = np.linspace(0.0, 20.0, 50)
    body = "t,hazard\n" + "\n".join(f"{t:.17g},{h:.17g}" for t, h in
                                     zip(ts, montecarlo.hazard_path(series, kern, ts))) + "\n"
    assert out.read_text().split("\n", 1)[1] == body
    for functional, f in ((Functional.PATH_SECOND_MOMENT, montecarlo.path_second_moment),
                          (Functional.PATH_VARIANCE, montecarlo.path_variance)):
        config = ExperimentConfig(kern, gg, functional, 30.0, replicates=100, seed=11,
                                  epsilon=1e-3)
        window = kernels.location_window(kern, 30.0)
        assert montecarlo.run_clt(config, workers=1).values == [
            f(crm.sample(crm.plan(gg, window, 1e-3), _stream(11, r)), kern, 30.0)
            for r in range(100)]


def _stream(seed, replicate):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


def test_subcommand_config_kind_mismatch(tmp_path):
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(SIMULATE)
    assert cli.main(["check-conditions", "--config", str(cfg_path)]) == 1


def test_operational_error_exit_code(tmp_path):
    missing = tmp_path / "nope.ini"
    assert cli.main(["simulate", "--config", str(missing)]) == 1


@pytest.mark.parametrize("kind", ["simulate", "check-conditions", "sample-paths", "regimes"])
def test_empty_config_path_is_one_line_error(tmp_path, capsys, kind):
    # a given --config is always read, even when empty: no subcommand runs
    # on the default config in its place
    out = tmp_path / "out.txt"
    assert cli.main([kind, "--config", "", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: [Errno 2] No such file or directory: ''"]
    assert captured.out == ""
    assert not out.exists()


def test_rate_auto_takes_the_catalog_rate(tmp_path):
    text = ("[experiment]\nkind = check-conditions\ntheorem = cumhaz\nrate = auto\n"
            "t_grid = 10,20,40,80\n[kernel]\ntype = dykstra_laud\n"
            "[crm]\nfamily = generalized_gamma\nsigma = 0.5\ngamma = 1.0\n")
    cfg = cli.parse_config(text)
    assert cfg.rate is None
    assert cli.parse_config(text.replace("rate = auto\n", "")) == cfg
    # the catalog's cumulative-hazard C0 for Dykstra-Laud, not the T^0.5
    # of the quadratic functionals
    cfg_path = tmp_path / "cond.ini"
    cfg_path.write_text(text)
    out = tmp_path / "cond.json"
    assert cli.main(["check-conditions", "--config", str(cfg_path), "--out", str(out)]) == 0
    blob = json.loads(out.read_text().split("\n", 1)[1])
    assert blob["rate"] == "T^-1.5"


def test_simulate_csv_rows_equal_the_json_values(tmp_path):
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(SIMULATE)
    out_json, out_csv = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_json)]) == 0
    assert cli.main(["simulate", "--config", str(cfg_path), "--format", "csv",
                     "--out", str(out_csv)]) == 0
    blob = json.loads(out_json.read_text().split("\n", 1)[1])
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# hazardlab ") and "format = csv" in lines[0]
    assert lines[1] == "replicate,value,standardized"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r) for r, _, _ in rows] == list(range(100))
    assert [float(v) for _, v, _ in rows] == blob["values"]
    assert [float(z) for _, _, z in rows] == blob["standardized_samples"]


def test_bad_thread_setting_is_one_line_error(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(SIMULATE)
    for bad in ("abc", "0"):
        monkeypatch.setenv("HAZARDLAB_THREADS", bad)
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "HAZARDLAB_THREADS" in err[0] and repr(bad) in err[0]


def _fail_path_variance(*args):
    raise ArithmeticError("path variance -1 negative beyond rounding (p2m=1)")


@pytest.mark.parametrize("trigger", ["quadrature", "negative_variance"])
def test_arithmetic_error_is_one_line_error(tmp_path, monkeypatch, capsys, trigger):
    # an unconverged centering quadrature, or a path variance negative beyond
    # rounding, ends the run with one error line and exit code 1
    text = SIMULATE
    monkeypatch.setenv("HAZARDLAB_THREADS", "1")
    if trigger == "quadrature":
        monkeypatch.setattr(_numeric, "_QUAD_ROUNDS", 1)
        expected = "error: quadrature on [0, 40] did not reach rel_tol=1e-11"
    else:
        text = text.replace("cumulative_hazard", "path_variance")
        monkeypatch.setitem(montecarlo._FUNCTIONALS, Functional.PATH_VARIANCE,
                            _fail_path_variance)
        expected = "error: path variance -1 negative beyond rounding"
    cfg_path = tmp_path / "sim.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out.json"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(expected), err
    assert not out.exists()


def test_cli_import_leaves_out_scipy_integrate():
    # the runtime needs no scipy (test_runtime_runs_with_scipy_refused);
    # scipy.integrate would also pull in scipy.optimize and scipy.linalg
    # (~0.35 s of every start)
    code = ("import sys, hazardlab.cli; "
            "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


# Runs hazardlab.cli.main with every scipy import refused: argv[1] is a JSON
# list of argument lists; prints each call's exit code and the modules the
# runtime leaves out that importing the CLI and the calls loaded (np.unique
# would load numpy.ma, leggauss numpy.polynomial).
_REFUSE_SCIPY = """
import json, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy import refused: {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())
from hazardlab import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
left_out = ("scipy", "numpy.ma", "numpy.polynomial")
loaded = [m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in left_out)]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""

_SMALL_SIMULATE = """
[experiment]
kind = simulate
functional = cumulative_hazard
horizon = 20
replicates = 100
seed = 7
centering = quadrature
ks_alpha = 1e-9

[kernel]
type = rectangular
tau = 1.0

[crm]
{crm}

[output]
format = json
"""

_CHECK = """
[experiment]
kind = check-conditions
theorem = path2nd
rate = power:0.5
t_grid = 12.5,25,50,100

[kernel]
{kernel}

[crm]
family = generalized_gamma
sigma = 0.5
gamma = 1.0
"""


def test_runtime_runs_with_scipy_refused(tmp_path):
    # every command, and each sampler path: closed-form rejection (GG, beta
    # c = 0.5 and 1.5), the inverse-tail table (extended gamma) and
    # thinning (affine_sqrt); ks_alpha = 1e-9 keeps a small-T KS verdict
    # out of the exit code.  Neither these nor an OU path-variance run
    # load scipy, numpy.ma or numpy.polynomial.
    crms = {"gg": "family = generalized_gamma\nsigma = 0.5\ngamma = 1.0",
            "eg": "family = extended_gamma\nfn = constant\nvalue = 1.0",
            "eg_thin": "family = extended_gamma\nfn = affine_sqrt\na = 1.0\nb = 0.7",
            "beta_05": "family = beta\nfn = constant\nvalue = 0.5",
            "beta_15": "family = beta\nfn = constant\nvalue = 1.5"}
    runs = [["regimes", "--out", str(tmp_path / "regimes.json")]]
    for name, text in crms.items():
        (tmp_path / f"{name}.ini").write_text(_SMALL_SIMULATE.format(crm=text))
        runs.append(["simulate", "--config", str(tmp_path / f"{name}.ini"),
                     "--out", str(tmp_path / f"{name}.json")])
    (tmp_path / "ou_pathvar.ini").write_text(
        _SMALL_SIMULATE.format(crm=crms["gg"]).replace("cumulative_hazard", "path_variance")
        .replace("type = rectangular\ntau = 1.0", "type = ornstein_uhlenbeck\nkappa = 1.0"))
    runs.append(["simulate", "--config", str(tmp_path / "ou_pathvar.ini"),
                 "--out", str(tmp_path / "ou_pathvar.json")])
    for name, text in (("rect", "type = rectangular\ntau = 1.0"),
                       ("ou", "type = ornstein_uhlenbeck\nkappa = 1.0")):
        (tmp_path / f"check_{name}.ini").write_text(_CHECK.format(kernel=text))
        runs.append(["check-conditions", "--config", str(tmp_path / f"check_{name}.ini"),
                     "--out", str(tmp_path / f"check_{name}.json")])
    (tmp_path / "paths.ini").write_text(
        "[experiment]\nkind = sample-paths\nhorizon = 20\nseed = 1\n\n"
        "[kernel]\ntype = ornstein_uhlenbeck\nkappa = 1.0\n\n[crm]\n" + crms["gg"] + "\n")
    runs.append(["sample-paths", "--config", str(tmp_path / "paths.ini"), "--grid", "5",
                 "--out", str(tmp_path / "paths.csv")])
    # one worker: a spawned pool worker would not inherit the refusing finder
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), HAZARDLAB_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _REFUSE_SCIPY, json.dumps(runs)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    assert result["codes"] == [0] * len(runs), out.stderr


_SQRT_PROFILE = """
[experiment]
kind = {kind}
{lines}

[kernel]
type = rectangular
tau = 1.0

[crm]
family = extended_gamma
fn = affine_sqrt
a = 1.0
b = 1.0
"""


@pytest.mark.parametrize("kind, lines, T", [
    ("check-conditions", "theorem = pathvar\nt_grid = 1,2,3,4", "1"),
    ("check-conditions", "theorem = pathvar\nt_grid = 0.5,0.6,0.7,0.8", "0.5"),
    ("simulate", "functional = cumulative_hazard\nhorizon = 0.9\nreplicates = 100", "0.9"),
])
def test_log_rate_refuses_horizons_up_to_one(tmp_path, monkeypatch, capsys, kind, lines, T):
    # the catalog's C0 = (log T)^-1/2 of a sqrt profile divides by 0 at T = 1
    # and is complex below; simulate refuses before drawing a replicate
    drawn = []
    monkeypatch.setattr(montecarlo, "sample_crm", lambda *args: drawn.append(args))
    monkeypatch.setenv("HAZARDLAB_THREADS", "1")
    cfg_path = tmp_path / "sqrt.ini"
    cfg_path.write_text(_SQRT_PROFILE.format(kind=kind, lines=lines))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: rate T^0*logT^-0.5 is defined for T > 1 only, got T={T}"]
    assert drawn == [] and not out.exists()


@pytest.mark.parametrize("kernel", [kernels.Rectangular(0.3), kernels.DykstraLaud(),
                                    kernels.OrnsteinUhlenbeck(2.5),
                                    kernels.UShaped(1.0 / 3.0)], ids=lambda k: k.label())
def test_kernel_render_parse_round_trip(kernel):
    cfg = cli.parse_config(SIMULATE)
    cfg.kernel = kernel
    again = cli.parse_config(cli.render_config(cfg))
    assert again == cfg
    assert type(again.kernel) is type(kernel)


@pytest.mark.parametrize("ktype, key", [("rectangular", "tau"),
                                        ("ornstein_uhlenbeck", "kappa"),
                                        ("u_shaped", "beta")])
def test_non_positive_kernel_parameter_cites_the_key(ktype, key):
    for value in ("0", "-2.5"):
        text = SIMULATE.replace("type = ornstein_uhlenbeck\nkappa = 1.0",
                                f"type = {ktype}\n{key} = {value}")
        with pytest.raises(cli.ConfigError,
                           match=rf"^line \d+: kernel\.{key}={value} violates {key} > 0$"):
            cli.parse_config(text)


@pytest.mark.parametrize("crm_text, key, rule", [
    ("family = generalized_gamma\nsigma = {}\ngamma = 1.0", "sigma", r"sigma in \(0,1\)"),
    ("family = generalized_gamma\nsigma = 0.5\ngamma = {}", "gamma", "gamma > 0"),
    ("family = extended_gamma\nfn = constant\nvalue = {}", "value", "value > 0"),
    ("family = beta\nfn = affine_sqrt\na = {}\nb = 1.0", "a",
     r"a > 0 \(value 0 at x=0 otherwise\)"),
    ("family = extended_gamma\nfn = indicator_sqrt\nb = {}", "b", "b > 0"),
], ids=["sigma", "gamma", "value", "a", "b"])
def test_out_of_range_crm_parameter_cites_the_key(crm_text, key, rule):
    for value in ("0", "-2.5"):
        text = SIMULATE.replace("family = extended_gamma\nfn = constant\nvalue = 1.0",
                                crm_text.format(value))
        with pytest.raises(cli.ConfigError,
                           match=rf"^line \d+: crm\.{key}={value} violates {rule}$"):
            cli.parse_config(text)


# (section, its type line(s), class) for every kernel type, family and
# profile; a profile's float fields sit under extended gamma
_RULED = [("kernel", f"type = {name}", cls) for name, cls in cli._KERNEL_TYPES.items()] + \
         [("crm", f"family = {name}", cls) for name, cls in cli._FAMILIES.items()] + \
         [("crm", f"family = extended_gamma\nfn = {name}", cls)
          for name, cls in cli._PROFILES.items()]
_VALUES = ("0", "-2.5", "0.5", "1.5", "inf")


def _float_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.type in (float, "float")]


def test_every_number_has_one_rule():
    for cls in [*cli._KERNEL_TYPES.values(), *cli._FAMILIES.values(), *cli._PROFILES.values()]:
        assert sorted(cls.RULES) == sorted(_float_fields(cls)), cls
    assert sorted(ExperimentConfig.RULES) == ["epsilon", "horizon", "replicates", "seed"]
    # RunConfig takes ExperimentConfig's four as they are, and adds its own two
    assert sorted(cli.RunConfig.RULES) == ["epsilon", "grid_n", "horizon", "ks_alpha",
                                           "replicates", "seed"]
    assert all(cli.RunConfig.RULES[key] is rule for key, rule in ExperimentConfig.RULES.items())
    # every [experiment] key is a RULES number or has its own syntax, never both
    assert not set(cli.RunConfig.RULES) & set(cli._FIELDS["experiment"])


@pytest.mark.parametrize("section, head, cls", _RULED, ids=[c.__name__ for _, _, c in _RULED])
def test_cli_and_constructor_refuse_the_same_values(section, head, cls):
    # each float field at each value, the others at 0.5 (inside every rule)
    for key in _float_fields(cls):
        for value in _VALUES:
            args = {f: float(value) if f == key else 0.5 for f in _float_fields(cls)}
            try:
                cls(**args)
                refused = False
            except ValueError:
                refused = True
            sections = {"kernel": "type = dykstra_laud",
                        "crm": "family = generalized_gamma\nsigma = 0.5\ngamma = 1"}
            sections[section] = head + "".join(
                f"\n{f} = {value if f == key else 0.5}" for f in args)
            text = "[experiment]\nkind = regimes\n" + "".join(
                f"\n[{name}]\n{body}\n" for name, body in sections.items())
            lineno = text.splitlines().index(f"{key} = {value}") + 1
            if refused:
                with pytest.raises(cli.ConfigError, match=rf"^line {lineno}: {section}\.{key}"):
                    cli.parse_config(text)
            else:
                cli.parse_config(text)


def _refuses(build, **args):
    try:
        build(**args)
    except ValueError:
        return True
    return False


def test_cli_and_experiment_config_refuse_the_same_values():
    base = dict(kernel=kernels.OrnsteinUhlenbeck(1.0), intensity=crm.GeneralizedGamma(0.5, 1.0),
                functional=Functional.CUMULATIVE_HAZARD, horizon=10.0, replicates=100,
                seed=0, epsilon=1e-3)
    for key in cli.RunConfig.RULES:
        integer = isinstance(getattr(cli.RunConfig, key), int)
        for value in _VALUES:
            text = f"[experiment]\nkind = regimes\n{key} = {value}\n"
            if integer and not value.lstrip("-").isdigit():
                # an integer key refuses a non-integer before its rule
                with pytest.raises(cli.ConfigError, match=rf"^line 3: experiment\.{key} must be "
                                                          r"an integer"):
                    cli.parse_config(text)
                continue
            x = (int if integer else float)(value)
            refused = _refuses(cli.RunConfig, kind="regimes", **{key: x})
            if key in ExperimentConfig.RULES:
                assert _refuses(ExperimentConfig, **{**base, key: x}) == refused, (key, value)
            if refused:
                with pytest.raises(cli.ConfigError, match=rf"^line 3: experiment\.{key}"):
                    cli.parse_config(text)
            else:
                cli.parse_config(text)
    for key in ("horizon", "epsilon"):
        with pytest.raises(ValueError, match=rf"^ExperimentConfig\.{key}=inf must be finite$"):
            ExperimentConfig(**{**base, key: math.inf})


@pytest.mark.parametrize("args, message", [
    (dict(kind="sample-paths", grid_n=0), r"^RunConfig\.grid_n=0 violates grid_n >= 2$"),
    (dict(kind="simulate", ks_alpha=0.0),
     r"^RunConfig\.ks_alpha=0\.0 violates ks_alpha in \(0,1\)$"),
    (dict(kind="simulate", ks_alpha=5.0),
     r"^RunConfig\.ks_alpha=5\.0 violates ks_alpha in \(0,1\)$"),
    (dict(kind="check-conditions", t_grid=(10.0, 20.0, 40.0)),
     r"^t_grid must be >= 4 increasing horizons$"),
    (dict(kind="check-conditions", t_grid=(-4.0, 1.0, 2.0, 3.0)),
     r"^t_grid horizons must be finite and > 0$"),
    (dict(kind="simulate", kernel=None), r"^simulate requires a \[kernel\] section$"),
    (dict(kind="sample-paths", intensity=None), r"^sample-paths requires a \[crm\] section$"),
    (dict(kind="regimes", intensity=None),
     r"^regimes takes a \[kernel\] and a \[crm\] section together, or neither$"),
], ids=["grid_n-0", "ks_alpha-0", "ks_alpha-5", "t_grid-3", "t_grid-negative",
        "simulate-no-kernel", "sample-paths-no-crm", "regimes-kernel-alone"])
def test_run_config_built_in_code_is_refused_by_the_same_rules(args, message):
    # what parse_config refuses at its line, RunConfig refuses when built:
    # no run, no output file, no traceback from cli.run
    base = dict(kernel=kernels.OrnsteinUhlenbeck(1.0), intensity=crm.GeneralizedGamma(0.5, 1.0),
                horizon=5.0, replicates=100, epsilon=1e-3, out_path="never.csv")
    with pytest.raises(ValueError, match=message):
        cli.RunConfig(**{**base, **args})


def test_command_line_flags_are_checked_by_run_config(tmp_path, monkeypatch):
    # main applies --out, --format and --grid by building a new RunConfig
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.ini").write_text(MINIMAL)
    built = []
    real = cli.RunConfig.__post_init__
    monkeypatch.setattr(cli.RunConfig, "__post_init__", lambda cfg: built.append(cfg) or real(cfg))
    assert cli.main(["regimes", "--config", "r.ini", "--out", "x.json", "--format", "json"]) == 0
    assert [(c.out_path, c.out_format) for c in built] == [(None, "json"), ("x.json", "json")]


def test_keys_the_chosen_type_does_not_use_are_rejected():
    # (replaced text, replacement, unused line, key, what it is not used by)
    cases = [("type = ornstein_uhlenbeck\nkappa = 1.0", "type = dykstra_laud\ntau = -1\nkappa = 3",
              "tau = -1", "kernel.tau", "dykstra_laud"),
             ("value = 1.0", "value = 1.0\nb = 2",
              "b = 2", "crm.b", r"extended_gamma\(constant\(1\)\)"),
             ("family = extended_gamma\nfn = constant\nvalue = 1.0",
              "family = generalized_gamma\nsigma = 0.5\ngamma = 1\nfn = constant",
              "fn = constant", "crm.fn", r"generalized_gamma\(sigma=0.5,gamma=1\)")]
    for old, new, unused, key, owner in cases:
        text = SIMULATE.replace(old, new)
        lineno = text.splitlines().index(unused) + 1
        with pytest.raises(cli.ConfigError,
                           match=rf"^line {lineno}: {key} is not used by {owner}$"):
            cli.parse_config(text)


@pytest.mark.parametrize("intensity", [
    crm.GeneralizedGamma(0.3, 2.5),
    *(family(fn) for family in (crm.ExtendedGamma, crm.Beta)
      for fn in (crm.Constant(1.0 / 3.0), crm.AffineSqrt(0.7, 1.9), crm.IndicatorSqrt(2.25))),
], ids=lambda i: i.label())
def test_intensity_render_parse_round_trip(intensity):
    cfg = cli.parse_config(SIMULATE)
    cfg.intensity = intensity
    again = cli.parse_config(cli.render_config(cfg))
    assert again == cfg
    assert type(again.intensity) is type(intensity)


@pytest.mark.parametrize("grid", ["1, 2, 3, nan", "-4, 1, 2, 3", "0, 1, 2, 3",
                                  "1, 2, 3, inf"])
def test_t_grid_rejects_non_finite_and_non_positive_horizons(grid):
    text = "[experiment]\nkind = check-conditions\nt_grid = " + grid + "\n"
    with pytest.raises(cli.ConfigError,
                       match=r"^line 3: t_grid horizons must be finite and > 0$"):
        cli.parse_config(text)


def test_horizon_check_names_finiteness():
    with pytest.raises(ValueError, match="horizon T must be finite and > 0, got inf"):
        kernels.K_T(kernels.DykstraLaud(), float("inf"), 1.0)


def test_non_finite_gamma_fails_at_its_line(tmp_path, capsys):
    text = ("[experiment]\nkind = check-conditions\n\n[kernel]\ntype = dykstra_laud\n\n"
            "[crm]\nfamily = generalized_gamma\nsigma = 0.5\ngamma = inf\n")
    lineno = text.splitlines().index("gamma = inf") + 1
    with pytest.raises(cli.ConfigError,
                       match=rf"^line {lineno}: crm\.gamma must be finite, got 'inf'$"):
        cli.parse_config(text)
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(text)
    assert cli.main(["check-conditions", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line {lineno}: crm.gamma must be finite, got 'inf'"]


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_grid_override_follows_the_grid_n_rule(tmp_path, capsys, grid):
    cfg_path = tmp_path / "paths.ini"
    cfg_path.write_text(PATHS)
    out = tmp_path / "paths.csv"
    assert cli.main(["sample-paths", "--config", str(cfg_path), "--grid", grid,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --grid={grid} violates grid_n >= 2"]
    assert not out.exists()


@pytest.mark.parametrize("theorem,bad,good", [("cumhaz", 3, 2), ("path2nd", 7, 6),
                                              ("pathvar", 4, 3)])
def test_expect_condition_index_must_exist_for_the_theorem(tmp_path, capsys,
                                                           theorem, bad, good):
    text = (f"[experiment]\nkind = check-conditions\ntheorem = {theorem}\n"
            "expect_condition_{} = diverges\n[kernel]\ntype = dykstra_laud\n"
            "[crm]\nfamily = generalized_gamma\nsigma = 0.5\ngamma = 1.0\n")
    assert cli.parse_config(text.format(good)).expects == {good: "diverges"}
    for idx in (bad, 0, -1):
        with pytest.raises(cli.ConfigError,
                           match=rf"^line 4: expect_condition_{idx}: theorem {theorem} "
                                 rf"has conditions 1-{good}$"):
            cli.parse_config(text.format(idx))
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(text.format(bad))
    assert cli.main(["check-conditions", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 4: ")


@pytest.mark.parametrize("kind", ["simulate", "sample-paths", "regimes"])
def test_expect_condition_refused_outside_check_conditions(tmp_path, capsys, kind):
    # only check-conditions reads expectations; elsewhere they would name a
    # verdict the run never checks
    text = SIMULATE.replace("kind = simulate", f"kind = {kind}").replace(
        "centering = quadrature\n", "centering = quadrature\nexpect_condition_5 = vanishes\n")
    message = f"expect_condition_5: only check-conditions reads condition expectations, not {kind}"
    with pytest.raises(cli.ConfigError, match=rf"^line 9: {message}$"):
        cli.parse_config(text)
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out.txt"
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line 9: {message}"]
    assert not out.exists()


RATE_AND_EXPECTS = """
[experiment]
kind = check-conditions
theorem = pathvar
rate = powerlog:-1,-0.5
t_grid = 10,20,40,80
expect_condition_3 = diverges
expect_condition_1 = vanishes

[kernel]
type = rectangular
tau = 0.3

[crm]
family = beta
fn = affine_sqrt
a = 0.7
b = 1.9
"""

OUTPUT_PATH = """
[experiment]
kind = regimes

[output]
path = out/regimes.csv
format = csv
"""

@pytest.mark.parametrize("text, seed, rendered", [
    (SIMULATE, 3, [
        "[experiment]", "kind = simulate", "functional = cumulative_hazard",
        "theorem = path2nd", "horizon = 40", "replicates = 100", "seed = 3",
        "epsilon = 9.9999999999999995e-07", "t_grid = 50,100,200,400,800",
        "centering = quadrature", "ks_alpha = 0.01", "grid_n = 2000", "",
        "[kernel]", "type = ornstein_uhlenbeck", "kappa = 1", "",
        "[crm]", "family = extended_gamma", "fn = constant", "value = 1", "",
        "[output]", "format = json"]),
    (RATE_AND_EXPECTS, 0, [
        "[experiment]", "kind = check-conditions", "functional = cumulative_hazard",
        "theorem = pathvar", "rate = powerlog:-1,-0.5", "horizon = 500",
        "replicates = 2000", "seed = 0", "epsilon = 9.9999999999999995e-07",
        "t_grid = 10,20,40,80", "centering = quadrature", "ks_alpha = 0.01",
        "grid_n = 2000", "expect_condition_1 = vanishes",
        "expect_condition_3 = diverges", "",
        "[kernel]", "type = rectangular", "tau = 0.29999999999999999", "",
        "[crm]", "family = beta", "fn = affine_sqrt", "a = 0.69999999999999996",
        "b = 1.8999999999999999", "",
        "[output]", "format = json"]),
    (OUTPUT_PATH, 0, [
        "[experiment]", "kind = regimes", "functional = cumulative_hazard",
        "theorem = path2nd", "horizon = 500", "replicates = 2000", "seed = 0",
        "epsilon = 9.9999999999999995e-07", "t_grid = 50,100,200,400,800",
        "centering = quadrature", "ks_alpha = 0.01", "grid_n = 2000", "",
        "[output]", "path = out/regimes.csv", "format = csv"]),
], ids=["simulate", "rate-and-expects", "output-path"])
def test_render_and_provenance_text_is_pinned(text, seed, rendered):
    # round trips pass whatever the key order; this pins the order and format
    cfg = cli.parse_config(text)
    assert cli.render_config(cfg) == "\n".join(rendered) + "\n"
    echo = " ; ".join(line for line in rendered if line)
    assert cli._provenance(cfg) == (f"# hazardlab {cli.__version__} | seed={seed} "
                                    f"| config: {echo}\n")


@pytest.mark.parametrize("line, message", [
    ("functional = bogus", "unknown functional 'bogus'"),
    ("theorem = nope", "theorem must be one of ('cumhaz', 'path2nd', 'pathvar')"),
    ("rate = power:x", "experiment.rate must be a number, got 'x'"),
    ("rate = powerlog:1", "powerlog rate needs p,q"),
    ("rate = weird", "rate must be auto, power:<p> or powerlog:<p>,<q>"),
    ("horizon = 0", "experiment.horizon=0 violates horizon > 0"),
    ("horizon = nan", "experiment.horizon must be finite, got 'nan'"),
    ("replicates = 1.5", "experiment.replicates must be an integer, got '1.5'"),
    ("replicates = 99", "experiment.replicates=99 violates replicates >= 100"),
    ("seed = -3", "experiment.seed=-3 violates seed >= 0"),
    ("epsilon = -1", "experiment.epsilon=-1 violates epsilon > 0"),
    ("t_grid = 1,a,3,4", "t_grid must be comma-separated numbers"),
    ("t_grid = 10,20,40", "t_grid must be >= 4 increasing horizons"),
    ("centering = other", "centering must be catalog or quadrature"),
    ("ks_alpha = 1", "experiment.ks_alpha=1 violates ks_alpha in (0,1)"),
    ("grid_n = 1", "experiment.grid_n=1 violates grid_n >= 2"),
    ("[output]\nformat = xml", "format must be json or csv"),
])
def test_bad_value_error_text_per_key(line, message):
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_config(f"[experiment]\nkind = regimes\n{line}\n")
    lineno = 3 if not line.startswith("[") else 4
    assert str(info.value) == f"line {lineno}: {message}"


def test_bad_kind_names_its_line():
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_config("[experiment]\nseed = 1\nkind = bogus\n")
    assert str(info.value) == ("line 3: experiment.kind must be one of "
                               "regimes, check-conditions, simulate, sample-paths")


def test_first_bad_experiment_line_is_reported():
    bad = ["horizon = 0", "functional = bogus", "seed = -1"]
    for first in range(len(bad)):
        lines = bad[first:] + bad[:first]
        with pytest.raises(cli.ConfigError, match=r"^line 3: "):
            cli.parse_config("[experiment]\nkind = regimes\n" + "\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", ["simulate", "sample-paths"])
def test_negative_seed_is_refused_at_its_line(tmp_path, capsys, kind):
    text = SIMULATE.replace("kind = simulate", f"kind = {kind}").replace("seed = 3", "seed = -3")
    lineno = text.splitlines().index("seed = -3") + 1
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out.txt"
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line {lineno}: experiment.seed=-3 violates seed >= 0"]
    assert not out.exists()
    cfg = cli.parse_config(SIMULATE)
    with pytest.raises(ValueError, match=r"^ExperimentConfig\.seed=-3 violates seed >= 0$"):
        ExperimentConfig(kernel=cfg.kernel, intensity=cfg.intensity,
                         functional=cfg.functional, horizon=40.0, seed=-3)


_EXPECT = SIMULATE.replace("kind = simulate", "kind = check-conditions").replace(
    "seed = 3\n", "seed = 3\nexpect_condition_{} = {}\n")
_NO_KERNEL = SIMULATE.replace("[kernel]\ntype = ornstein_uhlenbeck\nkappa = 1.0\n", "")
_NO_CRM = SIMULATE.replace("[crm]\nfamily = extended_gamma\nfn = constant\nvalue = 1.0\n", "")
# sqrt(x) < 1 on (0.25, 1): no beta envelope with c >= 1
_NO_ENVELOPE = ("[experiment]\nkind = sample-paths\nhorizon = 10\nepsilon = 1e-5\n"
                "[kernel]\ntype = rectangular\ntau = 1.0\n"
                "[crm]\nfamily = beta\nfn = indicator_sqrt\nb = 0.25\n")
# the boundary's mass below eps = 1e-2 biases the catalog-centered statistic
_OVER_BUDGET = ("[experiment]\nkind = simulate\nhorizon = 20\nreplicates = 100\nseed = 5\n"
                "epsilon = 0.01\ncentering = catalog\n"
                "[kernel]\ntype = rectangular\ntau = 1.0\n"
                "[crm]\nfamily = generalized_gamma\nsigma = 0.5\ngamma = 1.0\n")


@pytest.mark.parametrize("kind, text, message", [
    ("regimes", "seed = 1\n" + MINIMAL, "line 1: key outside any [section]"),
    ("simulate", SIMULATE.replace("type = ornstein_uhlenbeck\n", ""),
     "missing required key kernel.type"),
    ("simulate", SIMULATE.replace("family = extended_gamma\n", ""),
     "missing required key crm.family"),
    ("simulate", SIMULATE.replace("type = ornstein_uhlenbeck", "type = bogus"),
     "line 11: unknown kernel.type 'bogus' "
     "(one of rectangular, dykstra_laud, ornstein_uhlenbeck, u_shaped)"),
    ("simulate", SIMULATE.replace("family = extended_gamma", "family = bogus"),
     "line 15: unknown crm.family 'bogus' (one of generalized_gamma, extended_gamma, beta)"),
    ("simulate", SIMULATE.replace("fn = constant", "fn = bogus"),
     "line 16: unknown crm.fn 'bogus' (one of constant, affine_sqrt, indicator_sqrt)"),
    ("simulate", SIMULATE.replace("seed = 3\n", "seed = 3\nseed = 4\n"),
     "line 8: duplicate key experiment.seed"),
    ("simulate", SIMULATE.replace("kind = simulate\n", ""), "missing required key experiment.kind"),
    ("check-conditions", _EXPECT.format("x", "vanishes"),
     "line 8: bad condition index in expect_condition_x"),
    ("check-conditions", _EXPECT.format(1, "maybe"),
     "line 8: expect_condition_1 must be converges_to_positive, vanishes or diverges"),
    *[(kind, text.replace("kind = simulate", f"kind = {kind}"), f"{kind} requires a [{section}] section")
      for kind in ("simulate", "check-conditions", "sample-paths")
      for section, text in (("kernel", _NO_KERNEL), ("crm", _NO_CRM))],
    ("sample-paths", _NO_ENVELOPE, "beta thinning needs inf c >= 1 on the window; "
                                   "got inf c = 0.5 for indicator_sqrt(0.25) on [0,11]"),
    ("simulate", _OVER_BUDGET, "truncation bias 0.08802 exceeds 1% of the target sd 1.414; "
                               "lower epsilon or use quadrature centering"),
], ids=["outside-section", "no-kernel-type", "no-crm-family", "unknown-type", "unknown-family",
        "unknown-fn", "duplicate-key", "no-kind", "bad-index", "bad-expectation",
        *[f"{kind}-no-{section}" for kind in ("simulate", "check-conditions", "sample-paths")
          for section in ("kernel", "crm")], "no-envelope", "over-truncation-budget"])
def test_config_refusals_are_one_line_errors(tmp_path, capsys, kind, text, message):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out.txt"
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not out.exists()


def test_empty_out_means_the_default_file_name(tmp_path, monkeypatch):
    # as an empty [output] path does; the config's path is not used
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.ini").write_text(MINIMAL + "\n[output]\npath = from_config.csv\nformat = csv\n")
    assert cli.main(["regimes", "--config", "r.ini", "--out", ""]) == 0
    assert (tmp_path / "regimes.csv").exists()
    assert not (tmp_path / "from_config.csv").exists()


def test_run_refuses_an_unknown_kind():
    # a RunConfig built in code is refused when it is built, not when it runs
    with pytest.raises(cli.ConfigError, match=r"^unknown kind 'bogus'$"):
        cli.RunConfig(kind="bogus")
