import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from degen_control import cli
from degen_control.cli import build_nonlinearity, main, write_control_field
from degen_control.coefficients import constant_drift, linear_beta
from degen_control.config import Config, parse_config
from degen_control.errors import ConfigError
from degen_control.pde import solve_forward
from degen_control.semilinear import zero_nonlinearity

from conftest import make_problem


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def digest_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_config_parsing(tmp_path):
    cfg_path = write_cfg(tmp_path, """
# a comment
command = validate   # trailing comment
a.kind = power
a.alpha = 0.5
omega = 0.3,0.9
""")
    cfg = parse_config(cfg_path)
    assert cfg.get_str("command") == "validate"
    assert cfg.get_float("a.alpha") == 0.5
    assert cfg.get_pair("omega") == (0.3, 0.9)


def test_config_errors_name_the_key(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "command = validate\na.alpha = abc\n"))
    with pytest.raises(ConfigError, match="a.alpha"):
        cfg.get_float("a.alpha")
    with pytest.raises(ConfigError, match="grid.N"):
        cfg.get_int("grid.N")


def test_validate_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
command = validate
a.kind = power
a.alpha = 0.5
grid.N = 64
""")
    out = str(tmp_path / "out")
    assert main([cfg, "--out", out, "--seed", "3"]) == 0
    text = (tmp_path / "out" / "summary.txt").read_text()
    assert text.startswith("WDP, K=0.5")
    assert "C_beta = 1" in text
    assert "C_H = " in text
    printed = capsys.readouterr().out
    assert "WDP, K=0.5" in printed


def test_validate_zero_beta(tmp_path):
    cfg = write_cfg(tmp_path, """
command = validate
a.kind = power
a.alpha = 1.5
beta.kind = zero
""")
    assert main([cfg, "--out", str(tmp_path / "out")]) == 0
    assert "C_beta = 0\n" in (tmp_path / "out" / "summary.txt").read_text()


def test_validate_rejects_alpha_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "command = validate\na.kind = power\na.alpha = 2.0\n")
    code = main([cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("ERROR HYPOTHESIS_VIOLATED:")


def test_missing_command_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.kind = power\n")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR CONFIG:")
    assert "command" in last


def test_malformed_line_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "command validate\n")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    assert "ERROR CONFIG" in capsys.readouterr().out


def test_duplicate_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "command = validate\na.alpha = 0.5\n\na.alpha = 1.5\n")
    with pytest.raises(ConfigError, match=r"run.cfg:4: duplicate key 'a.alpha', "
                                          r"first given on line 2"):
        parse_config(cfg)
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("ERROR CONFIG:")


def test_missing_coefficient_table_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfg = write_cfg(tmp_path, f"command = validate\na.kind = table\na.path = {missing}\n")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR CONFIG:")
    assert "missing.csv" in last


def test_solve_command_writes_trajectory(tmp_path):
    cfg = write_cfg(tmp_path, """
command = solve
a.kind = expr-catalog
a.name = classical
grid.N = 32
M = 16
T = 0.1
""")
    out = str(tmp_path / "out")
    assert main([cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 17 * 32
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "C_T = " in summary


def test_trajectory_csv_format(tmp_path):
    p = make_problem(N=16, M=8)
    traj = solve_forward(p)
    path = tmp_path / "traj.csv"
    write_control_field(path, traj.times, p.grid.nodes, traj.states)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + (p.M + 1) * p.grid.N
    t0, x1, val = lines[1 + 1].split(",")   # second row of the t=0 block
    assert float(t0) == 0.0
    assert float(x1) == pytest.approx(p.grid.nodes[1])
    assert float(val) == pytest.approx(p.y0[1])


def test_control_field_writer_bytes_match_per_value_format(tmp_path):
    times = np.array([0.0, 0.1 + 0.2, 1.0, 1e300])
    nodes = np.array([0.0, 1.0 / 3.0, 0.5, 1.0])
    field = np.array([[-0.0, 5e-324, 1e300, 0.1 + 0.2],
                      [2.0, -7.0, 0.0, -5e-324],
                      [1e-17, -1e300, 123456789.0, np.inf],
                      [-np.inf, np.nan, -2.5e-310, 1.0]])
    old = tmp_path / "old.csv"
    with open(old, "w") as fh:
        fh.write("t,x,value\n")
        for t, row in zip(times, field):
            for x, v in zip(nodes, row):
                fh.write(f"{t:.17g},{x:.17g},{v:.17g}\n")
    new = tmp_path / "new.csv"
    write_control_field(new, times, nodes, field)
    assert new.read_bytes() == old.read_bytes()


def test_control_command_zero_datum_gives_zero_control(tmp_path):
    cfg = write_cfg(tmp_path, """
command = control
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 16
y0.kind = zero
""")
    out = str(tmp_path / "out")
    assert main([cfg, "--out", out]) == 0
    rows = (tmp_path / "out" / "control.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)
    hum_lines = (tmp_path / "out" / "hum.csv").read_text().splitlines()
    assert hum_lines[0] == "epsilon,norm_yT,cost,cg_iters"


def test_solver_failure_exits_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
command = control
a.kind = expr-catalog
a.name = classical
grid.N = 48
M = 32
epsilon = 1e-8
cg.tol = 1e-12
cg.maxiter = 2
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 3
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR NO_CONVERGENCE:")


def test_unconverged_coast_phase_exits_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
command = semilinear
a.kind = power
a.alpha = 0.5
grid.N = 64
M = 64
T = 2
y0.kind = sine
y0.amplitude = 3
nl.kind = sine
nl.m = -30
t0 = 1
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 3
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR NO_FIXED_POINT:")


def test_underflowed_audit_rhs_is_nonfinite_integral(tmp_path, capsys):
    # at s = 1 with the default T and lambda every node weight underflows to
    # 0, so the ratio is undefined: a solver failure, not max_ratio = inf
    cfg = write_cfg(tmp_path, """
command = carleman-audit
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 32
s.sweep = 1
samples = 1
carleman.variant = lemma
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 3
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR NONFINITE_INTEGRAL:")
    assert "s = 1" in last


def test_escaping_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    # whatever escapes the typed handlers must still end on an ERROR line
    # with exit 3
    def defect(cfg, outdir, rng):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli._DISPATCH, "solve", defect)
    cfg = write_cfg(tmp_path, "command = solve\na.kind = power\na.alpha = 0.5\n")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 3
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == "ERROR INTERNAL: ZeroDivisionError: float division by zero"


@pytest.mark.parametrize("command", ["control", "sweep", "observability",
                                     "carleman-audit"])
def test_empty_control_region_is_precondition_error(tmp_path, capsys, command):
    # no node of the 8-node grid lies in [0.501, 0.502], so omega observes
    # and controls nothing
    cfg = write_cfg(tmp_path, f"""
command = {command}
a.kind = power
a.alpha = 0.5
grid.N = 8
omega = 0.501,0.502
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR PRECONDITION:") and "omega" in last


@pytest.mark.parametrize("command,bad", [
    ("control", "T = nan"),
    ("carleman-audit", "T = nan"),
    ("control", "epsilon = nan"),
    ("sweep", "epsilon.sweep = 1e-2,nan,1e-4,1e-5"),
    ("control", "b.const = nan"),
    ("control", "c.const = nan"),
    ("control", "beta.kind = scaled\nbeta.scale = nan"),
    ("semilinear", "nl.kind = sine\nnl.m = nan"),
    ("semilinear", "nl.kind = zero\nnl.m = nan"),
    ("solve", "T = inf"),
    ("control", "T = inf"),
    ("carleman-audit", "carleman.lambda = inf"),
    ("carleman-audit", "carleman.c1 = inf"),
    ("control", "cg.tol = nan"),
    ("semilinear", "fp.tol = nan"),
    ("control", "y0.amplitude = nan"),
    ("carleman-audit", "s.sweep ="),
    ("carleman-audit", "s.sweep = 1,inf,4"),
    ("carleman-audit", "samples = 0"),
    ("control", "cg.maxiter = 0"),
    ("semilinear", "fp.maxiter = 0"),
    ("observability", "power.iters = -1"),
    ("carleman-audit", "s.sweep = 1e300"),
    ("carleman-audit", "carleman.lambda = 400"),
    ("carleman-audit", "carleman.c1 = 1e308"),
], ids=["control", "carleman-audit", "control-epsilon", "sweep-epsilon",
        "control-b-const", "control-c-const", "control-beta-scale",
        "semilinear-nl-m", "semilinear-nl-m-unused", "solve-T-inf",
        "control-T-inf", "carleman-audit-lambda-inf", "carleman-audit-c1-inf",
        "control-cg-tol", "semilinear-fp-tol", "control-y0-amplitude",
        "carleman-audit-empty-ladder", "carleman-audit-infinite-s",
        "carleman-audit-no-samples", "control-cg-maxiter",
        "semilinear-fp-maxiter", "observability-power-iters",
        "carleman-audit-s-cubed-overflow", "carleman-audit-lambda-overflow",
        "carleman-audit-c1-overflow"])
def test_nan_horizon_is_precondition_error(tmp_path, capsys, command, bad):
    # NaN and inf pass checks written as x <= 0 or x < 1; a non-finite
    # horizon, penalty, tolerance or datum, or an empty audit ensemble, must
    # end as a precondition error, not as exit 0, a traceback or
    # NO_CONVERGENCE after 500 CG iterations
    cfg = write_cfg(tmp_path, f"""
command = {command}
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 32
{bad}
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR PRECONDITION:")


@pytest.mark.parametrize("command", ["control", "validate"])
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_nonfinite_alpha_is_precondition_error(tmp_path, capsys, command, alpha):
    # a non-finite exponent passes a check written as alpha <= 0: nan ran
    # control into NO_CONVERGENCE, inf ran it to exit 0, and validate blamed
    # the coefficient's sign
    cfg = write_cfg(tmp_path, f"""
command = {command}
a.kind = power
a.alpha = {alpha}
grid.N = 32
M = 32
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR PRECONDITION:") and "alpha" in last


@pytest.mark.parametrize("command,bad", [
    ("solve", "grid.gamma = inf"),
    ("control", "grid.gamma = nan"),
    ("control", "grid.gamma = 250"),
    ("control", "grid.gamma = 200"),
], ids=["solve-inf", "control-nan", "control-collapsed", "control-near-collapsed"])
def test_nonfinite_grading_is_bad_resolution(tmp_path, capsys, command, bad):
    cfg = write_cfg(tmp_path, f"""
command = {command}
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 32
{bad}
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("ERROR BAD_RESOLUTION:")


def test_sweep_command(tmp_path):
    cfg = write_cfg(tmp_path, """
command = sweep
a.kind = expr-catalog
a.name = classical
grid.N = 32
M = 32
epsilon.sweep = 1e-2,1e-3,1e-4,1e-5
""")
    out = str(tmp_path / "out")
    assert main([cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,norm_yT,cost,optimality_gap"
    assert len(lines) == 5
    assert "slope = " in (tmp_path / "out" / "summary.txt").read_text()


def test_observability_command_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, """
command = observability
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 32
samples = 10
power.iters = 3
""")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main([cfg, "--out", out1, "--seed", "42"]) == 0
    assert main([cfg, "--out", out2, "--seed", "42"]) == 0
    assert digest_dir(out1) == digest_dir(out2)
    rows = (tmp_path / "o1" / "observability.csv").read_text().splitlines()
    assert rows[0] == "sample,quotient"
    assert len(rows) == 11


def test_carleman_audit_command(tmp_path):
    cfg = write_cfg(tmp_path, """
command = carleman-audit
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 32
T = 3.0
carleman.lambda = 0.5
s.sweep = 1,4,16
samples = 4
""")
    out = str(tmp_path / "out")
    assert main([cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "carleman.csv").read_text().splitlines()
    assert lines[0] == "s,variant,max_ratio,median_ratio,n_samples"
    assert len(lines) == 1 + 2 * 3
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "s0[lemma] = " in summary
    assert "cacciopoli_max_ratio = " in summary
    # the Caccioppoli experiment runs at the middle s of the sweep
    cac = (tmp_path / "out" / "cacciopoli.csv").read_text().splitlines()
    assert cac[0] == "s,max_ratio,median_ratio,n_samples"
    assert len(cac) == 2 and cac[1].startswith("4,") and cac[1].endswith(",4")


def test_build_nonlinearity_kinds():
    drift = constant_drift(0.0, 0.0, beta=linear_beta(3.0))
    built = {kind: build_nonlinearity(Config({"nl.kind": kind, "nl.m": "0.5"}), drift)
             for kind in ("zero", "sine", "tanh-grad", "mixed")}
    assert [(nl.b_cap, nl.c_cap) for nl in built.values()] == \
        [(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.5, 1.0)]
    assert build_nonlinearity(Config({}), drift) == zero_nonlinearity()
    with pytest.raises(ConfigError, match="nl.kind"):
        build_nonlinearity(Config({"nl.kind": "cubic"}), drift)


def test_semilinear_command(tmp_path):
    cfg = write_cfg(tmp_path, """
command = semilinear
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 32
nl.kind = sine
nl.m = 0.5
""")
    out = str(tmp_path / "out")
    assert main([cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert lines[0] == "iter,increment,control_cost,norm_yT"
    assert len(lines) >= 2
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "converged = True" in summary


_LAZY_QUAD_CHILD = """
import sys
from degen_control import cli
*linear, audit = sys.argv[1:]
status = [cli.run(cfg, cfg + ".out") for cfg in linear]
before = "scipy.integrate" in sys.modules
status.append(cli.run(audit, audit + ".out"))
print(status, before, "scipy.integrate" in sys.modules)
"""


def test_only_the_audit_loads_scipy_integrate(tmp_path):
    # psi_deg imports scipy.integrate at its first quad, so the commands that
    # build no Carleman weights never pay for it; a fresh interpreter sees it
    head = "a.kind = power\na.alpha = 0.5\ngrid.N = 32\nM = 32\n"
    cfgs = [write_cfg(tmp_path, f"command = {command}\n{head}{extra}", f"{command}.cfg")
            for command, extra in [
                ("control", ""),
                ("sweep", "epsilon.sweep = 1e-2,1e-3,1e-4,1e-5\n"),
                ("observability", "samples = 2\npower.iters = 2\n"),
                ("semilinear", "nl.kind = sine\nnl.m = 0.5\nepsilon = 1e-6\n"),
                ("carleman-audit", "T = 3.0\ncarleman.lambda = 0.5\n"
                                   "s.sweep = 1,4\nsamples = 2\n")]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LAZY_QUAD_CHILD, *cfgs], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False True"
    rows = (tmp_path / "carleman-audit.cfg.out" / "carleman.csv").read_text().splitlines()
    ratios = [float(v) for row in rows[1:] for v in row.split(",")[2:4]]
    assert len(ratios) == 2 * 2 * 2 and np.all(np.isfinite(ratios))


def test_tabular_coefficient_through_cli(tmp_path):
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 200)])
    np.savetxt(tmp_path / "a.csv", np.column_stack([xs, xs ** 0.5]), delimiter=",")
    cfg = write_cfg(tmp_path, f"""
command = validate
a.kind = table
a.path = {tmp_path / 'a.csv'}
grid.N = 32
""")
    assert main([cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.txt").read_text().startswith("WDP")


def test_floats_printed_with_17_significant_digits(tmp_path):
    cfg = write_cfg(tmp_path, """
command = solve
a.kind = expr-catalog
a.name = classical
grid.N = 16
M = 16
T = 0.1
""")
    out = str(tmp_path / "out")
    assert main([cfg, "--out", out]) == 0
    row = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[20]
    value = row.split(",")[2]
    # round-trips through repr exactly
    assert float(value) == float(format(float(value), ".17g"))
