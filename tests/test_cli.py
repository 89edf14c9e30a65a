import hashlib
import os

import numpy as np
import pytest

from degen_control.cli import build_nonlinearity, main, write_control_field
from degen_control.coefficients import constant_drift, linear_beta
from degen_control.config import Config, parse_config
from degen_control.errors import ConfigError
from degen_control.pde import solve_forward

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


@pytest.mark.parametrize("command,bad", [
    ("control", "T = nan"),
    ("carleman-audit", "T = nan"),
    ("control", "epsilon = nan"),
    ("sweep", "epsilon.sweep = 1e-2,nan,1e-4,1e-5"),
    ("control", "b.const = nan"),
    ("control", "c.const = nan"),
    ("control", "beta.kind = scaled\nbeta.scale = nan"),
    ("semilinear", "nl.kind = sine\nnl.m = nan"),
], ids=["control", "carleman-audit", "control-epsilon", "sweep-epsilon",
        "control-b-const", "control-c-const", "control-beta-scale",
        "semilinear-nl-m"])
def test_nan_horizon_is_precondition_error(tmp_path, capsys, command, bad):
    # NaN passes a check written as x <= 0; a NaN horizon or penalty must end
    # as a precondition error, not as NO_CONVERGENCE after 500 CG iterations
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
    assert lines[0] == "epsilon,norm_yT,cost,cg_iters"
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
    drift = constant_drift(0.0, 0.0, beta=linear_beta(3.0), C_beta=3.0)
    built = {kind: build_nonlinearity(Config({"nl.kind": kind, "nl.m": "0.5"}), drift)
             for kind in ("zero", "sine", "tanh-grad", "mixed")}
    assert [nl.lipschitz_L for nl in built.values()] == [0.0, 0.5, 3.0, 3.5]
    assert build_nonlinearity(Config({}), drift).name == "zero"
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
