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
from degen_control.mesh import build_grid
from degen_control.pde import solve_forward
from degen_control.semilinear import zero_nonlinearity

from conftest import make_problem
from contract_cases import ROWS, check, in_process


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


def test_validate_c_beta_is_abs_scale(tmp_path):
    # beta(x) = -3 x: C_beta = sup |beta(x)/x| = 3
    cfg = write_cfg(tmp_path, "command = validate\na.kind = power\na.alpha = 0.5\n"
                              "beta.kind = scaled\nbeta.scale = -3\n")
    assert main([cfg, "--out", str(tmp_path / "out")]) == 0
    assert "C_beta = 3\n" in (tmp_path / "out" / "summary.txt").read_text()


def test_validate_case_mismatch_fails_and_keeps_summary(tmp_path, capsys):
    # sqrt(x) is weakly degenerate; requesting SDP fails only the case clause
    cfg = write_cfg(tmp_path, "command = validate\na.kind = power\na.alpha = 0.5\n"
                              "a.case = SDP\ngrid.N = 32\n")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == "ERROR HYPOTHESIS_VIOLATED: validation clauses failed: case_match"
    summary = (tmp_path / "o" / "summary.txt").read_text().splitlines()
    assert "clause case_match = False" in summary


def test_duplicate_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "command = validate\na.alpha = 0.5\n\na.alpha = 1.5\n")
    with pytest.raises(ConfigError, match=r"run.cfg:4: duplicate key 'a.alpha', "
                                          r"first given on line 2"):
        parse_config(cfg)
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("ERROR CONFIG:")


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


def test_noise_datum_is_seeded_and_zero_at_the_ends(tmp_path):
    cfg = write_cfg(tmp_path, "command = solve\na.kind = power\na.alpha = 0.5\n"
                              "grid.N = 16\nM = 8\ny0.kind = noise\n")
    outs = {}
    for run, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        assert main([cfg, "--out", str(tmp_path / run), "--seed", seed]) == 0
        outs[run] = digest_dir(tmp_path / run)
    assert outs["a"] == outs["b"]
    assert outs["a"]["trajectory.csv"] != outs["c"]["trajectory.csv"]
    rows = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()[1:17]
    y0 = [float(row.split(",")[2]) for row in rows]
    assert y0[0] == y0[-1] == 0.0 and all(v != 0.0 for v in y0[1:-1])


def test_trajectory_csv_format(tmp_path):
    p = make_problem(N=16, M=8)
    traj = solve_forward(p)
    path = tmp_path / "traj.csv"
    write_control_field(path, p.times, p.grid.nodes, traj)
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


def _summary(text):
    return dict(line.split(" = ", 1) for line in text.strip().splitlines())


def test_solve_norms_a_state_whose_squares_overflow(tmp_path, capsys):
    # b = -250 grows the state to about 4e174, past the ~1.3e154 where its
    # squares overflow; the norms stay finite and equal a max-scaled sum
    cfg = write_cfg(tmp_path, """
command = solve
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 128
b.const = -250
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 0
    out = _summary(capsys.readouterr().out)
    yT = np.loadtxt(tmp_path / "o" / "trajectory.csv", delimiter=",", skiprows=1)[-32:, 2]
    peak = np.max(np.abs(yT))
    w = build_grid(32, 1.0).weights
    assert float(out["norm_yT"]) == pytest.approx(
        peak * np.sqrt(np.sum(w * (yT / peak) ** 2)), rel=1e-14)
    assert np.isfinite(float(out["C_T"])) and float(out["C_T"]) > 1e170


def test_two_phase_control_csv_runs_on_the_controlled_clock(tmp_path, capsys):
    # t0 = 0.2 snaps to 13 of 32 steps of T = 0.5; control.csv's time column
    # is the controlled phase's own clock shifted by t0
    cfg = write_cfg(tmp_path, """
command = semilinear
a.kind = power
a.alpha = 0.5
grid.N = 32
M = 32
nl.kind = sine
t0 = 0.2
""")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 0
    t0 = float(_summary(capsys.readouterr().out)["t0"])
    assert t0 == 13 * (0.5 / 32)
    rows = (tmp_path / "o" / "control.csv").read_text().splitlines()[1:]
    blocks = [row.split(",")[0] for row in rows[::32]]
    assert all(row.split(",")[0] == blocks[k // 32] for k, row in enumerate(rows))
    M2 = len(blocks)
    assert M2 == 32 - 13
    expect = t0 + np.linspace(0.0, 0.5 - t0, M2 + 1)[:-1]
    assert blocks == [f"{t:.17g}" for t in expect]
    assert blocks[0] == f"{t0:.17g}"


def test_cost_constant_where_only_the_datum_norm_squared_overflows(tmp_path, capsys):
    # ||y0||^2 = 2e308 overflows, the cost 4e301 does not: the cost constant
    # is the one of a unit datum, not 0 or an OverflowError
    body = ("command = control\na.kind = power\na.alpha = 0.5\ngrid.N = 32\nM = 32\n"
            "T = 2\nomega = 0.05,0.95\nepsilon = 1e-2\n")
    constants = []
    for amplitude in ("1", "2e154"):
        cfg = write_cfg(tmp_path, body + f"y0.amplitude = {amplitude}\n")
        assert main([cfg, "--out", str(tmp_path / amplitude)]) == 0
        constants.append(float(_summary(capsys.readouterr().out)["cost_constant"]))
    assert constants[1] == pytest.approx(constants[0], rel=1e-9)


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
    assert lines[0] == "iter,increment,control_cost,norm_yT,cg_iters"
    assert len(lines) >= 2
    # each step after the first starts CG from the previous vhatT
    cg_iters = [int(line.split(",")[-1]) for line in lines[1:]]
    assert cg_iters[0] > 0 and all(k < cg_iters[0] for k in cg_iters[1:])
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "converged = True" in summary


def test_semilinear_reads_a_linear_drift(tmp_path):
    # b.const and c.const add to the frozen factors, as in every other command
    base = """
command = semilinear
a.kind = power
a.alpha = 0.5
grid.N = 48
M = 48
nl.kind = mixed
nl.m = 0.5
t0 = 0.1
"""
    runs = {}
    for name, drift in (("none", ""), ("drift", "b.const = 5\nc.const = 2\n")):
        cfg = write_cfg(tmp_path, base + drift, name=f"{name}.cfg")
        assert main([cfg, "--out", str(tmp_path / name)]) == 0
        runs[name] = {f: (tmp_path / name / f).read_text()
                      for f in ("summary.txt", "control.csv")}
    assert all(runs["drift"][f] != runs["none"][f] for f in runs["none"])
    summary = dict(line.split(" = ") for line in runs["drift"]["summary.txt"].splitlines())
    assert summary["converged"] == "True"
    assert float(summary["residual"]) <= 10 * 1e-6     # the default fp.tol


_NO_INTEGRATE_CHILD = """
import sys
from degen_control import cli
status = [cli.run(cfg, cfg + ".out") for cfg in sys.argv[1:]]
print(status, "scipy.integrate" in sys.modules)
"""


def test_no_command_loads_scipy_integrate(tmp_path):
    # psi_deg reads the coefficient's own primitive, so no command, the audit
    # on a power law or on a table included, imports scipy.integrate; a fresh
    # interpreter sees it
    xs = np.linspace(0.0, 1.0, 201)
    np.savetxt(tmp_path / "a.csv", np.column_stack([xs, xs ** 0.5]), delimiter=",")
    power = "a.kind = power\na.alpha = 0.5\n"
    table = f"a.kind = table\na.path = {tmp_path / 'a.csv'}\n"
    head = "grid.N = 32\nM = 32\n"
    audit = "T = 3.0\ncarleman.lambda = 0.5\ns.sweep = 1,4\nsamples = 2\n"
    runs = [("validate", power, ""), ("solve", power, "T = 0.1\n"), ("control", power, ""),
            ("sweep", power, "epsilon.sweep = 1e-2,1e-3,1e-4,1e-5\n"),
            ("observability", power, "samples = 2\npower.iters = 2\n"),
            ("semilinear", power, "nl.kind = sine\nnl.m = 0.5\nepsilon = 1e-6\n"),
            ("carleman-audit", power, audit), ("carleman-audit", table, audit)]
    cfgs = [write_cfg(tmp_path, f"command = {command}\n{a}{head}{extra}", f"run{i}.cfg")
            for i, (command, a, extra) in enumerate(runs)]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NO_INTEGRATE_CHILD, *cfgs], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == f"{[0] * len(runs)} False"
    # the table reproduces sqrt(x), so its Gauss-rule audit is the closed form's
    audits = [(tmp_path / f"run{i}.cfg.out" / "carleman.csv").read_text().splitlines()
              for i in (6, 7)]
    assert audits[0][0] == audits[1][0]
    ratios = np.array([[float(v) for row in rows[1:] for v in row.split(",")[2:4]]
                       for rows in audits])
    assert ratios.shape == (2, 2 * 2 * 2) and np.all(np.isfinite(ratios))
    assert np.allclose(ratios[1], ratios[0], rtol=1e-9, atol=0.0)


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


# The CLI contract's failure paths, grouped by what each group guards and run
# in process. Every case is a row of tests/contract_cases.py, named here by
# this test's case id -> the row's id; test_contract.py runs every row in
# process and through the installed script.

def contract_rows(cases):
    return pytest.mark.parametrize("row", list(cases.values()), ids=list(cases))


def check_row(row, tmp_path, capsys):
    check(ROWS[row], in_process, tmp_path, capsys)


def test_validate_beta_scale_past_cap_is_unbounded(tmp_path, capsys):
    check_row("validate-beta-scale-2e6", tmp_path, capsys)


def test_validate_rejects_alpha_two(tmp_path, capsys):
    check_row("validate-alpha-2", tmp_path, capsys)


@contract_rows({"2": "audit-alpha-2", "2.5": "audit-alpha-2.5"})
def test_audit_needs_k_below_two(tmp_path, capsys, row):
    # int_0^x tau/a diverges for K >= 2, so no degenerate weight exists: the
    # same hypothesis violation as in validate
    check_row(row, tmp_path, capsys)


def test_missing_command_is_config_error(tmp_path, capsys):
    check_row("missing-command", tmp_path, capsys)


def test_malformed_line_is_config_error(tmp_path, capsys):
    check_row("malformed-line", tmp_path, capsys)


def test_missing_coefficient_table_is_config_error(tmp_path, capsys):
    check_row("missing-table", tmp_path, capsys)


def test_solver_failure_exits_three(tmp_path, capsys):
    check_row("control-classical-cg-budget", tmp_path, capsys)


def test_unconverged_coast_phase_exits_three(tmp_path, capsys):
    check_row("coast-no-fixed-point", tmp_path, capsys)


@contract_rows({"control-1e154": "control-cost-1e154", "control-1e155": "control-cost-1e155",
                "control-1e156": "control-cost-1e156", "sweep": "sweep-cost-1e160",
                "semilinear": "semilinear-cost-1e155", "solve": "solve-1e308",
                "solve-ldl-growth": "solve-ldl-growth", "solve-drift-ldl": "solve-drift-1e308",
                "solve-lu": "solve-lu", "coast-tanh-grad": "coast-tanh-grad",
                "coast-sine": "coast-sine"})
def test_overflowed_cost_is_nonfinite_integral(tmp_path, capsys, row):
    # an overflowed ||h||^2 or ||rhs||^2 is a solver failure, not a printed
    # cost of inf or nan, nor a NOT_SPD on a curvature of inf; so is a state
    # that overflows in the march, not a summary of nan norms, and a coast
    # whose slopes overflow where it freezes the nonlinearity, not a
    # NO_FIXED_POINT after 50 inner iterations on nan. A solve steps on
    # LDL^T factors of P(I + dt A), P = W without a first-order term and its
    # symmetriser with one (c = 1), whose solves keep a 1e308 datum finite,
    # so it exits 0 with finite norms; its states overflow where they grow
    # (b = -50, still on LDL^T), and where 1 + dt b = -1 leaves LDL^T a
    # nonpositive pivot the pivoted LU step overflows the datum at once
    check_row(row, tmp_path, capsys)


def test_semilinear_near_the_overflow_threshold_exits_0(tmp_path, capsys):
    # the preconditioner maps a residual to one no larger, so a datum whose
    # plain-CG run stays finite stays finite under preconditioned CG too
    check_row("semilinear-1e153", tmp_path, capsys)


def test_audit_region_without_a_grid_point_is_weight_invalid(tmp_path, capsys):
    # omega' = (0.4283, 0.4317) holds no face of an 8-node grid, so the
    # Caccioppoli energy would be an empty sum printed as a ratio of 0
    check_row("audit-omega-prime-empty", tmp_path, capsys)


@contract_rows({"rhs": "audit-rhs-underflow", "lhs": "audit-lhs-underflow"})
def test_underflowed_audit_rhs_is_nonfinite_integral(tmp_path, capsys, row):
    # rhs: at s = 1 with the default T and lambda every node weight
    # underflows to 0, so the ratio is undefined: a solver failure, not
    # max_ratio = inf. lhs: at c1 = 1e10 eta is about 1e9 on omega' against
    # 48 near x = 1, so the Caccioppoli energy underflows to 0: a solver
    # failure, not cacciopoli_max_ratio = 0
    check_row(row, tmp_path, capsys)


@contract_rows({"control": "control-omega-empty", "sweep": "sweep-omega-empty",
                "observability": "observability-omega-empty",
                "carleman-audit": "audit-omega-empty"})
def test_empty_control_region_is_precondition_error(tmp_path, capsys, row):
    # no node of the 8-node grid lies in [0.501, 0.502], so omega observes
    # and controls nothing
    check_row(row, tmp_path, capsys)


@contract_rows({
    "control": "control-T-nan", "carleman-audit": "audit-T-nan",
    "control-epsilon": "control-epsilon-nan", "sweep-epsilon": "sweep-epsilon-nan",
    "control-b-const": "control-b-nan", "control-c-const": "control-c-nan",
    "control-beta-scale": "control-beta-scale-nan", "semilinear-nl-m": "semilinear-nl-m-nan",
    "semilinear-nl-m-unused": "semilinear-nl-m-nan-unused", "solve-T-inf": "solve-T-inf",
    "control-T-inf": "control-T-inf", "carleman-audit-lambda-inf": "audit-lambda-inf",
    "carleman-audit-c1-inf": "audit-c1-inf", "control-cg-tol": "control-cg-tol-nan",
    "semilinear-fp-tol": "semilinear-fp-tol-nan",
    "control-y0-amplitude": "control-y0-amplitude-nan",
    "carleman-audit-empty-ladder": "audit-empty-ladder",
    "carleman-audit-infinite-s": "audit-s-inf", "carleman-audit-no-samples": "audit-no-samples",
    "control-cg-maxiter": "control-cg-maxiter-0",
    "semilinear-fp-maxiter": "semilinear-fp-maxiter-0",
    "observability-power-iters": "observability-power-iters-negative",
    "carleman-audit-s-cubed-overflow": "audit-s-cubed-overflow",
    "carleman-audit-lambda-overflow": "audit-lambda-overflow",
    "carleman-audit-c1-overflow": "audit-c1-overflow",
    "carleman-audit-decreasing-ladder": "audit-decreasing-ladder",
    "carleman-audit-repeated-s": "audit-repeated-s",
    "control-y0-amplitude-unused": "control-y0-amplitude-nan-unused"})
def test_nan_horizon_is_precondition_error(tmp_path, capsys, row):
    # NaN and inf pass checks written as x <= 0 or x < 1; a non-finite
    # horizon, penalty, tolerance or datum, an empty audit ensemble or an s
    # ladder out of order must end as a precondition error, not as exit 0, a
    # traceback or NO_CONVERGENCE after 500 CG iterations
    check_row(row, tmp_path, capsys)


@contract_rows({"nan-control": "control-alpha-nan", "inf-control": "control-alpha-inf",
                "nan-validate": "validate-alpha-nan", "inf-validate": "validate-alpha-inf"})
def test_nonfinite_alpha_is_precondition_error(tmp_path, capsys, row):
    # a non-finite exponent passes a check written as alpha <= 0: nan ran
    # control into NO_CONVERGENCE, inf ran it to exit 0, and validate blamed
    # the coefficient's sign
    check_row(row, tmp_path, capsys)


@contract_rows({"solve-inf": "solve-gamma-inf", "control-nan": "control-gamma-nan",
                "control-collapsed": "control-gamma-250",
                "control-near-collapsed": "control-gamma-200"})
def test_nonfinite_grading_is_bad_resolution(tmp_path, capsys, row):
    check_row(row, tmp_path, capsys)


@contract_rows({"N-huge": "solve-N-huge", "N-cap": "solve-N-cap", "M-huge": "solve-M-huge",
                "M-cap": "solve-M-cap"})
def test_size_caps_are_bad_resolution(tmp_path, capsys, row):
    # N and M above the desk-scale caps are bad input, refused before any
    # allocation, not a MemoryError
    check_row(row, tmp_path, capsys)


@contract_rows({"upwind-term": "solve-upwind-term", "step-matrix": "solve-step-matrix",
                "coast-step-matrix": "coast-step-matrix",
                "coast-split-of-1e308": "coast-split-of-1e308",
                "coast-step-matrix-drift-free": "coast-step-matrix-drift-free"})
def test_overflowing_operator_is_nonfinite_integral_without_warning(tmp_path, capsys, row):
    # beta c / h and I + dt A overflow: checked where they are formed, so no
    # RuntimeWarning comes first; a drift-free coast's step matrix fails in
    # the coast, before the loop's preconditioner is built
    check_row(row, tmp_path, capsys)


@contract_rows({name: name for name in (
    "control-tiny-datum", "semilinear-tiny-datum", "audit-T-1e60", "audit-T-1e300",
    "audit-T-1e-300", "audit-T-1e-14", "semilinear-T-1e-300")})
def test_unrepresentable_scale_fails_closed_without_warning(tmp_path, capsys, row):
    # a tiny datum's ||rhs||^2 underflows to 0, which CG would read as a zero
    # right-hand side (and ||y0||^2 too, which the cost constant divided by);
    # the audit's theta = (t(T-t))^-4 or theta^3 is 0 or inf at these horizons;
    # at T = 1e-300 the residual's squared sum overflows. Each is a typed
    # error, not ERROR INTERNAL, an exit 0 with a report of zeros or a warning
    check_row(row, tmp_path, capsys)


def test_semilinear_unconverged_exits_0(tmp_path, capsys):
    # the summary flags an unconverged run; growing increments are
    # NO_FIXED_POINT (exit 3) instead
    check_row("semilinear-unconverged", tmp_path, capsys)
