"""The CLI contract, one row per failure path.

``degen-control`` exits 2 for bad input and 3 for a solver failure, ends
every failure with a last line ``ERROR <code>: <message>``, and prints
nothing on stderr: no traceback, no numpy warning. A row gives a config, the
exit status, a regex that the last stdout line must match from its start
(``seed = `` for exit 0) and, optionally, a regex that ``summary.txt`` must
contain (multiline, searched). A config is its ``key = value`` lines joined
by ``; ``; ``{tmp}`` stands for a directory that holds the x^1.5 and x^2
tables of ``write_tables``. ``check`` runs one row ``in_process`` or through
the installed ``script``; ``tests/test_contract.py`` runs every row both ways.
Where ``degen-control`` is not on PATH, ``script`` runs ``python -m
degen_control.cli`` instead, for the first row of each error code
(``MODULE_ROWS``) only, so that a real exit status and stderr are seen
wherever the tests run, at one interpreter start per row.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import warnings
from typing import NamedTuple

import pytest

import degen_control
from degen_control import cli


class Case(NamedTuple):
    id: str
    config: str
    status: int
    last: str
    summary: str | None = None


def write_tables(directory) -> None:
    """x15.csv and x2.csv: 65 uniform rows of x^1.5 and x^2."""
    for name, alpha in (("x15", 1.5), ("x2", 2.0)):
        with open(f"{directory}/{name}.csv", "w") as fh:
            for i in range(65):
                fh.write(f"{i / 64:.17g},{(i / 64) ** alpha:.17g}\n")


SCRIPT = shutil.which("degen-control")


def in_process(cfg, out, capsys):
    """``cli.main`` with every RuntimeWarning recorded and none allowed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = cli.main([cfg, "--out", out])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    printed = capsys.readouterr()
    return status, printed.out, printed.err


def source_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(degen_control.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def script(cfg, out, capsys):
    """The installed ``degen-control`` as a subprocess: its real exit status.
    Without it, ``python -m degen_control.cli`` on this package's source."""
    if SCRIPT is not None:
        command, env = [SCRIPT], None
    else:
        command, env = [sys.executable, "-m", "degen_control.cli"], source_env()
    done = subprocess.run([*command, cfg, "--out", out], capture_output=True, text=True,
                          timeout=120, env=env)
    return done.returncode, done.stdout, done.stderr


def check(case, run, tmp_path, capsys) -> None:
    """Run one row through ``run`` in ``tmp_path`` and hold it to the contract."""
    write_tables(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(case.config.replace("{tmp}", str(tmp_path)).replace("; ", "\n") + "\n")
    out = tmp_path / "out"
    status, stdout, stderr = run(str(cfg), str(out), capsys)
    assert (status, stderr) == (case.status, "")
    assert re.match(case.last, stdout.splitlines()[-1])
    if case.summary is not None:
        assert re.search(case.summary, (out / "summary.txt").read_text(), re.MULTILINE)


SQRT = "a.kind = power; a.alpha = 0.5"
N32 = f"{SQRT}; grid.N = 32; M = 32"
N12 = f"{SQRT}; grid.N = 12; M = 12"
OMEGA0 = f"{SQRT}; grid.N = 8; omega = 0.501,0.502"     # holds no node
AUDIT = f"command = carleman-audit; {N32}"
SINE = "nl.kind = sine; nl.m = 0.5"
MIXED = "nl.kind = mixed; nl.m = 0.5"
B300 = f"{SQRT}; grid.N = 64; M = 128; T = 0.5; b.const = -300"   # 1 + dt (lam + b) near 0
NORMS = r"^norm_y0 = \d.*\nnorm_yT = \d.*\nC_T = \d"    # all three finite
CONVERGED = r"^converged = True$"
OK = "seed = "

CASES = [
    # -- CONFIG: unreadable or ill-formed input (exit 2)
    Case("validate-no-alpha", "command = validate; a.kind = power", 2, r"ERROR CONFIG:.*a\.alpha"),
    Case("missing-command", "a.kind = power", 2, "ERROR CONFIG:.*command"),
    Case("malformed-line", "command validate", 2, "ERROR CONFIG:"),
    Case("missing-table", "command = validate; a.kind = table; a.path = {tmp}/missing.csv",
         2, r"ERROR CONFIG:.*missing\.csv"),
    # -- HYPOTHESIS_VIOLATED: K >= 2 admits no degenerate weight (exit 2)
    Case("validate-alpha-2", "command = validate; a.kind = power; a.alpha = 2.0",
         2, "ERROR HYPOTHESIS_VIOLATED:"),
    Case("validate-table-x2", "command = validate; a.kind = table; a.path = {tmp}/x2.csv",
         2, "ERROR HYPOTHESIS_VIOLATED:"),
    Case("audit-alpha-2", "command = carleman-audit; a.kind = power; a.alpha = 2; grid.N = 32; "
         "M = 32; s.sweep = 1,2; samples = 1", 2, r"ERROR HYPOTHESIS_VIOLATED:.*K = 2\b"),
    Case("audit-alpha-2.5", "command = carleman-audit; a.kind = power; a.alpha = 2.5; "
         "grid.N = 32; M = 32; s.sweep = 1,2; samples = 2", 2,
         r"ERROR HYPOTHESIS_VIOLATED:.*K = 2\.5\b"),
    # -- ENVELOPE_UNBOUNDED: C_beta above its cap of 1e6 (exit 2)
    Case("validate-beta-scale-2e6", f"command = validate; {SQRT}; beta.kind = scaled; "
         "beta.scale = 2e6", 2, r"ERROR ENVELOPE_UNBOUNDED:.*beta\.scale"),
    # -- BAD_RESOLUTION: grading not finite and >= 1, 1/h^2 = inf, N or M past the caps (exit 2)
    Case("solve-gamma-inf", f"command = solve; {N32}; grid.gamma = inf", 2, "ERROR BAD_RESOLUTION:"),
    Case("control-gamma-nan", f"command = control; {N32}; grid.gamma = nan", 2,
         "ERROR BAD_RESOLUTION:"),
    Case("control-gamma-250", f"command = control; {N32}; grid.gamma = 250", 2,
         "ERROR BAD_RESOLUTION:"),
    Case("control-gamma-200", f"command = control; {N32}; grid.gamma = 200", 2,
         "ERROR BAD_RESOLUTION:"),
    Case("solve-N-huge", f"command = solve; {SQRT}; grid.N = 9999999999999", 2,
         "ERROR BAD_RESOLUTION:"),
    Case("solve-N-cap", f"command = solve; {SQRT}; grid.N = 10001", 2, "ERROR BAD_RESOLUTION:"),
    Case("solve-M-huge", f"command = solve; {SQRT}; M = 99999999999", 2, "ERROR BAD_RESOLUTION:"),
    Case("solve-M-cap", f"command = solve; {SQRT}; M = 10001", 2, "ERROR BAD_RESOLUTION:"),
    # -- WEIGHT_INVALID: omega' holds no grid face (exit 2)
    Case("audit-omega-prime-empty", f"command = carleman-audit; {SQRT}; grid.N = 8; M = 16; "
         "T = 3; omega = 0.42,0.44; carleman.lambda = 0.5; s.sweep = 1,2; samples = 2", 2,
         r"ERROR WEIGHT_INVALID: omega' = \(0\.428333, 0\.431667\) holds no grid face$"),
    # -- PRECONDITION: a value that is not finite, out of range or meaningless (exit 2)
    Case("control-omega-empty", f"command = control; {OMEGA0}", 2, "ERROR PRECONDITION:.*omega"),
    Case("sweep-omega-empty", f"command = sweep; {OMEGA0}", 2, "ERROR PRECONDITION:.*omega"),
    Case("observability-omega-empty", f"command = observability; {OMEGA0}", 2,
         "ERROR PRECONDITION:.*omega"),
    Case("audit-omega-empty", f"command = carleman-audit; {OMEGA0}", 2,
         "ERROR PRECONDITION:.*omega"),
    Case("control-T-nan", f"command = control; {N32}; T = nan", 2, "ERROR PRECONDITION:"),
    Case("audit-T-nan", f"{AUDIT}; T = nan", 2, "ERROR PRECONDITION:"),
    Case("control-epsilon-nan", f"command = control; {N32}; epsilon = nan", 2,
         "ERROR PRECONDITION:"),
    Case("sweep-epsilon-nan", f"command = sweep; {N32}; epsilon.sweep = 1e-2,nan,1e-4,1e-5", 2,
         "ERROR PRECONDITION:"),
    Case("control-b-nan", f"command = control; {N32}; b.const = nan", 2, "ERROR PRECONDITION:"),
    Case("control-c-nan", f"command = control; {N32}; c.const = nan", 2, "ERROR PRECONDITION:"),
    Case("control-beta-scale-nan", f"command = control; {N32}; beta.kind = scaled; "
         "beta.scale = nan", 2, "ERROR PRECONDITION:"),
    Case("semilinear-nl-m-nan", f"command = semilinear; {N32}; nl.kind = sine; nl.m = nan", 2,
         "ERROR PRECONDITION:"),
    Case("semilinear-nl-m-nan-unused", f"command = semilinear; {N32}; nl.kind = zero; "
         "nl.m = nan", 2, "ERROR PRECONDITION:"),
    Case("solve-T-inf", f"command = solve; {N32}; T = inf", 2, "ERROR PRECONDITION:"),
    Case("control-T-inf", f"command = control; {N32}; T = inf", 2, "ERROR PRECONDITION:"),
    Case("audit-lambda-inf", f"{AUDIT}; carleman.lambda = inf", 2, "ERROR PRECONDITION:"),
    Case("audit-c1-inf", f"{AUDIT}; carleman.c1 = inf", 2, "ERROR PRECONDITION:"),
    Case("control-cg-tol-nan", f"command = control; {N32}; cg.tol = nan", 2,
         "ERROR PRECONDITION:"),
    Case("semilinear-fp-tol-nan", f"command = semilinear; {N32}; fp.tol = nan", 2,
         "ERROR PRECONDITION:"),
    # checked before the coast and the first freeze, which builds step factors
    Case("semilinear-cg-tol-nan", f"command = semilinear; {N32}; {SINE}; t0 = 0.2; "
         "cg.tol = nan", 2, "ERROR PRECONDITION:.*CG tolerance"),
    Case("control-y0-amplitude-nan", f"command = control; {N32}; y0.amplitude = nan", 2,
         "ERROR PRECONDITION:"),
    Case("control-y0-amplitude-nan-unused", f"command = control; {N32}; y0.kind = zero; "
         "y0.amplitude = nan", 2, "ERROR PRECONDITION:"),
    Case("audit-empty-ladder", f"{AUDIT}; s.sweep =", 2, "ERROR PRECONDITION:"),
    Case("audit-s-inf", f"{AUDIT}; s.sweep = 1,inf,4", 2, "ERROR PRECONDITION:"),
    Case("audit-no-samples", f"{AUDIT}; samples = 0", 2, "ERROR PRECONDITION:"),
    Case("control-cg-maxiter-0", f"command = control; {N32}; cg.maxiter = 0", 2,
         "ERROR PRECONDITION:"),
    Case("semilinear-fp-maxiter-0", f"command = semilinear; {N32}; fp.maxiter = 0", 2,
         "ERROR PRECONDITION:"),
    Case("semilinear-cg-maxiter-0", f"command = semilinear; {N32}; {SINE}; t0 = 0.2; "
         "cg.maxiter = 0", 2, "ERROR PRECONDITION:.*CG budget"),
    Case("observability-power-iters-negative", f"command = observability; {N32}; "
         "power.iters = -1", 2, "ERROR PRECONDITION:"),
    Case("audit-s-cubed-overflow", f"{AUDIT}; s.sweep = 1e300", 2, "ERROR PRECONDITION:"),
    Case("audit-lambda-overflow", f"{AUDIT}; carleman.lambda = 400", 2, "ERROR PRECONDITION:"),
    Case("audit-c1-overflow", f"{AUDIT}; carleman.c1 = 1e308", 2, "ERROR PRECONDITION:"),
    Case("audit-decreasing-ladder", f"{AUDIT}; T = 3; carleman.lambda = 0.5; s.sweep = 4,2,1",
         2, "ERROR PRECONDITION:"),
    Case("audit-decreasing-ladder-lemma", f"{AUDIT}; T = 3; carleman.lambda = 0.5; "
         "s.sweep = 32,16,8,4,2,1; samples = 1; carleman.variant = lemma", 2,
         "ERROR PRECONDITION:"),
    Case("audit-repeated-s", f"{AUDIT}; s.sweep = 2,2", 2, "ERROR PRECONDITION:"),
    Case("control-alpha-nan", "command = control; a.kind = power; a.alpha = nan; grid.N = 32; "
         "M = 32", 2, "ERROR PRECONDITION:.*alpha"),
    Case("control-alpha-inf", "command = control; a.kind = power; a.alpha = inf; grid.N = 32; "
         "M = 32", 2, "ERROR PRECONDITION:.*alpha"),
    Case("validate-alpha-nan", "command = validate; a.kind = power; a.alpha = nan; "
         "grid.N = 32; M = 32", 2, "ERROR PRECONDITION:.*alpha"),
    Case("validate-alpha-inf", "command = validate; a.kind = power; a.alpha = inf; "
         "grid.N = 32; M = 32", 2, "ERROR PRECONDITION:.*alpha"),
    # theta = (t(T-t))^-4 or theta^3 is 0 or not finite at an interior level
    Case("audit-T-1e60", f"command = carleman-audit; {N12}; T = 1e60", 2, "ERROR PRECONDITION:"),
    Case("audit-T-1e300", f"command = carleman-audit; {N12}; T = 1e300", 2,
         "ERROR PRECONDITION:"),
    Case("audit-T-1e-300", f"command = carleman-audit; {N12}; T = 1e-300", 2,
         "ERROR PRECONDITION:"),
    Case("audit-T-1e-14", f"command = carleman-audit; {N12}; T = 1e-14", 2,
         "ERROR PRECONDITION:"),
    # -- NO_CONVERGENCE: an exhausted CG budget, also under the Picard preconditioner (exit 3)
    Case("control-cg-budget", f"command = control; {N32}; cg.maxiter = 2", 3,
         "ERROR NO_CONVERGENCE:"),
    Case("control-classical-cg-budget", "command = control; a.kind = expr-catalog; "
         "a.name = classical; grid.N = 48; M = 32; epsilon = 1e-8; cg.tol = 1e-12; "
         "cg.maxiter = 2", 3, "ERROR NO_CONVERGENCE:"),
    Case("semilinear-cg-budget", f"command = semilinear; {N32}; {SINE}; cg.maxiter = 2", 3,
         "ERROR NO_CONVERGENCE:"),
    # -- NO_FIXED_POINT: a coast step whose inner iteration does not converge (exit 3)
    Case("coast-no-fixed-point", f"command = semilinear; {SQRT}; grid.N = 64; M = 64; T = 2; "
         "y0.kind = sine; y0.amplitude = 3; nl.kind = sine; nl.m = -30; t0 = 1", 3,
         "ERROR NO_FIXED_POINT:"),
    # -- NONFINITE_INTEGRAL: a number past the floats, named where it is formed (exit 3)
    Case("audit-rhs-underflow", f"{AUDIT}; s.sweep = 1; samples = 1; carleman.variant = lemma",
         3, "ERROR NONFINITE_INTEGRAL:.*right-hand side.*s = 1"),
    Case("audit-lhs-underflow", f"{AUDIT}; carleman.c1 = 1e10; s.sweep = 8; samples = 1; "
         "carleman.variant = lemma", 3, "ERROR NONFINITE_INTEGRAL:.*left-hand side.*s = 8"),
    Case("observability-b-1e200", f"command = observability; {SQRT}; grid.N = 16; M = 16; "
         "b.const = 1e200", 3, "ERROR NONFINITE_INTEGRAL:"),
    Case("control-cost-1e154", f"command = control; {N32}; y0.amplitude = 1e154", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("control-cost-1e155", f"command = control; {N32}; y0.amplitude = 1e155", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("control-cost-1e156", f"command = control; {N32}; y0.amplitude = 1e156", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("sweep-cost-1e160", f"command = sweep; {N32}; y0.amplitude = 1e160", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("semilinear-cost-1e155", f"command = semilinear; {N32}; {SINE}; y0.amplitude = 1e155",
         3, "ERROR NONFINITE_INTEGRAL:"),
    Case("solve-ldl-growth", f"command = solve; {N32}; y0.amplitude = 1e300; b.const = -50", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("solve-lu", f"command = solve; {N32}; y0.amplitude = 1e308; c.const = 1; "
         "b.const = -128", 3, "ERROR NONFINITE_INTEGRAL:"),    # 1 + dt b = -1: pivoted LU
    Case("coast-tanh-grad", f"command = semilinear; {N32}; y0.amplitude = 1e308; t0 = 0.2; "
         "nl.kind = tanh-grad", 3, "ERROR NONFINITE_INTEGRAL:"),
    Case("coast-sine", f"command = semilinear; {N32}; y0.amplitude = 1e308; t0 = 0.2; "
         "nl.kind = sine", 3, "ERROR NONFINITE_INTEGRAL:"),
    # no step reads level 0, so the first level frozen is t_1 = 1/64
    Case("semilinear-1e308", f"command = semilinear; {N32}; {SINE}; y0.amplitude = 1e308", 3,
         r"ERROR NONFINITE_INTEGRAL: frozen state or its slope is not finite at t = 0\.015625$"),
    Case("solve-upwind-term", f"command = solve; {N32}; c.const = 1e308", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("solve-step-matrix", f"command = solve; {N32}; T = 1e308", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("coast-step-matrix", f"command = semilinear; {N32}; T = 1e307; t0 = 5e306; {MIXED}", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("coast-step-matrix-drift-free", f"command = semilinear; {N32}; T = 1e307; t0 = 5e306; "
         f"{SINE}", 3, "ERROR NONFINITE_INTEGRAL:"),
    # 10 + 22 steps, taken as M (t0 / T) because M t0 overflows
    Case("coast-split-of-1e308", f"command = semilinear; {N32}; {MIXED}; T = 1e308; t0 = 3e307",
         3, "ERROR NONFINITE_INTEGRAL:"),
    # the step matrix overflows; the preconditioner built before it warns of nothing
    Case("semilinear-step-matrix", f"command = semilinear; {N32}; T = 1e307; {SINE}", 3,
         "ERROR NONFINITE_INTEGRAL: the step matrix"),
    Case("control-tiny-datum", f"command = control; {N12}; y0.amplitude = 1e-300", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("semilinear-tiny-datum", f"command = semilinear; {N12}; y0.amplitude = 1e-300", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("sweep-tiny-datum", f"command = sweep; {N12}; y0.amplitude = 1e-300", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    Case("sweep-T-1e300", f"command = sweep; {N12}; T = 1e300", 3, "ERROR NONFINITE_INTEGRAL:"),
    Case("semilinear-T-1e-300", f"command = semilinear; {N12}; T = 1e-300", 3,
         "ERROR NONFINITE_INTEGRAL:"),
    # near-singular steps overflow the dense Gramian's powering
    Case("observability-gramian-overflow", f"command = observability; {B300}; samples = 5", 3,
         "ERROR NONFINITE_INTEGRAL: the dense Gramian"),
    Case("sweep-gramian-overflow", f"command = sweep; {B300}; "
         "epsilon.sweep = 1e-2,1e-3,1e-4,1e-5", 3, "ERROR NONFINITE_INTEGRAL: the dense Gramian"),
    # lam_min = -5e16 is round-off against lam_max = 1.6e32: the ladder, not B, is at fault
    Case("sweep-penalty-below-round-off", f"command = sweep; {SQRT}; grid.N = 16; M = 16; "
         "T = 0.5; b.const = -40", 3, r"ERROR NOT_SPD: the ladder's smallest penalty \S+ "
         r"lies below what the Gramian resolves: .* round-off floor n eps_mach lam_max = "),
    # a finite Gramian pair whose quadratic form u'Au overflows
    Case("observability-quotient-overflow", f"command = observability; {SQRT}; grid.N = 32; "
         "M = 64; b.const = -150; samples = 5", 3, "ERROR NONFINITE_INTEGRAL: u'Au"),
    # -- exit 0 where the numbers stay finite and mean what they say
    Case("solve-1e308", f"command = solve; {N32}; y0.amplitude = 1e308", 0, OK, NORMS),
    Case("solve-drift-1e308", f"command = solve; {N32}; y0.amplitude = 1e308; c.const = 1", 0,
         OK, NORMS),
    Case("semilinear-b-5", f"command = semilinear; {SQRT}; grid.N = 16; M = 16; {SINE}; "
         "b.const = 5", 0, OK, CONVERGED),
    Case("semilinear-1e153", f"command = semilinear; {N32}; {SINE}; y0.amplitude = 1e153", 0,
         OK, CONVERGED),
    Case("semilinear-unconverged", f"command = semilinear; {N32}; {MIXED}; fp.maxiter = 1", 0,
         OK, r"^iterations = 1\nconverged = False$"),
    # steep grading: ||T|| grows like 1/h_min^2, and C_H = 1/mu_min must keep mu_min
    Case("validate-gamma-12", f"command = validate; {SQRT}; grid.N = 32; grid.gamma = 12", 0,
         OK, r"^C_H = 0\.21792228514"),
    Case("validate-gamma-20", f"command = validate; {SQRT}; grid.N = 32; grid.gamma = 20", 0,
         OK, r"^C_H = 0\.22864503733"),
    Case("validate-table-x15", "command = validate; a.kind = table; a.path = {tmp}/x15.csv", 0,
         OK),
]

ROWS = {case.id: case for case in CASES}
# the first row of each error code, which ``script`` runs as a module where
# the console script is not installed
MODULE_ROWS = {}
for _case in CASES:
    _code = re.match(r"ERROR ([A-Z_]+)", _case.last)
    if _code:
        MODULE_ROWS.setdefault(_code.group(1), _case.id)
