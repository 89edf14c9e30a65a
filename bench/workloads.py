"""The benchmark's workloads: fixed config lists, one per workload.

A workload is a list of ``(name, command, config text)``. The seed is not
part of the configs; it reaches the program only through
``cli.run(seed=...)``.
"""

from __future__ import annotations

import os

GRID = ("a.kind = power\n"
        "grid.gamma = 1.0\n"
        "omega = 0.3,0.9\n")

WORKLOADS = {
    # Linear penalised HUM with time-independent coefficients: matrix-free CG
    # over many single-column tridiagonal solves. Prefactoring and a dense
    # Gramian act here.
    "hum": [
        ("control", "control",
         GRID + "a.alpha = 0.5\ngrid.N = 128\nT = 0.5\nM = 256\n"
                "y0.kind = sine\nepsilon = 1e-6\n"),
        ("sweep", "sweep",
         GRID + "a.alpha = 1.5\ngrid.N = 128\nT = 0.5\nM = 256\n"
                "y0.kind = sine\nepsilon.sweep = 1e-2,1e-3,1e-4,1e-5,1e-6\n"),
        ("observability", "observability",
         GRID + "a.alpha = 1.5\ngrid.N = 128\nT = 0.5\nM = 256\n"
                "samples = 50\npower.iters = 8\n"),
    ],
    # Weighted-inequality audit in the refinement-stable regime plus a
    # hypothesis report: quad, random fields and log-space functionals, with
    # PDE solves a minority of the time.
    "audit": [
        ("carleman-audit", "carleman-audit",
         GRID + "a.alpha = 0.5\ngrid.N = 128\nT = 3.0\nM = 128\n"
                "carleman.lambda = 0.5\ns.sweep = 1,2,4,8,16,32\n"
                "samples = 30\ncarleman.variant = both\n"),
        ("validate", "validate",
         GRID + "a.alpha = 1.5\na.case = SDP\ngrid.N = 256\nhardy.samples = 200\n"),
    ],
    # Two-phase semilinear control: time-dependent frozen coefficients (one
    # step matrix per time level), few CG iterations per solve, and a large
    # control.csv. fp.tol = 1e-8 makes every seed take the same number of
    # Picard iterations, so run_s does not jump between seeds.
    "semilinear": [
        ("semilinear", "semilinear",
         GRID + "a.alpha = 0.5\ngrid.N = 384\nT = 0.5\nM = 384\n"
                "y0.kind = noise\nnl.kind = mixed\nnl.m = 0.5\nt0 = 0.1\n"
                "epsilon = 1e-3\nfp.tol = 1e-8\n"),
    ],
}

DEFAULT_SEED = 0
# The README control config: 1 free forward sweep, 108 CG iterations of one
# backward and one forward sweep each, then one backward and one forward
# sweep, all over 256 steps: 256 * (1 + 2 * 108 + 2) = 56,064.
EXPECTED_SOLVES = {("hum", "control"): 56064}


def write_configs(workload: str, directory: str) -> list:
    """Write the workload's configs; returns [(name, command, path)]."""
    out = []
    for name, command, body in WORKLOADS[workload]:
        path = os.path.join(directory, f"{name}.cfg")
        with open(path, "w") as fh:
            fh.write(f"command = {command}\n{body}")
        out.append((name, command, path))
    return out
