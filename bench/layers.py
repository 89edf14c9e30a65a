"""Per-layer metrics of one traced pass, derived from a ``tracer.Tracer``.

Names follow the package modules. ``*_s`` values are inclusive times of the
named functions (outermost call only, for recursive names) unless the name
says ``self``; a layer's ``self_s`` is the summed duration of its frames
minus the time their child frames cover.
"""

from __future__ import annotations

import tracer

# Commands run by some workload, for the cli.cmd.<command>_s metrics.
COMMANDS = ("control", "sweep", "observability", "carleman-audit", "validate",
            "semilinear")
WRITERS = tuple(f"{layer}.{attr}" for layer, attr in tracer.WRITERS)


def _outer_seconds(spans, prefix: str) -> float:
    """Summed duration of spans named ``prefix*`` with no such ancestor."""
    total = 0.0
    for name, _tid, parent, start, end, _child in spans:
        if not name.startswith(prefix):
            continue
        while parent is not None and not spans[parent][0].startswith(prefix):
            parent = spans[parent][2]
        if parent is None:
            total += end - start
    return total


def per_layer(tr) -> dict:
    totals, counters = tr.totals, tr.counters

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    factorizations = counters.get("tridiag.factorizations", 0)
    rhs_cols = counters.get("tridiag.rhs_cols", 0)
    m = {
        "pde.tridiag_solves": counters.get("tridiag.solves", 0),
        "pde.tridiag_rhs_cols": rhs_cols,
        "pde.factorizations": factorizations,
        "pde.tridiag_solve_s": incl(*(f"scipy.{attr}" for _mod, attr in tracer.TRIDIAG)),
        "pde.solves_per_factorization":
            rhs_cols / factorizations if factorizations else 0.0,
        "pde.tridiag_eigensolves": calls("scipy.eigvalsh_tridiagonal"),
        "pde.forward_sweeps": calls("pde.solve_forward"),
        "pde.forward_sweep_s": incl("pde.solve_forward"),
        "pde.adjoint_sweeps": calls("pde.solve_adjoint"),
        "pde.adjoint_sweep_s": incl("pde.solve_adjoint"),
        "mesh.assemble_calls": calls("mesh.assemble_operator"),
        "mesh.assemble_s": incl("mesh.assemble_operator"),
        "mesh.hardy_s": incl("mesh.hardy_check"),
        "control.hum_solves": calls("control.hum_solve"),
        "control.hum_s": incl("control.hum_solve"),
        "control.cg_iters": counters.get("control.cg_iters", 0),
        "control.sweep_s": incl("control.epsilon_sweep"),
        "control.observability_s": incl("control.observability_estimate"),
        "carleman.build_weights_s": incl("carleman.build_weights"),
        "carleman.quad_calls": calls("scipy.quad"),
        "carleman.quad_s": incl("scipy.quad"),
        "carleman.terminal_solves": calls("carleman.solve_terminal_source"),
        "carleman.terminal_solve_s": incl("carleman.solve_terminal_source"),
        "carleman.functionals_calls": calls("carleman.carleman_functionals")
                                      + calls("carleman.cacciopoli_check"),
        "carleman.functionals_s": incl("carleman.carleman_functionals",
                                       "carleman.cacciopoli_check"),
        "carleman.field_eval_s": incl("carleman.field_eval"),
        "carleman.ratio_experiment_s": incl("carleman.ratio_experiment"),
        "coefficients.a_eval_calls": calls("coefficients.a_eval"),
        "coefficients.validate_s": incl("coefficients.validate_coefficient",
                                        "coefficients.validate_beta"),
        "semilinear.picard_iters": counters.get("semilinear.picard_iters", 0),
        "semilinear.picard_s":
            totals.get("semilinear.picard_null_control", (0, 0.0, 0.0))[2],
        "semilinear.freeze_s": incl("semilinear.freeze_coefficients"),
        "semilinear.coast_s": incl("semilinear.semilinear_forward"),
        "semilinear.residual_s": incl("semilinear.semilinear_residual"),
        "cli.build_s": _outer_seconds(tr.spans, "cli.build_"),
        "cli.write_s": incl(*WRITERS),
        "cli.write_bytes": counters.get("cli.write_bytes", 0),
        "config.parse_s": incl("config.parse_config"),
        "trace.spans": len(tr.spans),
    }
    for command in COMMANDS:
        m[f"cli.cmd.{command}_s"] = incl(f"cli.cmd_{command.replace('-', '_')}")
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = sum(t[2] for name, t in totals.items()
                                   if name.split(".", 1)[0] == layer)
    return m
