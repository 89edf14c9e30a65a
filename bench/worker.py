"""One fresh benchmark process: a set-up probe or a series of passes.

    worker.py setup  --workload W --seed N --workdir D
    worker.py passes --workload W --seed N --workdir D --result FILE
                     [--budget S] [--min-passes K] [--max-passes K]
                     [--trace] [--spans FILE]

``setup`` times, from a fresh interpreter, ``import degen_control`` plus
building every config's problem (and the Carleman weights or nonlinearity
where the command uses them), and prints one JSON line.

``passes`` runs the workload's configs through ``cli.run`` again and again,
one pass after the other, and writes per-pass wall times, the peak RSS after
the first pass, the result checks and, with ``--trace``, the per-layer
numbers of each pass to ``--result``.

Only the standard library is imported at module level, so that the set-up
probe's clock sees numpy and scipy being imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _import_package(tracer=None):
    """Import degen_control from this checkout's src/, never from elsewhere;
    with a tracer, through ``tracer.install``."""
    sys.path.insert(0, SRC_DIR)
    if tracer is not None:
        from tracer import install
        package = install(tracer)
    else:
        import degen_control as package
    origin = os.path.dirname(os.path.abspath(package.__file__))
    if origin != os.path.join(SRC_DIR, "degen_control"):
        raise SystemExit(f"degen_control imported from {origin}, not {SRC_DIR}")
    return package


def _config_paths(workload: str, workdir: str):
    from workloads import WORKLOADS
    return [(name, command, os.path.join(workdir, f"{name}.cfg"))
            for name, command, _ in WORKLOADS[workload]]


def setup_probe(args) -> dict:
    t0 = time.perf_counter()
    _import_package()
    from degen_control import carleman, cli
    from degen_control.config import parse_config
    import numpy as np
    t1 = time.perf_counter()
    for _name, command, path in _config_paths(args.workload, args.workdir):
        cfg = parse_config(path)
        p = cli.build_problem(cfg, np.random.default_rng(args.seed))
        if command == "carleman-audit":
            carleman.build_weights(p.a, p.omega, p.T,
                                   c1=cfg.get_float("carleman.c1", default=1.0),
                                   lam=cfg.get_float("carleman.lambda", default=2.0),
                                   grid=p.grid)
        elif command == "semilinear":
            cli.build_nonlinearity(cfg, p.drift)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}


def _run_pass(cli, configs, workdir, k, seed, tracer):
    """One pass over the configs; returns (wall seconds, per-config records)."""
    passdir = os.path.join(workdir, f"pass{k}")
    records = []
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        start = time.perf_counter()
        for i, (name, _command, path) in enumerate(configs):
            outdir = os.path.join(passdir, name)
            if tracer is not None:
                tracer.trace_id = i
                before = tracer.snapshot()
            t = time.perf_counter()
            try:
                rc, error = cli.run(path, outdir=outdir, seed=seed), None
            except Exception:    # a crash fails this config, not the benchmark
                rc, error = None, traceback.format_exc(limit=5)
            rec = {"name": name, "outdir": outdir, "rc": rc, "error": error,
                   "seconds": time.perf_counter() - t}
            if tracer is not None:
                after = tracer.snapshot()
                rec["counts"] = {key: after[key] - before.get(key, 0)
                                 for key in after if after[key] != before.get(key, 0)}
            records.append(rec)
        wall = time.perf_counter() - start
    return wall, records


def _check_pass(workload, configs, records, reference):
    from checks import physical_results, reference_check, seed_free_checks
    from workloads import WORKLOADS
    bodies = {name: body for name, _c, body in WORKLOADS[workload]}
    results = {}
    for (name, command, _path), rec in zip(configs, records):
        if rec["rc"] != 0:
            rec["failures"] = [f"{name}: exit status {rec['rc']}"
                               + (f"\n{rec['error']}" if rec["error"] else "")]
            continue
        try:
            got = physical_results(command, rec["outdir"])
            bad = seed_free_checks(command, bodies[name], rec["outdir"])
            bad += reference_check(workload, name, got, reference)
        except (OSError, KeyError, ValueError) as exc:
            got, bad = {}, [f"{name}: unreadable output: {exc!r}"]
        rec["failures"] = bad
        results[name] = got
    return results


def run_passes(args) -> dict:
    from tracer import Tracer
    tracer = Tracer() if args.trace else None
    _import_package(tracer)
    from degen_control import cli
    import numpy
    import scipy
    from checks import load_reference
    from layers import per_layer
    from workloads import DEFAULT_SEED

    configs = _config_paths(args.workload, args.workdir)
    reference = load_reference() if args.seed == DEFAULT_SEED else {}
    passes, physical, peak_rss_kib = [], None, None
    start = time.perf_counter()
    while True:
        k = len(passes)
        if tracer is not None:
            tracer.reset()
        wall, records = _run_pass(cli, configs, args.workdir, k, args.seed, tracer)
        if k == 0:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results = _check_pass(args.workload, configs, records, reference)
        physical = physical if physical is not None else results
        entry = {"seconds": wall, "configs": [
            {key: rec[key] for key in ("name", "rc", "seconds", "failures", "counts")
             if key in rec} for rec in records]}
        if tracer is not None:
            entry["layers"] = per_layer(tracer)
        passes.append(entry)
        shutil.rmtree(os.path.join(args.workdir, f"pass{k}"), ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(passes) >= args.max_passes:
            break
        if len(passes) >= args.min_passes and elapsed + wall > args.budget:
            break
    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "trace_id", "parent", "start", "end", "child_s"],
                       "configs": [name for name, _c, _p in configs],
                       "spans": tracer.spans}, fh)
    return {"passes": passes, "peak_rss_kib": peak_rss_kib, "physical": physical,
            "versions": {"python": sys.version.split()[0],
                         "numpy": numpy.__version__, "scipy": scipy.__version__}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("setup", "passes"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--max-passes", type=int, default=1000)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps(setup_probe(args)))
        return 0
    result = run_passes(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
