"""Benchmark of degen_control: end-to-end metrics, per-layer tracing, checks.

    python3 bench/run.py [--workload hum|audit|semilinear|all] [--seed N]
                         [--seconds S] [--trace 0|1|both]

With no arguments it runs every workload untraced and traced at seed 0 and
prints every metric by name with its unit; the checks run on every pass.
Each (workload, trace) result ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the last line of the
output is the last such result. See bench/README.md.

The program is imported from ``src/`` next to this directory. Outputs,
records and span files go to ``.bench_out/`` there.
"""

from __future__ import annotations

import os

# Single-threaded load: pin BLAS before any child imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, EXPECTED_SOLVES, WORKLOADS, write_configs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_PROBES = 7        # fresh interpreters per set-up measurement
MIN_PASSES = 3          # passes per untraced run, at least
TRACE_PASSES = 2        # passes per process in a traced run
DEADLINE_S = 170.0      # whole run, so that it ends within 180 s

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Counters that must repeat exactly between two traced passes.
DETERMINISTIC = ("pde.tridiag_solves", "pde.tridiag_rhs_cols", "pde.factorizations",
                 "pde.tridiag_eigensolves", "pde.forward_sweeps",
                 "pde.adjoint_sweeps", "mesh.assemble_calls",
                 "control.hum_solves", "control.cg_iters",
                 "carleman.quad_calls", "carleman.terminal_solves",
                 "carleman.functionals_calls", "coefficients.a_eval_calls",
                 "semilinear.picard_iters", "cli.write_bytes")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
    return proc.stdout


def _setup(workload, seed, workdir, deadline) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        line = _child(["setup", "--workload", workload, "--seed", str(seed),
                       "--workdir", workdir], deadline).strip().splitlines()[-1]
        out.append(json.loads(line))
    return out


def _passes(workload, seed, workdir, deadline, tag, *, budget=0.0,
            min_passes=1, max_passes=1000, trace=False) -> dict:
    result = os.path.join(workdir, f"{tag}.json")
    args = ["passes", "--workload", workload, "--seed", str(seed),
            "--workdir", workdir, "--result", result, "--budget", str(budget),
            "--min-passes", str(min_passes), "--max-passes", str(max_passes)]
    if trace:
        args += ["--trace", "--spans",
                 os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")]
    _child(args, deadline)
    with open(result) as fh:
        return json.load(fh)


def _failures(runs) -> tuple:
    attempted, failed, messages = 0, 0, []
    for run in runs:
        for p in run["passes"]:
            for cfg in p["configs"]:
                attempted += 1
                if cfg["failures"]:
                    failed += 1
                    messages.extend(cfg["failures"])
    return attempted, failed, messages


def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC_DIR, "degen_control")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC_DIR).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _environment(versions, seed, trace) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {**versions, "nproc": nproc,
            "blas_threads": min(int(os.environ["OPENBLAS_NUM_THREADS"]), nproc),
            "git_sha": _git_sha(), "src_sha256": _source_digest(),
            "seed": seed, "trace": trace}


def run_untraced(workload, seed, seconds, workdir, deadline) -> tuple:
    start = time.monotonic()
    setups = _setup(workload, seed, workdir, deadline)
    budget = max(seconds - (time.monotonic() - start), 0.0)
    run = _passes(workload, seed, workdir, deadline, "untraced", budget=budget,
                  min_passes=MIN_PASSES)
    walls = [p["seconds"] for p in run["passes"]]
    metrics = {"run_s": statistics.median(walls),
               "setup_s": statistics.median(s["setup_s"] for s in setups),
               "peak_rss_mib": run["peak_rss_kib"] / 1024.0}
    samples = {"run_s": walls, "setup_s": [s["setup_s"] for s in setups],
               "setup_import_s": [s["import_s"] for s in setups],
               "setup_build_s": [s["build_s"] for s in setups]}
    return metrics, samples, [run], []


def run_traced(workload, seed, seconds, workdir, deadline) -> tuple:
    plain = _passes(workload, seed, workdir, deadline, "untraced",
                    min_passes=TRACE_PASSES, max_passes=TRACE_PASSES)
    traced = _passes(workload, seed, workdir, deadline, "traced",
                     min_passes=TRACE_PASSES, max_passes=TRACE_PASSES, trace=True)
    layers = [p["layers"] for p in traced["passes"]]
    problems = []
    for key in DETERMINISTIC:
        values = {layer[key] for layer in layers}
        if len(values) != 1:
            problems.append(f"counter {key} differs between traced passes: {values}")
    first = traced["passes"][0]["configs"]
    for other in traced["passes"][1:]:
        for a, b in zip(first, other["configs"]):
            if a.get("counts") != b.get("counts"):
                problems.append(f"{a['name']}: per-config counts differ between passes")
    for (wl, name), want in EXPECTED_SOLVES.items():
        if wl != workload:
            continue
        got = next(c["counts"].get("tridiag.solves", 0) for c in first if c["name"] == name)
        if got != want:
            problems.append(f"{name}: {got:g} tridiagonal solves, expected {want}")
    metrics = {key: statistics.median(layer[key] for layer in layers)
               if key.endswith("_s") else layers[0][key] for key in layers[0]}
    plain_walls = [p["seconds"] for p in plain["passes"]]
    traced_walls = [p["seconds"] for p in traced["passes"]]
    metrics["trace.untraced_run_s"] = statistics.median(plain_walls)
    metrics["trace.traced_run_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = (metrics["trace.traced_run_s"]
                                   - metrics["trace.untraced_run_s"])
    samples = {"untraced_run_s": plain_walls, "traced_run_s": traced_walls,
               "per_config_counts": {c["name"]: c["counts"] for c in first}}
    return metrics, samples, [plain, traced], problems


def run_one(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT_DIR, "tmp", f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        write_configs(workload, workdir)
        runner = run_traced if trace else run_untraced
        metrics, samples, runs, problems = runner(workload, seed, seconds,
                                                  workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, messages = _failures(runs)
    record = {"workload": workload,
              "environment": _environment(runs[0]["versions"], seed, trace),
              "metrics": metrics, "samples": samples,
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted,
              "failures": messages + problems,
              "physical_results": runs[0]["physical"]}
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    record["record_path"] = path
    return record


def _units(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "pde.solves_per_factorization":
        return "ratio"
    return "count"


def report(record) -> dict:
    env = record["environment"]
    print(f"# workload {record['workload']}  seed {env['seed']}  trace {env['trace']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, samples in record["samples"].items():
        if isinstance(samples, list):
            print(f"#   {name}: n = {len(samples)}, "
                  + ", ".join(f"{v:.4f}" for v in samples))
    for name, value in record["metrics"].items():
        print(f"{name} = {value!r} {_units(name)}")
    print(f"fail_frac = {record['fail_frac']!r} ratio "
          f"({record['failed']} failed of {record['attempted']} configs)")
    for msg in record["failures"]:
        print(f"# FAILED: {msg}")
    print(f"# record: {record['record_path']}")
    return {"correct": not record["failures"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": _units(name)}
                        for name, value in record["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30,
                    help="measuring time of one untraced run")
    ap.add_argument("--trace", default="both", choices=("0", "1", "both"))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "degen_control", "__init__.py")):
        print(f"error: no degen_control package under {SRC_DIR}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC_DIR, quiet=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.trace == "both" else (args.trace == "1",)
    try:
        for workload in workloads:
            for trace in traces:
                result = report(run_one(workload, args.seed, args.seconds, trace))
                print(json.dumps(result), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
