"""Golden-run regression corpus.

Each config in tests/golden/ is replayed into a fresh directory and compared
against the committed outputs in tests/golden/expected/<name>/. Structure
(file set, headers, row counts, summary keys) must match exactly; numeric
values are compared with a tight relative tolerance so that a changed BLAS
only moves round-off, while iteration-count columns get a small integer
slack. Regenerate the runs an intentional behavior change moves, by name,

    GOLDEN_REGEN=validate_x32,audit_sqrt pytest tests/test_golden.py

so that the other runs keep their committed bits, or every run with

    GOLDEN_REGEN=1 pytest tests/test_golden.py

A name that is not a run fails the test that checks the names.
"""

import os
import shutil

import numpy as np
import pytest

from degen_control.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
EXPECTED_DIR = os.path.join(GOLDEN_DIR, "expected")
RUNS = sorted(name[:-4] for name in os.listdir(GOLDEN_DIR)
              if name.endswith(".cfg"))
_REGEN = os.environ.get("GOLDEN_REGEN", "")
REGEN = set(RUNS) if _REGEN == "1" else set(filter(None, _REGEN.split(",")))

RTOL, ATOL = 1e-6, 1e-12
COUNT_COLUMNS = {"cg_iters", "iter", "sample", "n_samples", "samples",
                 "iterations", "seed"}
COUNT_SLACK = 2


def _compare_cell(name, got, want):
    try:
        g, w = float(got), float(want)
    except ValueError:
        assert got == want, f"{name}: {got!r} != {want!r}"
        return
    if name in COUNT_COLUMNS:
        assert abs(g - w) <= COUNT_SLACK, f"{name}: {g} vs {w}"
    else:
        assert np.isclose(g, w, rtol=RTOL, atol=ATOL), f"{name}: {g} vs {w}"


def _compare_csv(path_got, path_want):
    got = open(path_got).read().splitlines()
    want = open(path_want).read().splitlines()
    assert got[0] == want[0], f"{path_got}: header changed"
    assert len(got) == len(want), f"{path_got}: row count changed"
    columns = got[0].split(",")
    for row_got, row_want in zip(got[1:], want[1:]):
        for col, g, w in zip(columns, row_got.split(","), row_want.split(",")):
            _compare_cell(col, g, w)


def _compare_summary(path_got, path_want):
    got = [line.partition(" = ") for line in open(path_got).read().splitlines()]
    want = [line.partition(" = ") for line in open(path_want).read().splitlines()]
    assert len(got) == len(want), f"{path_got}: summary line count changed"
    for (key, sep, g), (want_key, want_sep, w) in zip(got, want):
        assert sep == want_sep and (not sep or key == want_key), \
            f"{path_got}: summary structure changed at {key!r}"
        if sep:
            _compare_cell(key.strip(), g, w)
        else:
            # headline lines carry no key; match up to numeric formatting
            assert key.split("=")[0] == want_key.split("=")[0]


def test_golden_regen_names_runs():
    assert REGEN <= set(RUNS), f"GOLDEN_REGEN names no run: {sorted(REGEN - set(RUNS))}"


@pytest.mark.parametrize("run", RUNS)
def test_golden_run(run, tmp_path):
    cfg = os.path.join(GOLDEN_DIR, f"{run}.cfg")
    outdir = tmp_path / run
    assert main([cfg, "--out", str(outdir)]) == 0
    expected = os.path.join(EXPECTED_DIR, run)
    if run in REGEN:
        shutil.rmtree(expected, ignore_errors=True)
        shutil.copytree(outdir, expected)
        pytest.skip(f"regenerated golden outputs for {run}")
    assert os.path.isdir(expected), f"no golden outputs for {run}; " \
        f"run GOLDEN_REGEN={run} pytest tests/test_golden.py"
    got_files = sorted(os.listdir(outdir))
    want_files = sorted(os.listdir(expected))
    assert got_files == want_files, f"{run}: output file set changed"
    for name in want_files:
        got, want = str(outdir / name), os.path.join(expected, name)
        if name.endswith(".csv"):
            _compare_csv(got, want)
        else:
            _compare_summary(got, want)


def _readme_output_names():
    """Backticked names in the first cell of README's "Output reference" table."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme).read()
    section = text.split("\n## Output reference\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    return {name for cell in rows for name in cell.split("`")[1::2]}


def test_every_printed_name_has_a_readme_row():
    # every summary key and CSV column of the golden runs is defined in README
    documented = _readme_output_names()
    printed = set()
    for run in RUNS:
        expected = os.path.join(EXPECTED_DIR, run)
        for name in os.listdir(expected):
            lines = open(os.path.join(expected, name)).read().splitlines()
            if name.endswith(".csv"):
                printed.update(lines[0].split(","))
            else:
                printed.update(key for key, sep, _ in (line.partition(" = ") for line in lines)
                               if sep)
    assert len(printed) >= 40
    assert printed <= documented, f"no README row for {sorted(printed - documented)}"
