"""Every row of ``contract_cases`` in process, through ``cli.main``, and
through the installed ``degen-control`` script, whose real exit status and
stderr only a subprocess sees. CI installs the script before the tests run.
Where it is not on PATH, the script mode runs the first row of each error
code as ``python -m degen_control.cli`` and skips the others. Beside the
table, ``OUT_OF_MEMORY`` runs in a child process that caps its own address
space first."""

import os
import re
import subprocess
import sys

import pytest

from contract_cases import CASES, MODULE_ROWS, SCRIPT, check, in_process, script, source_env


@pytest.mark.parametrize("run", [in_process, script], ids=["in-process", "script"])
@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_contract(case, run, tmp_path, capsys):
    if run is script and SCRIPT is None and case.id not in MODULE_ROWS.values():
        pytest.skip("degen-control is not installed on PATH; its error code runs as a module")
    check(case, run, tmp_path, capsys)


# Caps the child's address space 32 MiB above its size once numpy, scipy and
# the package are loaded, then runs cli.main: the 128 MiB states of a 4096 x
# 4096 solve cannot be mapped, so the allocation fails without being made.
_CAPPED_MAIN = """
import resource, sys
from degen_control import cli
with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = size + 32 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="the child reads its address-space size from /proc/self/statm")
def test_a_failed_allocation_is_out_of_memory(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = solve\na.kind = power\na.alpha = 0.5\n"
                   "grid.N = 4096\nM = 4096\n")
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, str(cfg), "--out",
                           str(tmp_path / "out")], capture_output=True, text=True,
                          timeout=120, env=source_env())
    assert (done.returncode, done.stderr) == (3, "")
    last = done.stdout.splitlines()[-1]
    assert re.match(r"ERROR OUT_OF_MEMORY: .*shape \(4097, 4096\).*"
                    r"\(config grid\.N = 4096, M = 4096\)$", last), last
