"""Every row of ``contract_cases`` in process, through ``cli.main``, and
through the installed ``degen-control`` script, whose real exit status and
stderr only a subprocess sees. CI installs the script before the tests run.
Where it is not on PATH, the script mode runs the first row of each error
code as ``python -m degen_control.cli`` and skips the others."""

import pytest

from contract_cases import CASES, MODULE_ROWS, SCRIPT, check, in_process, script


@pytest.mark.parametrize("run", [in_process, script], ids=["in-process", "script"])
@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_contract(case, run, tmp_path, capsys):
    if run is script and SCRIPT is None and case.id not in MODULE_ROWS.values():
        pytest.skip("degen-control is not installed on PATH; its error code runs as a module")
    check(case, run, tmp_path, capsys)
