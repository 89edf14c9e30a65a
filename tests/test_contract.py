"""Every row of ``contract_cases`` in process, through ``cli.main``, and
through the installed ``degen-control`` script, whose real exit status and
stderr only a subprocess sees. The script mode skips where the script is not
on PATH; CI installs it before the tests run."""

import pytest

from contract_cases import CASES, check, in_process, script


@pytest.mark.parametrize("run", [in_process, script], ids=["in-process", "script"])
@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_contract(case, run, tmp_path, capsys):
    check(case, run, tmp_path, capsys)
