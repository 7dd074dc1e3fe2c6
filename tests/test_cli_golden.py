"""Pinned `abd solve`, `count` and `enumerate` output.

`cli_golden.json` holds, for one small instance per route and variant, the
exact stdout and exit code of each command, as text and with `--json`. It
was captured before solve, count and enumerate shared one route table. The
one intended difference since then: the disjunctive route counts with its
enumeration walk instead of the oracle, so its count method reads
`V-witness` instead of `oracle`.
"""

import json
from pathlib import Path

import pytest

from cloneabd.abduction import parse_instance
from cloneabd.cli import main
from cloneabd.solvers import route_of

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _case_id(case):
    found = "found" if case["runs"]["solve"][0] == 0 else "none"
    return f"{case['route']}-{case['base']}-{case['variant']}-{found}"


def _expected(case, command, stdout):
    if case["route"] == "disjunctive" and command.startswith("count"):
        return (stdout.replace('"method": "oracle"', '"method": "V-witness"')
                .replace("(method oracle)", "(method V-witness)"))
    return stdout


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_cli_output_is_pinned(case, tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(case["instance"])
    assert route_of(parse_instance(case["instance"])) == case["route"]
    for command, (code, stdout) in case["runs"].items():
        name, *flags = command.split()
        got = main([name, str(path), *flags])
        out = capsys.readouterr().out
        assert (got, out) == (code, _expected(case, command, stdout)), command
