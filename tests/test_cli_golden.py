"""Pinned `abd solve`, `count` and `enumerate` output.

`cli_golden.json` holds, for one small instance per route and variant, the
exact stdout and exit code of each command, as text and with `--json`. It
was captured before solve, count and enumerate shared one route table.
`_expected` applies the intended differences since then:
- the disjunctive route counts with its enumeration walk and the monotone
  and general routes with their own scans instead of the oracle, so their
  count methods read `V-witness`, `monotone-scan` and `general-scan`
  instead of `oracle`;
- `enumerate` on the monotone and general routes outside V lists the
  explanations (in the oracle's canonical order) instead of exiting 2.
"""

import json
from pathlib import Path

import pytest

from cloneabd.abduction import oracle_enumerate, parse_instance
from cloneabd.cli import main
from cloneabd.solvers import route_of

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _case_id(case):
    found = "found" if case["runs"]["solve"][0] == 0 else "none"
    return f"{case['route']}-{case['base']}-{case['variant']}-{found}"


COUNT_LABELS = {"disjunctive": "V-witness", "monotone": "monotone-scan",
                "general": "general-scan"}


def _expected(case, command, code, stdout):
    name = command.split()[0]
    label = COUNT_LABELS.get(case["route"])
    if name == "count" and label:
        return code, (stdout.replace('"method": "oracle"',
                                     f'"method": "{label}"')
                      .replace("(method oracle)", f"(method {label})"))
    if name == "enumerate" and code == 2 \
            and case["route"] in ("monotone", "general"):
        listed = [e.serialize()
                  for e in oracle_enumerate(parse_instance(case["instance"]))]
        if "--json" in command:
            return 0, json.dumps({"explanations": listed}) + "\n"
        return 0, "".join(e + "\n" for e in listed)
    return code, stdout


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_cli_output_is_pinned(case, tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(case["instance"])
    assert route_of(parse_instance(case["instance"])) == case["route"]
    for command, (code, stdout) in case["runs"].items():
        name, *flags = command.split()
        got = main([name, str(path), *flags])
        out = capsys.readouterr().out
        assert (got, out) == _expected(case, command, code, stdout), command


# `cli_identify_golden.json` holds the exact stdout and exit code of
# `identify`, `identify --json` and `classify --counting --json` for the base
# of every clone in `all_clone_ids((2, 3, 4))`, for 200 sets of one to three
# members of the arity-1..3 closure of a random clone's base, and for 200
# sets of one to three uniformly random tables of arity 0..3 (Python's
# `random.Random(10)`).  It was captured before function properties, set
# signatures and clone definitions became one record, and is matched with
# no adjustment.
IDENTIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "cli_identify_golden.json").read_text())


@pytest.mark.parametrize("case", IDENTIFY_GOLDEN, ids=lambda c: c["base"])
def test_identify_output_is_pinned(case, tmp_path, capsys):
    path = tmp_path / "base.fns"
    path.write_text(case["text"])
    for command, (code, stdout) in case["runs"].items():
        name, *flags = command.split()
        got = main([name, str(path), *flags])
        assert (got, capsys.readouterr().out) == (code, stdout), command


# `cli_variant_golden.json` holds the exact exit code, stdout and stderr of
# `solve`, `count` and `enumerate`, as text and with `--json`, under
# `--method` auto, every named route (refusals included) and oracle, for
# manifestations whose shape each route once decoded on its own:
# tautological clauses (`c !c`, `c c !c`), complementary and repeated terms,
# all-negative clauses and terms over AND, NOT, OR, XOR3, MAJ3 and AND+NOT,
# and formulas that read as 0, 1, a cube or a negative literal over AND, NOT
# and ID with constants.  It was captured before the manifestation was read
# once, as clauses, and is matched with no adjustment.
VARIANT_GOLDEN = json.loads(
    (Path(__file__).parent / "cli_variant_golden.json").read_text())


def _variant_case_id(case):
    return f"{case['base']}-{case['instance'].splitlines()[-1]}"


@pytest.mark.parametrize("case", VARIANT_GOLDEN, ids=_variant_case_id)
def test_variant_output_is_pinned(case, tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(case["instance"])
    for command, expected in case["runs"].items():
        name, *flags = command.split()
        got = main([name, str(path), *flags])
        out = capsys.readouterr()
        assert [got, out.out, out.err] == expected, command
