"""Golden CLI outputs: each recorded command must reproduce its exit code,
stdout and stderr byte for byte.

``golden/cli.json`` holds one entry per command.  A deliberate change of
output re-records the file and says so in the change log:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from capelli.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

CASE_4_2 = ["--case", "4", "--size", "2"]
LADDER_4_2 = ["module", "ladder", *CASE_4_2]

COMMANDS = [
    ["catalog", "list"],
    ["catalog", "list", "--json"],
    ["bs", "verify-all", "--sizes", "min"],
    ["bs", "verify-all", "--sizes", "default", "--json"],
    ["bs", "compute", "--case", "3", "--size", "4"],
    ["bs", "compute", "--case", "2", "--size", "4", "--json"],
    ["bs", "compute", "--case", "3", "--size", "6"],
    ["algebra", "nf", *CASE_4_2, "delta*f - 2*f*delta + theta^2"],
    ["algebra", "fuzz", *CASE_4_2, "--trials", "200", "--seed", "3"],
    ["module", "ladder", "--case", "8", "--size", "4", "--lambda", "0", "--window", "0:3"],
    ["module", "breaks", *CASE_4_2, "--lambda", "0", "--window", "-4:4"],
    ["module", "breaks", *CASE_4_2, "--lambda", "1/3", "--window", "0:2"],
    ["module", "psi", "--case", "8", "--size", "4", "--lambda", "1/3", "--window", "-2:3"],
    ["module", "psi", "--case", "1", "--size", "2", "--lambda", "-1/2", "--window", "-2:2",
     "--json"],
    # every route to exit 2
    ["bs", "compute", "--case", "9", "--size", "2"],
    ["bs", "compute", "--case", "3", "--size", "5"],
    [*LADDER_4_2, "--lambda", "0", "--window", "4:-4"],
    [*LADDER_4_2, "--lambda", "0", "--window", "0-3"],
    [*LADDER_4_2, "--lambda", "x", "--window", "0:3"],
    [*LADDER_4_2, "--lambda", "1/0", "--window", "0:3"],
    ["algebra", "nf", *CASE_4_2, "f + + 2"],
    ["algebra", "fuzz", *CASE_4_2, "--trials", "0"],
    ["algebra", "nf", "--case", "6", "--size", "2", "f"],
]


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return {"args": list(args), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(entry["args"]): entry for entry in doc}


@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: " ".join(args)[:60])
def test_output_is_byte_identical(args, recorded):
    assert run(args) == recorded[tuple(args)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = [run(args) for args in COMMANDS]
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
