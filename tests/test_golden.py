"""Byte-stable reports: every command on the two fixtures, under each
option that changes a report, batch over docs/fixtures, the downward
reports of tests/fixtures/maxmin.json, whose strict downward LP has a
unique max-min optimum, and the realizability, Markov trace and Morita
reports of tests/fixtures/jones.json (a delta) and jones_trace.json (a
trace_A), whose Jones matrix differs from D, against the reports
recorded in tests/golden/.

To re-record after an intended report change, run from the repository root

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes changed and prints their
names; list each with its reason in CHANGES.md.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from mfd.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
VARIANTS = {
    "plain": [],
    "float": ["--mode", "float"],
    "table": ["--format", "table"],
    "tunnel": ["--markov-tunnel"],
    "steps3": ["--steps", "3"],
}


def cases():
    """(golden file name, argv); paths are relative to the repository root
    because the report's flags echo them."""
    for command in COMMANDS:
        for fixture in ("a4", "homog"):
            for variant, extra in VARIANTS.items():
                yield (f"{command}.{fixture}.{variant}",
                       [command, "--input", f"docs/fixtures/{fixture}.json"] + extra)
    for command in COMMANDS:
        for variant in ("plain", "float"):
            yield (f"batch.{command}.{variant}",
                   ["batch", "--input", "docs/fixtures", "--command", command]
                   + VARIANTS[variant])
    for command, tunnel in (("downward", False), ("downward", True), ("report-all", False)):
        for variant in ("plain", "float"):
            yield (f"{command}.maxmin.{'tunnel-' * tunnel}{variant}",
                   [command, "--input", "tests/fixtures/maxmin.json"]
                   + VARIANTS["tunnel"] * tunnel + VARIANTS[variant])
    for fixture in ("jones", "jones_trace"):
        for command in ("realizable", "markov-trace", "morita-rescale", "report-all"):
            for variant in ("plain", "float"):
                yield (f"{command}.{fixture}.{variant}",
                       [command, "--input", f"tests/fixtures/{fixture}.json"]
                       + VARIANTS[variant])


def run(argv):
    """stdout of main(argv), run from the repository root; a failing run
    gives its exit code and stderr instead."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return out.getvalue() if code == 0 else f"exit {code}\n{err.getvalue()}"


@pytest.mark.parametrize("name, argv", list(cases()), ids=[n for n, _ in cases()])
def test_report_is_byte_identical(name, argv):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run(argv) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in cases():
        path = GOLDEN / f"{name}.out"
        report = run(argv).encode("utf-8")
        if not path.exists() or path.read_bytes() != report:
            path.write_bytes(report)
            print(path.name)
