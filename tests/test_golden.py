"""stdout and exit code of representative commands against committed files.

The CLI promises byte-identical stdout for a given flag set, so each case
below is pinned to a recorded run. To re-record after an intended
output change, run `PYTHONPATH=src python tests/test_golden.py` and review
the diff under tests/golden/.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from syzcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "check-np-n2-d3-p7-json": ["check-np", "-n", "2", "-d", "3", "-p", "7",
                               "--format", "json"],
    "check-np-n3-d2-p6-csv": ["check-np", "-n", "3", "-d", "2", "-p", "6",
                              "--format", "csv"],
    "betti-n2-d3-b999-j6-text": ["betti", "-n", "2", "-d", "3", "-b", "9,9,9",
                                 "-j", "6"],
    "betti-n2-d3-b999-j6-json": ["betti", "-n", "2", "-d", "3", "-b", "9,9,9",
                                 "-j", "6", "--format", "json"],
    "complex-n2-d2-b222-text": ["complex", "-n", "2", "-d", "2", "-b", "2,2,2",
                                "-j=-1,2"],
    "cross-validate-n1-d3-p1-q1-json": ["cross-validate", "-n", "1", "-d", "3",
                                        "-p", "1", "-q", "1", "--format", "json"],
    "schur-p2-q1-d3-vdim4-json": ["schur", "-p", "2", "-q", "1", "-d", "3",
                                  "--vdim", "4", "--format", "json"],
    "koszul-n2-d2-p2-q1-csv": ["koszul", "-n", "2", "-d", "2", "-p", "2",
                               "-q", "1", "--format", "csv"],
    "koszul-n1-d3-p1-q1-json": ["koszul", "-n", "1", "-d", "3", "-p", "1",
                                "-q", "1", "--format", "json"],
    "schur-p2-q1-d2-vdim3-csv": ["schur", "-p", "2", "-q", "1", "-d", "2",
                                 "--vdim", "3", "--format", "csv"],
    "points-n2-d2-text": ["points", "-n", "2", "-d", "2"],
    "points-n1-d2-json": ["points", "-n", "1", "-d", "2", "--format", "json"],
    # no header row
    "points-n2-d2-csv": ["points", "-n", "2", "-d", "2", "--format", "csv"],
    "complex-n2-d2-b222-json": ["complex", "-n", "2", "-d", "2", "-b", "2,2,2",
                                "-j=-1,2", "--format", "json"],
    # a bound no point fits under: the text form is one empty line
    "complex-n1-d2-b30-text": ["complex", "-n", "1", "-d", "2", "-b", "3,0",
                               "-j=-1,1"],
    "betti-n2-d3-b999-j6-csv": ["betti", "-n", "2", "-d", "3", "-b", "9,9,9",
                                "-j", "6", "--format", "csv"],
    "check-np-n2-d3-p7-text": ["check-np", "-n", "2", "-d", "3", "-p", "7"],
    # a verdict that holds: the witness columns stay empty
    "check-np-n2-d2-p2-csv": ["check-np", "-n", "2", "-d", "2", "-p", "2",
                              "--format", "csv"],
    "koszul-n2-d2-p2-q1-text": ["koszul", "-n", "2", "-d", "2", "-p", "2", "-q", "1"],
    "koszul-n2-d2-p2-q1-b222-text": ["koszul", "-n", "2", "-d", "2", "-p", "2",
                                     "-q", "1", "-b", "2,2,2"],
    "schur-p2-q1-d3-vdim4-text": ["schur", "-p", "2", "-q", "1", "-d", "3",
                                  "--vdim", "4"],
    "schur-p3-q1-d1-vdim4-text": ["schur", "-p", "3", "-q", "1", "-d", "1",
                                  "--vdim", "4"],
    "cross-validate-n1-d3-p1-q1-csv": ["cross-validate", "-n", "1", "-d", "3",
                                       "-p", "1", "-q", "1", "--format", "csv"],
    "cross-validate-n1-d3-p1-q1-text": ["cross-validate", "-n", "1", "-d", "3",
                                        "-p", "1", "-q", "1"],
    # the wall time goes to stderr, so stdout is pinned
    "bench-n2-d2-p2": ["bench", "-n", "2", "-d", "2", "-p", "2"],
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, monkeypatch):
    # a results store would change jobs_reused in the check-np documents
    monkeypatch.delenv("SYZCHECK_STORE", raising=False)
    code, out = run_case(CASES[name])
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
