"""Structured reports pinned byte for byte.

Each case runs one CLI command on a document under ``tests/data`` and
compares its ``--format struct`` output with the file recorded under
``tests/data/golden``.  A refactor that keeps the behaviour must reproduce
those bytes exactly; ``test_criterion_10_determinism`` only compares two
runs of the same code with each other.

After an intended change of report content, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from treeshift.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# name -> (expected exit code, CLI arguments; a bare "*.json" is a document in DATA)
CASES = {
    "a3-certify": (0, ["certify", "a3.json"]),
    "a3-certify-float": (0, ["certify", "a3.json", "--mode", "float", "--depth", "6"]),
    "a3-necessary": (0, ["certify", "a3.json", "--necessary", "--depth", "12"]),
    "a3-nu-case-iii": (0, ["certify", "a3_nu.json", "--depth", "8"]),
    "a3-violated": (1, ["certify", "a3_violated.json"]),
    "a3-orbit-check": (0, ["moments", "check", "a3_orbit.json"]),
    "kappa0-case-i": (0, ["certify", "kappa0.json", "--depth", "10"]),
    "kappa3-case-ii": (0, ["certify", "kappa3.json", "--depth", "10"]),
    "kappa3-case-ii-float": (0, ["certify", "kappa3.json", "--depth", "10", "--mode", "float"]),
    "kappa3-necessary": (0, ["certify", "kappa3.json", "--necessary", "--depth", "12"]),
    "kappa-inf-case-iv": (0, ["certify", "kappa_inf.json", "--depth", "6", "--ell", "5"]),
    # two- and three-atom branch measures sharing the location 1/2: a float sum taken in
    # another order than entry by entry changes the last digits of zgodp, widly1 and widly1p
    "mixed-atoms-case-ii-float": (0, ["certify", "mixed_atoms.json", "--depth", "6", "--mode", "float"]),
    "mixed-atoms-inf-case-iv-float": (0, ["certify", "mixed_atoms_inf.json", "--depth", "6", "--ell", "5",
                                          "--mode", "float"]),
    "kappa-inf-reduce": (0, ["reduce", "kappa_inf.json", "--base", "0", "--kmax", "3", "--depth", "6"]),
    "bilateral-certify": (0, ["certify", "bilateral.json", "--depth", "6", "--window", "6"]),
    "bilateral-reduce": (0, ["reduce", "bilateral.json", "--base", "0", "--kmax", "3", "--depth", "5"]),
    "edge-chain-certify": (0, ["certify", "edge_chain.json", "--depth", "8", "--m-max", "2"]),
    "seq-violated-check": (1, ["moments", "check", "seq_violated.json"]),
    "two-sided-check": (0, ["moments", "check", "two_sided.json", "--window", "5"]),
    "two-sided-violated-check": (1, ["moments", "check", "two_sided_violated.json"]),
}


def run_case(name):
    """(exit code, stdout bytes) of one case, run in this process."""
    _, argv = CASES[name]
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv] + ["--format", "struct"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_struct_report_matches_golden(name):
    code, out = run_case(name)
    assert code == CASES[name][0]
    assert out == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        code, out = run_case(name)
        if code != CASES[name][0]:
            sys.exit(f"{name}: exit code {code}, expected {CASES[name][0]}")
        (GOLDEN / f"{name}.json").write_bytes(out)
        print(f"{name}: {len(out)} bytes")
