"""Round 0 of every benchmark workload, answered and checked in-process.

The benchmark in bench/ asks the library through its modules by name; a
rename or deletion there breaks it without breaking any other test.  This
asks each workload's round-0 questions against the poscones modules this
process has already imported, checks every answer with the workload's own
check, and makes sure the first corrupted answer of each kind is refused.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import poscones

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def library() -> SimpleNamespace:
    """The namespace the workloads read, from the imported modules."""
    pc = SimpleNamespace(package=poscones)
    for name in run.MODULES:
        setattr(pc, name, importlib.import_module(f"poscones.{name}"))
    return pc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_0_answers_pass_their_checks(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    pc = library()
    wl = cls(pc, SEED, str(tmp_path)) if cls is workloads.ProblemFiles else cls(pc, SEED)
    tally = run.Tally()
    for q in wl.questions(0):
        tally.ask(q)
    assert tally.failed == 0, tally.faults
    assert tally.wrong == []
    assert tally.first, "round 0 asked no question"
    assert tally.self_check() == []
