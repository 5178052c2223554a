"""Acceptance suite: the ten go/no-go criteria over the built-in algebras.

Each criterion runs at full scale with a fixed seed and must finish in
under sixty seconds.  One PASS/FAIL line per criterion is printed with
capture suspended so the verdicts stay visible in the pytest output.
"""

import dataclasses
import re
import time

import pytest

import poscones.acceptance
import poscones.forms
import poscones.signature
from poscones.acceptance import (
    CRITERIA,
    criterion_4,
    criterion_5,
    criterion_7,
    criterion_8,
    criterion_9,
    run_all,
)
from poscones.algebra import DivisionAlgebraDesc, MatD
from poscones.errors import InternalInvariantViolation
from poscones.forms import DiagonalizationResult

SEED = 0
SCALE = 1.0
TIME_LIMIT = 60.0


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[f"criterion-{i + 1:02d}" for i in range(len(CRITERIA))]
)
def test_criterion(criterion, capsys):
    start = time.perf_counter()
    result = criterion(SEED, SCALE)
    elapsed = time.perf_counter() - start
    verdict = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(
            f"\ncriterion {result.number:2d}  {verdict}  {result.name}  "
            f"({elapsed:.1f}s)",
            end="",
            flush=True,
        )
    assert result.passed, f"criterion {result.number}: {result.detail}"
    assert elapsed < TIME_LIMIT, (
        f"criterion {result.number} took {elapsed:.1f}s "
        f"(limit {TIME_LIMIT:.0f}s)"
    )


# -- the criteria against deliberately broken predicates ------------------------

MUTATION_SCALE = 0.05


def test_a_raising_criterion_is_reported_as_fail(monkeypatch):
    # sign_eta off by one makes m_p's re-check raise inside criteria 4 and 8;
    # run_all reports them as FAIL and still runs every other criterion
    sign_eta = poscones.signature.sign_eta

    def off_by_one(h, p):
        return sign_eta(h, p) + 1

    monkeypatch.setattr(poscones.signature, "sign_eta", off_by_one)
    monkeypatch.setattr(poscones.acceptance, "sign_eta", off_by_one)
    results = {r.number: r for r, _ in run_all(SEED, MUTATION_SCALE)}
    assert sorted(results) == list(range(1, 11))
    assert {3, 6, 10} <= {n for n, r in results.items() if not r.passed}
    for n in (4, 8):
        assert not results[n].passed
        assert results[n].detail.startswith("raised InternalInvariantViolation: ")
    # is_positive_involution reads the trace form alone, so 6 and 10 fail
    # on a comparison rather than by raising
    assert not any(results[n].detail.startswith("raised") for n in (3, 6, 10))


def test_a_raising_criterion_keeps_its_title(monkeypatch):
    def broken(seed, scale):
        raise InternalInvariantViolation("broken on purpose")

    monkeypatch.setattr(poscones.acceptance, "CRITERIA", (broken,))
    ((result, _),) = run_all(SEED, MUTATION_SCALE)
    assert not result.passed
    assert result.name == poscones.acceptance.TITLES[1]


def test_negated_diagonals_fail_criteria_4_and_7(monkeypatch):
    # every entry negated, except on the identity, so that m_p's re-check of
    # <phi> still passes: only the transfer oracle can see the flipped signs
    diagonalize = poscones.forms.diagonalize

    def negated(h, strategy="first"):
        res = diagonalize(h, strategy)
        if h == MatD.identity(h.alg, h.rows):
            return res
        return dataclasses.replace(res, entries=tuple(-e for e in res.entries))

    monkeypatch.setattr(poscones.forms, "diagonalize", negated)
    monkeypatch.setattr(poscones.acceptance, "diagonalize", negated)
    for criterion, detail in ((criterion_4, "transfer oracle"), (criterion_7, "inertia")):
        result = criterion(SEED, MUTATION_SCALE)
        assert not result.passed and detail in result.detail


def test_in_cone_at_ignoring_eps_fails_criterion_5(monkeypatch):
    in_cone_at = DiagonalizationResult.in_cone_at
    monkeypatch.setattr(
        DiagonalizationResult, "in_cone_at", lambda self, p, eps=1: in_cone_at(self, p)
    )
    assert not criterion_5(SEED, MUTATION_SCALE).passed


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: -c,  # every product e * c_beta changes sign
        lambda c: c.field.one(),  # the norm form is read as definite at nil P
    ],
    ids=["flipped-sign", "norm-form-ignored"],
)
def test_a_broken_generated_cone_sign_test_fails_criterion_8(monkeypatch, mutate):
    norm_form = DivisionAlgebraDesc.norm_form
    monkeypatch.setattr(
        DivisionAlgebraDesc, "norm_form",
        lambda self: tuple(mutate(c) for c in norm_form(self)),
    )
    assert not criterion_8(SEED, MUTATION_SCALE).passed


def test_criterion_9_sees_maximal_elements_at_small_scale():
    result = criterion_9(SEED, 0.01)
    assert result.passed
    maximal = re.search(r"(\d+) maximal, (\d+) not", result.detail)
    assert int(maximal.group(1)) > 0 and int(maximal.group(2)) > 0
