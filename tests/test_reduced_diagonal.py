"""Cone, maximality and Harrison predicates read one reduced diagonal."""

import random
from fractions import Fraction

import pytest

import poscones.forms
from poscones import (
    AlgebraWithInvolution,
    DivisionAlgebraDesc,
    FieldDesc,
    HermitianForm,
    MatD,
    NotSymmetric,
    PositiveCone,
    harrison_sigma,
    is_maximal_on,
    is_positive_involution,
    member,
    pre_sylvester,
    rank_one,
    x_tilde,
    zoo_algebra,
)
from poscones.cli import COMMANDS, _run_problem
from poscones.sampling import rand_hermitian_form_gram
from poscones.serde import algebra_to_json, form_to_json, matd_to_json

SPLIT = DivisionAlgebraDesc(FieldDesc(), "split")


def qmat(rows):
    return MatD(SPLIT, [[SPLIT.from_field(Fraction(x)) for x in r] for r in rows])


PREDICATES = {
    "member": lambda alg, u, p: member(u, PositiveCone(alg, p, 1)),
    "member_minus": lambda alg, u, p: member(u, PositiveCone(alg, p, -1)),
    "is_maximal_on": lambda alg, u, p: is_maximal_on(alg, u, (p,)),
    "harrison_sigma": lambda alg, u, p: harrison_sigma(alg, [u]),
    "is_positive_involution": is_positive_involution,
}


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_non_symmetric_element_is_rejected(name):
    # [[0, 1], [1, 0]] is theta_t-hermitian, but not symmetric for the
    # twist phi = diag(1, -1): the one check left in diag_form must run.
    alg = zoo_algebra("split-q-2-indef")
    u = qmat([[0, 1], [1, 0]])
    assert u.is_theta_hermitian() and alg.sigma(u) != u
    with pytest.raises(NotSymmetric):
        PREDICATES[name](alg, u, x_tilde(alg)[0])


def test_empty_ordering_list_still_validates_the_element():
    alg = zoo_algebra("split-q-2-indef")
    with pytest.raises(NotSymmetric):
        is_maximal_on(alg, qmat([[0, 1], [1, 0]]), ())
    assert is_maximal_on(alg, alg.phi, ())


def test_in_cone_at_skips_zero_entries():
    alg = zoo_algebra("split-q-2")
    res = rank_one(alg, qmat([[0, 0], [0, -3]])).diagonal
    assert res.rank == 1
    assert res.in_cone_at(0, -1) and not res.in_cone_at(0, 1)
    assert not res.in_cone_at(0)


def test_one_diagonalization_per_element(monkeypatch):
    # Split M_2 over Q(sqrt(5)) has two non-nil orderings, so a predicate
    # that diagonalized once per ordering or per cone would be counted.
    div = DivisionAlgebraDesc(FieldDesc(5), "split")
    alg = AlgebraWithInvolution(2, div, MatD.identity(div, 2))
    u = alg.identity()
    ys = x_tilde(alg)
    assert len(ys) == 2

    calls = []
    verify = poscones.forms._verify_diagonalization

    def counting(h, res):
        calls.append(h)
        verify(h, res)

    monkeypatch.setattr(poscones.forms, "_verify_diagonalization", counting)

    def count(fn, *args):
        calls.clear()
        assert fn(*args)
        return len(calls)

    # the first predicate on u diagonalizes <u>; rank_one keeps it, so the
    # later predicates, and a decomposition of rank_one(u), read that diagonal
    assert count(harrison_sigma, alg, [u]) == 1
    assert count(is_maximal_on, alg, u, ys) == 0
    assert count(member, u, PositiveCone(alg, ys[1], 1)) == 0
    assert count(pre_sylvester, rank_one(alg, u), ys[0]) == 0


def test_equal_elements_share_one_rank_one_form():
    alg = zoo_algebra("split-q-2-indef")
    u, v = alg.phi * qmat([[2, 1], [1, 3]]), alg.phi * qmat([[2, 1], [1, 3]])
    assert u == v and u is not v
    assert rank_one(alg, u) is rank_one(alg, v)
    assert rank_one(alg, u).diagonal is rank_one(alg, v).diagonal


def test_a_refused_element_is_refused_on_every_call():
    alg = zoo_algebra("split-q-2-indef")
    u = qmat([[0, 1], [1, 0]])
    for _ in range(2):
        with pytest.raises(NotSymmetric):
            rank_one(alg, u)
    assert rank_one.cache_info().currsize == 0


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_one_reduction_product_per_element(monkeypatch):
    # phi = diag(1, -1): every predicate reduces u by one product phi^-1 * u,
    # and diagonalize proves its L invertible with none; nothing else multiplies
    alg = zoo_algebra("split-q-2-indef")
    p = x_tilde(alg)[0]
    u = alg.phi * qmat([[2, 1], [1, 3]])
    cone = PositiveCone(alg, p, 1)
    gram = rand_hermitian_form_gram(random.Random(0), alg, 2)
    products = _count_calls(monkeypatch, MatD, "__mul__")
    inverses = _count_calls(monkeypatch, MatD, "inverse")
    verified = _count_calls(monkeypatch, poscones.forms, "_verify_diagonalization")

    for call in (
        lambda: member(u, cone),
        lambda: is_maximal_on(alg, u, (p,)),
        lambda: harrison_sigma(alg, [u]),
    ):
        products.clear()
        call()
        assert len(products) <= 1

    products.clear()
    HermitianForm(alg, 2, gram)
    assert len(products) == 1

    # the trace form reads the diagonal of <u> that member(u, ...) verified
    inverses.clear()
    verified.clear()
    is_positive_involution(alg, u, p)
    assert inverses == [] and verified == []


def test_one_hermitian_check_per_element(monkeypatch):
    # diag_form validates the reduction of phi; diagonalize trusts it
    alg = zoo_algebra("split-q-2-indef")
    cone = PositiveCone(alg, 0, 1)
    checks = _count_calls(monkeypatch, MatD, "is_theta_hermitian")
    assert member(alg.phi, cone)
    assert len(checks) == 1


def test_one_diagonalization_per_named_object_in_a_problem_file(monkeypatch):
    # Split M_2 over Q(sqrt(5)) with two non-nil orderings; every element is
    # asked several questions, and both forms by sign, diag and presylvester.
    div = DivisionAlgebraDesc(FieldDesc(5), "split")
    alg = AlgebraWithInvolution(2, div, MatD.identity(div, 2))
    gram = rand_hermitian_form_gram(random.Random(1), alg, 2, nonsingular=True)
    u = alg.identity()
    problem = {
        "schema": "1",
        "algebra": algebra_to_json(alg),
        "forms": {
            "h": form_to_json(HermitianForm(alg, 2, gram)),
            "one": form_to_json(rank_one(alg, u)),
        },
        "elements": {
            "u": matd_to_json(u),
            "v": matd_to_json(MatD(div, [[div.from_field(x) for x in r]
                                         for r in ((1, 2), (2, -3))])),
            "w": matd_to_json(u.scale_field(div.base.elem(4))),
        },
        "tasks": [{"command": "classify"}, {"command": "cones"}]
        + [{"command": c, "form": f} for c in ("sign", "diag", "collapse")
           for f in ("h", "one")]
        + [{"command": "presylvester", "form": f, "ordering": p}
           for f in ("h", "one") for p in ("P0", "P1")]
        + [{"command": "member", "element": e, "ordering": p, "eps": eps}
           for e in ("u", "v", "w") for p in ("P0", "P1") for eps in (1, -1)]
        + [{"command": "maximal-on", "element": e, "orderings": ys}
           for e in ("u", "v", "w") for ys in (["P0"], ["P1"], ["P0", "P1"])]
        + [{"command": "hsigma", "elements": ["u", "v", "w"]},
           {"command": "hsigma", "elements": ["v"]}]
        + [{"command": "posinv", "ordering": p} for p in ("P0", "P1")]
        + [{"command": "weakrep", "form": "one", "element": "w"}],
    }
    assert {t["command"] for t in problem["tasks"]} == set(COMMANDS)
    verified = _count_calls(monkeypatch, poscones.forms, "_verify_diagonalization")
    _run_problem(problem)
    # 2 forms + 3 elements; posinv is certified in closed form, and weakrep
    # reads the diagonal of <w> that member made
    assert len(verified) == 2 + 3


def test_the_diagonal_is_made_once_per_form():
    alg = zoo_algebra("quat-rt2-2")
    h = HermitianForm(alg, 2, rand_hermitian_form_gram(random.Random(2), alg, 2))
    assert h.diagonal is h.diagonal
