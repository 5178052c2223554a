"""Cone, maximality and Harrison predicates read one reduced diagonal."""

from fractions import Fraction

import pytest

import poscones.forms
from poscones import (
    AlgebraWithInvolution,
    DivisionAlgebraDesc,
    FieldDesc,
    MatD,
    NotSymmetric,
    PositiveCone,
    harrison_sigma,
    in_m_p,
    is_maximal_on,
    member,
    pre_sylvester,
    rank_one,
    reduced_diagonal,
    x_tilde,
    zoo_algebra,
)

SPLIT = DivisionAlgebraDesc(FieldDesc(), "split")


def qmat(rows):
    return MatD(SPLIT, [[SPLIT.from_field(Fraction(x)) for x in r] for r in rows])


PREDICATES = {
    "member": lambda alg, u, p: member(u, PositiveCone(alg, p, 1)),
    "member_minus": lambda alg, u, p: member(u, PositiveCone(alg, p, -1)),
    "in_m_p": lambda alg, u, p: in_m_p(alg, u, p),
    "is_maximal_on": lambda alg, u, p: is_maximal_on(alg, u, (p,)),
    "harrison_sigma": lambda alg, u, p: harrison_sigma(alg, [u]),
}


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_non_symmetric_element_is_rejected(name):
    # [[0, 1], [1, 0]] is theta_t-hermitian, but not symmetric for the
    # twist phi = diag(1, -1): the one check left in diag_form must run.
    alg = zoo_algebra("split-q-2-indef")
    u = qmat([[0, 1], [1, 0]])
    assert u.is_theta_hermitian() and not alg.is_symmetric(u)
    with pytest.raises(NotSymmetric):
        PREDICATES[name](alg, u, x_tilde(alg)[0])


def test_empty_ordering_list_still_validates_the_element():
    alg = zoo_algebra("split-q-2-indef")
    with pytest.raises(NotSymmetric):
        is_maximal_on(alg, qmat([[0, 1], [1, 0]]), ())
    assert is_maximal_on(alg, alg.phi, ())


def test_in_m_p_reads_invertibility_from_the_diagonal():
    alg = zoo_algebra("split-q-2")
    assert in_m_p(alg, alg.zero(), 0)
    assert in_m_p(alg, alg.identity(), 0)
    assert not in_m_p(alg, qmat([[1, 0], [0, 0]]), 0)
    assert not in_m_p(alg, qmat([[1, 1], [1, 1]]), 0)
    assert not in_m_p(alg, qmat([[1, 0], [0, -1]]), 0)


def test_in_cone_at_skips_zero_entries():
    alg = zoo_algebra("split-q-2")
    res = reduced_diagonal(rank_one(alg, qmat([[0, 0], [0, -3]])))
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

    assert count(harrison_sigma, alg, [u]) == 1
    assert count(is_maximal_on, alg, u, ys) == 1
    # the decomposition is read from the one verified reduced diagonal
    assert count(pre_sylvester, rank_one(alg, u), ys[0]) == 1
