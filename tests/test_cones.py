"""Positive cones: membership, transfer, sampling, and maximality."""

from fractions import Fraction
from math import comb

import pytest

from poscones import (
    DivisionAlgebraDesc,
    FieldDesc,
    MatD,
    NilOrdering,
    NotSymmetric,
    OrderingNotInXTilde,
    PositiveCone,
    Singular,
    base_algebra,
    enumerate_cones,
    formally_real,
    gen_cone_sample,
    harrison_sigma,
    is_maximal_on,
    member,
    positive_involution_at,
    properness_check,
    psd_up,
    scale_cone,
    trace_down,
    x_tilde,
    zoo_algebra,
    zoo_names,
)
from poscones.acceptance import _charpoly, _negative_roots, _transfer_gram

Q = FieldDesc()
SPLIT = DivisionAlgebraDesc(Q, "split")


def qmat(rows):
    return MatD(SPLIT, [[SPLIT.from_field(Fraction(x)) for x in r] for r in rows])


class TestEnumeration:
    def test_two_cones_per_live_ordering(self):
        for name in zoo_names():
            alg = zoo_algebra(name)
            cones = enumerate_cones(alg)
            assert len(cones) == 2
            assert {(k.ordering, k.eps) for k in cones} == {(0, 1), (0, -1)}

    def test_nil_ordering_rejected(self):
        for name in ("quad-rt2-1", "quat-rt2-2"):
            with pytest.raises(NilOrdering):
                PositiveCone(zoo_algebra(name), 1, 1)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            PositiveCone(zoo_algebra("split-q-1"), 0, 2)


class TestMembership:
    def test_definite_matrices(self):
        alg = zoo_algebra("split-q-2")
        plus = PositiveCone(alg, 0, 1)
        minus = PositiveCone(alg, 0, -1)
        assert member(alg.identity(), plus)
        assert not member(alg.identity(), minus)
        assert member(-alg.identity(), minus)
        indef = qmat([[1, 0], [0, -1]])
        assert not member(indef, plus) and not member(indef, minus)

    def test_boundary_and_zero(self):
        alg = zoo_algebra("split-q-2")
        plus = PositiveCone(alg, 0, 1)
        assert member(qmat([[2, 0], [0, 0]]), plus)
        assert member(MatD.zeros(SPLIT, 2, 2), plus)
        assert member(MatD.zeros(SPLIT, 2, 2), PositiveCone(alg, 0, -1))

    def test_psd_with_off_diagonal(self):
        alg = zoo_algebra("split-q-2")
        plus = PositiveCone(alg, 0, 1)
        assert member(qmat([[2, 1], [1, 1]]), plus)
        assert not member(qmat([[1, 2], [2, 1]]), plus)

    def test_requires_symmetry(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(NotSymmetric):
            member(qmat([[0, 1], [0, 0]]), PositiveCone(alg, 0, 1))

    def test_quadratic_field_membership(self):
        alg = zoo_algebra("quad-rt2-1")
        plus = PositiveCone(alg, 0, 1)
        s = alg.div.base.sqrt_gen()  # sqrt(2), positive at P0
        assert member(MatD.scalar(alg.div, s, 1), plus)
        assert not member(MatD.scalar(alg.div, -s, 1), plus)


class TestTransfer:
    def test_up_then_down_round_trip(self):
        for name in ("split-q-2", "quat-q-2", "quad-rt2-2"):
            div = zoo_algebra(name).div
            k = PositiveCone(base_algebra(div), 0, -1)
            up = psd_up(k, 3)
            assert up.alg.ell == 3 and up.eps == -1
            assert trace_down(up) == k

    def test_membership_coheres_with_scalars(self):
        alg = zoo_algebra("split-q-2")
        div = alg.div
        k = PositiveCone(base_algebra(div), 0, 1)
        up = psd_up(k, 2)
        d = MatD.scalar(div, 3, 1)
        assert member(d, k)
        assert member(MatD.diagonal(div, [d[0, 0], div.zero()]), up)

    def test_up_requires_base_cone(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(ValueError):
            psd_up(PositiveCone(alg, 0, 1), 2)

    def test_down_requires_standard_involution(self):
        alg = zoo_algebra("split-q-2-indef")
        with pytest.raises(ValueError):
            trace_down(PositiveCone(alg, 0, 1))


class TestScaleCone:
    def test_central_negative_scalar_flips_eps(self):
        alg = zoo_algebra("split-q-2")
        k = PositiveCone(alg, 0, 1)
        flipped = scale_cone(-alg.identity(), k)
        assert flipped.alg == alg and flipped.eps == -1

    def test_rejects_a_non_unit(self):
        alg = zoo_algebra("split-q-2")
        k = PositiveCone(alg, 0, 1)
        with pytest.raises(Singular):
            scale_cone(alg.zero(), k)
        with pytest.raises(Singular):
            scale_cone(qmat([[1, 1], [1, 1]]), k)

    def test_general_twist_moves_the_handle(self):
        alg = zoo_algebra("split-q-2")
        k = PositiveCone(alg, 0, 1)
        a = qmat([[1, 0], [0, -1]])
        moved = scale_cone(a, k)
        assert moved.alg.phi == a
        # u in K iff a*u in a*K
        assert member(a * alg.identity(), moved)
        assert not member(a * (-alg.identity()), moved)


class TestSampling:
    def test_identity_generates_a_proper_sample(self):
        alg = zoo_algebra("split-q-2")
        sample = gen_cone_sample(alg, [alg.identity()], 0, budget=48)
        assert len(sample.elements) == 48
        k = PositiveCone(alg, 0, 1)
        assert all(member(u, k) for u in sample.elements)
        assert properness_check(sample).proper

    def test_indefinite_generator_is_exposed(self):
        alg = zoo_algebra("split-q-2")
        sample = gen_cone_sample(alg, [qmat([[1, 0], [0, -1]])], 0, budget=48)
        res = properness_check(sample)
        assert not res.proper
        assert res.witness is not None and not res.witness.is_zero()
        assert (-res.witness) in set(sample.elements)

    def test_generators_must_be_symmetric(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(NotSymmetric):
            gen_cone_sample(alg, [qmat([[0, 1], [0, 0]])], 0)


class TestPositiveInvolutions:
    def test_twist_for_the_indefinite_algebra(self):
        alg = zoo_algebra("split-q-2-indef")
        b, twisted = positive_involution_at(alg, 0)
        assert b == qmat([[1, 0], [0, -1]])
        assert twisted.has_standard_involution

    def test_nil_ordering_raises(self):
        with pytest.raises(NilOrdering):
            positive_involution_at(zoo_algebra("quat-rt2-1"), 1)

    def test_every_zoo_algebra_is_formally_real(self):
        for name in zoo_names():
            assert formally_real(zoo_algebra(name))


class TestHarrisonSigma:
    def test_cone_selection(self):
        alg = zoo_algebra("split-q-2")
        both = enumerate_cones(alg)
        assert harrison_sigma(alg, []) == both
        assert [
            (k.ordering, k.eps) for k in harrison_sigma(alg, [alg.identity()])
        ] == [(0, 1)]
        assert [
            (k.ordering, k.eps) for k in harrison_sigma(alg, [-alg.identity()])
        ] == [(0, -1)]
        assert harrison_sigma(alg, [qmat([[1, 0], [0, -1]])]) == ()


class TestMaximality:
    def test_is_maximal_on(self):
        alg = zoo_algebra("split-q-2")
        assert is_maximal_on(alg, alg.identity(), (0,))
        assert not is_maximal_on(alg, -alg.identity(), (0,))
        assert not is_maximal_on(alg, qmat([[1, 0], [0, -1]]), (0,))
        assert is_maximal_on(alg, alg.identity(), ())

    def test_nil_orderings_rejected(self):
        alg = zoo_algebra("quad-rt2-1")
        with pytest.raises(OrderingNotInXTilde):
            is_maximal_on(alg, alg.identity(), (1,))

    def test_agreement_on_fixed_elements(self):
        # is_maximal_on against criterion 9's oracle: the negative
        # eigenvalues of the Scharlau transfer, by characteristic polynomial
        quat, indef = zoo_algebra("quat-q-2"), zoo_algebra("split-q-2-indef")
        cases = [
            (zoo_algebra("split-q-2"), qmat([[1, 0], [0, 0]]), True),
            (zoo_algebra("split-q-2"), qmat([[1, 0], [0, -1]]), False),
            (quat, quat.identity(), True),
            (quat, -quat.identity(), False),
            (indef, indef.phi, True),
            (indef, -indef.phi, False),
        ]
        for alg, u, maximal in cases:
            ys = x_tilde(alg)
            poly = _charpoly(_transfer_gram(alg, u), alg.field)
            oracle = all(_negative_roots(poly, p) == 0 for p in ys)
            assert oracle == is_maximal_on(alg, u, ys) == maximal

    def test_transfer_charpoly_by_hand(self):
        split = zoo_algebra("split-q-2")
        # diag(1, -1): S = diag(1, -1), det(x - S) = x^2 - 1
        poly = _charpoly(_transfer_gram(split, qmat([[1, 0], [0, -1]])), Q)
        assert poly == [Q.elem(1), Q.elem(0), Q.elem(-1)]
        assert _negative_roots(poly, 0) == 1
        # -1 over quat-q-2: S = -I_8, det(x - S) = (x + 1)^8
        quat = zoo_algebra("quat-q-2")
        poly = _charpoly(_transfer_gram(quat, -quat.identity()), Q)
        assert poly == [Q.elem(comb(8, k)) for k in range(9)]
        assert _negative_roots(poly, 0) == 8
