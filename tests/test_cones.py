"""Positive cones: membership, M_ell(D) against D, generated cones, and maximality."""

import random
from fractions import Fraction
from math import comb

import pytest

import poscones.forms
from poscones import (
    AlgebraWithInvolution,
    DivisionAlgebraDesc,
    FieldDesc,
    GeneratedCone,
    InternalInvariantViolation,
    MatD,
    NilOrdering,
    NotSymmetric,
    OrderingNotInXTilde,
    PositiveCone,
    enumerate_cones,
    generated_cone,
    harrison_sigma,
    is_maximal_on,
    member,
    positive_involution_at,
    standard_algebra,
    x_tilde,
    zoo_algebra,
    zoo_names,
)
from poscones.acceptance import _charpoly, _det_frac, _sign_counts, _transfer_gram

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
    def test_membership_coheres_with_scalars(self):
        div = zoo_algebra("split-q-2").div
        k = PositiveCone(standard_algebra(1, div), 0, 1)
        up = PositiveCone(standard_algebra(2, div), 0, 1)
        d = MatD.scalar(div, 3, 1)
        assert member(d, k)
        assert member(MatD.diagonal(div, [d[0, 0], div.zero()]), up)


class TestGeneratedCone:
    def _check_refutation(self, alg, gens, p, ans):
        assert not ans.proper and ans.eps == 0
        x1, s1, lam1, x2, s2, lam2 = ans.refutation
        assert s1 in gens and s2 in gens
        assert lam1.sign_at(p) == 1 and lam2.sign_at(p) == 1
        u = (alg.sigma(x1) * s1 * x1).scale_field(lam1)
        assert not u.is_zero()
        assert u == -(alg.sigma(x2) * s2 * x2).scale_field(lam2)

    def test_identity_generates_a_proper_cone(self):
        alg = zoo_algebra("split-q-2")
        assert generated_cone(alg, [alg.identity()], 0) == GeneratedCone(True, 1)
        assert generated_cone(alg, [-alg.identity()], 0) == GeneratedCone(True, -1)

    def test_indefinite_generator_is_refuted(self):
        # det -4: the sampled closure at budget 300 missed this one for
        # seeds 0, 1, 2 and 4
        alg = zoo_algebra("split-q-2")
        for s in (qmat([[0, 2], [2, -2]]), qmat([[1, 0], [0, -1]])):
            self._check_refutation(alg, [s], 0, generated_cone(alg, [s], 0))

    def test_opposite_definite_generators_are_refuted(self):
        alg = zoo_algebra("quat-q-2")
        gens = [alg.identity(), -alg.phi]
        self._check_refutation(alg, gens, 0, generated_cone(alg, gens, 0))

    def test_any_nonzero_generator_refutes_at_a_nil_ordering(self):
        for name in ("quad-rt2-1", "quat-rt2-2"):
            alg = zoo_algebra(name)
            gens = [alg.identity()]
            assert generated_cone(alg, gens, 0) == GeneratedCone(True, 1)
            self._check_refutation(alg, gens, 1, generated_cone(alg, gens, 1))

    def test_zero_generators_give_the_zero_cone(self):
        alg = zoo_algebra("quad-rt2-2")
        for p in (0, 1):
            assert generated_cone(alg, [], p) == GeneratedCone(True, 0)
            assert generated_cone(alg, [alg.zero()], p) == GeneratedCone(True, 0)

    def test_agrees_with_membership(self):
        alg = zoo_algebra("split-q-2-indef")
        psd = qmat([[2, 1], [-1, -1]])  # phi^-1 * psd = [[2, 1], [1, 1]]
        assert member(psd, PositiveCone(alg, 0, 1))
        assert generated_cone(alg, [alg.phi, psd], 0) == GeneratedCone(True, 1)

    def test_generators_must_be_symmetric(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(NotSymmetric):
            generated_cone(alg, [qmat([[0, 1], [0, 0]])], 0)
        # diag(1, -1) alone is refuted; the asymmetric generator after it
        # must still be refused, as harrison_sigma refuses it
        gens = [qmat([[1, 0], [0, -1]]), qmat([[0, 1], [2, 0]])]
        with pytest.raises(NotSymmetric):
            harrison_sigma(alg, gens)
        with pytest.raises(NotSymmetric):
            generated_cone(alg, gens, 0)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            generated_cone(zoo_algebra("split-q-2"), [], 1)


class TestPositiveInvolutions:
    def test_twist_for_the_indefinite_algebra(self):
        alg = zoo_algebra("split-q-2-indef")
        b, twisted = positive_involution_at(alg, 0)
        assert b == qmat([[1, 0], [0, -1]])
        assert twisted.has_standard_involution

    def test_nil_ordering_raises(self):
        with pytest.raises(NilOrdering):
            positive_involution_at(zoo_algebra("quat-rt2-1"), 1)

    def test_certified_without_a_diagonalization(self, monkeypatch):
        calls = []
        monkeypatch.setattr(poscones.forms, "_eliminate", lambda *a: calls.append(a))
        for name in zoo_names():
            alg = zoo_algebra(name)
            for p in x_tilde(alg):
                b, _ = positive_involution_at(alg, p)
                assert b * alg.phi == alg.identity()
        assert calls == []

    @pytest.mark.parametrize("name", ["split-q-2-indef", "quad-rt2-2", "quat-rt2-1"])
    def test_negative_norm_form_is_refused(self, name, monkeypatch):
        norm = DivisionAlgebraDesc.norm_form
        monkeypatch.setattr(
            DivisionAlgebraDesc, "norm_form",
            lambda div: norm(div)[:-1] + (-norm(div)[-1],),
        )
        with pytest.raises(InternalInvariantViolation, match="not positive"):
            positive_involution_at(zoo_algebra(name), 0)

    def test_wrong_inverse_is_refused(self):
        alg = AlgebraWithInvolution(2, SPLIT, qmat([[1, 0], [0, -1]]))
        alg.__dict__["phi_inv"] = alg.identity()  # a corrupted cached inverse
        with pytest.raises(InternalInvariantViolation, match="identity"):
            positive_involution_at(alg, 0)

    def test_every_zoo_algebra_has_a_positive_cone(self):
        for name in zoo_names():
            assert enumerate_cones(zoo_algebra(name))


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
            poly = _charpoly(_transfer_gram(alg.phi_inv * u), alg.field)
            oracle = all(_sign_counts(poly, p)[1] == 0 for p in ys)
            assert oracle == is_maximal_on(alg, u, ys) == maximal

    def test_transfer_charpoly_by_hand(self):
        # diag(1, -1): S = diag(1, -1), det(x - S) = x^2 - 1
        poly = _charpoly(_transfer_gram(qmat([[1, 0], [0, -1]])), Q)
        assert poly == [Q.elem(1), Q.elem(0), Q.elem(-1)]
        assert _sign_counts(poly, 0) == (1, 1, 0)
        # diag(1, 0): det(x - S) = x^2 - x, one positive root and one zero
        poly = _charpoly(_transfer_gram(qmat([[1, 0], [0, 0]])), Q)
        assert poly == [Q.elem(1), Q.elem(-1), Q.elem(0)]
        assert _sign_counts(poly, 0) == (1, 0, 1)
        # -1 over quat-q-2: S = -I_8, det(x - S) = (x + 1)^8
        quat = zoo_algebra("quat-q-2")
        poly = _charpoly(_transfer_gram(quat.phi_inv * -quat.identity()), Q)
        assert poly == [Q.elem(comb(8, k)) for k in range(9)]
        assert _sign_counts(poly, 0) == (0, 8, 0)
        # the Hessenberg recurrence against cofactor determinants, sides 1-6;
        # the triangular and gapped matrices give the Hessenberg pass zero
        # columns, and pivots that need a row swap
        rng = random.Random(0)
        xs = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)]
        for field in (Q, FieldDesc(2)):
            def elem():
                b = rng.randint(-2, 2) if field.is_quadratic else 0
                return field.elem(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), b)

            for n in range(1, 7):
                dense = [[elem() for _ in range(n)] for _ in range(n)]
                sym = [[dense[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
                upper = [[dense[i][j] if i <= j else field.zero() for j in range(n)]
                         for i in range(n)]
                gapped = [row[:] for row in sym]
                for k in range(n - 1):
                    gapped[k + 1][k] = gapped[k][k + 1] = field.zero()
                sparse = [[elem() if rng.random() < 0.3 else field.zero()
                           for _ in range(n)] for _ in range(n)]
                for s in (dense, sym, upper, gapped, sparse):
                    poly = _charpoly(s, field)
                    assert len(poly) == n + 1 and poly[0] == field.one()
                    for x in xs:
                        value = field.zero()
                        for c in poly:
                            value = value * x + c
                        minus = [[(x if i == j else 0) - s[i][j] for j in range(n)]
                                 for i in range(n)]
                        assert value == field.zero() + _det_frac(minus)
