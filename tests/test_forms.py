"""Hermitian forms, congruence diagonalization, and form constructors."""

import random
import time
from fractions import Fraction

import pytest

from poscones import (
    AlgebraWithInvolution,
    DimensionMismatch,
    DivisionAlgebraDesc,
    FieldDesc,
    FieldElem,
    HermitianForm,
    InternalInvariantViolation,
    MatD,
    NotHermitian,
    NotSymmetric,
    QuadraticFormF,
    Singular,
    diag_form,
    diagonalize,
    direct_sum,
    morita_diag_rep,
    nonsingular_part,
    parse_elem,
    rank_one,
    scale_form,
    sign_eta,
    tensor,
    times,
    unit_form,
    weakly_represents,
    zoo_algebra,
    zoo_names,
)
from poscones.forms import DiagonalizationResult, _verify_diagonalization
from poscones.sampling import rand_invertible_symmetric

Q = FieldDesc()
SPLIT = DivisionAlgebraDesc(Q, "split")
HAMILTON = DivisionAlgebraDesc(Q, "quat", (Q.one(), Q.one()))


def qmat(rows):
    return MatD(SPLIT, [[SPLIT.from_field(Fraction(x)) for x in r] for r in rows])


def check_witness(h, res):
    diag = MatD.diagonal(h.alg, [h.alg.from_field(e) for e in res.entries])
    assert res.witness.theta_t() * h * res.witness == diag
    res.witness.inverse()  # must be invertible


class TestDiagonalize:
    def test_hyperbolic_plane(self):
        res = diagonalize(qmat([[0, 1], [1, 0]]))
        assert res.entries == (Q.elem(2), Q.elem(Fraction(-1, 2)))
        assert res.rank == 2
        check_witness(qmat([[0, 1], [1, 0]]), res)

    def test_generic_positive(self):
        h = qmat([[2, 1], [1, 1]])
        res = diagonalize(h)
        assert res.entries == (Q.elem(2), Q.elem(Fraction(1, 2)))
        check_witness(h, res)

    def test_singular_with_trailing_zero(self):
        h = qmat([[1, 1], [1, 1]])
        res = diagonalize(h)
        assert res.entries == (Q.elem(1), Q.elem(0))
        assert res.rank == 1
        assert res.sign_counts_at(0) == (1, 0, 1)
        check_witness(h, res)

    def test_zeroed_radical_column_is_caught(self):
        h = qmat([[1, 1], [1, 1]])
        res = diagonalize(h)
        rows = [list(r) for r in res.witness.entries]
        rows[0][1] = rows[1][1] = SPLIT.zero()
        broken = DiagonalizationResult(MatD(SPLIT, rows), res.entries)
        # the identity still holds, so only the invertibility proof fails
        assert broken.witness.theta_t() * h * broken.witness == qmat([[1, 0], [0, 0]])
        with pytest.raises(InternalInvariantViolation):
            _verify_diagonalization(h, broken)

    def test_dependent_radical_columns_are_caught(self):
        h = MatD.zeros(SPLIT, 2, 2)
        broken = DiagonalizationResult(qmat([[1, 1], [0, 0]]), (Q.elem(0),) * 2)
        with pytest.raises(InternalInvariantViolation):
            _verify_diagonalization(h, broken)

    def test_zero_matrix(self):
        res = diagonalize(MatD.zeros(SPLIT, 3, 3))
        assert res.rank == 0
        assert res.entries == (Q.elem(0),) * 3

    def test_strategies_agree_on_signs(self):
        h = qmat([[0, 1, 2], [1, 3, 0], [2, 0, -1]])
        first = diagonalize(h, "first")
        last = diagonalize(h, "last")
        assert first.rank == last.rank
        assert first.sign_counts_at(0) == last.sign_counts_at(0)
        check_witness(h, first)
        check_witness(h, last)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            diagonalize(qmat([[1]]), "middle")

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            diagonalize(qmat([[0, 1], [0, 0]]))

    def test_quaternion_entries_land_in_base_field(self):
        one, i, j, k = HAMILTON.basis()
        two = HAMILTON.from_field(2)
        h = MatD(HAMILTON, [[one, i], [-i, two]])
        res = diagonalize(h)
        assert res.entries == (Q.elem(1), Q.elem(1))
        check_witness(h, res)

    def test_zero_diagonal_pivot_manufacture(self):
        one, i, j, k = HAMILTON.basis()
        z = HAMILTON.zero()
        h = MatD(HAMILTON, [[z, i], [-i, z]])
        res = diagonalize(h)
        assert res.rank == 2
        assert res.sign_counts_at(0) == (1, 1, 0)
        check_witness(h, res)


class TestKernelFault:
    """A wrong product in the field kernel never yields a wrong certificate."""

    RT2 = FieldDesc(2)

    def hermitian(self):
        f = self.RT2
        alg = DivisionAlgebraDesc(f, "split")
        rows = [["1", "2+sqrt(2)", "-1/3"], ["2+sqrt(2)", "0", "sqrt(2)"],
                ["-1/3", "sqrt(2)", "5/7-sqrt(2)"]]
        return MatD(alg, [[alg.from_field(parse_elem(f, x)) for x in r] for r in rows])

    @staticmethod
    def corrupt(monkeypatch, target: int) -> list:
        # the target-th product with a nonzero value comes back off by one;
        # returns the running count of nonzero products
        mul = FieldElem.__mul__
        seen = [0]

        def faulty(x, y):
            out = mul(x, y)
            if out:
                seen[0] += 1
                if seen[0] == target:
                    return out + 1
            return out

        monkeypatch.setattr(FieldElem, "__mul__", faulty)
        return seen

    def test_no_wrong_product_yields_a_wrong_witness(self, monkeypatch):
        h = self.hermitian()
        with monkeypatch.context() as m:
            seen = self.corrupt(m, 0)
            diagonalize(h)
        caught = []
        for target in range(1, seen[0] + 1):
            with monkeypatch.context() as m:
                self.corrupt(m, target)
                try:
                    res = diagonalize(h)
                except InternalInvariantViolation:
                    caught.append(target)
                    continue
            # returned despite the fault: the certificate must still hold
            check_witness(h, res)
        # the very first product already feeds the reported witness
        assert caught[:1] == [1]


class TestHermitianForm:
    def test_validates_gram(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(NotHermitian):
            HermitianForm(alg, 1, qmat([[0, 1], [0, 0]]))
        with pytest.raises(DimensionMismatch):
            HermitianForm(alg, 2, qmat([[1]]))

    def test_blocks_and_evaluate(self):
        alg = zoo_algebra("split-q-2")
        ident = alg.identity()
        hyp = HermitianForm(
            alg, 2, MatD(SPLIT, qmat([[0, 0, 1, 0], [0, 0, 0, 1],
                                      [1, 0, 0, 0], [0, 1, 0, 0]]).entries)
        )
        assert hyp.block(0, 1) == ident
        assert hyp.block(0, 0).is_zero()
        x = MatD(SPLIT, ident.entries + MatD.zeros(SPLIT, 2, 2).entries)
        y = MatD(SPLIT, MatD.zeros(SPLIT, 2, 2).entries + ident.entries)
        assert hyp.evaluate(x, y) == ident
        assert hyp.evaluate(x, x).is_zero()

    def test_unit_form_evaluates_to_identity(self):
        for name in ("split-q-2", "split-q-2-indef", "quat-q-1"):
            alg = zoo_algebra(name)
            h = unit_form(alg)
            x = alg.identity()
            assert h.evaluate(x, x) == alg.identity()

    def test_diag_form_requires_symmetric_coefficients(self):
        alg = zoo_algebra("split-q-2")
        bad = MatD(SPLIT, [[SPLIT.zero(), SPLIT.one()],
                           [SPLIT.zero(), SPLIT.zero()]])
        with pytest.raises(NotSymmetric):
            diag_form(alg, [bad])

    def test_empty_diag_form(self):
        alg = zoo_algebra("split-q-1")
        h = diag_form(alg, [])
        assert h.rank == 0


class TestConstructors:
    def test_direct_sum_and_times(self):
        alg = zoo_algebra("split-q-1")
        a = diag_form(alg, [qmat([[1]]), qmat([[2]])])
        b = rank_one(alg, qmat([[-3]]))
        s = direct_sum(a, b)
        assert s.rank == 3
        assert sign_eta(s, 0) == 1
        assert times(3, b).rank == 3
        assert sign_eta(times(3, b), 0) == -3
        assert times(0, b).rank == 0

    def test_tensor_scales_by_field_entries(self):
        alg = zoo_algebra("split-q-2")
        q = QuadraticFormF((Q.elem(1), Q.elem(-1)))
        h = unit_form(alg)
        t = tensor(q, h)
        assert t.rank == 2
        assert sign_eta(t, 0) == 0
        assert sign_eta(tensor(QuadraticFormF((Q.elem(2),)), h), 0) == 2

    def test_scale_form_moves_the_involution(self):
        alg = zoo_algebra("split-q-2")
        c = qmat([[1, 0], [0, -1]])
        h = scale_form(c, unit_form(alg))
        assert h.alg.phi == c
        assert h.gram == c
        # the transfer is an isometry: signatures are preserved
        assert sign_eta(h, 0) == sign_eta(unit_form(alg), 0) == 2
        with pytest.raises(NotSymmetric):
            scale_form(qmat([[0, 1], [0, 0]]), unit_form(alg))
        with pytest.raises(Singular):
            scale_form(qmat([[1, 1], [1, 1]]), unit_form(alg))

    def test_nonsingular_part(self):
        alg = zoo_algebra("split-q-1")
        h = diag_form(alg, [qmat([[1]]), qmat([[0]]), qmat([[-1]])])
        ns, nullity = nonsingular_part(h)
        assert nullity == 1
        assert ns.rank == 2
        assert sign_eta(ns, 0) == 0
        # one nonzero reduced entry is padded to a whole ell = 2 block, so
        # the part is singular: ell does not divide the reduced rank 1
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, qmat([[1, 0], [0, 0]]))
        ns, nullity = nonsingular_part(h)
        assert (ns, nullity) == (h, 0)
        assert diagonalize(ns.gram).rank == 1

    def test_morita_diag_rep(self):
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, qmat([[3, 0], [0, 5]]))
        rep = morita_diag_rep(h)
        assert rep == (MatD.scalar(SPLIT, 3, 2), MatD.scalar(SPLIT, 5, 2))
        assert diag_form(alg, list(rep)).rank == 2


class TestWeakRepresentation:
    def test_square_is_represented_once(self):
        alg = zoo_algebra("split-q-1")
        h = unit_form(alg)
        res = weakly_represents(h, qmat([[4]]))
        assert res.status == "yes" and res.copies == 1
        assert times(res.copies, h).evaluate(res.witness, res.witness) == qmat([[4]])

    def test_sum_of_two_squares(self):
        alg = zoo_algebra("split-q-1")
        h = unit_form(alg)
        res = weakly_represents(h, qmat([[2]]))
        assert res.status == "yes" and res.copies == 2
        assert times(res.copies, h).evaluate(res.witness, res.witness) == qmat([[2]])

    def test_zero_target(self):
        alg = zoo_algebra("split-q-1")
        res = weakly_represents(unit_form(alg), qmat([[0]]))
        assert res.status == "yes" and res.copies == 1
        assert res.witness.is_zero()

    def test_negative_target_stays_unknown(self):
        alg = zoo_algebra("split-q-1")
        res = weakly_represents(unit_form(alg), qmat([[-1]]))
        assert res.status == "unknown"

    def test_matrix_target(self):
        alg = zoo_algebra("split-q-2")
        h = unit_form(alg)
        u = qmat([[4, 0], [0, 1]])
        res = weakly_represents(h, u)
        assert res.status == "yes"
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    def test_rejects_non_symmetric_target(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(NotSymmetric):
            weakly_represents(unit_form(alg), qmat([[0, 1], [0, 0]]))

    def test_two_generators_over_rt2(self):
        # 3 + sqrt(2) = 3 * 1 + 1 * sqrt(2) over the norm form <1, sqrt(2)>,
        # and 3 is a sum of three rational squares, not of two
        alg = zoo_algebra("quad-rt2-1")
        h = unit_form(alg)
        u = MatD.scalar(alg.div, alg.field.elem(3, 1), 1)
        res = weakly_represents(h, u)
        assert res.status == "yes" and res.copies == 3
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    def test_two_generators_share_one_copy(self):
        # 2 + sqrt(2) = 1 + (1 + sqrt(2)) over the norm form
        # <1, 1, 1 + sqrt(2), 1 + sqrt(2)>: two coordinates of one quaternion
        alg = zoo_algebra("quat-rt2-1")
        h = unit_form(alg)
        e = alg.field.elem(2, 1)
        for b in alg.div.basis():
            assert not (e / (b.theta() * b).scalar()).is_rational()
        u = MatD.scalar(alg.div, e, 1)
        res = weakly_represents(h, u)
        assert res.status == "yes" and res.copies == 1
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    def test_sixty_digit_entry_is_fast(self):
        alg = zoo_algebra("split-q-1")
        h = unit_form(alg)
        u = qmat([[Fraction(10**59 + 7, 3)]])
        start = time.perf_counter()
        res = weakly_represents(h, u)
        assert time.perf_counter() - start < 1.0
        assert res.status == "yes"
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    @pytest.mark.parametrize("name", zoo_names())
    def test_scaled_square_needs_one_copy(self, name):
        alg = zoo_algebra(name)
        a = rand_invertible_symmetric(random.Random(f"weakrep:{name}"), alg)
        u = a.scale_field(9)
        res = weakly_represents(rank_one(alg, a), u)
        assert res.status == "yes" and res.copies == 1
        assert rank_one(alg, a).evaluate(res.witness, res.witness) == u
