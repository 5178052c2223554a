"""Reduction of forms from (M_ell(D), involution) to (D, theta)."""

from fractions import Fraction

from poscones import (
    DivisionAlgebraDesc,
    FieldDesc,
    MatD,
    diag_form,
    full_reduction,
    rank_one,
    sign_eta,
    standard_algebra,
    zoo_algebra,
)

Q = FieldDesc()
SPLIT = DivisionAlgebraDesc(Q, "split")


def qmat(rows):
    return MatD(SPLIT, [[SPLIT.from_field(Fraction(x)) for x in r] for r in rows])


class TestAlgebraMaps:
    def test_theta_algebra_resets_phi(self):
        alg = zoo_algebra("split-q-2-indef")
        t = standard_algebra(alg.ell, alg.div)
        assert t.ell == alg.ell and t.div == alg.div
        assert t.has_standard_involution

    def test_base_algebra(self):
        b = standard_algebra(1, SPLIT)
        assert b.ell == 1 and b.div == SPLIT and b.has_standard_involution


class TestScaleInvolution:
    """The reduced Gram carries a form over (A, ad_phi) to (A, theta_t)."""

    def test_unit_form_becomes_phi_inverse_gram(self):
        alg = zoo_algebra("split-q-2-indef")  # phi = diag(1, -1)
        # gram becomes phi^-1 * identity = diag(1, -1)
        assert rank_one(alg, alg.identity()).reduced == alg.phi

    def test_no_op_on_standard_involution(self):
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, qmat([[2, 1], [1, 1]]))
        assert h.reduced == h.gram


class TestFullReduction:
    def test_theta_t_form_is_read_unchanged(self):
        alg = zoo_algebra("split-q-2")
        h = diag_form(alg, [qmat([[3, 0], [0, 5]]), qmat([[0, 1], [1, 0]])])
        red = full_reduction(h)
        assert red.alg == standard_algebra(1, SPLIT)
        assert red.rank == h.rank * alg.ell == 4
        assert red.gram == h.gram  # same matrix, reread over (D, theta)

    def test_diagonal_example(self):
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, qmat([[3, 0], [0, 5]]))
        red = full_reduction(h)
        assert red.alg == standard_algebra(1, SPLIT)
        assert red.rank == 2
        assert red.gram == qmat([[3, 0], [0, 5]])

    def test_twisted_unit_form(self):
        alg = zoo_algebra("split-q-2-indef")
        red = full_reduction(rank_one(alg, alg.identity()))
        # <1> over ad(diag(1,-1)) carries the twist into the gram
        assert red.gram == qmat([[1, 0], [0, -1]])

    def test_preserves_signatures(self):
        for name in ("split-q-2", "split-q-2-indef", "quat-q-2", "quad-rt2-2"):
            alg = zoo_algebra(name)
            h = rank_one(alg, alg.phi)
            red = full_reduction(h)
            for p in (0,) if alg.field.d is None else (0, 1):
                assert sign_eta(red, p) == sign_eta(h, p)
