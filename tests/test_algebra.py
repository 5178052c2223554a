"""Division algebra elements, matrices over them, and involutions."""

from fractions import Fraction

import pytest

from poscones import (
    AlgebraWithInvolution,
    DElem,
    DimensionMismatch,
    DivisionAlgebraDesc,
    DivisionByZero,
    FieldDesc,
    MatD,
    Singular,
)
from poscones.algebra import kron_identity_left

Q = FieldDesc()
RT2 = FieldDesc(2)

SPLIT = DivisionAlgebraDesc(Q, "split")
GAUSS = DivisionAlgebraDesc(Q, "quad", (Q.one(),))  # Q(sqrt(-1))
HAMILTON = DivisionAlgebraDesc(Q, "quat", (Q.one(), Q.one()))  # (-1,-1)_Q


class TestDescriptors:
    def test_dims(self):
        assert SPLIT.dim == 1
        assert GAUSS.dim == 2
        assert HAMILTON.dim == 4

    def test_split_takes_no_params(self):
        with pytest.raises(ValueError):
            DivisionAlgebraDesc(Q, "split", (Q.one(),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DivisionAlgebraDesc(Q, "octonion")

    def test_quad_param_must_be_positive_somewhere(self):
        with pytest.raises(ValueError):
            DivisionAlgebraDesc(Q, "quad", (Q.elem(-1),))
        # positive only at the second embedding is still allowed
        DivisionAlgebraDesc(RT2, "quad", (RT2.elem(0, -1),))

    def test_quat_params_must_be_positive_together(self):
        with pytest.raises(ValueError):
            DivisionAlgebraDesc(Q, "quat", (Q.elem(-1), Q.one()))
        # a > 0 at P0 only, b > 0 at P1 only: never positive together
        with pytest.raises(ValueError):
            DivisionAlgebraDesc(RT2, "quat", (RT2.elem(0, 1), RT2.elem(0, -1)))

    def test_param_field_mismatch(self):
        with pytest.raises(ValueError):
            DivisionAlgebraDesc(Q, "quad", (RT2.one(),))


class TestQuadElements:
    def test_conjugate_multiplication(self):
        one, s = GAUSS.basis()
        assert s * s == GAUSS.from_field(-1)
        assert (one + s) * (one - s) == GAUSS.from_field(2)

    def test_inverse(self):
        one, s = GAUSS.basis()
        x = one + s
        assert x.inverse() == DElem(
            GAUSS, (Q.elem(Fraction(1, 2)), Q.elem(Fraction(-1, 2)))
        )
        assert x * x.inverse() == one
        with pytest.raises(DivisionByZero):
            GAUSS.zero().inverse()

    def test_theta_and_nrd(self):
        one, s = GAUSS.basis()
        x = 2 * one + 3 * s
        assert x.theta() == 2 * one - 3 * s
        assert x.nrd() == Q.elem(13)

    def test_scalar_detection(self):
        one, s = GAUSS.basis()
        assert (5 * one).is_scalar()
        assert (5 * one).scalar() == Q.elem(5)
        assert not s.is_scalar()
        with pytest.raises(ValueError):
            s.scalar()


class TestQuaternionElements:
    def test_multiplication_table(self):
        one, i, j, k = HAMILTON.basis()
        neg = -one
        assert i * i == neg and j * j == neg and k * k == neg
        assert i * j == k and j * i == -k
        assert j * k == i and k * j == -i
        assert k * i == j and i * k == -j

    def test_nrd_and_inverse(self):
        one, i, j, k = HAMILTON.basis()
        x = one + i + j + k
        assert x.nrd() == Q.elem(4)
        quarter = Fraction(1, 4)
        assert x.inverse() == DElem(
            HAMILTON,
            (Q.elem(quarter), Q.elem(-quarter), Q.elem(-quarter), Q.elem(-quarter)),
        )
        assert x * x.inverse() == one

    def test_theta_fixes_exactly_the_scalars(self):
        one, i, j, k = HAMILTON.basis()
        x = one + i + j + k
        assert x.theta() == one - i - j - k
        assert (x + x.theta()).is_scalar()
        assert one.theta() == one

    def test_division(self):
        one, i, j, k = HAMILTON.basis()
        assert (k / i) == k * i.inverse()
        assert (k / i) * i == k

    def test_rejects_wrong_coordinate_count(self):
        with pytest.raises(DimensionMismatch):
            DElem(HAMILTON, (Q.one(), Q.zero()))


class TestMatD:
    def test_constructors(self):
        ident = MatD.identity(SPLIT, 3)
        assert ident.rows == ident.cols == 3
        assert ident[0, 0] == SPLIT.one() and ident[0, 1] == SPLIT.zero()
        z = MatD.zeros(SPLIT, 2, 3)
        assert z.is_zero() and not z.is_square()
        d = MatD.diagonal(SPLIT, [SPLIT.from_field(2), SPLIT.from_field(3)])
        assert d[1, 1] == SPLIT.from_field(3)
        assert MatD.identity(SPLIT, 2).scale_field(2) == d - MatD.diagonal(
            SPLIT, [SPLIT.zero(), SPLIT.from_field(1)]
        )

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            MatD(SPLIT, [[SPLIT.one()], [SPLIT.one(), SPLIT.zero()]])

    def test_quaternion_matrix_product(self):
        one, i, j, k = HAMILTON.basis()
        z = HAMILTON.zero()
        lhs = MatD(HAMILTON, [[i, z], [z, j]])
        rhs = MatD(HAMILTON, [[j, z], [z, i]])
        assert lhs * rhs == MatD(HAMILTON, [[k, z], [z, -k]])

    def test_theta_t(self):
        one = SPLIT.one()
        z = SPLIT.zero()
        n = MatD(SPLIT, [[z, one], [z, z]])
        assert n.theta_t() == MatD(SPLIT, [[z, z], [one, z]])
        _, i, _, _ = HAMILTON.basis()
        assert MatD(HAMILTON, [[i]]).theta_t() == MatD(HAMILTON, [[-i]])

    def test_is_theta_hermitian(self):
        one, i, j, k = HAMILTON.basis()
        two = HAMILTON.from_field(2)
        assert MatD(HAMILTON, [[one, i], [-i, two]]).is_theta_hermitian()
        assert not MatD(HAMILTON, [[one, i], [i, two]]).is_theta_hermitian()

    def test_inverse(self):
        e = lambda n: SPLIT.from_field(n)
        m = MatD(SPLIT, [[e(2), e(1)], [e(1), e(1)]])
        assert m.inverse() == MatD(SPLIT, [[e(1), e(-1)], [e(-1), e(2)]])
        hyp = MatD(SPLIT, [[e(0), e(1)], [e(1), e(0)]])
        assert hyp.inverse() == hyp
        with pytest.raises(Singular):
            MatD(SPLIT, [[e(1), e(1)], [e(1), e(1)]]).inverse()

    def test_scale_field(self):
        e = lambda n: SPLIT.from_field(n)
        m = MatD(SPLIT, [[e(2), e(7)], [e(0), e(3)]])
        assert m.scale_field(Q.elem(2)) == m + m
        # a quad and a quaternion matrix: each entry scaled is the product
        # by the embedded scalar, as from_field(c) * x
        quad = DivisionAlgebraDesc(RT2, "quad", (RT2.elem(3, 1),))
        quat = DivisionAlgebraDesc(Q, "quat", (Q.elem(2), Q.elem(5)))
        cases = [
            (quad, RT2.elem(Fraction(-2, 3), 4), [
                [(RT2.elem(1, 2), RT2.elem(-3, 1)), (RT2.elem(0), RT2.elem(0, 5))],
                [(RT2.elem(7), RT2.elem(0)), (RT2.elem(Fraction(1, 2), -1), RT2.elem(2))],
            ]),
            (quat, Q.elem(Fraction(7, 2)), [
                [(Q.elem(1), Q.elem(-2), Q.elem(3), Q.elem(Fraction(1, 2))),
                 (Q.elem(0), Q.elem(4), Q.elem(0), Q.elem(-1))],
            ]),
        ]
        for div, c, rows in cases:
            m = MatD(div, [[DElem(div, x) for x in r] for r in rows])
            expected = MatD(div, [[div.from_field(c) * x for x in r] for r in m.entries])
            assert m.scale_field(c) == expected
            assert m.scale_field(-3) == MatD(
                div, [[div.from_field(-3) * x for x in r] for r in m.entries]
            )

    def test_block_diag_and_kron(self):
        _, i, j, _ = HAMILTON.basis()
        b = MatD.block_diag([MatD(HAMILTON, [[i]]), MatD(HAMILTON, [[j]])])
        assert b[0, 0] == i and b[1, 1] == j and b[0, 1].is_zero()
        assert kron_identity_left(2, MatD(HAMILTON, [[i]])) == MatD.diagonal(
            HAMILTON, [i, i]
        )

    def test_from_blocks(self):
        m = lambda rows: MatD(SPLIT, [[SPLIT.from_field(x) for x in r] for r in rows])
        grid = [[m([[1, 2], [3, 4]]), m([[5], [6]])], [m([[7, 8]]), m([[9]])]]
        assert MatD.from_blocks(SPLIT, grid) == m([[1, 2, 5], [3, 4, 6], [7, 8, 9]])
        assert MatD.from_blocks(SPLIT, []) == MatD.zeros(SPLIT, 0, 0)

    def test_immutability_and_hash(self):
        m = MatD.identity(SPLIT, 2)
        with pytest.raises(AttributeError):
            m.entries = ()
        assert hash(m) == hash(MatD.identity(SPLIT, 2))


class TestAlgebraWithInvolution:
    def test_sigma_transposes_through_phi(self):
        e = lambda n: SPLIT.from_field(n)
        phi = MatD.diagonal(SPLIT, [e(1), e(-1)])
        alg = AlgebraWithInvolution(2, SPLIT, phi)
        x = MatD(SPLIT, [[e(0), e(1)], [e(0), e(0)]])
        assert alg.sigma(x) == MatD(SPLIT, [[e(0), e(0)], [e(-1), e(0)]])
        assert alg.sigma(alg.sigma(x)) == x
        assert alg.sigma(phi) == phi
        assert alg.sigma(x) != x

    def test_standard_involution_flag(self):
        alg = AlgebraWithInvolution(2, SPLIT, MatD.identity(SPLIT, 2))
        assert alg.has_standard_involution
        assert alg.sigma(MatD(SPLIT, [[SPLIT.zero(), SPLIT.one()],
                                      [SPLIT.zero(), SPLIT.zero()]])) == MatD(
            SPLIT, [[SPLIT.zero(), SPLIT.zero()], [SPLIT.one(), SPLIT.zero()]]
        )

    def test_rejects_bad_phi(self):
        e = lambda n: SPLIT.from_field(n)
        with pytest.raises(ValueError):
            # not fixed by the conjugate transpose
            AlgebraWithInvolution(
                2, SPLIT, MatD(SPLIT, [[e(0), e(1)], [e(0), e(0)]])
            )
        with pytest.raises(Singular):
            AlgebraWithInvolution(
                2, SPLIT, MatD(SPLIT, [[e(1), e(1)], [e(1), e(1)]])
            )
        with pytest.raises(DimensionMismatch):
            AlgebraWithInvolution(2, SPLIT, MatD.identity(SPLIT, 3))
        with pytest.raises(ValueError):
            AlgebraWithInvolution(0, SPLIT, MatD.zeros(SPLIT, 0, 0))

    def test_quaternion_sigma_conjugates_entries(self):
        one, i, j, k = HAMILTON.basis()
        alg = AlgebraWithInvolution(1, HAMILTON, MatD.identity(HAMILTON, 1))
        assert alg.sigma(MatD(HAMILTON, [[i]])) == MatD(HAMILTON, [[-i]])
        three = MatD(HAMILTON, [[HAMILTON.from_field(3)]])
        assert alg.sigma(three) == three
        assert alg.sigma(MatD(HAMILTON, [[i]])) != MatD(HAMILTON, [[i]])
