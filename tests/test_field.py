"""Exact base-field arithmetic, orderings, and the textual element format."""

from fractions import Fraction

import pytest

from poscones import (
    DivisionByZero,
    FieldDesc,
    FieldElem,
    ParseError,
    format_elem,
    is_totally_positive,
    orderings,
    parse_elem,
)

Q = FieldDesc()
RT2 = FieldDesc(2)
RT5 = FieldDesc(5)


class TestFieldDesc:
    def test_rationals(self):
        assert not Q.is_quadratic
        assert orderings(Q) == (0,)
        assert str(Q) == "Q"

    def test_real_quadratic(self):
        assert RT2.is_quadratic
        assert orderings(RT2) == (0, 1)
        assert str(RT2) == "Q(sqrt(2))"

    @pytest.mark.parametrize("d", [1, 0, -2, 4, 12, 18, 50])
    def test_rejects_bad_discriminant(self, d):
        with pytest.raises(ValueError):
            FieldDesc(d)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 2026])
    def test_accepts_squarefree(self, d):
        assert FieldDesc(d).d == d

    def test_caps_discriminant(self):
        # the largest prime below the cap is accepted; anything above is not
        assert FieldDesc(999999999989).d == 999999999989
        with pytest.raises(ValueError, match=r"10\*\*12"):
            FieldDesc(10**12 + 1)

    def test_elem_over_q_rejects_sqrt_part(self):
        with pytest.raises(ValueError):
            Q.elem(1, 1)

    def test_sqrt_gen(self):
        s = RT2.sqrt_gen()
        assert (s * s) == RT2.elem(2)
        with pytest.raises(ValueError):
            Q.sqrt_gen()


class TestArithmetic:
    def test_norm_one_unit(self):
        # (3 + 2*sqrt(2)) * (3 - 2*sqrt(2)) = 9 - 8 = 1
        x = RT2.elem(3, 2)
        assert x * x.conjugate() == RT2.one()
        assert x.norm() == Fraction(1)

    def test_inverse(self):
        x = RT2.elem(1, 1)  # 1 + sqrt(2)
        assert x.inverse() == RT2.elem(-1, 1)
        assert x * x.inverse() == RT2.one()
        assert (RT2.one() / x) == RT2.elem(-1, 1)

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            RT2.zero().inverse()
        with pytest.raises(DivisionByZero):
            Q.one() / Q.zero()

    def test_pow(self):
        x = RT2.elem(1, 1)
        assert x**2 == RT2.elem(3, 2)
        assert x**0 == RT2.one()
        assert x**-2 == RT2.elem(3, -2)

    def test_int_and_fraction_coercion(self):
        x = RT2.elem(0, 1)
        assert x + 1 == RT2.elem(1, 1)
        assert 1 - x == RT2.elem(1, -1)
        assert 2 * x == RT2.elem(0, 2)
        assert x / 2 == RT2.elem(0, Fraction(1, 2))
        assert 2 / RT2.elem(2) == RT2.one()
        assert Fraction(1, 3) * RT2.elem(3) == RT2.one()

    def test_cross_field_mix_rejected(self):
        with pytest.raises(ValueError):
            RT2.one() + RT5.one()

    def test_equality_and_hash(self):
        a = RT2.elem(Fraction(1, 2), Fraction(3, 4))
        b = RT2.elem(Fraction(2, 4), Fraction(6, 8))
        assert a == b
        assert hash(a) == hash(b)
        assert a != RT5.elem(Fraction(1, 2), Fraction(3, 4))
        assert bool(a) and not bool(RT2.zero())

    def test_is_rational(self):
        assert RT2.elem(7).is_rational()
        assert not RT2.elem(0, 1).is_rational()


class TestSigns:
    def test_two_embeddings(self):
        s = RT2.sqrt_gen()
        assert s.sign_at(0) == 1
        assert s.sign_at(1) == -1
        x = RT2.elem(1, -1)  # 1 - sqrt(2): negative, then positive
        assert x.sign_at(0) == -1
        assert x.sign_at(1) == 1

    def test_near_boundary_is_exact(self):
        # 577/408 is a convergent of sqrt(2): 577^2 = 332929, 2*408^2 = 332928
        x = RT2.elem(Fraction(577, 408), -1)
        assert x.sign_at(0) == 1
        # 7/5 lies below sqrt(2): 49 < 50
        y = RT2.elem(Fraction(7, 5), -1)
        assert y.sign_at(0) == -1

    def test_zero_sign(self):
        assert RT2.zero().sign_at(0) == 0
        assert Q.zero().sign_at(0) == 0

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            Q.one().sign_at(1)
        with pytest.raises(ValueError):
            RT2.one().sign_at(2)

    def test_totally_positive(self):
        assert is_totally_positive(RT2.elem(3, 2))  # conjugate 3-2*sqrt(2) > 0
        assert not is_totally_positive(RT2.elem(1, 1))
        assert is_totally_positive(Q.elem(5))
        assert not is_totally_positive(Q.elem(-5))


class TestTextFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "2",
            "-5/3",
            "sqrt(2)",
            "-sqrt(2)",
            "3*sqrt(2)",
            "1/2+3/4*sqrt(2)",
            "3-sqrt(2)",
            "-1/2-5*sqrt(2)",
            "23*sqrt(2)",
            "-23*sqrt(2)",
            "12/5*sqrt(2)",
        ],
    )
    def test_round_trip(self, text):
        x = parse_elem(RT2, text)
        assert format_elem(x) == text
        assert parse_elem(RT2, format_elem(x)) == x

    def test_parse_over_q(self):
        assert parse_elem(Q, "-7/3") == Q.elem(Fraction(-7, 3))
        with pytest.raises(ParseError):
            parse_elem(Q, "sqrt(2)")

    def test_parse_rejects_wrong_radicand(self):
        with pytest.raises(ParseError):
            parse_elem(RT2, "sqrt(3)")

    @pytest.mark.parametrize("text", ["", "abc", "1sqrt(2)", "1++2", "1.5"])
    def test_parse_rejects_junk(self, text):
        with pytest.raises(ParseError):
            parse_elem(RT2, text)

    def test_whitespace_tolerated(self):
        assert parse_elem(RT2, " 1 + sqrt(2) ") == RT2.elem(1, 1)

    def test_format_canonical_units(self):
        assert format_elem(RT2.elem(0, 1)) == "sqrt(2)"
        assert format_elem(RT2.elem(0, -1)) == "-sqrt(2)"
        assert format_elem(RT2.elem(1, 1)) == "1+sqrt(2)"
        assert format_elem(RT2.zero()) == "0"

    def test_elem_repr_uses_field(self):
        assert isinstance(repr(RT2.elem(1, 1)), str)
        assert str(FieldElem(RT2, Fraction(1), Fraction(1))) == "1+sqrt(2)"
