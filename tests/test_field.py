"""Exact base-field arithmetic, orderings, and the textual element format."""

import random
from fractions import Fraction
from math import gcd, isqrt

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


class TestKernelOracle:
    """The int-triple kernel against a reference on Fraction pairs (a, b).

    The reference computes with a + b*sqrt(d) directly, and decides signs by
    bracketing sqrt(d*B^2) between consecutive integers, so it shares no
    code with the kernel.
    """

    FIELDS = (Q, RT2, RT5, FieldDesc(9973))
    PER_FIELD = 750

    @staticmethod
    def rand_rat(rng: random.Random) -> Fraction:
        kind = rng.randrange(5)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if kind == 2:
            return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        # 30 to 45 digit numerators and denominators
        big = 10 ** rng.randint(30, 45)
        return Fraction(rng.randint(-big, big), rng.randint(big // 10, big))

    @classmethod
    def rand_pair(cls, rng: random.Random, d) -> tuple[Fraction, Fraction]:
        a = cls.rand_rat(rng)
        if d is None:
            return a, Fraction(0)
        b = cls.rand_rat(rng)
        if b and rng.randrange(4) == 0:
            # a next to -b*sqrt(d): the hardest signs to decide
            num, den = b.numerator, b.denominator
            r = isqrt(d * num * num) + rng.choice((0, 1))
            a = Fraction(-r if num > 0 else r, den)
        return a, b

    @staticmethod
    def ref_sign(d, a: Fraction, b: Fraction, p: int) -> int:
        if p == 1:
            b = -b
        big_a, big_b = a.numerator * b.denominator, b.numerator * a.denominator
        if not big_b:
            return (big_a > 0) - (big_a < 0)
        # sqrt(d*B^2) lies strictly between r and r + 1 (d is no square)
        r = isqrt(d * big_b * big_b)
        if big_b > 0:
            return 1 if big_a + r >= 0 else -1
        return -1 if big_a - r <= 0 else 1

    @staticmethod
    def ref_format(d, a: Fraction, b: Fraction) -> str:
        if not b:
            return str(a)
        tail = f"{'' if abs(b) == 1 else f'{abs(b)}*'}sqrt({d})"
        if not a:
            return tail if b > 0 else f"-{tail}"
        return f"{a}{'+' if b > 0 else '-'}{tail}"

    @staticmethod
    def ref_mul(d, u, v):
        d = d or 0
        return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    @staticmethod
    def ref_inverse(d, u):
        n = u[0] * u[0] - (d or 0) * u[1] * u[1]
        return (u[0] / n, -u[1] / n)

    @staticmethod
    def assert_canonical(e, ref):
        assert e.den > 0
        assert gcd(e.x, e.y, e.den) == 1
        if e.field.d is None:
            assert e.y == 0
        assert (e.a, e.b) == ref
        assert type(e.a) is Fraction and type(e.b) is Fraction

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_against_fraction_pairs(self, field):
        rng = random.Random(f"field-oracle:{field}")
        d = field.d
        refs = [self.rand_pair(rng, d) for _ in range(self.PER_FIELD)]
        # repeat some coordinates so that equal elements and shared
        # denominators both occur
        refs += [(b, a) if d else (a, b) for a, b in refs[:50]] + refs[:50]
        elems = [FieldElem(field, a, b) for a, b in refs]
        for e, ref in zip(elems, refs):
            self.assert_canonical(e, ref)
            self.assert_canonical(e.conjugate(), (ref[0], -ref[1]))
            assert e.norm() == ref[0] * ref[0] - (d or 0) * ref[1] * ref[1]
            for p in orderings(field):
                assert e.sign_at(p) == self.ref_sign(d, *ref, p)
            assert str(e) == self.ref_format(d, *ref)
            assert parse_elem(field, str(e)) == e
        for x, y in zip(elems[:50], elems[-50:]):
            assert x == y and hash(x) == hash(y)
        order = list(range(len(elems)))
        rng.shuffle(order)
        for i, j in zip(range(len(elems)), order):
            x, y, u, v = elems[i], elems[j], refs[i], refs[j]
            self.assert_canonical(x + y, (u[0] + v[0], u[1] + v[1]))
            self.assert_canonical(x - y, (u[0] - v[0], u[1] - v[1]))
            self.assert_canonical(-x, (-u[0], -u[1]))
            self.assert_canonical(x * y, self.ref_mul(d, u, v))
            self.assert_canonical(x * v[0], (u[0] * v[0], u[1] * v[0]))
            if any(v):
                inv = self.ref_inverse(d, v)
                self.assert_canonical(y.inverse(), inv)
                self.assert_canonical(x / y, self.ref_mul(d, u, inv))
            assert (x == y) == (u == v)
            if u == v:
                assert hash(x) == hash(y)
            same = (x + y) - y
            assert same == x and hash(same) == hash(x)
