"""Signatures, maximal-signature witnesses, decompositions, trace forms."""

import random
from fractions import Fraction

import pytest

from poscones import (
    AlgebraWithInvolution,
    DivisionAlgebraDesc,
    FieldDesc,
    classify,
    direct_sum,
    full_reduction,
    is_maximal_on,
    member,
    positive_involution_at,
    orderings,
    MatD,
    NilOrdering,
    QuadraticFormF,
    Singular,
    diag_form,
    is_positive_involution,
    m_p,
    pre_sylvester,
    rank_one,
    sign_eta,
    tensor,
    trace_form,
    x_tilde,
    zoo_algebra,
    zoo_names,
    PositiveCone,
)
from poscones.forms import diagonalize
from poscones.sampling import rand_hermitian, rand_invertible_symmetric

Q = FieldDesc()
RT2 = FieldDesc(2)
SPLIT = DivisionAlgebraDesc(Q, "split")


def qmat(rows):
    return MatD(SPLIT, [[SPLIT.from_field(Fraction(x)) for x in r] for r in rows])


class TestSignEta:
    def test_twist_form_attains_n_p_off_nil(self):
        for name in zoo_names():
            alg = zoo_algebra(name)
            h = rank_one(alg, alg.phi)
            for p in orderings(alg.field):
                info = classify(alg, p)
                expected = 0 if info.nil else info.n_p
                assert sign_eta(h, p) == expected, name

    def test_hyperbolic_vanishes(self):
        alg = zoo_algebra("split-q-2")
        h = diag_form(alg, [alg.identity(), -alg.identity()])
        assert sign_eta(h, 0) == 0

    def test_additive_under_direct_sum(self):
        alg = zoo_algebra("quat-q-1")
        a = rank_one(alg, MatD.identity(alg.div, 1).scale_field(2))
        b = rank_one(alg, MatD.identity(alg.div, 1).scale_field(-3))
        assert sign_eta(direct_sum(a, b), 0) == sign_eta(a, 0) + sign_eta(b, 0)

    def test_negative_tensor_flips_the_sign(self):
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, alg.identity())
        flipped = tensor(QuadraticFormF((alg.field.elem(-1),)), h)
        assert sign_eta(flipped, 0) == -sign_eta(h, 0)

    def test_twisted_unit_form_indefinite(self):
        alg = zoo_algebra("split-q-2-indef")
        assert sign_eta(rank_one(alg, alg.phi), 0) == 2
        assert sign_eta(rank_one(alg, alg.identity()), 0) == 0


class TestMaximalWitness:
    def test_indefinite_split_algebra(self):
        alg = zoo_algebra("split-q-2-indef")
        value, c = m_p(alg, 0)
        assert value == 2
        assert c == qmat([[1, 0], [0, -1]])
        assert is_maximal_on(alg, c, (0,))

    def test_standard_algebras_take_the_identity(self):
        for name in ("split-q-2", "quat-q-2", "quad-rt2-2"):
            alg = zoo_algebra(name)
            value, c = m_p(alg, 0)
            assert value == classify(alg, 0).n_p
            assert is_maximal_on(alg, c, (0,))

    def test_nil_ordering_raises(self):
        for name in ("quat-rt2-1", "quad-rt2-2"):
            with pytest.raises(NilOrdering):
                m_p(zoo_algebra(name), 1)

    def test_positive_cone_uses_the_positive_convention(self):
        alg = zoo_algebra("split-q-2")
        plus = PositiveCone(alg, 0, 1)
        assert member(alg.identity(), plus)
        assert not member(-alg.identity(), plus)
        assert not member(qmat([[1, 0], [0, -1]]), plus)
        # singular elements qualify through their nonsingular part
        assert member(qmat([[1, 0], [0, 0]]), plus)


class TestPreSylvester:
    def test_positive_definite_unit_form(self):
        alg = zoo_algebra("split-q-2")
        dec = pre_sylvester(rank_one(alg, alg.identity()), 0)
        assert (dec.r, dec.s) == (4, 0)
        assert dec.n_p == 2 and dec.t == 1
        assert dec.sign_value(1) == 2 == sign_eta(rank_one(alg, alg.identity()), 0)
        assert dec.sign_value(-1) == -2

    def test_balanced_form(self):
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, qmat([[1, 0], [0, -1]]))
        dec = pre_sylvester(h, 0)
        assert (dec.r, dec.s) == (2, 2)
        assert dec.sign_value(1) == 0

    def test_quaternion_unit(self):
        alg = zoo_algebra("quat-q-1")
        dec = pre_sylvester(rank_one(alg, alg.identity()), 0)
        assert (dec.r, dec.s) == (1, 0)
        assert dec.sign_value(1) == 1

    def test_strategies_agree(self):
        alg = zoo_algebra("quat-q-2")
        h = diag_form(alg, [alg.identity(), -alg.identity()])
        dec = pre_sylvester(h, 0)
        last = diagonalize(full_reduction(h).gram, "last")
        signs = [e.sign_at(0) for e in last.entries]
        pos, neg = signs.count(1), signs.count(-1)
        assert (dec.r, dec.s) == (alg.ell * pos, alg.ell * neg)

    def test_requires_standard_involution(self):
        alg = zoo_algebra("split-q-2-indef")
        with pytest.raises(ValueError):
            pre_sylvester(rank_one(alg, alg.identity()), 0)

    def test_rejects_singular_and_nil(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(Singular):
            pre_sylvester(rank_one(alg, MatD.zeros(SPLIT, 2, 2)), 0)
        alg = zoo_algebra("quat-rt2-1")
        with pytest.raises(NilOrdering):
            pre_sylvester(rank_one(alg, alg.identity()), 1)


class TestSignCone:
    """The signature relative to a cone (P, eps) is eps * sign_eta(h, P)."""

    def test_singular_forms_use_the_nonsingular_part(self):
        alg = zoo_algebra("split-q-1")
        h = diag_form(alg, [qmat([[1]]), qmat([[0]]), qmat([[1]])])
        assert sign_eta(h, 0) == 2

    @pytest.mark.parametrize("eps", [1, -1])
    def test_half_filled_block(self, eps):
        # one nonzero reduced entry cannot fill an ell = 2 block of its own
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, qmat([[1, 0], [0, 0]]))
        assert eps * sign_eta(h, 0) == eps


class TestTraceForm:
    def test_transpose_on_2x2_rationals(self):
        q = trace_form(zoo_algebra("split-q-2"))
        assert [e for e in q.entries] == [Q.elem(1)] * 4

    def test_indefinite_twist(self):
        q = trace_form(zoo_algebra("split-q-2-indef"))
        assert sorted(e.sign_at(0) for e in q.entries) == [-1, -1, 1, 1]
        assert not q.is_positive_semidefinite_at(0)

    def test_hamilton_quaternions(self):
        q = trace_form(zoo_algebra("quat-q-1"))
        assert [e for e in q.entries] == [Q.elem(2)] * 4

    def test_quadratic_extension(self):
        q = trace_form(zoo_algebra("quad-rt2-1"))
        assert [e for e in q.entries] == [RT2.one(), RT2.sqrt_gen()]
        assert q.is_positive_semidefinite_at(0)
        assert not q.is_positive_semidefinite_at(1)

    def test_dimension_matches_the_algebra(self):
        for name in zoo_names():
            alg = zoo_algebra(name)
            assert trace_form(alg).dim == alg.ell * alg.ell * alg.div.dim


def gram_trace_form(alg, b):
    """Oracle: the trace form of Int(b) o sigma by explicit Gram elimination.

    Builds the Gram of (x, y) -> Trd(tau(x) * y) over the F-basis
    E_{r,c} * beta of A and diagonalizes it.  The reduced trace of a
    matrix over D is the scalar coordinate of its trace, doubled for
    quaternions, matching the convention of the library.
    """
    ell, div = alg.ell, alg.div
    fdiv = DivisionAlgebraDesc(alg.field, "split")
    basis = []
    for r in range(ell):
        for c in range(ell):
            for beta in div.basis():
                m = [[div.zero()] * ell for _ in range(ell)]
                m[r][c] = beta
                basis.append(MatD(div, m))
    psi = b * alg.phi
    psi_inv = psi.inverse()
    taus = [psi * x.theta_t() * psi_inv for x in basis]

    def trd(m):
        t = sum((m[i, i].coords[0] for i in range(ell)), alg.field.zero())
        return t + t if div.kind == "quat" else t

    gram = MatD(
        fdiv, [[fdiv.from_field(trd(tx * y)) for y in basis] for tx in taus]
    )
    return QuadraticFormF(diagonalize(gram).entries)


def _signs(q, p):
    return (
        sum(1 for e in q.entries if e.sign_at(p) == 1),
        sum(1 for e in q.entries if e.sign_at(p) == -1),
    )


class TestTraceFormOracle:
    @staticmethod
    def check(alg, rng, name):
        twists = [alg.identity()] + [
            rand_invertible_symmetric(rng, alg) for _ in range(2)
        ]
        for b in twists:
            closed = trace_form(alg, b)
            oracle = gram_trace_form(alg, b)
            assert closed.dim == oracle.dim == alg.ell**2 * alg.div.dim
            for p in orderings(alg.field):
                assert _signs(closed, p) == _signs(oracle, p), (name, b, p)

    @pytest.mark.parametrize("name", zoo_names())
    def test_closed_form_matches_gram_route(self, name):
        self.check(zoo_algebra(name), random.Random(f"trace-oracle:{name}"), name)

    @pytest.mark.parametrize(
        "name", [n for n in zoo_names() if zoo_algebra(n).ell == 2]
    )
    def test_closed_form_matches_gram_route_on_dense_twists(self, name):
        # phi != 1: the closed form reads the diagonal of phi^-1 b, the
        # Gram route conjugates by b * phi
        rng = random.Random(f"trace-oracle-twist:{name}")
        for alg in dense_twists(name, 2):
            self.check(alg, rng, name)


class TestPositiveInvolution:
    def test_identity_twist(self):
        alg = zoo_algebra("split-q-2")
        assert is_positive_involution(alg, alg.identity(), 0)
        assert not is_positive_involution(alg, qmat([[1, 0], [0, -1]]), 0)

    def test_central_scalar_keeps_the_involution(self):
        # tau = Int(-1) o theta is theta itself, hence still positive
        alg = zoo_algebra("quat-q-1")
        assert is_positive_involution(alg, -alg.identity(), 0)

    def test_indefinite_twist_fails_on_matrices(self):
        alg = zoo_algebra("quat-q-2")
        b = MatD.diagonal(alg.div, [alg.div.from_field(1), alg.div.from_field(-1)])
        assert not is_positive_involution(alg, b, 0)

    def test_all_zoo_maximal_orderings_have_one(self):
        for name in zoo_names():
            alg = zoo_algebra(name)
            for p in x_tilde(alg):
                _, c = m_p(alg, p)
                assert is_positive_involution(alg, c.inverse(), p), name


class TestPositiveInvolutionOracle:
    def test_trace_form_matches_the_signature_route(self):
        # tau = Int(b) o sigma is positive at P exactly when P is non-nil
        # and <b^-1> attains the maximal signature n_P in absolute value
        verdicts = set()
        for name in zoo_names():
            alg = zoo_algebra(name)
            rng = random.Random(f"posinv-oracle:{name}")
            for _ in range(4):
                b = rand_invertible_symmetric(rng, alg)
                for p in orderings(alg.field):
                    info = classify(alg, p)
                    oracle = not info.nil and abs(
                        sign_eta(rank_one(alg, b.inverse()), p)
                    ) == info.n_p
                    assert is_positive_involution(alg, b, p) == oracle, (name, p)
                    verdicts.add(oracle)
        assert verdicts == {True, False}


# -- the flip construction as an oracle for the closed forms ------------------


def flip_witness(alg, p):
    """A maximal-signature element built without the closed form.

    Diagonalize phi as theta_t(G) * phi * G = diag(e), make each e
    positive at p, and pull back: c = phi * theta_t(G^-1) * |e| * G^-1,
    so the reduction phi^-1 * c of <c> is congruent to <|e|>.
    """
    res = diagonalize(alg.phi)
    flipped = MatD.diagonal(
        alg.div, [alg.div.from_field(e * e.sign_at(p)) for e in res.entries]
    )
    g_inv = res.witness.inverse()
    return alg.phi * g_inv.theta_t() * flipped * g_inv


def dense_twists(name, count):
    """Algebras over the zoo entry's M_2(D) with random dense twists."""
    base = zoo_algebra(name)
    rng = random.Random(f"dense-twist:{name}")
    out = []
    while len(out) < count:
        phi = rand_hermitian(rng, base.div, base.ell)
        if any(e.is_zero() for row in phi.entries for e in row):
            continue
        try:
            out.append(AlgebraWithInvolution(base.ell, base.div, phi))
        except Singular:
            continue
    return out


class TestClosedFormsAgainstTheFlipOracle:
    @pytest.mark.parametrize(
        "name", [n for n in zoo_names() if zoo_algebra(n).ell == 2]
    )
    def test_dense_twists(self, name):
        for alg in dense_twists(name, 3):
            for p in x_tilde(alg):
                n_p = classify(alg, p).n_p
                c = flip_witness(alg, p)
                value, phi = m_p(alg, p)
                assert c != phi and phi == alg.phi
                assert value == n_p == sign_eta(rank_one(alg, c), p)
                cone = PositiveCone(alg, p, 1)
                assert member(c, cone) and member(phi, cone)
                b, twisted = positive_involution_at(alg, p)
                assert is_positive_involution(alg, b, p)
                assert twisted.phi == b * alg.phi
