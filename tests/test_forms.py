"""Hermitian forms, congruence diagonalization, and form constructors."""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from poscones import (
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
    diag_form,
    diagonalize,
    direct_sum,
    parse_elem,
    rank_one,
    sign_eta,
    tensor,
    times,
    weakly_represents,
    zoo_algebra,
    zoo_names,
)
from poscones.forms import (
    DiagonalizationResult,
    _lead_columns,
    _verify_diagonalization,
)
from poscones.sampling import (
    rand_delem,
    rand_hermitian,
    rand_invertible_symmetric,
    rand_matd,
)

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
        assert [e.sign_at(0) for e in res.entries] == [1, 0]
        check_witness(h, res)

    def test_zeroed_radical_column_is_caught(self):
        h = qmat([[1, 1], [1, 1]])
        res = diagonalize(h)
        rows = [list(r) for r in res.witness.entries]
        rows[0][1] = rows[1][1] = SPLIT.zero()
        broken = DiagonalizationResult(MatD(SPLIT, rows), res.entries, res.inverse)
        # theta_t(G) H G == diag(entries) still holds for the singular G, and
        # theta_t(L) diag(entries) L == H for the inverse it carries, so only
        # the G * L == I step can refuse it
        assert broken.witness.theta_t() * h * broken.witness == qmat([[1, 0], [0, 0]])
        lhs = res.inverse.theta_t() * qmat([[1, 0], [0, 0]]) * res.inverse
        assert lhs == h
        with pytest.raises(InternalInvariantViolation, match="inverse failed"):
            _verify_diagonalization(h, broken)

    def test_dependent_radical_columns_are_caught(self):
        h = MatD.zeros(SPLIT, 2, 2)
        res = diagonalize(h)
        assert res.inverse == MatD.identity(SPLIT, 2)
        broken = DiagonalizationResult(qmat([[1, 1], [0, 0]]), res.entries, res.inverse)
        with pytest.raises(InternalInvariantViolation, match="inverse failed"):
            _verify_diagonalization(h, broken)

    def test_missing_inverse_is_refused(self):
        h = qmat([[2, 1], [1, 1]])
        res = diagonalize(h)
        with pytest.raises(InternalInvariantViolation, match="no inverse"):
            _verify_diagonalization(h, DiagonalizationResult(res.witness, res.entries))

    def test_truncated_entries_are_refused(self):
        # with G = L = I, theta_t(L) <1> L would match H on the one row it covers
        h = qmat([[1, 0], [0, 0]])
        res = diagonalize(h)
        assert res.inverse == res.witness == MatD.identity(SPLIT, 2)
        with pytest.raises(InternalInvariantViolation, match="wrong shape"):
            _verify_diagonalization(h, dataclasses.replace(res, entries=res.entries[:1]))

    def test_zero_matrix(self):
        res = diagonalize(MatD.zeros(SPLIT, 3, 3))
        assert res.rank == 0
        assert res.entries == (Q.elem(0),) * 3

    def test_strategies_agree_on_signs(self):
        h = qmat([[0, 1, 2], [1, 3, 0], [2, 0, -1]])
        first = diagonalize(h, "first")
        last = diagonalize(h, "last")
        assert first.rank == last.rank
        signs = [sorted(e.sign_at(0) for e in r.entries) for r in (first, last)]
        assert signs[0] == signs[1]
        check_witness(h, first)
        check_witness(h, last)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            diagonalize(qmat([[1]]), "middle")

    def test_rejects_non_hermitian(self):
        # the leading square of the wide matrix is hermitian, and the
        # check compares only that square, so the shape is tested first
        for m in (qmat([[0, 1], [0, 0]]), qmat([[1, 0, 5], [0, 1, 7]]),
                  qmat([[1, 0], [0, 1], [5, 7]]), MatD.zeros(SPLIT, 1, 2)):
            for strategy in ("first", "last"):
                with pytest.raises(NotHermitian):
                    diagonalize(m, strategy)

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
        assert sorted(e.sign_at(0) for e in res.entries) == [-1, 1]
        check_witness(h, res)


def reference_diagonalize(h, strategy):
    """The full-matrix congruence elimination, kept as an oracle.

    Every column operation runs over all n rows of the working matrix and
    of the witness, and its mirroring row operation over all n columns:
    about 1.5 n^3 products, with no use of hermitian symmetry.  It picks
    the same pivots as diagonalize, so it returns the same entries and
    witness.
    """
    alg, n = h.alg, h.rows
    work = [list(r) for r in h.entries]
    g = [list(r) for r in MatD.identity(alg, n).entries]
    last = strategy == "last"

    def col_op(i, j, x):
        # col_i += col_j * x on both matrices, then row_i += theta(x) * row_j
        xt = x.theta()
        for r in range(n):
            work[r][i] = work[r][i] + work[r][j] * x
            g[r][i] = g[r][i] + g[r][j] * x
        for c in range(n):
            work[i][c] = work[i][c] + xt * work[j][c]

    def swap(i, j):
        for r in range(n):
            work[r][i], work[r][j] = work[r][j], work[r][i]
            g[r][i], g[r][j] = g[r][j], g[r][i]
        work[i], work[j] = work[j], work[i]

    for p in range(n):
        idx = range(p, n) if not last else range(n - 1, p - 1, -1)
        piv = next((i for i in idx if not work[i][i].is_zero()), None)
        if piv is None:
            offs = [(i, j) for i in range(p, n) for j in range(i + 1, n)
                    if not work[i][j].is_zero()]
            if not offs:
                break
            i, j = offs[-1] if last else offs[0]
            col_op(i, j, work[i][j].theta())
            piv = i
        if piv != p:
            swap(piv, p)
        a_inv = work[p][p].inverse()
        for r in range(p + 1, n):
            if not work[p][r].is_zero():
                col_op(r, p, -(a_inv * work[p][r]))

    order = [i for i in range(n) if not work[i][i].is_zero()] + [
        i for i in range(n) if work[i][i].is_zero()
    ]
    entries = tuple(work[i][i].scalar() for i in order)
    return entries, MatD(alg, [[g[r][c] for c in order] for r in range(n)])


def zero_diagonal_hermitian(rng, div, n, density=0.7):
    """theta-hermitian with a zero diagonal: every pivot is manufactured
    until an update lands a nonzero entry on the diagonal."""
    rows = [[div.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                b = rand_delem(rng, div)
                rows[i][j], rows[j][i] = b, b.theta()
    return MatD(div, rows)


def shuffled_sum(rng, a, b):
    """a (+) b conjugated by a random permutation, so that the zero-diagonal
    part of b meets the manufactured-pivot path after some pivots of a."""
    n = a.rows + b.rows
    perm = list(range(n))
    rng.shuffle(perm)
    s = MatD.block_diag([a, b]).entries
    return MatD(a.alg, [[s[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def oracle_inputs(name):
    div = zoo_algebra(name).div
    rng = random.Random(f"oracle:{name}")
    out = [MatD.zeros(div, 2, 2)]
    for n in (1, 2, 3, 4, 5):
        out.append(rand_hermitian(rng, div, n))
        out.append(rand_hermitian(rng, div, n, singular=True))
    for n in (2, 3, 4, 5):
        out.append(zero_diagonal_hermitian(rng, div, n))
        out.append(zero_diagonal_hermitian(rng, div, n, density=0.4))
    for k, m in ((1, 2), (2, 3), (3, 2)):
        out.append(shuffled_sum(rng, rand_hermitian(rng, div, k),
                                zero_diagonal_hermitian(rng, div, m)))
        out.append(shuffled_sum(rng, rand_hermitian(rng, div, k, singular=True),
                                zero_diagonal_hermitian(rng, div, m)))
    return out


class TestReferenceElimination:
    """diagonalize equals the full-matrix elimination, bit for bit."""

    @pytest.mark.parametrize("name", zoo_names())
    def test_same_entries_and_witness(self, name):
        for h in oracle_inputs(name):
            for strategy in ("first", "last"):
                res = diagonalize(h, strategy)
                assert (res.entries, res.witness) == reference_diagonalize(h, strategy)

    @pytest.mark.parametrize("name", zoo_names())
    def test_unchecked_non_hermitian_input_is_rejected(self, name):
        # the elimination mirrors one triangle and H is not scanned up
        # front, so it sees only half of a non-hermitian input; the
        # verification of the full identity must still refuse to return a
        # diagonal, and the failure is reported as NotHermitian
        div = zoo_algebra(name).div
        rng = random.Random(f"nonhermitian:{name}")
        one, z = div.one(), div.zero()
        b = next(x for x in iter(lambda: rand_delem(rng, div), None) if x)
        h = rand_hermitian(rng, div, 3)
        bumped = [list(r) for r in h.entries]
        bumped[0][2] = bumped[0][2] + one
        cases = [
            MatD(div, [[one, b], [z, one]]),
            MatD(div, [[z, b], [-b.theta(), z]]),  # skew: the pivot vanishes
            MatD(div, bumped),
            rand_matd(rng, div, 3, 3),
            rand_matd(rng, div, 4, 4),
        ]
        for m in cases:
            assert not m.is_theta_hermitian()
            for strategy in ("first", "last"):
                with pytest.raises(NotHermitian):
                    diagonalize(m, strategy)

    @pytest.mark.parametrize("name", zoo_names())
    def test_hermitian_input_is_not_scanned(self, name, monkeypatch):
        inputs, calls = oracle_inputs(name), []
        scan = MatD.is_theta_hermitian
        monkeypatch.setattr(
            MatD, "is_theta_hermitian", lambda m: calls.append(m) or scan(m)
        )
        for h in inputs:
            diagonalize(h)
        assert calls == []


def bumped(m, i, j, x):
    """m with x added to its entry (i, j)."""
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + x
    return MatD(m.alg, rows)


class TestInverseWitness:
    """diagonalize returns L = G^-1, and the check fails on any one change to
    L, to G or to the entries."""

    @pytest.mark.parametrize("name", zoo_names())
    def test_inverse_equals_gauss_jordan(self, name):
        # MatD.inverse shares no code with diagonalize
        for h in oracle_inputs(name):
            for strategy in ("first", "last"):
                res = diagonalize(h, strategy)
                assert res.inverse == res.witness.inverse()

    @pytest.mark.parametrize("name", zoo_names())
    def test_one_changed_entry_is_caught(self, name):
        div = zoo_algebra(name).div
        rng = random.Random(f"mutate:{name}")
        for h in oracle_inputs(name):
            n = h.rows
            for strategy in ("first", "last"):
                res = diagonalize(h, strategy)
                x = next(y for y in iter(lambda: rand_delem(rng, div), None) if y)
                i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                entries = list(res.entries)
                entries[k] = entries[k] + rng.choice((1, -1, Fraction(1, 3)))
                g, inv = res.witness, res.inverse
                for broken in (
                    DiagonalizationResult(g, res.entries, bumped(inv, i, j, x)),
                    DiagonalizationResult(bumped(g, i, j, x), res.entries, inv),
                    DiagonalizationResult(g, tuple(entries), inv),
                ):
                    with pytest.raises(InternalInvariantViolation):
                        _verify_diagonalization(h, broken)


def refused(h, res, match):
    with pytest.raises(InternalInvariantViolation, match=match):
        _verify_diagonalization(h, res)


class TestLeadPattern:
    """Without a manufactured pivot a result carries no G, and L is proved
    invertible by its pattern alone (_lead_columns); after one, G comes
    with it.  A one-entry change to a G-free result is refused, and so is
    an invertible L off the pattern unless its true G is supplied."""

    def test_manufactured_pivot_needs_its_g(self):
        h = qmat([[0, 1], [1, 0]])
        res = diagonalize(h)
        half = Fraction(1, 2)
        assert res.inverse == qmat([[half, half], [-1, 1]])
        assert _lead_columns(res.inverse) is None
        bare = DiagonalizationResult(None, res.entries, res.inverse)
        refused(h, bare, "inverse failed")
        with pytest.raises(InternalInvariantViolation, match="inverse failed"):
            bare.witness
        g = res.inverse.inverse()
        assert res.witness == g
        _verify_diagonalization(h, DiagonalizationResult(g, res.entries, res.inverse))

    def test_witness_is_built_once_and_needs_l(self):
        h = qmat([[2, 1], [1, 1]])
        res = diagonalize(h)
        assert _lead_columns(res.inverse) == [0, 1]
        assert res.witness is res.witness
        assert res.witness == res.inverse.inverse()
        with pytest.raises(InternalInvariantViolation, match="no inverse"):
            DiagonalizationResult(None, res.entries).witness

    @pytest.mark.parametrize("name", zoo_names())
    def test_one_change_to_a_g_free_result_is_caught(self, name):
        div = zoo_algebra(name).div
        rng = random.Random(f"pattern:{name}")
        on = off = 0
        for h in oracle_inputs(name):
            n = h.rows
            for strategy in ("first", "last"):
                res = diagonalize(h, strategy)
                d, inv = res.entries, res.inverse
                leads = _lead_columns(inv)
                if leads is None:
                    off += 1
                    refused(h, DiagonalizationResult(None, d, inv), "inverse failed")
                    with_g = DiagonalizationResult(res.witness, d, inv)
                    _verify_diagonalization(h, with_g)
                    continue
                on += 1
                x = next(y for y in iter(lambda: rand_delem(rng, div), None) if y)

                def bare(i, j):
                    return DiagonalizationResult(None, d, bumped(inv, i, j, x))

                p = rng.randrange(n)
                refused(h, bare(p, leads[p]), "inverse failed")  # a lead
                if n > 1:
                    p = rng.randrange(1, n)  # a zero the pattern requires
                    refused(h, bare(p, leads[rng.randrange(p)]), "inverse failed")
                # a free entry, in a row that the identity reads
                rows = [q for q in range(n - 1) if not d[q].is_zero()]
                if rows:
                    q = rng.choice(rows)
                    free = leads[rng.randrange(q + 1, n)]
                    refused(h, bare(q, free), "identity failed")
                entries = list(d)
                k = rng.randrange(n)
                entries[k] = entries[k] + rng.choice((1, -1, Fraction(1, 3)))
                changed = DiagonalizationResult(None, tuple(entries), inv)
                refused(h, changed, "identity failed")
        assert on and off


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
                except InternalInvariantViolation:  # never NotHermitian here
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
            h = rank_one(alg, alg.identity())
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

    def test_caches_stay_out_of_identity(self):
        # a twisted involution, so that the reduction differs from the Gram
        alg = zoo_algebra("split-q-2-indef")
        gram = alg.phi * qmat([[2, 1], [1, -3]])
        h = HermitianForm(alg, 1, gram)
        assert h.reduced != h.gram and h.diagonal.entries
        fresh = HermitianForm(alg, 1, gram)
        assert h == fresh and hash(h) == hash(fresh)
        with pytest.raises(AttributeError):
            h.gram = gram


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
        h = rank_one(alg, alg.identity())
        t = tensor(q, h)
        assert t.rank == 2
        assert sign_eta(t, 0) == 0
        assert sign_eta(tensor(QuadraticFormF((Q.elem(2),)), h), 0) == 2


class TestWeakRepresentation:
    def test_square_is_represented_once(self):
        alg = zoo_algebra("split-q-1")
        h = rank_one(alg, alg.identity())
        res = weakly_represents(h, qmat([[4]]))
        assert res.status == "yes" and res.copies == 1
        assert times(res.copies, h).evaluate(res.witness, res.witness) == qmat([[4]])

    def test_sum_of_two_squares(self):
        alg = zoo_algebra("split-q-1")
        h = rank_one(alg, alg.identity())
        res = weakly_represents(h, qmat([[2]]))
        assert res.status == "yes" and res.copies == 2
        assert times(res.copies, h).evaluate(res.witness, res.witness) == qmat([[2]])

    def test_zero_target(self):
        alg = zoo_algebra("split-q-1")
        res = weakly_represents(rank_one(alg, alg.identity()), qmat([[0]]))
        assert res.status == "yes" and res.copies == 1
        assert res.witness.is_zero()

    def test_negative_target_stays_unknown(self):
        alg = zoo_algebra("split-q-1")
        res = weakly_represents(rank_one(alg, alg.identity()), qmat([[-1]]))
        assert res.status == "unknown"

    def test_matrix_target(self):
        alg = zoo_algebra("split-q-2")
        h = rank_one(alg, alg.identity())
        u = qmat([[4, 0], [0, 1]])
        res = weakly_represents(h, u)
        assert res.status == "yes"
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    def test_rejects_non_symmetric_target(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(NotSymmetric):
            weakly_represents(rank_one(alg, alg.identity()), qmat([[0, 1], [0, 0]]))

    def test_two_generators_over_rt2(self):
        # 3 + sqrt(2) = 3 * 1 + 1 * sqrt(2) over the norm form <1, sqrt(2)>,
        # and 3 is a sum of three rational squares, not of two
        alg = zoo_algebra("quad-rt2-1")
        h = rank_one(alg, alg.identity())
        u = MatD.identity(alg.div, 1).scale_field(alg.field.elem(3, 1))
        res = weakly_represents(h, u)
        assert res.status == "yes" and res.copies == 3
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    def test_two_generators_share_one_copy(self):
        # 2 + sqrt(2) = 1 + (1 + sqrt(2)) over the norm form
        # <1, 1, 1 + sqrt(2), 1 + sqrt(2)>: two coordinates of one quaternion
        alg = zoo_algebra("quat-rt2-1")
        h = rank_one(alg, alg.identity())
        e = alg.field.elem(2, 1)
        for b in alg.div.basis():
            assert not (e / (b.theta() * b).scalar()).is_rational()
        u = MatD.identity(alg.div, 1).scale_field(e)
        res = weakly_represents(h, u)
        assert res.status == "yes" and res.copies == 1
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    @pytest.mark.parametrize("name, value", [
        ("quat-q-1", 3), ("quat-q-1", 7), ("quat-q-1", 15), ("quat-rt2-1", 2),
        ("quat-q-2", 7),
    ])
    def test_equal_norm_coefficients_share_one_copy(self, name, value):
        # coordinates with equal norm-form coefficients take one square each
        # in the same copy: 3 is the value of x = 1 + i + j over <1, 1, 1, 1>
        alg = zoo_algebra(name)
        h = rank_one(alg, alg.identity())
        u = MatD.identity(alg.div, alg.ell).scale_field(alg.field.elem(value))
        res = weakly_represents(h, u)
        assert res.status == "yes" and res.copies == 1
        assert h.evaluate(res.witness, res.witness) == u

    def test_sixty_digit_entry_is_fast(self):
        alg = zoo_algebra("split-q-1")
        h = rank_one(alg, alg.identity())
        u = qmat([[Fraction(10**59 + 7, 3)]])
        start = time.perf_counter()
        res = weakly_represents(h, u)
        assert time.perf_counter() - start < 1.0
        assert res.status == "yes"
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    def test_reads_the_target_inverse(self, monkeypatch):
        # the target's diagonalization carries its inverse: no Gauss-Jordan
        alg = zoo_algebra("quat-q-1")
        h = rank_one(alg, alg.identity())
        u = MatD.identity(alg.div, 1).scale_field(alg.field.elem(3))
        calls = []
        inverse = MatD.inverse
        monkeypatch.setattr(MatD, "inverse", lambda m: calls.append(m) or inverse(m))
        res = weakly_represents(h, u)
        assert res.status == "yes" and calls == []
        assert times(res.copies, h).evaluate(res.witness, res.witness) == u

    @pytest.mark.parametrize("name", zoo_names())
    def test_scaled_square_needs_one_copy(self, name):
        alg = zoo_algebra(name)
        a = rand_invertible_symmetric(random.Random(f"weakrep:{name}"), alg)
        u = a.scale_field(9)
        res = weakly_represents(rank_one(alg, a), u)
        assert res.status == "yes" and res.copies == 1
        assert rank_one(alg, a).evaluate(res.witness, res.witness) == u
