"""Acceptance checks run over the built-in algebra zoo.

Each criterion is a function returning a CriterionResult; run_all drives
all ten.  The checks are exact: random inputs are seeded, every verdict
is decided in rational arithmetic, and failures carry a description of
the first offending instance.  The scale parameter shrinks the sample
counts proportionally for quick smoke runs; scale=1.0 is the full suite.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .algebra import AlgebraWithInvolution, DivisionAlgebraDesc, MatD
from .cones import (
    GeneratedCone,
    PositiveCone,
    enumerate_cones,
    generated_cone,
    is_maximal_on,
    member,
    positive_involution_at,
)
from .field import FieldDesc
from .forms import (
    HermitianForm,
    QuadraticFormF,
    diag_form,
    diagonalize,
    direct_sum,
    rank_one,
    tensor,
)
from .morita import standard_algebra
from .orders import classify, orderings_of, x_tilde
from .sampling import (
    rand_fieldelem,
    rand_hermitian,
    rand_hermitian_form_gram,
    rand_invertible_symmetric,
    rand_matd,
    rand_positive_at,
    rand_symmetric,
)
from .signature import (
    is_positive_involution,
    m_p,
    pre_sylvester,
    sign_eta,
    trace_form,
)
from .zoo import zoo_all

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    passed: bool
    detail: str

    @property
    def name(self) -> str:
        return TITLES[self.number]


TITLES = {
    1: "diagonalization soundness and pivot-strategy invariance",
    2: "membership coherence between M_ell(D) and D",
    3: "signature laws (hyperbolic, additive, multiplicative)",
    4: "rank-one signature bound, witness, and nil vanishing",
    5: "split cones match the principal-minor PSD oracle",
    6: "positive involutions exist off nil and never on nil",
    7: "scalar decomposition, inertia, and normalized signature",
    8: "sampled cone closures stay inside and stay proper",
    9: "maximality matches cone membership on all ordering subsets",
    10: "identity positivity: cones, signature, trace form agree",
}


def _count(base: int, scale: float) -> int:
    return max(1, int(base * scale))


def _random_form(
    rng: random.Random,
    alg: AlgebraWithInvolution,
    rank: int,
    nonsingular: bool = False,
) -> HermitianForm:
    gram = rand_hermitian_form_gram(rng, alg, rank, nonsingular=nonsingular)
    return HermitianForm(alg, rank, gram, _checked=True)


# -- the transfer oracle: reference signs for criteria 1, 4, 7, 8 and 9 --------
#
# The oracle shares no code with the reduction, diagonalize, in_cone_at or
# generated_cone.  The Scharlau transfer S of a theta_t-hermitian m over D
# is the symmetric F-form (x, y) -> scalar coordinate of theta_t(x) * m * y
# on D^n.  If m is congruent to <e_k> over D, S is isometric to <e_k>
# tensor the norm form of D, which is positive definite at every non-nil
# P and indefinite at every nil P.  So at a non-nil P each of the
# (positive, negative, zero) counts of S is dim D times that of the e_k;
# at a nil P, S has eigenvalues of both signs unless m = 0.  For the
# element u of (M_ell(D), sigma), m is its reduction phi^-1 u.


@lru_cache(maxsize=16)
def _scalar_table(div: DivisionAlgebraDesc) -> list:
    b = div.basis()
    return [[[(k, v) for k, y in enumerate(b) if (v := (x.theta() * y * z).coords[0])]
             for z in b] for x in b]


def _transfer_gram(m: MatD) -> list[list]:
    """S over the F-basis (i, beta) of D^n, side n * dim D: entry sum_k
    m_ij[k] * t_akc over the nonzero t_akc = scalar coordinate of theta(beta_a)
    beta_k beta_c.  S is symmetric, so only its upper triangle is computed."""
    t, zero = _scalar_table(m.alg), m.alg.base.zero()
    idx = [(i, a) for i in range(m.rows) for a in range(len(t))]
    s = [[None] * len(idx) for _ in idx]
    for c, (j, g) in enumerate(idx):
        for r, (i, a) in enumerate(idx[: c + 1]):
            x = m[i, j].coords
            s[r][c] = s[c][r] = sum((x[k] * v for k, v in t[a][g]), zero)
    return s


def _charpoly(s: list[list], field: FieldDesc) -> list:
    """Coefficients of det(x - S), leading one first, in O(n^3): similarity
    (row swaps with column swaps, row_i -= m row_(k+1) with col_(k+1) +=
    m col_i) brings S to upper Hessenberg H, and p_k = det(x - H[:k, :k]) is
    (x - h_kk) p_(k-1) - sum_i h_(k-i),k h_k,(k-1) ... h_(k-i+1),(k-i) p_(k-i-1)."""
    n, zero, one = len(s), field.zero(), field.one()
    h = [list(row) for row in s]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue  # column k is already zero below the subdiagonal
        if piv != k + 1:
            h[piv], h[k + 1] = h[k + 1], h[piv]
            for row in h:
                row[piv], row[k + 1] = row[k + 1], row[piv]
        top, inv = h[k + 1], h[k + 1][k].inverse()
        for i in range(k + 2, n):
            if h[i][k]:
                m = h[i][k] * inv
                h[i] = h[i][:k] + [x - m * y for x, y in zip(h[i][k:], top[k:])]
                for row in h:
                    row[k + 1] = row[k + 1] + m * row[i]
    polys = [[one]]  # p_0, p_1, ...: coefficients, constant term first
    for k in range(1, n + 1):
        p = [zero] + polys[-1]
        for t, c in enumerate(polys[-1]):
            p[t] = p[t] - h[k - 1][k - 1] * c
        prod = one
        for i in range(1, k):
            prod = prod * h[k - i][k - i - 1]
            if not prod:
                break
            coef = h[k - 1 - i][k - 1] * prod
            for t, c in enumerate(polys[k - i - 1]):
                p[t] = p[t] - coef * c
        polys.append(p)
    return polys[-1][::-1]


def _sign_counts(coeffs: list, p: int) -> tuple[int, int, int]:
    """(positive, negative, zero) roots at ordering p of a real-rooted
    polynomial: zero from the trailing zero coefficients, negative by
    Descartes' rule, exactly the sign changes of the coefficients at -x."""
    n = len(coeffs) - 1
    zero = next(k for k, c in enumerate(reversed(coeffs)) if c)
    signs = [(-1) ** (n - k) * c.sign_at(p) for k, c in enumerate(coeffs)]
    signs = [x for x in signs if x]
    neg = sum(a != b for a, b in zip(signs, signs[1:]))
    return n - neg - zero, neg, zero


# -- criterion 1: diagonalization soundness -----------------------------------


def criterion_1(seed: int, scale: float = 1.0) -> CriterionResult:
    per_algebra = _count(300, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c1:{zname}")
        div = alg.div
        live = x_tilde(standard_algebra(1, div))
        for i in range(per_algebra):
            n = 1 + (i % (2 * alg.ell))
            h = rand_hermitian(rng, div, n, singular=(i % 4 == 0))
            poly = _charpoly(_transfer_gram(h), div.base)
            for strat in ("first", "last"):
                res = diagonalize(h, strat)
                lhs = res.witness.theta_t() * h * res.witness
                rhs = MatD.diagonal(div, [div.from_field(e) for e in res.entries])
                if lhs != rhs:
                    return CriterionResult(
                        1, False, f"congruence identity failed on {zname}"
                    )
                for p in live:
                    signs = [e.sign_at(p) for e in res.entries]
                    counts = tuple(div.dim * signs.count(x) for x in (1, -1, 0))
                    if counts != _sign_counts(poly, p):
                        return CriterionResult(
                            1, False, f"sign counts of the {strat!r} strategy "
                            f"missed the transfer oracle on {zname} at P{p}",
                        )
            checked += 1
    return CriterionResult(
        1, True, f"{checked} matrices matched the transfer oracle under both strategies"
    )


# -- criterion 2: membership coherence between M_ell(D) and D -----------------


def criterion_2(seed: int, scale: float = 1.0) -> CriterionResult:
    per_algebra = _count(200, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c2:{zname}")
        div = alg.div
        ell = alg.ell
        base = standard_algebra(1, div)
        up_alg = standard_algebra(ell, div)
        for kd in enumerate_cones(base):
            p = kd.ordering
            ku = PositiveCone(up_alg, p, kd.eps)
            for i in range(per_algebra):
                # scalar coherence: d in K_D iff diag(d, 0, ..., 0) in the
                # lifted cone
                d = rand_fieldelem(rng, div.base)
                d_el = div.from_field(d)
                down_u = MatD(div, [[d_el]])
                lifted = [[div.zero()] * ell for _ in range(ell)]
                lifted[0][0] = d_el
                up_u = MatD(div, lifted)
                if member(down_u, kd) != member(up_u, ku):
                    return CriterionResult(
                        2, False, f"scalar coherence failed on {zname}"
                    )
                # matrix coherence: membership above equals entrywise
                # membership of the diagonalization below
                b = rand_hermitian(rng, div, ell, singular=(i % 3 == 0))
                entries = diagonalize(b).entries
                below = all(
                    member(MatD(div, [[div.from_field(e)]]), kd) for e in entries
                )
                if member(b, ku) != below:
                    return CriterionResult(
                        2, False, f"matrix coherence failed on {zname}"
                    )
                # value coherence: pairings of a cone member land below
                lam = [
                    rand_positive_at(rng, div.base, p)
                    if rng.random() < 0.8
                    else div.base.zero()
                    for _ in range(ell)
                ]
                r = rand_matd(rng, div, ell, ell)
                inside = (
                    r.theta_t()
                    * MatD.diagonal(
                        div, [div.from_field(v * kd.eps) for v in lam]
                    )
                    * r
                )
                if not member(inside, ku):
                    return CriterionResult(
                        2, False, f"constructed member escaped on {zname}"
                    )
                x = rand_matd(rng, div, ell, 1)
                val = x.theta_t() * inside * x
                if not member(val, kd):
                    return CriterionResult(
                        2, False, f"pairing value escaped on {zname}"
                    )
                checked += 1
    return CriterionResult(2, True, f"{checked} coherence samples agreed")


# -- criterion 3: signature laws ----------------------------------------------


def criterion_3(seed: int, scale: float = 1.0) -> CriterionResult:
    per_algebra = _count(20, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c3:{zname}")
        for _ in range(per_algebra):
            h1 = _random_form(rng, alg, 1 + rng.randrange(2))
            h2 = _random_form(rng, alg, 1 + rng.randrange(2))
            a = rand_invertible_symmetric(rng, alg)
            q = QuadraticFormF(
                tuple(
                    rand_fieldelem(rng, alg.field)
                    for _ in range(1 + rng.randrange(2))
                )
            )
            hyp = diag_form(alg, [a, -a])
            for p in orderings_of(alg):
                if sign_eta(hyp, p) != 0:
                    return CriterionResult(
                        3, False, f"hyperbolic form had nonzero sign on {zname}"
                    )
                if sign_eta(direct_sum(h1, h2), p) != sign_eta(h1, p) + sign_eta(
                    h2, p
                ):
                    return CriterionResult(3, False, f"additivity failed on {zname}")
                if sign_eta(tensor(q, h1), p) != q.sign_at(p) * sign_eta(h1, p):
                    return CriterionResult(
                        3, False, f"multiplicativity failed on {zname}"
                    )
            checked += 1
    return CriterionResult(3, True, f"{checked} instances obeyed all laws")


# -- criterion 4: maximal rank-one signature ----------------------------------


def criterion_4(seed: int, scale: float = 1.0) -> CriterionResult:
    per_algebra = _count(500, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c4:{zname}")
        infos = {p: classify(alg, p) for p in orderings_of(alg)}
        dim = alg.div.dim
        for p, info in infos.items():
            if not info.nil:
                value, witness = m_p(alg, p)
                poly = _charpoly(_transfer_gram(alg.phi_inv * witness), alg.field)
                pos, neg, _ = _sign_counts(poly, p)
                if value != info.n_p or dim * value != pos - neg:
                    return CriterionResult(
                        4, False, f"m_p {value} missed n_P or the transfer "
                        f"oracle on {zname} at P{p}",
                    )
        for _ in range(per_algebra):
            a = rand_invertible_symmetric(rng, alg)
            h = rank_one(alg, a)
            poly = _charpoly(_transfer_gram(alg.phi_inv * a), alg.field)
            for p, info in infos.items():
                s = sign_eta(h, p)
                if info.nil:
                    if s != 0:
                        return CriterionResult(
                            4, False, f"nonzero signature at nil P{p} on {zname}"
                        )
                    continue
                pos, neg, _ = _sign_counts(poly, p)
                if abs(s) > info.n_p or dim * s != pos - neg:
                    return CriterionResult(
                        4, False, f"signature {s} missed n_P or the transfer "
                        f"oracle on {zname} at P{p}",
                    )
            checked += 1
    return CriterionResult(4, True, f"{checked} random units stayed within the bound")


# -- criterion 5: split cones against a minor-based oracle --------------------


def _det_frac(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if m[0][j] != 0:
            minor = [
                [m[i][k] for k in range(n) if k != j] for i in range(1, n)
            ]
            total += sign * m[0][j] * _det_frac(minor)
        sign = -sign
    return total


def _psd_oracle(m: list[list[Fraction]]) -> bool:
    """Positive semidefiniteness by nonnegativity of all principal minors."""
    n = len(m)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask & (1 << i)]
        sub = [[m[i][j] for j in idx] for i in idx]
        if _det_frac(sub) < 0:
            return False
    return True


def criterion_5(seed: int, scale: float = 1.0) -> CriterionResult:
    per_n = _count(500, scale)
    singular_target = _count(100, scale)
    field = FieldDesc()
    div = DivisionAlgebraDesc(field, "split")
    checked = 0
    for n in (1, 2, 3):
        alg = AlgebraWithInvolution(n, div, MatD.identity(div, n))
        plus = PositiveCone(alg, 0, 1)
        minus = PositiveCone(alg, 0, -1)
        rng = random.Random(f"{seed}:c5:{n}")
        singular_seen = 0
        for i in range(per_n):
            force_singular = i % 3 == 0
            m = rand_hermitian(rng, div, n, singular=force_singular)
            rows = [[e.scalar().a for e in row] for row in m.entries]
            if _det_frac(rows) == 0:
                singular_seen += 1
            neg_rows = [[-x for x in row] for row in rows]
            if member(m, plus) != _psd_oracle(rows):
                return CriterionResult(
                    5, False, f"PSD disagreement at n={n}, sample {i}"
                )
            if member(m, minus) != _psd_oracle(neg_rows):
                return CriterionResult(
                    5, False, f"NSD disagreement at n={n}, sample {i}"
                )
            checked += 1
        if singular_seen < singular_target:
            return CriterionResult(
                5, False, f"only {singular_seen} singular samples at n={n}"
            )
    return CriterionResult(5, True, f"{checked} matrices matched the oracle")


# -- criterion 6: positive involutions ----------------------------------------


def criterion_6(seed: int, scale: float = 1.0) -> CriterionResult:
    per_nil = _count(200, scale)
    built = 0
    refuted = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c6:{zname}")
        for p in orderings_of(alg):
            info = classify(alg, p)
            if not info.nil:
                b, _tau_alg = positive_involution_at(alg, p)
                q = trace_form(alg, b)
                if not q.is_positive_semidefinite_at(p):
                    return CriterionResult(
                        6, False, f"trace form not PSD on {zname} at P{p}"
                    )
                if abs(sign_eta(rank_one(alg, b.inverse()), p)) != info.n_p:
                    return CriterionResult(
                        6, False, f"witness signature off on {zname} at P{p}"
                    )
                built += 1
            else:
                for _ in range(per_nil):
                    b = rand_invertible_symmetric(rng, alg)
                    if is_positive_involution(alg, b, p):
                        return CriterionResult(
                            6,
                            False,
                            f"positive involution appeared at nil P{p} on {zname}",
                        )
                    refuted += 1
    return CriterionResult(
        6, True, f"{built} constructions verified, {refuted} nil twists refuted"
    )


# -- criterion 7: scalar decompositions ----------------------------------------


def criterion_7(seed: int, scale: float = 1.0) -> CriterionResult:
    per_algebra = _count(100, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        if not alg.has_standard_involution:
            continue
        rng = random.Random(f"{seed}:c7:{zname}")
        heavy = alg.ell >= 2 and (alg.div.dim >= 2 or alg.field.is_quadratic)
        max_rank = 1 if heavy else (2 if alg.ell >= 2 else 3)
        live, dim = x_tilde(alg), alg.div.dim
        for i in range(per_algebra):
            rank = 1 + (i % max_rank)
            h = _random_form(rng, alg, rank, nonsingular=True)
            # phi = 1, so the Gram is its own reduction; each transfer count
            # is dim D times a diagonal count, and r, s are ell times one
            poly = _charpoly(_transfer_gram(h.gram), alg.field)
            for p in live:
                dec = pre_sylvester(h, p)
                pos, neg, _ = _sign_counts(poly, p)
                if (dim * dec.r, dim * dec.s) != (alg.ell * pos, alg.ell * neg):
                    return CriterionResult(
                        7, False, f"inertia failed on {zname} at P{p}"
                    )
                if dim * dec.sign_value(1) != pos - neg:
                    return CriterionResult(
                        7, False, f"normalized signature mismatch on {zname} at P{p}"
                    )
                if dim * dec.sign_value(-1) != neg - pos:
                    return CriterionResult(
                        7, False, f"mirror signature mismatch on {zname}"
                    )
            checked += 1
    return CriterionResult(
        7, True, f"{checked} nonsingular forms decomposed and validated"
    )


# -- criterion 8: generated cones ----------------------------------------------


def _closure_sample(
    rng: random.Random, alg: AlgebraWithInvolution, gens: list, p: int, budget: int
) -> list[MatD]:
    """budget elements of the cone over p generated by gens: random sums,
    twisted squares sigma(x) * u * x and scalings by elements positive at p."""
    pool = list(gens)
    while len(pool) < budget:
        op, u = rng.randrange(3), rng.choice(pool)
        if op == 0:
            pool.append(u + rng.choice(pool))
        elif op == 1:
            x = rand_matd(rng, alg.div, alg.ell, alg.ell)
            pool.append(alg.sigma(x) * u * x)
        else:
            pool.append(u.scale_field(rand_positive_at(rng, alg.field, p)))
    return pool[:budget]


def criterion_8(seed: int, scale: float = 1.0) -> CriterionResult:
    budget = _count(300, scale)
    per_algebra = _count(30, scale)
    closure = decided = refuted = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c8:{zname}")
        for cone in enumerate_cones(alg):
            _, witness = m_p(alg, cone.ordering)
            gen = witness if cone.eps == 1 else -witness
            ans = generated_cone(alg, [gen], cone.ordering)
            if ans != GeneratedCone(True, cone.eps):
                detail = f"{cone} generator: proper {ans.proper}, eps {ans.eps}"
                return CriterionResult(8, False, f"{detail} on {zname}")
            sample = _closure_sample(rng, alg, [gen], cone.ordering, budget)
            if not all(member(u, cone) for u in sample):
                return CriterionResult(8, False, f"closure escaped the cone on {zname}")
            closure += len(sample)
        # random S against the oracle: S lies in the cone (P, +1) iff no
        # transfer has a negative eigenvalue at P, and in (P, -1) iff none
        # has a positive one; at a nil P only S in {0} does either.  Draw
        # on (up to 100 sets) until one is refuted at a non-nil P.
        live, drawn, refuted_here = x_tilde(alg), 0, 0
        while drawn < per_algebra or (not refuted_here and drawn < 100):
            drawn += 1
            gens = [rand_symmetric(rng, alg) for _ in range(1 + rng.randrange(2))]
            polys = [_charpoly(_transfer_gram(alg.phi_inv * s), alg.field) for s in gens]
            for p in orderings_of(alg):
                counts = [_sign_counts(c, p) for c in polys]
                no_neg, no_pos = (all(c[k] == 0 for c in counts) for k in (1, 0))
                ans = generated_cone(alg, gens, p)
                if (ans.proper, ans.eps) != (no_neg or no_pos, no_neg - no_pos):
                    return CriterionResult(
                        8, False, f"decision disagreed with the oracle on {zname} "
                        f"at P{p}: proper {ans.proper}, eps {ans.eps}",
                    )
                decided += 1
                refuted_here += not ans.proper and p in live
        if not refuted_here:
            return CriterionResult(
                8, False, f"no improper set refuted at a non-nil ordering on {zname}"
            )
        refuted += refuted_here
    return CriterionResult(
        8, True, f"{closure} closure elements stayed inside; {decided} decisions "
        f"matched the transfer charpoly oracle, {refuted} refuted off nil",
    )


# -- criterion 9: cone characterization of maximality ---------------------------


def criterion_9(seed: int, scale: float = 1.0) -> CriterionResult:
    per_algebra = _count(100, scale)
    checked = maximal = not_maximal = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c9:{zname}")
        live = x_tilde(alg)
        subsets = [
            tuple(p for i, p in enumerate(live) if mask & (1 << i))
            for mask in range(1 << len(live))
        ]
        us = []
        while len(us) < per_algebra:
            u = rand_symmetric(rng, alg)
            if not u.is_zero():
                us.append(u)
        # phi^-1 u = theta_t(r) r is maximal at every non-nil P
        r = rand_matd(rng, alg.div, alg.ell, alg.ell)
        us.append(alg.phi * r.theta_t() * r)
        for u in us:
            poly = _charpoly(_transfer_gram(alg.phi_inv * u), alg.field)
            for ys in subsets:
                oracle = all(_sign_counts(poly, p)[1] == 0 for p in ys)
                if is_maximal_on(alg, u, ys) != oracle:
                    return CriterionResult(
                        9, False, f"criteria disagreed on {zname} for subset {ys}"
                    )
                checked += 1
                if ys:
                    maximal += oracle
                    not_maximal += not oracle
    return CriterionResult(
        9, True, f"{checked} comparisons agreed with the transfer charpoly oracle; "
        f"on non-empty subsets {maximal} maximal, {not_maximal} not",
    )


# -- criterion 10: three-way equivalence at the identity -------------------------


def criterion_10(seed: int, scale: float = 1.0) -> CriterionResult:
    checked = 0
    for zname, alg in zoo_all().items():
        one = alg.identity()
        cones = enumerate_cones(alg)
        for p in orderings_of(alg):
            info = classify(alg, p)
            in_some_cone = any(
                member(one, k) for k in cones if k.ordering == p
            )
            by_sign = abs(sign_eta(rank_one(alg, one), p)) == info.n_p
            by_trace = is_positive_involution(alg, one, p)
            if not (in_some_cone == by_sign == by_trace):
                return CriterionResult(
                    10, False, f"criteria split on {zname} at P{p}: "
                    f"cone={in_some_cone} sign={by_sign} trace={by_trace}",
                )
            checked += 1
    return CriterionResult(10, True, f"{checked} orderings agreed three ways")


CRITERIA: tuple[Callable[[int, float], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(seed: int = 0, scale: float = 1.0) -> list[tuple[CriterionResult, float]]:
    """Every criterion in order, each with its wall time in seconds; one
    that raises is a FAIL naming the exception, and the rest still run."""
    out = []
    for number, fn in enumerate(CRITERIA, 1):
        start = time.perf_counter()
        try:
            result = fn(seed, scale)
        except Exception as exc:
            tb = exc.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            where = f"in {tb.tb_frame.f_code.co_name}, line {tb.tb_lineno}"
            detail = f"raised {type(exc).__name__}: {exc} ({where})"
            result = CriterionResult(number, False, detail)
        out.append((result, time.perf_counter() - start))
    return out
