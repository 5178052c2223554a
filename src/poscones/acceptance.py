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
from typing import Callable

from .algebra import AlgebraWithInvolution, DivisionAlgebraDesc, MatD
from .cones import (
    PositiveCone,
    enumerate_cones,
    gen_cone_sample,
    is_maximal_on,
    member,
    positive_involution_at,
    properness_check,
    psd_up,
    trace_down,
)
from .field import FieldDesc, orderings
from .forms import (
    HermitianForm,
    QuadraticFormF,
    diag_form,
    diagonalize,
    direct_sum,
    rank_one,
    tensor,
)
from .morita import base_algebra, full_reduction, theta_algebra
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
    name: str
    passed: bool
    detail: str


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


# -- criterion 1: diagonalization soundness -----------------------------------


def criterion_1(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "diagonalization soundness and pivot-strategy invariance"
    per_algebra = _count(300, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c1:{zname}")
        div = alg.div
        base = base_algebra(div)
        live = [p for p in orderings(div.base) if not classify(base, p).nil]
        for i in range(per_algebra):
            n = 1 + (i % (2 * alg.ell))
            h = rand_hermitian(rng, div, n, singular=(i % 4 == 0))
            results = {}
            for strat in ("first", "last"):
                res = diagonalize(h, strat)
                lhs = res.witness.theta_t() * h * res.witness
                rhs = MatD.diagonal(div, [div.from_field(e) for e in res.entries])
                if lhs != rhs:
                    return CriterionResult(
                        1, name, False, f"congruence identity failed on {zname}"
                    )
                results[strat] = res
            first, lastr = results["first"], results["last"]
            if first.rank != lastr.rank:
                return CriterionResult(
                    1, name, False, f"rank differs across strategies on {zname}"
                )
            for p in live:
                if first.sign_counts_at(p) != lastr.sign_counts_at(p):
                    return CriterionResult(
                        1,
                        name,
                        False,
                        f"sign counts differ across strategies on {zname} at P{p}",
                    )
            checked += 1
    return CriterionResult(
        1, name, True, f"{checked} matrices diagonalized under both strategies"
    )


# -- criterion 2: going up and down -------------------------------------------


def criterion_2(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "up/down round trip and membership coherence"
    per_algebra = _count(200, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c2:{zname}")
        div = alg.div
        ell = alg.ell
        base = base_algebra(div)
        up_alg = theta_algebra(alg)
        for kd in enumerate_cones(base):
            if trace_down(psd_up(kd, ell)) != kd:
                return CriterionResult(
                    2, name, False, f"down o up is not the identity on {zname}"
                )
        for ku in enumerate_cones(up_alg):
            if psd_up(trace_down(ku), ell) != ku:
                return CriterionResult(
                    2, name, False, f"up o down is not the identity on {zname}"
                )
        for kd in enumerate_cones(base):
            ku = psd_up(kd, ell)
            p = kd.ordering
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
                        2, name, False, f"scalar coherence failed on {zname}"
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
                        2, name, False, f"matrix coherence failed on {zname}"
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
                        2, name, False, f"constructed member escaped on {zname}"
                    )
                x = rand_matd(rng, div, ell, 1)
                val = x.theta_t() * inside * x
                if not member(val, kd):
                    return CriterionResult(
                        2, name, False, f"pairing value escaped on {zname}"
                    )
                checked += 1
    return CriterionResult(2, name, True, f"{checked} coherence samples agreed")


# -- criterion 3: signature laws ----------------------------------------------


def criterion_3(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "signature laws (hyperbolic, additive, multiplicative)"
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
                        3, name, False, f"hyperbolic form had nonzero sign on {zname}"
                    )
                if sign_eta(direct_sum(h1, h2), p) != sign_eta(h1, p) + sign_eta(
                    h2, p
                ):
                    return CriterionResult(
                        3, name, False, f"additivity failed on {zname}"
                    )
                if sign_eta(tensor(q, h1), p) != q.sign_at(p) * sign_eta(h1, p):
                    return CriterionResult(
                        3, name, False, f"multiplicativity failed on {zname}"
                    )
            checked += 1
    return CriterionResult(3, name, True, f"{checked} instances obeyed all laws")


# -- criterion 4: maximal rank-one signature ----------------------------------


def criterion_4(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "rank-one signature bound, witness, and nil vanishing"
    per_algebra = _count(500, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        rng = random.Random(f"{seed}:c4:{zname}")
        infos = {p: classify(alg, p) for p in orderings_of(alg)}
        for p, info in infos.items():
            if not info.nil:
                value, witness = m_p(alg, p)
                if value != info.n_p:
                    return CriterionResult(
                        4, name, False, f"witness bound wrong on {zname} at P{p}"
                    )
                if sign_eta(rank_one(alg, witness), p) != info.n_p:
                    return CriterionResult(
                        4, name, False, f"witness missed bound on {zname} at P{p}"
                    )
        for _ in range(per_algebra):
            a = rand_invertible_symmetric(rng, alg)
            h = rank_one(alg, a)
            for p, info in infos.items():
                s = sign_eta(h, p)
                if info.nil:
                    if s != 0:
                        return CriterionResult(
                            4, name, False, f"nonzero signature at nil P{p} on {zname}"
                        )
                elif abs(s) > info.n_p:
                    return CriterionResult(
                        4, name, False, f"signature exceeded n_P on {zname}"
                    )
            checked += 1
    return CriterionResult(
        4, name, True, f"{checked} random units stayed within the bound"
    )


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
    name = "split cones match the principal-minor PSD oracle"
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
                    5, name, False, f"PSD disagreement at n={n}, sample {i}"
                )
            if member(m, minus) != _psd_oracle(neg_rows):
                return CriterionResult(
                    5, name, False, f"NSD disagreement at n={n}, sample {i}"
                )
            checked += 1
        if singular_seen < singular_target:
            return CriterionResult(
                5,
                name,
                False,
                f"only {singular_seen} singular samples at n={n}",
            )
    return CriterionResult(5, name, True, f"{checked} matrices matched the oracle")


# -- criterion 6: positive involutions ----------------------------------------


def criterion_6(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "positive involutions exist off nil and never on nil"
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
                        6, name, False, f"trace form not PSD on {zname} at P{p}"
                    )
                if abs(sign_eta(rank_one(alg, b.inverse()), p)) != info.n_p:
                    return CriterionResult(
                        6, name, False, f"witness signature off on {zname} at P{p}"
                    )
                built += 1
            else:
                for _ in range(per_nil):
                    b = rand_invertible_symmetric(rng, alg)
                    if is_positive_involution(alg, b, p):
                        return CriterionResult(
                            6,
                            name,
                            False,
                            f"positive involution appeared at nil P{p} on {zname}",
                        )
                    refuted += 1
    return CriterionResult(
        6, name, True, f"{built} constructions verified, {refuted} nil twists refuted"
    )


# -- criterion 7: scalar decompositions ----------------------------------------


def criterion_7(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "scalar decomposition, inertia, and normalized signature"
    per_algebra = _count(100, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        if not alg.has_standard_involution:
            continue
        rng = random.Random(f"{seed}:c7:{zname}")
        heavy = alg.ell >= 2 and (alg.div.dim >= 2 or alg.field.is_quadratic)
        max_rank = 1 if heavy else (2 if alg.ell >= 2 else 3)
        live = x_tilde(alg)
        for i in range(per_algebra):
            rank = 1 + (i % max_rank)
            h = _random_form(rng, alg, rank, nonsingular=True)
            # inertia: pre_sylvester pivots "first"; compare a "last" run
            last = diagonalize(full_reduction(h).gram, "last")
            for p in live:
                dec = pre_sylvester(h, p)
                pos, neg, _ = last.sign_counts_at(p)
                if (dec.r, dec.s) != (alg.ell * pos, alg.ell * neg):
                    return CriterionResult(
                        7, name, False, f"inertia failed on {zname} at P{p}"
                    )
                sig = sign_eta(h, p)
                if dec.sign_value(1) != sig:
                    return CriterionResult(
                        7,
                        name,
                        False,
                        f"normalized signature mismatch on {zname} at P{p}",
                    )
                if dec.sign_value(-1) != -sig:
                    return CriterionResult(
                        7, name, False, f"mirror signature mismatch on {zname}"
                    )
            checked += 1
    return CriterionResult(
        7, name, True, f"{checked} nonsingular forms decomposed and validated"
    )


# -- criterion 8: sampled cone axioms ------------------------------------------


def criterion_8(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "sampled cone closures stay inside and stay proper"
    budget = _count(300, scale)
    checked = 0
    for zname, alg in zoo_all().items():
        for cone in enumerate_cones(alg):
            _, witness = m_p(alg, cone.ordering)
            gen = witness if cone.eps == 1 else -witness
            sample = gen_cone_sample(
                alg, [gen], cone.ordering, budget=budget, seed=seed
            )
            bad = [u for u in sample.elements if not member(u, cone)]
            if bad:
                return CriterionResult(
                    8, name, False, f"closure escaped the cone on {zname}"
                )
            prop = properness_check(sample)
            if not prop.proper:
                return CriterionResult(
                    8, name, False, f"proper cone sample looked improper on {zname}"
                )
            checked += len(sample.elements)
    # seeded improper generator set over (M_2(Q), transpose)
    field = FieldDesc()
    div = DivisionAlgebraDesc(field, "split")
    alg2 = AlgebraWithInvolution(2, div, MatD.identity(div, 2))
    bad_gen = MatD.diagonal(div, [div.from_field(1), div.from_field(-1)])
    # detection relies on the deterministic twisted-square prefix of the
    # sample; keep room for it even when a tiny scale shrinks the budget
    sample = gen_cone_sample(alg2, [bad_gen], 0, budget=max(budget, 5), seed=seed)
    prop = properness_check(sample)
    if prop.proper:
        return CriterionResult(
            8, name, False, "improper generators were not detected"
        )
    return CriterionResult(
        8,
        name,
        True,
        f"{checked} closure elements stayed inside; improper seed was refuted",
    )


# -- criterion 9: cone characterization of maximality ---------------------------
#
# The oracle shares no code with the reduction, diagonalize or in_cone_at.  The
# Scharlau transfer S of <u> is the F-form (x, y) -> scalar coordinate of
# theta_t(x) * phi^-1 u * y on D^ell.  If phi^-1 u is congruent to <e_k> over
# D, S is isometric to <e_k> tensor the norm form of D, which is positive
# definite at every non-nil P: u is maximal at P iff S has no negative
# eigenvalue at P.


def _transfer_gram(alg: AlgebraWithInvolution, u: MatD) -> list[list]:
    """S over the F-basis (i, beta) of D^ell: side ell * dim D."""
    m = alg.phi_inv * u
    idx = [(i, beta) for i in range(alg.ell) for beta in alg.div.basis()]
    return [
        [(a.theta() * m[i, j] * b).coords[0] for j, b in idx] for i, a in idx
    ]


def _charpoly(s: list[list], field: FieldDesc) -> list:
    """Coefficients of det(x - S), leading one first, by Faddeev-LeVerrier:
    M_k = S M_(k-1) + c_(n-k+1) and c_(n-k) = -tr(S M_k) / k."""
    n, zero = len(s), field.zero()
    coeffs, m = [field.one()], [[zero] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[-1]
        m = [
            [sum((s[i][t] * m[t][j] for t in range(n)), c if i == j else zero)
             for j in range(n)]
            for i in range(n)
        ]
        trace = sum((s[i][t] * m[t][i] for i in range(n) for t in range(n)), zero)
        coeffs.append(-trace / k)
    return coeffs


def _negative_roots(coeffs: list, p: int) -> int:
    """Negative roots of a real-rooted polynomial at ordering p: by
    Descartes' rule, exactly the sign changes of its coefficients at -x."""
    n = len(coeffs) - 1
    signs = [(-1) ** (n - k) * c.sign_at(p) for k, c in enumerate(coeffs)]
    signs = [x for x in signs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def criterion_9(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "maximality matches cone membership on all ordering subsets"
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
        for u in us:
            poly = _charpoly(_transfer_gram(alg, u), alg.field)
            for ys in subsets:
                oracle = all(_negative_roots(poly, p) == 0 for p in ys)
                if is_maximal_on(alg, u, ys) != oracle:
                    return CriterionResult(
                        9,
                        name,
                        False,
                        f"criteria disagreed on {zname} for subset {ys}",
                    )
                checked += 1
                if ys:
                    maximal += oracle
                    not_maximal += not oracle
    return CriterionResult(
        9,
        name,
        True,
        f"{checked} comparisons agreed with the transfer charpoly oracle; "
        f"on non-empty subsets {maximal} maximal, {not_maximal} not",
    )


# -- criterion 10: three-way equivalence at the identity -------------------------


def criterion_10(seed: int, scale: float = 1.0) -> CriterionResult:
    name = "identity positivity: cones, signature, trace form agree"
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
                    10,
                    name,
                    False,
                    f"criteria split on {zname} at P{p}: "
                    f"cone={in_some_cone} sign={by_sign} trace={by_trace}",
                )
            checked += 1
    return CriterionResult(10, name, True, f"{checked} orderings agreed three ways")


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
    """Every criterion in order, each with its wall time in seconds."""
    out = []
    for fn in CRITERIA:
        start = time.perf_counter()
        result = fn(seed, scale)
        out.append((result, time.perf_counter() - start))
    return out
