"""Signatures of hermitian forms at orderings of the base field.

The signature used everywhere is normalized so that the rank-one form
whose reduction to (D, theta) is <1, ..., 1> has positive signature; in
particular sign_eta(<phi>, P) = +n_P at every non-nil ordering.  With
that normalization:

    sign_eta(h, P) = 0 at nil orderings, and otherwise the sum of the
    signs at P of the diagonal entries of the reduced, diagonalized form.

Any other admissible normalization differs from this one by a global sign
per ordering, which cancels in every absolute-value criterion below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraWithInvolution, MatD
from .errors import (
    InternalInvariantViolation,
    NilOrdering,
    NotSymmetric,
    Singular,
)
from .field import FieldElem
from .forms import HermitianForm, QuadraticFormF, diagonalize, rank_one
from .morita import reduced_diagonal
from .orders import classify

__all__ = [
    "REFERENCE_CONVENTION",
    "sign_eta",
    "m_p",
    "in_m_p",
    "SylvesterDecomposition",
    "pre_sylvester",
    "sign_cone",
    "trace_form",
    "is_positive_involution",
]

# Marker for the normalization in force; see module docstring.
REFERENCE_CONVENTION = "reduction-positive"


def sign_eta(h: HermitianForm, p: int) -> int:
    """Signature of h at ordering p under the reference normalization."""
    if classify(h.alg, p).nil:
        return 0
    return sum(e.sign_at(p) for e in reduced_diagonal(h).entries)


def m_p(alg: AlgebraWithInvolution, p: int) -> tuple[int, MatD]:
    """Largest rank-one signature at p, with an element attaining it.

    Returns (n_P, phi): the reduction of <phi> is <1, ..., 1>, so phi
    attains n_P at every non-nil ordering; that value is re-checked.
    Raises NilOrdering at nil orderings, where every signature vanishes.
    """
    info = classify(alg, p)
    if info.nil:
        raise NilOrdering(f"all signatures vanish at ordering {p}")
    if sign_eta(rank_one(alg, alg.phi), p) != info.n_p:
        raise InternalInvariantViolation("witness element missed the bound")
    return info.n_p, alg.phi


def in_m_p(alg: AlgebraWithInvolution, a: MatD, p: int) -> bool:
    """Membership in the maximal-signature set: zero, or symmetric
    invertible with sign_eta(<a>, p) == n_P."""
    info = classify(alg, p)
    if info.nil:
        raise NilOrdering(f"all signatures vanish at ordering {p}")
    res = reduced_diagonal(rank_one(alg, a))
    # congruence keeps rank: a is invertible iff no entry of res is zero
    invertible = res.rank == len(res.entries)
    signature = sum(e.sign_at(p) for e in res.entries)
    return a.is_zero() or (invertible and signature == info.n_p)


# -- Sylvester-style decomposition -------------------------------------------


@dataclass(frozen=True)
class SylvesterDecomposition:
    """ell^2 x h decomposed as (<pos> + <neg>) tensor <identity>.

    pos holds field coefficients positive at the ordering, neg the negative
    ones; r = len(pos), s = len(neg); t counts the scaling coefficients
    betas (a single 1 here).  The normalized signature is
    (r - s) / (n_P * t).
    """

    ordering: int
    n_p: int
    t: int
    betas: tuple[FieldElem, ...]
    pos: tuple[FieldElem, ...]
    neg: tuple[FieldElem, ...]

    @property
    def r(self) -> int:
        return len(self.pos)

    @property
    def s(self) -> int:
        return len(self.neg)

    def sign_value(self, eps: int = 1) -> int:
        num = eps * (self.r - self.s)
        den = self.n_p * self.t
        if num % den != 0:
            raise InternalInvariantViolation("non-integral normalized signature")
        return num // den


def pre_sylvester(h: HermitianForm, p: int) -> SylvesterDecomposition:
    """Decompose ell^2 copies of h into signed scalar forms at ordering p.

    Requires the plain conjugate-transpose involution, a non-nil ordering,
    and h nonsingular.  Each entry e_k of the verified reduced diagonal of
    h is repeated ell times: <c> tensor <1> reduces to ell copies of c, so
    the decomposition and ell^2 x h both reduce to ell^2 copies of each e_k.
    """
    alg = h.alg
    if not alg.has_standard_involution:
        raise ValueError("decomposition requires the conjugate-transpose form")
    info = classify(alg, p)
    if info.nil:
        raise NilOrdering(f"all signatures vanish at ordering {p}")
    res = reduced_diagonal(h)
    if any(e.is_zero() for e in res.entries):
        raise Singular("form is singular")
    pos, neg = [], []
    for e in res.entries:
        (pos if e.sign_at(p) == 1 else neg).extend([e] * alg.ell)
    return SylvesterDecomposition(
        ordering=p,
        n_p=info.n_p,
        t=1,
        betas=(alg.field.one(),),
        pos=tuple(pos),
        neg=tuple(neg),
    )


def sign_cone(h: HermitianForm, cone) -> int:
    """Signature of h relative to a positive cone (P, eps): eps * sign_eta
    at the cone's ordering.  Zero entries of the reduced diagonal carry no
    sign, so singular forms need no separate treatment."""
    return cone.eps * sign_eta(h, cone.ordering)


# -- involution trace forms ---------------------------------------------------


def _trace_form_d(div) -> tuple[FieldElem, ...]:
    """T_D = <trd(theta(beta) * beta)> over the standard basis of D.

    The basis is orthogonal for (x, y) -> trd(theta(x) * y).  The reduced
    trace is the scalar coordinate for the split and quad kinds and twice
    it for quaternions, so T_D is <1>, <1, d> or <2, 2a, 2b, 2ab>.
    """
    one = div.base.one()
    if div.kind == "split":
        return (one,)
    if div.kind == "quad":
        return (one,) + div.params
    a, b = div.params
    two = one + one
    return (two, two * a, two * b, two * a * b)


def trace_form(alg: AlgebraWithInvolution, b: MatD | None = None) -> QuadraticFormF:
    """Diagonal form isometric to x -> Trd(tau(x) * x), tau = Int(b) o sigma.

    b defaults to the identity (tau = sigma); it must be sigma-symmetric
    and invertible.  The result is a diagonal quadratic form over the base
    field, of dimension dim_F(A), given in closed form rather than by
    eliminating the Gram of the trace pairing.

    psi = b * phi is theta_t-hermitian, so tau = Int(psi) o theta_t.  If psi
    diagonalizes (with a verified witness) to <u_1, ..., u_ell>, the trace
    form of tau is isometric to <u> (x) <u> (x) T_D, with T_D the trace
    form of (D, theta) from _trace_form_d (Knus, Merkurjev, Rost, Tignol,
    The Book of Involutions, section 11).  Entries are listed as
    u_r * u_c * t_beta for r, c, beta in that nesting order.
    """
    if b is None:
        b = alg.identity()
    if not alg.is_symmetric(b):
        raise NotSymmetric("twisting element is not sigma-symmetric")
    us = diagonalize(b * alg.phi).entries
    if any(u.is_zero() for u in us):
        raise Singular("twisting element is not invertible")
    t_d = _trace_form_d(alg.div)
    return QuadraticFormF(
        tuple(ur * uc * t for ur in us for uc in us for t in t_d)
    )


def is_positive_involution(alg: AlgebraWithInvolution, b: MatD, p: int) -> bool:
    """True when tau = Int(b) o sigma has positive-semidefinite trace form
    at ordering p.

    Cross-checked against the rank-one criterion
    |sign_eta(<b^-1>, p)| == n_P, which is equivalent and independent of
    the signature normalization.
    """
    q = trace_form(alg, b)
    psd = q.is_positive_semidefinite_at(p)
    info = classify(alg, p)
    by_sign = abs(sign_eta(rank_one(alg, b.inverse()), p)) == info.n_p
    if psd != by_sign:
        raise InternalInvariantViolation(
            "trace-form and signature criteria disagree"
        )
    return psd
