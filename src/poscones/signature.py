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
from .errors import InternalInvariantViolation, NilOrdering, Singular
from .field import FieldElem
from .forms import HermitianForm, QuadraticFormF, rank_one
from .orders import classify

__all__ = [
    "sign_eta",
    "m_p",
    "SylvesterDecomposition",
    "pre_sylvester",
    "trace_form",
    "is_positive_involution",
]


def sign_eta(h: HermitianForm, p: int) -> int:
    """Signature of h at ordering p under the reference normalization;
    relative to a positive cone (P, eps) it is eps * sign_eta(h, P).  Zero
    entries of the reduced diagonal carry no sign, so singular forms need
    no separate treatment."""
    if classify(h.alg, p).nil:
        return 0
    return sum(e.sign_at(p) for e in h.diagonal.entries)


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
    res = h.diagonal
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


# -- involution trace forms ---------------------------------------------------


def trace_form(alg: AlgebraWithInvolution, b: MatD | None = None) -> QuadraticFormF:
    """Diagonal form isometric to x -> Trd(tau(x) * x), tau = Int(b) o sigma.

    b defaults to the identity (tau = sigma); it must be sigma-symmetric
    and invertible.  The result is a diagonal quadratic form over the base
    field, of dimension dim_F(A), given in closed form rather than by
    eliminating the Gram of the trace pairing.

    tau = Int(psi) o theta_t with psi = b * phi, which is theta_t-hermitian
    exactly when b is sigma-symmetric.  psi = theta_t(phi) * (phi^-1 b) * phi,
    so psi is congruent to phi^-1 b, the reduction that <b> diagonalizes,
    with witness phi^-1 G.  If that verified diagonal is <u_1, ..., u_ell>,
    the trace form of tau is isometric to <u> (x) <u> (x) T_D, with T_D the
    trace form of (D, theta) (Knus, Merkurjev, Rost, Tignol, The Book of
    Involutions, section 11): the basis of D is orthogonal for
    trd(theta(x) * y), and trd is the scalar coordinate, twice it for
    quaternions, so T_D is 1 or 2 times the norm form.  Entries are
    u_r * u_c * t_beta, nested r, c, beta.  The diagonal is the one of
    rank_one(alg, b), shared with every other question on b, which also
    refuses a b that is not sigma-symmetric (NotSymmetric).
    """
    if b is None:
        b = alg.identity()
    us = rank_one(alg, b).diagonal.entries
    if any(u.is_zero() for u in us):
        raise Singular("twisting element is not invertible")
    k = 2 if alg.div.kind == "quat" else 1
    t_d = [k * c for c in alg.div.norm_form()]
    return QuadraticFormF(
        tuple(ur * uc * t for ur in us for uc in us for t in t_d)
    )


def is_positive_involution(alg: AlgebraWithInvolution, b: MatD, p: int) -> bool:
    """True when tau = Int(b) o sigma has positive-semidefinite trace form
    at ordering p.

    This is equivalent to p being non-nil with |sign_eta(<b^-1>, p)| == n_P;
    criteria 6 and 10 of the acceptance suite compare the two routes.
    """
    return trace_form(alg, b).is_positive_semidefinite_at(p)
