"""Positive cones on algebras with involution.

At every non-nil ordering P of the base field there are exactly two
cones, mirror images of each other; a cone is addressed by the handle
(P, eps) with eps in {+1, -1}.  A symmetric element u belongs to the
cone when every nonzero diagonal entry of its reduced diagonalization
has sign eps at P; the cone with eps = +1 contains phi.

The cone (P, eps) on (D, theta) goes up to the cone (P, eps) on
standard_algebra(ell, D), so no going-up or going-down map is kept.
Whether a set of symmetric elements generates a proper cone over P is
decided exactly, with a checked refutation when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import AlgebraWithInvolution, MatD
from .errors import (
    InternalInvariantViolation,
    NilOrdering,
    OrderingNotInXTilde,
)
from .forms import rank_one
from .morita import standard_algebra
from .orders import classify, x_tilde

__all__ = [
    "PositiveCone",
    "enumerate_cones",
    "member",
    "GeneratedCone",
    "generated_cone",
    "positive_involution_at",
    "harrison_sigma",
    "is_maximal_on",
]


@dataclass(frozen=True)
class PositiveCone:
    """Handle (ordering, eps) for one of the two cones over an ordering."""

    alg: AlgebraWithInvolution
    ordering: int
    eps: int

    def __post_init__(self) -> None:
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        info = classify(self.alg, self.ordering)
        if info.nil:
            raise NilOrdering(
                f"no positive cones over nil ordering {self.ordering}"
            )

    def __str__(self) -> str:
        sign = "+" if self.eps == 1 else "-"
        return f"cone(P{self.ordering}, {sign})"


def enumerate_cones(alg: AlgebraWithInvolution) -> tuple[PositiveCone, ...]:
    """All positive cones on the algebra: two per non-nil ordering.

    As in Artin-Schreier, the algebra has a positive cone exactly when some
    ordering is non-nil.  Every accepted descriptor has one (quad and quat
    descriptors with none are refused by DivisionAlgebraDesc, and the split
    kind is never nil), so the tuple is never empty."""
    out = []
    for p in x_tilde(alg):
        out.append(PositiveCone(alg, p, 1))
        out.append(PositiveCone(alg, p, -1))
    return tuple(out)


def member(u: MatD, cone: PositiveCone) -> bool:
    """Exact membership of a symmetric element u in the cone, read from
    the diagonal of rank_one(u)."""
    return rank_one(cone.alg, u).diagonal.in_cone_at(cone.ordering, cone.eps)


# -- cones generated by a set ---------------------------------------------------


@dataclass(frozen=True)
class GeneratedCone:
    """Answer of generated_cone.  A proper one has eps = +1 or -1 when the
    generators lie in the cone (P, eps), and eps = 0 when they are all
    zero.  An improper one carries refutation = (x1, s1, lam1, x2, s2,
    lam2): s1, s2 are generators, lam1, lam2 are positive at P, and
    lam1 * sigma(x1) * s1 * x1 = -lam2 * sigma(x2) * s2 * x2 != 0."""

    proper: bool
    eps: int = 0
    refutation: tuple | None = None


def generated_cone(
    alg: AlgebraWithInvolution, gens: Sequence[MatD], p: int
) -> GeneratedCone:
    """Decide exactly whether the generators span a proper cone over p.

    The cone over P generated by S is the set of finite sums of
    lam * sigma(x) * s * x with lam positive at P, x in A and s in S.
    Every prepositive cone over P lies in C_P^+ or C_P^-, the two
    positive cones over P, and there are none over a nil P.  So the
    generated cone is proper exactly when S lies in C_P^+ or in C_P^-.

    Each s is reduced and diagonalized, theta_t(G) * phi^-1 s * G =
    diag(e).  With c_beta = theta(beta) * beta, the norm form of D,
    x = G * E_i1 * beta gives sigma(x) * s * x = e_i * c_beta * phi * E_11.
    If every nonzero e_i * c_beta has one sign eps at P, S lies in the
    cone (P, eps).  Otherwise a positive and a negative product, scaled
    to absolute value 1, give phi * E_11 and its negative: a refutation,
    re-checked by products.  At a nil P the norm form is indefinite, so
    any nonzero s refutes.  S in {0} generates {0}, which lies in both
    cones over a non-nil P: proper with eps 0.  Each s must be
    sigma-symmetric, else NotSymmetric is raised, even after a refutation.
    """
    classify(alg, p)  # validates the ordering
    forms = [rank_one(alg, s) for s in gens]  # validates every generator
    basis, norm = alg.div.basis(), alg.div.norm_form()
    first = {}  # sign at p -> (s, diagonal, i, beta, product): first of that sign
    for s, h in zip(gens, forms):
        res = h.diagonal
        for i, e in enumerate(res.entries[: res.rank]):
            for beta, c in zip(basis, norm):
                v = e * c
                first.setdefault(v.sign_at(p), (s, res, i, beta, v))
        if len(first) == 2:
            return _refutation(alg, p, first[1], first[-1])
    return GeneratedCone(True, next(iter(first), 0))


def _refutation(alg: AlgebraWithInvolution, p: int, pos, neg) -> GeneratedCone:
    """Scale a positive and a negative product to u and -u, and check them;
    only here is the witness G of a generator's diagonal read."""
    zero = alg.div.zero()
    cert = []
    for (s, res, i, beta, v), sign in ((pos, 1), (neg, -1)):
        # x = G * E_i1 * beta: column i of G times beta, in column 1
        g = res.witness
        x = MatD(alg.div, [[g[r, i] * beta] + [zero] * (alg.ell - 1)
                           for r in range(alg.ell)])
        cert += [x, s, v.inverse() * sign]
    x1, s1, lam1, x2, s2, lam2 = cert
    u = (alg.sigma(x1) * s1 * x1).scale_field(lam1)
    v = (alg.sigma(x2) * s2 * x2).scale_field(lam2)
    if u.is_zero() or u != -v or lam1.sign_at(p) + lam2.sign_at(p) != 2:
        raise InternalInvariantViolation("refutation failed its check")
    return GeneratedCone(False, 0, tuple(cert))


# -- positive involutions and global structure --------------------------------


def positive_involution_at(
    alg: AlgebraWithInvolution, p: int
) -> tuple[MatD, AlgebraWithInvolution]:
    """Construct b with tau = Int(b) o sigma positive at ordering p.

    phi attains the maximal signature at every non-nil ordering (see
    m_p), so b = phi^-1 works, and it is certified in closed form: once
    b * phi == 1 is checked, tau is theta_t, the twisted algebra returned
    alongside is (M_ell(D), theta_t), and the trace form of tau is
    <1, ..., 1> (x) T_D (see trace_form), T_D being 1 or 2 times the norm
    form of D.  So tau is positive at p exactly when every norm-form
    coefficient is, which is checked too.  Raises NilOrdering when p is
    nil, where no positive involution exists.
    """
    if classify(alg, p).nil:
        raise NilOrdering(f"all signatures vanish at ordering {p}")
    b = alg.phi_inv
    if b * alg.phi != alg.identity():
        raise InternalInvariantViolation("b * phi is not the identity")
    if any(c.sign_at(p) != 1 for c in alg.div.norm_form()):
        raise InternalInvariantViolation("constructed involution not positive")
    return b, standard_algebra(alg.ell, alg.div)


def harrison_sigma(
    alg: AlgebraWithInvolution, elems: Sequence[MatD]
) -> tuple[PositiveCone, ...]:
    """All cones containing every listed symmetric element, each read from
    the diagonal of its rank_one form: the Harrison sets on which the
    topology of the space of positive cones is built."""
    rs = [rank_one(alg, a).diagonal for a in elems]
    cones = enumerate_cones(alg)
    return tuple(k for k in cones if all(r.in_cone_at(k.ordering, k.eps) for r in rs))


def is_maximal_on(
    alg: AlgebraWithInvolution, u: MatD, orderings_subset: Iterable[int]
) -> bool:
    """True when u attains the maximal signature at every listed ordering,
    read from the diagonal of rank_one(u); each ordering must be non-nil
    (else OrderingNotInXTilde)."""
    ys, good = tuple(orderings_subset), x_tilde(alg)
    for p in ys:
        if p not in good:
            raise OrderingNotInXTilde(f"ordering {p} is nil or invalid")
    res = rank_one(alg, u).diagonal
    return all(res.in_cone_at(p) for p in ys)
