"""Positive cones on algebras with involution.

At every non-nil ordering P of the base field there are exactly two
cones, mirror images of each other; a cone is addressed by the handle
(P, eps) with eps in {+1, -1}.  A symmetric element u belongs to the
cone when every nonzero diagonal entry of its reduced diagonalization
has sign eps at P; the cone with eps = +1 contains phi.

Cones transfer along the same moves as forms: going up D -> M_ell(D)
(pointwise positive semidefiniteness), going down (values of the
pairing), and twisting the involution by a symmetric unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import AlgebraWithInvolution, MatD
from .errors import (
    InternalInvariantViolation,
    NilOrdering,
    NotSymmetric,
    OrderingNotInXTilde,
    Singular,
)
from .forms import rank_one
from .morita import base_algebra, reduced_diagonal, standard_algebra
from .orders import classify, x_tilde
from .sampling import rand_matd, rand_positive_at
from .signature import is_positive_involution

__all__ = [
    "PositiveCone",
    "enumerate_cones",
    "member",
    "psd_up",
    "trace_down",
    "scale_cone",
    "ConeSample",
    "gen_cone_sample",
    "PropernessResult",
    "properness_check",
    "positive_involution_at",
    "formally_real",
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
    """All positive cones on the algebra: two per non-nil ordering."""
    out = []
    for p in x_tilde(alg):
        out.append(PositiveCone(alg, p, 1))
        out.append(PositiveCone(alg, p, -1))
    return tuple(out)


def member(u: MatD, cone: PositiveCone) -> bool:
    """Exact membership of a symmetric element in the cone."""
    res = reduced_diagonal(rank_one(cone.alg, u))
    return res.in_cone_at(cone.ordering, cone.eps)


def psd_up(cone: PositiveCone, ell: int) -> PositiveCone:
    """Cone of pointwise-positive matrices over (M_ell(D), theta_t)."""
    if cone.alg.ell != 1 or not cone.alg.has_standard_involution:
        raise ValueError("going up starts from a cone on (D, theta)")
    target = standard_algebra(ell, cone.alg.div)
    return PositiveCone(target, cone.ordering, cone.eps)


def trace_down(cone: PositiveCone) -> PositiveCone:
    """Cone of pairing values down on (D, theta); inverse of psd_up."""
    if not cone.alg.has_standard_involution:
        raise ValueError("going down starts from a conjugate-transpose cone")
    return PositiveCone(base_algebra(cone.alg.div), cone.ordering, cone.eps)


def scale_cone(a: MatD, cone: PositiveCone) -> PositiveCone:
    """The cone a * K on the algebra with involution twisted by a.

    Membership transfers exactly: u in K iff a*u in scale_cone(a, K).
    Central field scalars keep the algebra handle and flip eps by their
    sign; general symmetric units move the handle to phi' = a * phi.
    """
    alg = cone.alg
    if not alg.is_symmetric(a):
        raise NotSymmetric("scaling element is not sigma-symmetric")
    scalar_diag = [a[i, i] for i in range(alg.ell)]
    if (
        all(e.is_scalar() for e in scalar_diag)
        and len({e for e in scalar_diag}) == 1
        and a == MatD.scalar(alg.div, scalar_diag[0], alg.ell)
    ):
        lam = scalar_diag[0].scalar()
        if lam.is_zero():
            raise Singular("matrix is not invertible")
        return PositiveCone(
            alg, cone.ordering, cone.eps * lam.sign_at(cone.ordering)
        )
    # the algebra inverts a * phi, so it raises Singular when a is not a unit
    target = AlgebraWithInvolution(alg.ell, alg.div, a * alg.phi)
    return PositiveCone(target, cone.ordering, cone.eps)


# -- sampled cone closures -----------------------------------------------------


@dataclass(frozen=True)
class ConeSample:
    """Finite sample of a cone closure from a generator set."""

    alg: AlgebraWithInvolution
    ordering: int
    generators: tuple[MatD, ...]
    elements: tuple[MatD, ...]


def gen_cone_sample(
    alg: AlgebraWithInvolution,
    generators: Sequence[MatD],
    p: int,
    budget: int = 300,
    seed: int = 0,
) -> ConeSample:
    """Sample the closure of the generators under the cone operations.

    Closure steps: sums, twisted squares sigma(x) * s * x, and scaling by
    field elements positive at p.  The first elements enumerated are the
    twisted squares of the generators along all single-entry matrices,
    which suffice to expose improper generator sets.
    """
    classify(alg, p)  # validates the ordering
    gens = tuple(generators)
    for s in gens:
        if not alg.is_symmetric(s):
            raise NotSymmetric("generator is not sigma-symmetric")
    rng = random.Random(seed)
    pool: list[MatD] = list(gens)
    out: list[MatD] = list(gens)

    def push(x: MatD) -> None:
        pool.append(x)
        out.append(x)

    # deterministic twisted squares of the generators by single-entry
    # matrices: sigma(x) * s * x picks out diagonal values of s
    units: list[MatD] = []
    for r in range(alg.ell):
        for c in range(alg.ell):
            for beta in alg.div.basis():
                m = [[alg.div.zero()] * alg.ell for _ in range(alg.ell)]
                m[r][c] = beta
                units.append(MatD(alg.div, m))
    for s in gens:
        for x in units:
            if len(out) >= budget:
                break
            push(alg.sigma(x) * s * x)

    while len(out) < budget:
        op = rng.randrange(3)
        if op == 0:
            push(rng.choice(pool) + rng.choice(pool))
        elif op == 1:
            x = rand_matd(rng, alg.div, alg.ell, alg.ell)
            push(alg.sigma(x) * rng.choice(pool) * x)
        else:
            lam = rand_positive_at(rng, alg.field, p)
            push(rng.choice(pool).scale_field(lam))
    return ConeSample(alg, p, gens, tuple(out[:budget]))


@dataclass(frozen=True)
class PropernessResult:
    proper: bool
    witness: MatD | None = None


def properness_check(sample: ConeSample) -> PropernessResult:
    """Search the sample for a nonzero u with both u and -u present."""
    seen = set(sample.elements)
    for u in sample.elements:
        if not u.is_zero() and (-u) in seen:
            return PropernessResult(False, u)
    return PropernessResult(True, None)


# -- positive involutions and global structure --------------------------------


def positive_involution_at(
    alg: AlgebraWithInvolution, p: int
) -> tuple[MatD, AlgebraWithInvolution]:
    """Construct b with tau = Int(b) o sigma positive at ordering p.

    phi attains the maximal signature at every non-nil ordering (see
    m_p), so b = phi^-1 works: b * phi = 1, tau is theta_t, and the
    twisted algebra returned alongside is (M_ell(D), theta_t).  b is
    certified by is_positive_involution.  Raises NilOrdering when p is
    nil, where no positive involution exists.
    """
    if classify(alg, p).nil:
        raise NilOrdering(f"all signatures vanish at ordering {p}")
    b = alg.phi_inv
    if not is_positive_involution(alg, b, p):
        raise InternalInvariantViolation("constructed involution not positive")
    return b, standard_algebra(alg.ell, alg.div)


def formally_real(alg: AlgebraWithInvolution) -> bool:
    """True when some ordering is non-nil (equivalently, some hermitian
    form has nonzero signature somewhere)."""
    return len(x_tilde(alg)) > 0


def harrison_sigma(
    alg: AlgebraWithInvolution, elems: Sequence[MatD]
) -> tuple[PositiveCone, ...]:
    """All cones containing every listed symmetric element."""
    rs = [reduced_diagonal(rank_one(alg, a)) for a in elems]
    cones = enumerate_cones(alg)
    return tuple(k for k in cones if all(r.in_cone_at(k.ordering, k.eps) for r in rs))


def is_maximal_on(
    alg: AlgebraWithInvolution, u: MatD, orderings_subset: Iterable[int]
) -> bool:
    """True when u attains the maximal signature at every listed ordering;
    each one must be non-nil (else OrderingNotInXTilde)."""
    ys, good = tuple(orderings_subset), x_tilde(alg)
    for p in ys:
        if p not in good:
            raise OrderingNotInXTilde(f"ordering {p} is nil or invalid")
    res = reduced_diagonal(rank_one(alg, u))
    return all(res.in_cone_at(p) for p in ys)
