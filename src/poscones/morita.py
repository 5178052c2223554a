"""Reduction of hermitian forms to the base division algebra and back.

Two elementary moves compose into the full reduction:

* scale_involution: carry a form over (A, ad_phi) to one over
  (A, theta_t) by left-multiplying every Gram block by phi^-1;
* collapse: reinterpret the flattened Gram of a theta_t form of rank k
  over M_ell(D) as a form of rank k*ell over (D, theta), bit-identically.

expand is the inverse of collapse; full_reduction = collapse o
scale_involution takes any form down to (D, theta), and
reduced_diagonal diagonalizes that reduction once: every signature,
cone and maximality question about a form reads its signs from it.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import AlgebraWithInvolution, MatD, kron_identity_left
from .errors import RankNotDivisible
from .forms import DiagonalizationResult, HermitianForm, diagonalize

__all__ = [
    "theta_algebra",
    "base_algebra",
    "scale_involution",
    "collapse",
    "expand",
    "full_reduction",
    "reduced_diagonal",
]


@lru_cache(maxsize=256)
def standard_algebra(ell: int, div) -> AlgebraWithInvolution:
    """(M_ell(D), theta_t), built and validated once per (ell, D)."""
    return AlgebraWithInvolution(ell, div, MatD.identity(div, ell))


def theta_algebra(template: AlgebraWithInvolution) -> AlgebraWithInvolution:
    """(M_ell(D), theta_t) with the same D and ell as the template."""
    return standard_algebra(template.ell, template.div)


def base_algebra(div) -> AlgebraWithInvolution:
    """(D, theta) itself, realized as 1 x 1 matrices."""
    return standard_algebra(1, div)


def scale_involution(h: HermitianForm) -> HermitianForm:
    """Left-multiply each Gram block by phi^-1; result is theta_t-hermitian."""
    alg = h.alg
    if alg.has_standard_involution:
        target = alg
        gram = h.gram
    else:
        target = theta_algebra(alg)
        gram = (
            kron_identity_left(h.rank, alg.phi_inv) * h.gram
            if h.rank
            else h.gram
        )
    return HermitianForm(target, h.rank, gram, _checked=True)


def collapse(h: HermitianForm) -> HermitianForm:
    """Rank-k theta_t form over M_ell(D) as a rank-(k*ell) form over D."""
    if not h.alg.has_standard_involution:
        raise ValueError("collapse requires the plain conjugate-transpose form")
    target = base_algebra(h.alg.div)
    return HermitianForm(target, h.rank * h.alg.ell, h.gram, _checked=True)


def expand(b: HermitianForm, ell: int) -> HermitianForm:
    """Inverse of collapse: regroup a form over (D, theta) into ell-blocks."""
    if b.alg.ell != 1 or not b.alg.has_standard_involution:
        raise ValueError("expand starts from a form over (D, theta)")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if b.rank % ell != 0:
        raise RankNotDivisible(f"rank {b.rank} is not divisible by ell={ell}")
    target = standard_algebra(ell, b.alg.div)
    return HermitianForm(target, b.rank // ell, b.gram, _checked=True)


def full_reduction(h: HermitianForm) -> HermitianForm:
    """Reduce any form to the base division algebra (D, theta)."""
    return collapse(scale_involution(h))


def reduced_diagonal(h: HermitianForm) -> DiagonalizationResult:
    """The verified diagonalization of the reduction of h to (D, theta)."""
    return diagonalize(full_reduction(h).gram)
