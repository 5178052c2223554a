"""Hermitian Morita reduction of forms to the base division algebra.

A form of rank k over (M_ell(D), ad_phi) reduces to a form of rank k*ell
over (D, theta): left-multiplying every Gram block by phi^-1 makes the
Gram theta_t-hermitian, and its flattened matrix is then read over D.
HermitianForm.reduced computes that Gram once per form object, and
HermitianForm.diagonal its verified diagonalization, from which every
signature, cone and maximality question about the form reads its signs;
full_reduction wraps the same Gram as a form over standard_algebra(1, D).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import AlgebraWithInvolution, MatD
from .forms import HermitianForm

__all__ = ["standard_algebra", "full_reduction"]


@lru_cache(maxsize=256)
def standard_algebra(ell: int, div) -> AlgebraWithInvolution:
    """(M_ell(D), theta_t), built and validated once per (ell, D); ell = 1
    gives (D, theta) itself, realized as 1 x 1 matrices."""
    return AlgebraWithInvolution(ell, div, MatD.identity(div, ell))


def full_reduction(h: HermitianForm) -> HermitianForm:
    """Reduce any form to the base division algebra (D, theta)."""
    return HermitianForm(
        standard_algebra(1, h.alg.div), h.rank * h.alg.ell, h.reduced, _checked=True
    )
