"""Classification of the base-field orderings relative to an algebra.

At an ordering P the algebra with involution completes to a real matrix
algebra over R, C or the real quaternions, or to a direct product of two
such algebras exchanged by the involution.  The class determines:

* n_P:  the matrix size of the completion over its local division ring;
* nil:  whether every signature of a hermitian form vanishes at P.

The rules, by division-algebra kind:

* split:      class "rcf",  n_P = ell,  never nil;
* quad d:     d > 0 at P -> "acf" (complex),       n_P = ell, not nil;
              d < 0 at P -> "d-rcf" (product),     n_P = ell, nil;
* quat a, b:  a, b > 0 at P -> "quat" (division),  n_P = ell, not nil;
              otherwise the quaternions split at P -> "rcf" with a
              skew pairing, n_P = 2*ell, nil.

The class "d-quat" (product of quaternion algebras) cannot occur for the
supported descriptors, whose division part has degree at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraWithInvolution
from .field import orderings

__all__ = [
    "OrderingInfo",
    "classify",
    "classify_all",
    "x_tilde",
]


@dataclass(frozen=True)
class OrderingInfo:
    """Local class of an algebra with involution at one ordering."""

    ordering: int
    cls: str  # "rcf" | "acf" | "quat" | "d-rcf" | "d-quat"
    n_p: int
    nil: bool


def classify(alg: AlgebraWithInvolution, p: int) -> OrderingInfo:
    """Classify the completion of the algebra at ordering p."""
    if p not in orderings(alg.field):
        raise ValueError(f"ordering {p!r} is not valid for {alg.field}")
    div = alg.div
    ell = alg.ell
    if div.kind == "split":
        return OrderingInfo(p, "rcf", ell, False)
    if div.kind == "quad":
        (d,) = div.params
        if d.sign_at(p) == 1:
            return OrderingInfo(p, "acf", ell, False)
        return OrderingInfo(p, "d-rcf", ell, True)
    a, b = div.params
    if a.sign_at(p) == 1 and b.sign_at(p) == 1:
        return OrderingInfo(p, "quat", ell, False)
    return OrderingInfo(p, "rcf", 2 * ell, True)


def classify_all(alg: AlgebraWithInvolution) -> tuple[OrderingInfo, ...]:
    return tuple(classify(alg, p) for p in orderings(alg.field))


def x_tilde(alg: AlgebraWithInvolution) -> tuple[int, ...]:
    """The orderings at which signatures do not identically vanish."""
    return tuple(p for p in orderings(alg.field) if not classify(alg, p).nil)
