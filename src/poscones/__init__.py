"""Exact hermitian forms and positive cones on algebras with involution.

The package computes, in exact rational arithmetic over Q and real
quadratic fields Q(sqrt(d)):

* diagonalization of hermitian matrices over split, quadratic and
  quaternion division algebras by congruence, with verified witnesses;
* reduction of hermitian forms over (M_ell(D), ad_phi) down to the
  division algebra (D, theta), made once per form with its diagonal;
* signatures of forms at the orderings of the base field, maximal
  rank-one signatures, and scalar (Sylvester-style) decompositions;
* the two positive cones sitting over each non-nil ordering: exact
  membership, an exact decision whether a set generates a proper cone
  (with a checked refutation when it does not), and constructive
  positive involutions.

A CLI (``poscones``) exposes the same operations over JSON descriptors.
"""

from .algebra import AlgebraWithInvolution, DElem, DivisionAlgebraDesc, MatD
from .cones import (
    GeneratedCone,
    PositiveCone,
    enumerate_cones,
    generated_cone,
    harrison_sigma,
    is_maximal_on,
    member,
    positive_involution_at,
)
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    InternalInvariantViolation,
    NilOrdering,
    NotHermitian,
    NotSymmetric,
    OrderingNotInXTilde,
    ParseError,
    PosconesError,
    Singular,
    TaskError,
)
from .field import (
    FieldDesc,
    FieldElem,
    format_elem,
    orderings,
    parse_elem,
)
from .forms import (
    DiagonalizationResult,
    HermitianForm,
    QuadraticFormF,
    WeakRepResult,
    diag_form,
    diagonalize,
    direct_sum,
    rank_one,
    tensor,
    times,
    weakly_represents,
)
from .morita import full_reduction, standard_algebra
from .orders import (
    OrderingInfo,
    classify,
    classify_all,
    x_tilde,
)
from .signature import (
    SylvesterDecomposition,
    is_positive_involution,
    m_p,
    pre_sylvester,
    sign_eta,
    trace_form,
)
from .zoo import zoo_algebra, zoo_all, zoo_names

__version__ = "1.0.0"

__all__ = [
    "AlgebraWithInvolution",
    "DElem",
    "DiagonalizationResult",
    "DimensionMismatch",
    "DivisionAlgebraDesc",
    "DivisionByZero",
    "FieldDesc",
    "FieldElem",
    "GeneratedCone",
    "HermitianForm",
    "InternalInvariantViolation",
    "MatD",
    "NilOrdering",
    "NotHermitian",
    "NotSymmetric",
    "OrderingInfo",
    "OrderingNotInXTilde",
    "ParseError",
    "PosconesError",
    "PositiveCone",
    "QuadraticFormF",
    "Singular",
    "SylvesterDecomposition",
    "TaskError",
    "WeakRepResult",
    "classify",
    "classify_all",
    "diag_form",
    "diagonalize",
    "direct_sum",
    "enumerate_cones",
    "format_elem",
    "full_reduction",
    "generated_cone",
    "harrison_sigma",
    "is_maximal_on",
    "is_positive_involution",
    "m_p",
    "member",
    "orderings",
    "parse_elem",
    "positive_involution_at",
    "pre_sylvester",
    "rank_one",
    "sign_eta",
    "standard_algebra",
    "tensor",
    "times",
    "trace_form",
    "weakly_represents",
    "x_tilde",
    "zoo_algebra",
    "zoo_all",
    "zoo_names",
]
