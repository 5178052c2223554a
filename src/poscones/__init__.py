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
  membership, going up/down between D and M_ell(D), twisting, an exact
  decision whether a set generates a proper cone (with a checked
  refutation when it does not), and constructive positive involutions.

A CLI (``poscones``) exposes the same operations over JSON descriptors.
"""

from .algebra import AlgebraWithInvolution, DElem, DivisionAlgebraDesc, MatD
from .cones import (
    GeneratedCone,
    PositiveCone,
    enumerate_cones,
    formally_real,
    generated_cone,
    harrison_sigma,
    is_maximal_on,
    member,
    positive_involution_at,
    psd_up,
    scale_cone,
    trace_down,
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
    ZeroArgument,
)
from .field import (
    FieldDesc,
    FieldElem,
    format_elem,
    is_totally_positive,
    orderings,
    parse_elem,
    sign_at,
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
    scale_form,
    tensor,
    times,
    unit_form,
    weakly_represents,
)
from .morita import full_reduction, standard_algebra
from .orders import (
    OrderingInfo,
    classify,
    classify_all,
    harrison,
    orderings_of,
    x_tilde,
)
from .signature import (
    SylvesterDecomposition,
    in_m_p,
    is_positive_involution,
    m_p,
    pre_sylvester,
    sign_cone,
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
    "ZeroArgument",
    "classify",
    "classify_all",
    "diag_form",
    "diagonalize",
    "direct_sum",
    "enumerate_cones",
    "formally_real",
    "format_elem",
    "full_reduction",
    "generated_cone",
    "harrison",
    "harrison_sigma",
    "in_m_p",
    "is_maximal_on",
    "is_positive_involution",
    "is_totally_positive",
    "m_p",
    "member",
    "orderings",
    "orderings_of",
    "parse_elem",
    "positive_involution_at",
    "pre_sylvester",
    "psd_up",
    "rank_one",
    "scale_cone",
    "scale_form",
    "sign_at",
    "sign_cone",
    "sign_eta",
    "standard_algebra",
    "tensor",
    "times",
    "trace_down",
    "trace_form",
    "unit_form",
    "weakly_represents",
    "x_tilde",
    "zoo_algebra",
    "zoo_all",
    "zoo_names",
]
