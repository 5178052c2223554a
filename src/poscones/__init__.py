"""Exact hermitian forms and positive cones on algebras with involution.

The package computes, in exact rational arithmetic over Q and real
quadratic fields Q(sqrt(d)):

* diagonalization of hermitian matrices over split, quadratic and
  quaternion division algebras by congruence, with verified witnesses;
* reduction of hermitian forms over (M_ell(D), ad_phi) down to the
  division algebra and back;
* signatures of forms at the orderings of the base field, maximal
  rank-one signatures, and scalar (Sylvester-style) decompositions;
* the two positive cones sitting over each non-nil ordering: exact
  membership, going up/down between D and M_ell(D), twisting, sampled
  closure and properness checks, and constructive positive involutions.

A CLI (``poscones``) exposes the same operations over JSON descriptors.
"""

from .algebra import AlgebraWithInvolution, DElem, DivisionAlgebraDesc, MatD
from .cones import (
    ConeSample,
    PositiveCone,
    PropernessResult,
    enumerate_cones,
    formally_real,
    gen_cone_sample,
    harrison_sigma,
    is_maximal_on,
    member,
    positive_involution_at,
    properness_check,
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
    RankNotDivisible,
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
    morita_diag_rep,
    nonsingular_part,
    rank_one,
    scale_form,
    tensor,
    times,
    unit_form,
    weakly_represents,
)
from .morita import (
    base_algebra,
    collapse,
    expand,
    full_reduction,
    reduced_diagonal,
    scale_involution,
    theta_algebra,
)
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
    "ConeSample",
    "DElem",
    "DiagonalizationResult",
    "DimensionMismatch",
    "DivisionAlgebraDesc",
    "DivisionByZero",
    "FieldDesc",
    "FieldElem",
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
    "PropernessResult",
    "QuadraticFormF",
    "RankNotDivisible",
    "Singular",
    "SylvesterDecomposition",
    "TaskError",
    "WeakRepResult",
    "ZeroArgument",
    "base_algebra",
    "classify",
    "classify_all",
    "collapse",
    "diag_form",
    "diagonalize",
    "direct_sum",
    "enumerate_cones",
    "expand",
    "formally_real",
    "format_elem",
    "full_reduction",
    "gen_cone_sample",
    "harrison",
    "harrison_sigma",
    "in_m_p",
    "is_maximal_on",
    "is_positive_involution",
    "is_totally_positive",
    "m_p",
    "member",
    "morita_diag_rep",
    "nonsingular_part",
    "orderings",
    "orderings_of",
    "parse_elem",
    "positive_involution_at",
    "pre_sylvester",
    "properness_check",
    "psd_up",
    "rank_one",
    "reduced_diagonal",
    "scale_cone",
    "scale_form",
    "scale_involution",
    "sign_at",
    "sign_cone",
    "sign_eta",
    "tensor",
    "theta_algebra",
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
