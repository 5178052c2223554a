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

from . import algebra, cones, errors, field, forms, morita, orders, signature, zoo
from .algebra import *
from .cones import *
from .errors import *
from .field import *
from .forms import *
from .morita import *
from .orders import *
from .signature import *
from .zoo import *

__version__ = "1.0.0"

# the public API is the union of the modules' own __all__ lists
__all__ = sorted(
    algebra.__all__ + cones.__all__ + errors.__all__ + field.__all__
    + forms.__all__ + morita.__all__ + orders.__all__ + signature.__all__
    + zoo.__all__
)
