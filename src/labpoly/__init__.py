"""Exact-arithmetic toolkit for labeled moment polytopes.

The package validates labeled rational simple polytopes, computes the
orbifold structure group of every face, builds the associated fan, assembles
the reduction presentation (projection, kernel, level), decides equivalence
of two polytopes up to label-preserving translation and up to fan equality,
and computes Betti numbers by counting vertex indices against a generic
direction.  All computations use Python integers and fractions; nothing is
ever rounded.
"""

from .delzant import (
    DelzantData,
    build_construction,
    face_groups,
    face_stabilizer,
    verify_reduction_invariants,
)
from .fan import build_fan
from .lattice import (
    FiniteAbelianGroup,
    format_rational,
    kernel_basis,
    parse_rational,
    primitive_vector,
)
from .local_model import structure_groups
from .morse import (
    MorseReport,
    is_generic,
    morse_report,
    poincare_polynomial,
    random_generic_direction,
)
from .polytope import (
    Face,
    FormatError,
    HalfSpace,
    LabeledPolytope,
    ValidationError,
    isomorphism_report,
    load_polytope,
    polytope_from_json,
    validate,
)

__version__ = "0.1.0"
