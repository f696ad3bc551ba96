"""Exact computation with bi-invariant preorders on Z^n and Q^n.

Canonical matrix representations over a real number field Q(alpha), the
refinement lattice, the ultrametric patch topology, the GL_n(Q) action, and
the induced monomial valuations on Laurent polynomials.
"""

from .errors import (
    BasisError,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidField,
    Isolated,
    NotContained,
    ParseError,
    RangeError,
    SingularMatrix,
    TrivialPreorder,
    TypeMismatch,
    UnsupportedDegree,
    WitnessNotFound,
    ZeroPolynomial,
)
from .realfield import FieldElement, NumberField
from .linalg import FieldVector, RationalSubspace, project, rational_kernel
from .preorder import Preorder, Sign, from_rows
from .lattice import compose, decompose, meet, quotient, refines, truncate
from .topology import (
    Distance,
    Fingerprint,
    FragmentGraph,
    distance,
    enumerate_fragment,
    fingerprint,
    is_isolated,
    perturb_in_ball,
    same_type_neighbors,
    sphere_point,
    to_dot,
)
from .action import Automorphism, apply, is_stabilizer, orbit_witness
from .valuation import (
    CoefficientField,
    CompositionReport,
    LaurentPolynomial,
    Value,
    check_composition,
    initial_form,
    valuate,
    valuate_ratio,
)

__all__ = [
    "NumberField", "FieldElement",
    "FieldVector", "RationalSubspace", "rational_kernel", "project",
    "Preorder", "Sign", "from_rows",
    "truncate", "refines", "meet", "compose", "decompose", "quotient",
    "Fingerprint", "FragmentGraph", "Distance", "fingerprint", "distance",
    "is_isolated", "perturb_in_ball", "same_type_neighbors", "sphere_point",
    "enumerate_fragment", "to_dot",
    "Automorphism", "apply", "is_stabilizer", "orbit_witness",
    "CoefficientField", "LaurentPolynomial", "Value", "CompositionReport",
    "valuate", "initial_form", "valuate_ratio", "check_composition",
    "FieldMismatch", "DimensionMismatch", "DivisionByZero", "UnsupportedDegree",
    "InvalidField", "SingularMatrix", "RangeError", "BasisError", "NotContained",
    "ZeroPolynomial", "ParseError", "TrivialPreorder", "Isolated", "WitnessNotFound",
    "TypeMismatch",
]
