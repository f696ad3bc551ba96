"""Exact computation with bi-invariant preorders on Z^n and Q^n.

Canonical matrix representations over a real number field Q(alpha), the
refinement lattice, the ultrametric patch topology, the GL_n(Q) action, and
the induced monomial valuations on Laurent polynomials.

`import preorderspace` loads no submodule.  Each public name is imported
from its submodule on first access (a module `__getattr__`, PEP 562) and then
bound here, so later lookups are plain attribute reads.  A CLI process
therefore compiles only the modules its subcommand uses.
"""

import importlib

_EXPORTS = {
    "realfield": ("NumberField", "FieldElement"),
    "linalg": ("FieldVector", "RationalSubspace", "rational_kernel", "project"),
    "preorder": ("Preorder", "Sign", "from_rows"),
    "lattice": ("truncate", "refines", "meet", "compose", "decompose", "quotient"),
    "topology": ("Fingerprint", "FragmentGraph", "Distance", "fingerprint", "distance",
                 "is_isolated", "perturb_in_ball", "same_type_neighbors", "sphere_point",
                 "enumerate_fragment", "to_dot"),
    "action": ("Automorphism", "apply", "is_stabilizer", "orbit_witness"),
    "valuation": ("CoefficientField", "LaurentPolynomial", "Value", "CompositionReport",
                  "valuate", "initial_form", "valuate_ratio", "check_composition"),
    "errors": ("FieldMismatch", "DimensionMismatch", "DivisionByZero", "UnsupportedDegree",
               "InvalidField", "SingularMatrix", "RangeError", "BasisError", "NotContained",
               "ZeroPolynomial", "ParseError", "TrivialPreorder", "Isolated",
               "WitnessNotFound", "TypeMismatch"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
