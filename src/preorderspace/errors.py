"""Exception types shared across the package.

Domain errors (bad inputs, violated preconditions) derive from ValueError;
search failures and structurally impossible requests derive from LookupError
so callers can distinguish "you asked wrong" from "no such thing exists".
"""


class ParseError(ValueError):
    """A JSON literal does not parse as the value it stands for."""


class FieldMismatch(ValueError):
    """Operands belong to different number fields."""


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions do not agree."""


class DivisionByZero(ZeroDivisionError):
    """Exact division by a zero field element or polynomial."""


class UnsupportedDegree(ValueError):
    """Minimal polynomial degree exceeds the verified-irreducibility range."""


class InvalidField(ValueError):
    """Minimal polynomial or isolating interval fails a construction check."""


class SingularMatrix(ValueError):
    """A matrix required to be invertible has zero determinant."""


class RangeError(ValueError):
    """A level out of bounds, or a box scan larger than its budget."""


class BasisError(ValueError):
    """Supplied vectors do not form a basis of the required subspace."""


class NotContained(ValueError):
    """Subgroup is not contained in the residue group."""


class ZeroPolynomial(ValueError):
    """Operation undefined on the zero polynomial."""


class TrivialPreorder(LookupError):
    """Operation requires at least one defining row."""


class Isolated(LookupError):
    """No perturbation exists: the point is isolated."""


class WitnessNotFound(LookupError):
    """Bounded deterministic search exhausted its budget without a witness."""


class TypeMismatch(LookupError):
    """Preorders have different types, so no automorphism can map one to the other."""
