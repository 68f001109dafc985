"""Exact skew group rings over finite coefficient rings, with brute-force
simplicity oracles and executable simplicity criteria."""

from .actions import (ActionMap, RingAutomorphism, action_from_descriptor, fixed_ring,
                      is_G_simple, is_inner, is_outer_action, kernel, trivial_action)
from .config import Caps
from .errors import (ActionValidationError, CapacityError, DomainError, InstanceParseError,
                     PreconditionError, SkewSimpleError)
from .groups import GroupTable, Subgroup, stabilizer
from .rings import (FunctionRing, MatrixRing, ModularRing, RingElement, RingSpec,
                    TwoSidedIdeal, center, enumerate_elements, ideal_closure,
                    ring_from_descriptor, try_invert)
from .skew import (SkewContext, SkewElement, SkewIdeal, augmentation, central_witness,
                   centralizer_of_A, coeff_at_e, is_central, is_max_commutative_A,
                   is_simple, skew_center, skew_ideal_closure, support, support_reduce)

__version__ = "0.1.0"

__all__ = [
    "ActionMap", "ActionValidationError", "CapacityError", "Caps",
    "DomainError", "FunctionRing", "GroupTable", "InstanceParseError", "MatrixRing",
    "ModularRing", "PreconditionError", "RingAutomorphism", "RingElement", "RingSpec",
    "SkewContext", "SkewElement", "SkewIdeal", "SkewSimpleError", "Subgroup",
    "TwoSidedIdeal", "action_from_descriptor", "augmentation", "center",
    "central_witness", "centralizer_of_A", "coeff_at_e", "enumerate_elements",
    "fixed_ring", "ideal_closure", "is_G_simple", "is_central", "is_inner",
    "is_max_commutative_A", "is_outer_action", "is_simple", "kernel",
    "ring_from_descriptor", "skew_center", "skew_ideal_closure", "stabilizer", "support",
    "support_reduce", "trivial_action", "try_invert",
]
