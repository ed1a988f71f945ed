"""Highest-weight combinatorics for the supergroup GL(M|N).

Weight transforms between the standard and mixed Borel subgroups
(Serganova's algorithm and its inverse), classification predicates for
dominant weights, mixed highest weights, and relevant orbits on the affine
Grassmannian side, monomial orbit representatives, and an exhaustive
verification harness that checks the structural claims as finite set
statements over coordinate boxes.
"""

from .classify import (
    GroupConvention,
    OrbitMatrix,
    is_mixed_highest_weight,
    is_relevant_orbit,
    is_standard_dominant,
    orbit_representative,
)
from .core import (
    CapacityError,
    DimensionMismatch,
    InternalConsistencyError,
    Modulus,
    SuperRank,
    ValidationError,
    Weight,
    congruent_zero,
)
from .kernels import active_backend, compiled_available
from .oracle import (
    Box,
    VerificationReport,
    enumerate_box,
    verify_image,
    verify_order_invariance,
    verify_theorem,
    verify_trace_invariants,
)
from .roots import (
    BorelWord,
    PairIndex,
    Root,
    excess_pairs,
    hasse_edges,
    mixed_word,
    pair_leq,
    positive_roots,
    standard_word,
)
from .serganova import (
    StepOrder,
    all_linear_extensions,
    forward,
    inverse,
    order_v1,
    order_v2,
    walk,
)

__version__ = "0.1.0"

__all__ = [
    "BorelWord",
    "Box",
    "CapacityError",
    "DimensionMismatch",
    "GroupConvention",
    "InternalConsistencyError",
    "Modulus",
    "OrbitMatrix",
    "PairIndex",
    "Root",
    "StepOrder",
    "SuperRank",
    "ValidationError",
    "VerificationReport",
    "Weight",
    "active_backend",
    "all_linear_extensions",
    "compiled_available",
    "congruent_zero",
    "enumerate_box",
    "excess_pairs",
    "forward",
    "hasse_edges",
    "inverse",
    "is_mixed_highest_weight",
    "is_relevant_orbit",
    "is_standard_dominant",
    "mixed_word",
    "orbit_representative",
    "order_v1",
    "order_v2",
    "pair_leq",
    "positive_roots",
    "standard_word",
    "verify_image",
    "verify_order_invariance",
    "verify_theorem",
    "verify_trace_invariants",
    "walk",
]
