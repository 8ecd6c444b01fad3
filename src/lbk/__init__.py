"""Affine model geometry over lex-ordered rationals, at desk scale.

Exact arithmetic throughout: scalars are lexicographic rational tuples, and
feasibility questions that the halves of a region do not settle go through
Fourier-Motzkin elimination.  Every pass line names its witness, and a
feasible answer's witness point re-checks by substitution; fail lines carry
no certificate yet (ROADMAP item 6).
"""

from .lexq import LambdaScalar
from .linarith import (
    GE,
    GT,
    ConstraintSystem,
    Feasibility,
    LinearConstraint,
    feasible,
)
from .rootsystem import (
    RootSystem,
    WeylElement,
    build_root_system,
)
from .apartment import (
    AffineIsometry,
    Apartment,
    ConvexRegion,
    HalfApartment,
    RegionShape,
    Sector,
    SectorGerm,
    format_point,
)
from .atlas import (
    Atlas,
    BuildingGerm,
    BuildingPoint,
    BuildingSector,
    DistanceDisagreementError,
    NoCommonChartError,
    Transition,
    common_chart,
    global_distance,
    validate,
)
from .infinity import InfinityComplex, infinity_complex
from .axioms import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    AxiomReport,
    CoapartmentResult,
    CoverResult,
    EquivalenceReport,
    OppositeResult,
    Retraction,
    Sample,
    TheoremViolation,
    build_retraction,
    check_a1,
    check_a2,
    check_a3,
    check_a4,
    check_a5,
    check_a6,
    check_ec,
    check_se,
    equivalence_suite,
    finite_cover,
    germ_coapartment,
    opposite_germ,
)
from . import fixtures
from .modelfile import (
    ModelFormatError,
    parse_germ_arg,
    parse_model,
    parse_point_arg,
    serialize_model,
)

__version__ = "0.1.0"

__all__ = [
    "LambdaScalar",
    "GE",
    "GT",
    "LinearConstraint",
    "ConstraintSystem",
    "Feasibility",
    "feasible",
    "RootSystem",
    "WeylElement",
    "build_root_system",
    "Apartment",
    "AffineIsometry",
    "ConvexRegion",
    "HalfApartment",
    "RegionShape",
    "Sector",
    "SectorGerm",
    "format_point",
    "Atlas",
    "Transition",
    "BuildingPoint",
    "BuildingSector",
    "BuildingGerm",
    "DistanceDisagreementError",
    "NoCommonChartError",
    "validate",
    "common_chart",
    "global_distance",
    "InfinityComplex",
    "infinity_complex",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "AxiomReport",
    "TheoremViolation",
    "Retraction",
    "Sample",
    "build_retraction",
    "check_a1",
    "check_a2",
    "check_a3",
    "check_a4",
    "check_a5",
    "check_a6",
    "check_ec",
    "check_se",
    "germ_coapartment",
    "opposite_germ",
    "finite_cover",
    "equivalence_suite",
    "CoapartmentResult",
    "OppositeResult",
    "CoverResult",
    "EquivalenceReport",
    "fixtures",
    "ModelFormatError",
    "parse_model",
    "serialize_model",
    "parse_point_arg",
    "parse_germ_arg",
]
