"""Exact-arithmetic Diophantine transference toolkit.

Computes central-section constants of the cube, runs constructive
transference steps (improved Mahler, two-point section lemma, uniform-exponent
core) with independently re-checkable certificates, scans best-approximation
tables, fits approximation exponents, and verifies the classical and
sharpened transference inequalities on randomized campaigns.
"""
from .errors import (
    BudgetExceeded,
    DependentInput,
    DioTransError,
    DomainError,
    HypothesisViolated,
    NoWitnesses,
    NonCollinearRequired,
    NotSaturated,
    Only3D,
    OnlyDimAtLeast3,
    PrecisionExhausted,
    UsageError,
)
from .exactlinalg import Lattice, gram_det, orthogonal_lattice, saturate
from .functions import FunctionSpec, power_spec
from .geometry import ApproxRecord, BestApproxTable, Box, System, best_approx_table
from .harness import (
    ExponentEstimate,
    InequalityReport,
    campaign_inequalities,
    campaign_mahler,
    check_inequality,
    dominions,
    estimate_exponents,
)
from .intervals import Enclosure
from .presets import PRESETS, get_preset, random_system
from .radicals import Radical
from .sectiondual import cube_section_volume_squared, delta_d, improved_mahler_factor
from .transfer import (
    alphas_core,
    mahler_transfer,
    mahler_transfer_asymmetric,
    main_lemma_transfer,
    main_lemma_transfer_3d,
    semicore,
)
from .verify import Certificate, verify_certificate

__version__ = "1.0.0"

__all__ = [
    "ApproxRecord",
    "BestApproxTable",
    "Box",
    "BudgetExceeded",
    "Certificate",
    "DependentInput",
    "DioTransError",
    "DomainError",
    "Enclosure",
    "ExponentEstimate",
    "FunctionSpec",
    "HypothesisViolated",
    "InequalityReport",
    "Lattice",
    "NoWitnesses",
    "NonCollinearRequired",
    "NotSaturated",
    "Only3D",
    "OnlyDimAtLeast3",
    "PRESETS",
    "PrecisionExhausted",
    "Radical",
    "System",
    "UsageError",
    "alphas_core",
    "best_approx_table",
    "campaign_inequalities",
    "campaign_mahler",
    "check_inequality",
    "cube_section_volume_squared",
    "delta_d",
    "dominions",
    "estimate_exponents",
    "get_preset",
    "gram_det",
    "improved_mahler_factor",
    "mahler_transfer",
    "mahler_transfer_asymmetric",
    "main_lemma_transfer",
    "main_lemma_transfer_3d",
    "orthogonal_lattice",
    "power_spec",
    "random_system",
    "saturate",
    "semicore",
    "verify_certificate",
]
