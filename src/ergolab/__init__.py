"""ergolab: desk-scale experiments on measure-preserving systems.

The package separates what spectra can see from what they cannot: the
Koopman operators of circle rotations, skew products, product-measure
shifts, and rotation-times-shift products are modeled symbolically, and
three independent toolkits interrogate them — generalized
proper-function towers (decided exactly, corroborated by residuals),
per-step information rates, and correlation statistics.  A CLI wraps the
named reproduction scenarios with deterministic, schema-validated reports.
"""

from .quadratic import (
    ExactnessError,
    QuadraticReal,
    RotationNumber,
    SQRT2_MINUS_1,
    floor_sums,
    integral_combination,
)
from .systems import (
    BernoulliSpec,
    CylinderSet,
    SampleBatch,
    SystemSpec,
    WindowError,
    iterate_batch,
    sample_batch,
    sample_chunks,
    spawn_rngs,
)
from .koopman import (
    CHAIN_BOXES,
    GroupComparison,
    IncompatibleSpectraError,
    IntertwinerCheck,
    IntertwinerPairing,
    KOOPMAN_TABLE,
    Phase,
    SectorAction,
    SpectrumDescriptor,
    build_intertwiner,
    is_one_simple,
    koopman_step,
    point_spectrum_groups_equal,
    spectrum_of,
    verify_intertwiner,
)
from .tower import (
    DistinguishResult,
    InconclusiveEvidenceError,
    ModeSubgroup,
    OrbitDecision,
    ProductTowerCertificate,
    ResidualReport,
    TowerLevel,
    UnsupportedSystemError,
    certify_product_tower,
    compute_tower,
    decide_finite_orbits,
    quasi_eigen_residual_search,
    residual_reference,
    stabilization_depth,
    tower_step,
    towers_distinguish,
)
from .entropy import (
    EntropyEstimate,
    EntropyVerdict,
    PartitionSpec,
    UndersampledError,
    bernoulli_entropy,
    block_entropy_rate,
    entropy_classifier,
    exact_block_entropy,
    exact_block_entropy_rate,
    partition_refine_entropy,
)
from .mixing import (
    CorrelationPoint,
    NoClosedFormError,
    TestSet,
    correlation,
    spectral_ergodicity_check,
    spectral_weak_mixing_check,
    weak_mixing_statistic,
    weak_mixing_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # quadratic
    "ExactnessError",
    "QuadraticReal",
    "RotationNumber",
    "SQRT2_MINUS_1",
    "floor_sums",
    "integral_combination",
    # systems
    "BernoulliSpec",
    "CylinderSet",
    "SampleBatch",
    "SystemSpec",
    "WindowError",
    "iterate_batch",
    "sample_batch",
    "sample_chunks",
    "spawn_rngs",
    # koopman
    "CHAIN_BOXES",
    "GroupComparison",
    "IncompatibleSpectraError",
    "IntertwinerCheck",
    "IntertwinerPairing",
    "KOOPMAN_TABLE",
    "Phase",
    "SectorAction",
    "SpectrumDescriptor",
    "build_intertwiner",
    "is_one_simple",
    "koopman_step",
    "point_spectrum_groups_equal",
    "spectrum_of",
    "verify_intertwiner",
    # tower
    "DistinguishResult",
    "InconclusiveEvidenceError",
    "ModeSubgroup",
    "OrbitDecision",
    "ProductTowerCertificate",
    "ResidualReport",
    "TowerLevel",
    "UnsupportedSystemError",
    "certify_product_tower",
    "compute_tower",
    "decide_finite_orbits",
    "quasi_eigen_residual_search",
    "residual_reference",
    "stabilization_depth",
    "tower_step",
    "towers_distinguish",
    # entropy
    "EntropyEstimate",
    "EntropyVerdict",
    "PartitionSpec",
    "UndersampledError",
    "bernoulli_entropy",
    "block_entropy_rate",
    "entropy_classifier",
    "exact_block_entropy",
    "exact_block_entropy_rate",
    "partition_refine_entropy",
    # mixing
    "CorrelationPoint",
    "NoClosedFormError",
    "TestSet",
    "correlation",
    "spectral_ergodicity_check",
    "spectral_weak_mixing_check",
    "weak_mixing_statistic",
    "weak_mixing_verdict",
]
