"""ergolab: desk-scale experiments on measure-preserving systems.

The package separates what spectra can see from what they cannot: the
Koopman operators of circle rotations, skew products, product-measure
shifts, and rotation-times-shift products are modeled symbolically, and
three independent toolkits interrogate them — generalized
proper-function towers (decided exactly, corroborated by residuals),
per-step information rates, and correlation statistics.  A CLI wraps the
named reproduction scenarios with deterministic, schema-validated reports.

Public names resolve on first access (PEP 562): ``import ergolab`` loads
no submodule, and ``ergolab.X`` imports only the submodule that defines
X, so a run loads only the toolkits it computes with.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "quadratic": (
            "QuadraticReal", "RotationNumber", "SQRT2_MINUS_1", "floor_sums",
            "integral_combination",
        ),
        "systems": (
            "BernoulliSpec", "CylinderSet", "InconclusiveEvidenceError", "SampleBatch",
            "SystemSpec", "WindowError", "iterate_batch", "sample_batch", "sample_chunks",
            "spawn_rngs",
        ),
        "koopman": (
            "GroupComparison", "IncompatibleSpectraError", "IntertwinerCheck",
            "IntertwinerIdentity", "IntertwinerPairing", "KOOPMAN_TABLE", "SectorAction",
            "SpectrumDescriptor", "build_intertwiner", "koopman_step",
            "point_spectrum_groups_equal", "spectral_weak_mixing_check", "spectrum_of",
            "verify_intertwiner",
        ),
        "tower": (
            "DistinguishResult", "ModeSubgroup", "OrbitDecision", "ProductTowerCertificate",
            "ResidualReport", "TowerLevel", "UnsupportedSystemError",
            "certify_product_tower", "compute_tower", "decide_finite_orbits",
            "quasi_eigen_residual_search", "residual_census", "residual_reference",
            "stabilization_depth", "towers_distinguish",
        ),
        "entropy": (
            "EntropyEstimate", "EntropyVerdict", "PartitionSpec", "UndersampledError",
            "bernoulli_entropy", "entropy_classifier",
            "exact_block_entropy_rate", "partition_refine_entropy",
        ),
        "mixing": (
            "CorrelationPoint", "NoClosedFormError", "TestSet", "correlation",
            "weak_mixing_statistic", "weak_mixing_verdict",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the name here.
    Any other name raises AttributeError, so ``from ergolab import cli``
    still falls back to importing the submodule."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
