"""mobmeta: meta-attribute characterization, model selection, and
leakage-free validation for mobility POI sequences."""

__version__ = "0.1.0"

from .core import (
    DataError,
    Dataset,
    InfeasiblePlanError,
    IngestError,
    MobmetaError,
    PoiAlphabet,
    PoiRecord,
    PoiSequence,
    RawTrajectory,
)

__all__ = [
    "DataError",
    "Dataset",
    "InfeasiblePlanError",
    "IngestError",
    "MobmetaError",
    "PoiAlphabet",
    "PoiRecord",
    "PoiSequence",
    "RawTrajectory",
    "__version__",
]
