"""mobmeta: meta-attribute characterization, model selection, and
leakage-free validation for mobility POI sequences.

The names below come from `core` and are resolved on first use, so that
importing a submodule that needs no numpy (`mobmeta.extpred`) imports
none.
"""

__version__ = "0.1.0"

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


def __getattr__(name: str):
    if name in __all__:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
