"""Exact classification data for Legendrian and transverse cables of
positive torus knots, with brute-force oracles for every closed form.

Importing the package loads none of its layers: each public name (and each
layer module) is imported on first access, so a caller pays only for the
layers it uses.
"""

import importlib

__version__ = "1.0.0"

# Layer module -> its public names, in ``__all__`` order.
_EXPORTS = {
    "farey": (
        "INFINITY",
        "ContinuedFraction",
        "Slope",
        "cf_expand",
        "cf_eval",
        "farey_combine",
        "intersect",
        "is_edge",
        "mediant",
        "neighbors",
        "neighbors_oracle",
        "normalize",
    ),
    "bypass": ("BACK", "FRONT", "TorusState", "attach_bypass", "attach_bypass_oracle"),
    "torus_knots": (
        "CensusRecord",
        "InfluenceInterval",
        "Region",
        "ThickeningOutcome",
        "TorusKnotSpec",
        "exceptional_indices",
        "exceptional_slope",
        "influence_interval",
        "locate",
        "nonthickenable_profile",
        "thickening_outcome",
        "tori_census",
        "width",
    ),
    "legendrian": (
        "Branch",
        "CableSpec",
        "Classification",
        "Common",
        "Generator",
        "MountainRange",
        "bennequin_bound",
        "cable_rot",
        "classes_at",
        "classify",
        "destabilizes",
        "divide_tb",
        "max_tb",
        "mountain_range",
        "ruling_tb",
        "stabilize",
    ),
    "transverse": (
        "QualReport",
        "TransverseBranch",
        "TransverseClassification",
        "classify_transverse",
        "count_transverse",
        "quotient_transverse",
        "verify_qualitative",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
