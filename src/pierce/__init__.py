"""Piercing small transversals through convex bodies that meet on a circle."""

from .geometry import ConvexBody, CurveModel, UNIT_CIRCLE
from .instances import Instance, gallery7, gen_clustered, gen_pairwise
from .instances import load_instance, save_instance
from .pipeline import TransversalReport, run_pipeline
from .reports import load_report, save_report, verify_report
from .witness import WitnessList

__version__ = "0.1.0"

__all__ = [
    "ConvexBody",
    "CurveModel",
    "UNIT_CIRCLE",
    "Instance",
    "TransversalReport",
    "WitnessList",
    "gallery7",
    "gen_clustered",
    "gen_pairwise",
    "load_instance",
    "load_report",
    "run_pipeline",
    "save_instance",
    "save_report",
    "verify_report",
    "__version__",
]
