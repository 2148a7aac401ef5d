"""Finite symmetries of a circular category and their triangulations.

The package is organized bottom-up: exact root-of-unity arithmetic
(:mod:`covercat.scalars`), the finite circular category and its
autoequivalences (:mod:`covercat.cn`), coefficient normal forms
(:mod:`covercat.normal_forms`), classification of commuting pairs up to
conjugation (:mod:`covercat.classify`), the matrix-factorization model
with its triangulated structure (:mod:`covercat.frobenius`), and a
command line front end (:mod:`covercat.cli`).
"""

from .classify import (
    ClassRecord,
    TriangulationTriple,
    classify,
    connected_coverings,
    enumerate_pairs,
    strongly_isomorphic,
)
from .cn import (
    Autoequivalence,
    NaturalIso,
    check_skew_continuity,
    commutes,
    continuity_factor,
    is_anti_compatible,
    natural_iso,
)
from .frobenius import (
    MFObject,
    Triangle,
    hom_mf,
    make_mf,
    rotate_triangle,
    stable_reduce,
    triangle_from,
    universal_sequence,
    universal_virtual_triangle,
    verify_axiom_samples,
)
from .normal_forms import is_indecomposable, normalize_pair
from .scalars import Cyclotomic, MonomialCoefficient, RootOfUnity

__version__ = "0.1.0"

__all__ = [
    "Autoequivalence",
    "ClassRecord",
    "Cyclotomic",
    "MFObject",
    "MonomialCoefficient",
    "NaturalIso",
    "RootOfUnity",
    "Triangle",
    "TriangulationTriple",
    "check_skew_continuity",
    "classify",
    "commutes",
    "connected_coverings",
    "continuity_factor",
    "enumerate_pairs",
    "hom_mf",
    "is_anti_compatible",
    "is_indecomposable",
    "make_mf",
    "natural_iso",
    "normalize_pair",
    "rotate_triangle",
    "stable_reduce",
    "strongly_isomorphic",
    "triangle_from",
    "universal_sequence",
    "universal_virtual_triangle",
    "verify_axiom_samples",
]
