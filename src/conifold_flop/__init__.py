"""Exact computations around the algebraic mirror of the Atiyah flop:
the conifold quiver with potential, its finite-dimensional nilpotent
representations and chamber-dependent stability, the deformed Floer
differentials and their cohomology, and a planar arc calculus for the
flop / Dehn-twist comparison."""

__version__ = "0.1.0"

from .paths import POTENTIAL, FreePathElement, Potential, cyclic_derivative, relations
from .truncated import TruncatedAlgebra, truncated_algebra
from .exactcx import QC, phase_lt
from .ainfty import AInftyTable, mc_expand, stasheff_check
from .freecomplex import FCGen, FreeComplex, d_squared_ideal_check
from .reps import (Representation, StabilityParams, StabilityVerdict, central_charge,
                   check_rep, flop_K, is_stable, make_catalog_rep, stability_params,
                   subrep_scan_Fp)
from .homalg import (ExtensionDatum, ModuleMap, build_extension, ext1, ext_dims,
                     flop_point_analysis, free_complex_cohomology, hom, iso_check,
                     psi_sphere)
from .arcs import PLArc, SceneConfig, catalog_arc, dehn_twist_map, flop_map, invariants
