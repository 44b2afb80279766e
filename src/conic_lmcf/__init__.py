"""Numerics for Lagrangian mean curvature flow with conical singularities.

The package splits into cone-side linear analysis (link spectra, homogeneity
exponents, Fredholm and stability indices, radial heat solves with conical
asymptotics, weighted norms) and a periodic graphical flow integrator used to
measure how far the nonlinear flow sits from its heat-flow linearisation.

The names below are re-exported lazily (PEP 562): ``conic_lmcf.run_flow``
imports :mod:`conic_lmcf.flow` on first use, so a command that never touches
the radial solver or a mesh link never imports SciPy's sparse stack.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it contributes to the package namespace
_EXPORTS = {
    "asymptotics": ("AsymptoticExpansion", "extend_asymptotic", "extract_asymptotics",
                    "laplace_of_terms", "synthesize"),
    "cones": ("MomentElement", "RestrictionResult", "SLCone", "StabilityReport",
              "catalog_cone", "cone_from_json", "eigenspace_projection_residual",
              "hamiltonian_field", "harvey_lawson_torus", "moment_eval", "plane_cone",
              "restrict_to_cone", "stability_index", "su_basis", "translation_basis",
              "verify_hamiltonian"),
    "errors": ("DegenerateDataError", "ExceptionalWeightError", "GraphConditionError",
               "MissingDerivativeError", "MixedHomogeneityError", "NumericalError",
               "ValidationError", "WindowError"),
    "exponents": ("ExponentEntry", "ExponentTable", "exponent_roots", "fredholm_index"),
    "flow": ("DefectReport", "FlowState", "catalog_initial_conditions", "default_dt",
             "flow_step", "graph_determinant", "grid_coordinates", "heat_step",
             "hessian_field", "lagrangian_angle", "linearization_defect", "run_flow",
             "run_heat"),
    "links": ("EigenEntry", "FlatTorus", "MeshLink", "RoundSphere", "angle_grid", "read_off",
              "sphere_multiplicity"),
    "norms": ("RadiusFunction", "WeightVector", "decay_rate", "dyadic_annulus_suprema",
              "holder_norm", "smooth_cutoff", "sobolev_norm"),
    "radial": ("LaplaceTypeSpec", "ModeSolution", "RadialGrid", "apply_radial_operator",
               "radial_operator", "solve_mode", "solve_modes"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_SUBMODULE)]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
