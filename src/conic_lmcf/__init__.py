"""Numerics for Lagrangian mean curvature flow with conical singularities.

The package splits into cone-side linear analysis (link spectra, homogeneity
exponents, Fredholm and stability indices, radial heat solves with conical
asymptotics and their remainder rates) and a periodic graphical flow integrator
used to measure how far the nonlinear flow sits from its heat-flow
linearisation.

The names below are re-exported lazily (PEP 562): ``conic_lmcf.run_flow``
imports :mod:`conic_lmcf.flow` on first use, so ``import conic_lmcf`` loads no
numpy.  The CLI likewise imports each layer where it is used: help,
``--version`` and usage errors start without numpy, and each command loads
only the layers it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> its public names: the one list of them.  Each submodule sets
# ``__all__ = list(_EXPORTS[...])`` from it, and the lazy lookup below maps a
# name to its module without importing the module.
_EXPORTS = {
    "asymptotics": ("AsymptoticExpansion", "extract_asymptotics", "mode_exponent", "synthesize"),
    "cones": ("MomentElement", "SLCone", "StabilityReport", "catalog_cone", "cone_from_json",
              "hamiltonian_field", "harvey_lawson_torus", "moment_eval", "plane_cone",
              "stability_index", "su_basis", "translation_basis", "verify_hamiltonian"),
    "errors": ("GraphConditionError", "NumericalError", "ValidationError"),
    "exponents": ("ExponentEntry", "ExponentTable", "exponent_roots", "fredholm_index"),
    "flow": ("DefectReport", "FlowState", "catalog_initial_conditions", "default_dt",
             "flow_step", "graph_determinant", "grid_coordinates", "hessian_field",
             "lagrangian_angle", "linearization_defect", "run_flow"),
    "links": ("EigenEntry", "FlatTorus", "MeshLink", "RoundSphere", "angle_grid", "read_off",
              "sphere_multiplicity"),
    "norms": ("decay_rate", "dyadic_annulus_suprema"),
    "radial": ("LaplaceTypeSpec", "ModeSolution", "RadialGrid", "apply_radial_operator",
               "radial_operator", "solve_modes"),
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
