"""Numerical workbench for skew-symmetric operators on weighted grids:
defect analysis, maximal extensions, contractive flows, weak-identity
verification, and solenoidal transport discretizations.

Submodules are imported lazily so that the command-line entry point can
pin BLAS thread counts before numpy loads.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "spaces",
    "operators",
    "oracles",
    "evolution",
    "weak",
    "transport",
    "cli",
)

# name -> submodule that defines it, for the commonly used surface
_EXPORTS = {
    "Space": "spaces",
    "orthonormalize": "spaces",
    "subspace_angle": "spaces",
    "RestrictedOperator": "operators",
    "PinnedDomain": "operators",
    "DeficiencyData": "operators",
    "deficiency": "operators",
    "cayley": "operators",
    "extend": "operators",
    "extension_coupling": "operators",
    "seam_extension": "operators",
    "check_skew_symmetry": "operators",
    "check_m_dissipative": "operators",
    "minimal_derivative_operator": "oracles",
    "interval_shift_semigroup": "oracles",
    "halfline_case": "oracles",
    "gaussian_profile": "oracles",
    "Trajectory": "evolution",
    "evolve_exact": "evolution",
    "evolve_cayley": "evolution",
    "adjoint_generator": "evolution",
    "gs_residual": "weak",
    "witness_nonuniqueness": "weak",
    "splice": "weak",
    "semigroup_multiplicity_demo": "weak",
    "Grid2D": "transport",
    "field_from_stream": "transport",
    "build_transport_operator": "transport",
    "rotation_benchmark": "transport",
}

__all__ = ["__version__", *_SUBMODULES, *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    owner = _EXPORTS.get(name)
    if owner is not None:
        module = importlib.import_module(f".{owner}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
