"""Exact computation of graded Brauer classes over the real and complex
points, with closed-form group tables for spaces with involution.

The computational side works with finite-dimensional Z/2-graded algebras
over exact scalars (rationals, Gaussian rationals): build them directly
or as Clifford algebras, combine them with the signed tensor product,
and classify them by the rank-2 normal form of the graded center plus a
trace-form signature.  The tabular side turns cohomological input data
into the groups those classes form over a space.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name by the module that defines it.  A name is imported on
# first access (PEP 562), so ``import gradedbrauer`` loads no submodule
# and a process pays only for the modules it uses.
_EXPORTS = {
    "algebra": ("AlgebraError", "GradedAlgebra", "NotAzumayaError", "end_graded",
                "graded_centralizer", "graded_tensor", "ground_algebra",
                "hat_center", "is_azumaya", "opposite", "trace_gram",
                "trace_signature"),
    "clifford": ("DiagonalForm", "clifford", "hyperbolic", "relabel",
                 "signature_form", "tensor_index_pairing"),
    "groups": ("AbGroup", "ExtensionDatum", "invariant_factors"),
    "invariants": ("bw_class", "group_order", "invariant_triple", "parity_class",
                   "q2_add", "q2_class", "quadratic_descriptor", "ungraded_class",
                   "witt_to_bw"),
    "linalg": (),
    "scalars": ("COMPLEX", "REAL", "Field", "GaussianRational", "field_from_label"),
    "selftest": ("run_selftest",),
    "spaces": ("ComplexCurve", "ComplexProjective", "ComplexSurfaceWitt",
               "DescriptorError", "FreeFourDim", "FreeProduct", "Graph",
               "InvariantReport", "RealCurve", "RealProjective",
               "RealSurfaceNoPoints", "SurfaceWithInvolution", "TrivialAction",
               "circle_reports", "compute_report", "curve_reports",
               "named_examples", "surface_reports"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:  # a submodule, which the eager package bound too
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Keeps ``gradedbrauer.clifford`` the function: a first import of
    the submodule of that name would otherwise rebind it to the module."""

    def __setattr__(self, name: str, value) -> None:
        if not (name == "clifford" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
