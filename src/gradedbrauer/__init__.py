"""Exact computation of graded Brauer classes over the real and complex
points, with closed-form group tables for spaces with involution.

The computational side works with finite-dimensional Z/2-graded algebras
over exact scalars (rationals, Gaussian rationals): build them directly
or as Clifford algebras, combine them with the signed tensor product,
and classify them by the rank-2 normal form of the graded center plus a
trace-form signature.  The tabular side turns cohomological input data
into the groups those classes form over a space.
"""

from .algebra import (AlgebraError, GradedAlgebra, NotAzumayaError,
                      end_graded, graded_centralizer, graded_tensor,
                      ground_algebra, hat_center, is_azumaya, opposite,
                      trace_gram, trace_signature)
from .clifford import (DiagonalForm, clifford, hyperbolic, relabel,
                       signature_form, tensor_index_pairing)
from .groups import AbGroup, ExtensionDatum, invariant_factors
from .invariants import (bw_class, group_order, invariant_triple,
                         parity_class, q2_add, q2_class,
                         quadratic_descriptor, ungraded_class, witt_to_bw)
from .scalars import COMPLEX, REAL, Field, GaussianRational, field_from_label
from .selftest import run_selftest
from .spaces import (ComplexCurve, ComplexProjective, ComplexSurfaceWitt,
                     DescriptorError, FreeFourDim, FreeProduct, Graph,
                     InvariantReport, RealCurve, RealProjective,
                     RealSurfaceNoPoints, SurfaceWithInvolution,
                     TrivialAction, circle_reports, compute_report,
                     curve_reports, named_examples, surface_reports)

__version__ = "0.1.0"

__all__ = [
    "AbGroup", "AlgebraError", "COMPLEX", "ComplexCurve",
    "ComplexProjective", "ComplexSurfaceWitt", "DescriptorError",
    "DiagonalForm", "ExtensionDatum", "Field", "FreeFourDim", "FreeProduct",
    "GaussianRational", "GradedAlgebra", "Graph", "InvariantReport",
    "NotAzumayaError", "REAL", "RealCurve", "RealProjective",
    "RealSurfaceNoPoints", "SurfaceWithInvolution", "TrivialAction",
    "bw_class", "circle_reports", "clifford", "compute_report",
    "curve_reports", "end_graded", "field_from_label", "graded_centralizer",
    "graded_tensor", "ground_algebra", "group_order", "hat_center",
    "hyperbolic", "invariant_factors", "invariant_triple", "is_azumaya",
    "named_examples", "opposite", "parity_class", "q2_add",
    "q2_class", "quadratic_descriptor", "relabel", "run_selftest",
    "signature_form", "surface_reports", "tensor_index_pairing",
    "trace_gram", "trace_signature", "ungraded_class", "witt_to_bw",
]
