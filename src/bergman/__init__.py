"""Exact evaluation of the subleading diagonal Bergman-kernel coefficient.

The library computes, in exact arithmetic, the second coefficient of the
diagonal expansion of the Bergman kernel attached to high tensor powers of a
Hermitian line bundle whose curvature is nondegenerate of signature (q, n-q),
acting on (0,q)-forms twisted by an auxiliary bundle.

Two fully independent evaluation routes are provided and certified equal:

* a direct closed-form evaluation from pointwise curvature data, and
* a symbolic perturbation engine that runs the model harmonic-oscillator
  resolvent calculus on two-point kernel states.

All coefficients live in the field of Gaussian rationals extended by integer
powers of pi, so every advertised equality is bitwise exact.
"""

from .closed_form import b1_formula, b1_trace
from .exterior import B1Result, CliffordFactor, ExteriorAlgebra, ExteriorEndo
from .geometry import (
    GeometryJet,
    flat_potential,
    fs_product_potential,
    jet_from_potential,
    parse_potential,
    random_potential,
)
from .jet_checks import identity_suite, lambda_scalars, validate_jet
from .models import (
    cp1_product_trace,
    cp1_sections_kernel,
    fit_expansion,
    rrh_coefficients,
)
from .oscillator import OscillatorContext, PolyGaussianForm, TwoPointState
from .perturbation import (
    b1_engine,
    build_O1,
    build_O2,
    compute_F2_terms,
    engine_context,
)
from .scalars import ExactScalar

__all__ = [
    "B1Result",
    "CliffordFactor",
    "ExactScalar",
    "ExteriorAlgebra",
    "ExteriorEndo",
    "GeometryJet",
    "OscillatorContext",
    "PolyGaussianForm",
    "TwoPointState",
    "b1_engine",
    "b1_formula",
    "b1_trace",
    "build_O1",
    "build_O2",
    "compute_F2_terms",
    "cp1_product_trace",
    "cp1_sections_kernel",
    "engine_context",
    "fit_expansion",
    "flat_potential",
    "fs_product_potential",
    "identity_suite",
    "jet_from_potential",
    "lambda_scalars",
    "parse_potential",
    "random_potential",
    "rrh_coefficients",
    "validate_jet",
]
