"""Exact twisted period polynomials and Hecke L-value traces on Gamma_0(N).

The package computes, in exact cyclotomic arithmetic, the symmetrized
twisted period polynomials of the period-kernel cusp forms R_n, the trace
of twisted-times-untwisted completed L-values over an orthogonal basis,
and the eigenform ratio tables these imply, with an independent per-residue
case-sum oracle cross-checking every closed form.
"""

from .bernoulli import (
    bernoulli_number,
    generalized_bernoulli_number,
    generalized_bernoulli_poly,
)
from .characters import (
    CharacterError,
    DirichletCharacter,
    chi_four_tuple,
    enumerate_primitive_characters,
    gauss_sum,
    kronecker_character,
)
from .cyclotomic import (
    ExactNumber,
    ExactPolynomial,
    QuadSurd,
    parse_quad_surd,
    recognize_surd,
    sqrt_integer,
)
from .eigenforms import (
    FixtureError,
    RationalMatrix,
    RnCombination,
    SurdPair,
    char_poly,
    eigen_decompose,
    load_fixtures,
    twisted_lambda_ratio,
    twisted_period_of_combination,
)
from .numeric import (
    QExpansion,
    lambda_delta,
    numeric_twisted_period,
    petersson_delta_inverse,
    tau_coefficients,
    verify_trace_numeric,
)
from .periods import (
    ContextError,
    EpsilonFlags,
    FareyQuadruple,
    ParityError,
    PeriodContext,
    case_contribution,
    case_sum_polynomial,
    closed_form_polynomial,
    enumerate_quadruples,
    quadruple_sum_polynomial,
    residue_period,
    twisted_period,
)
from .traces import TraceQuery, trace_closed_form, trace_from_periods

__version__ = "0.1.0"

__all__ = [
    "CharacterError",
    "ContextError",
    "DirichletCharacter",
    "EpsilonFlags",
    "ExactNumber",
    "ExactPolynomial",
    "FareyQuadruple",
    "FixtureError",
    "ParityError",
    "PeriodContext",
    "QExpansion",
    "QuadSurd",
    "RationalMatrix",
    "RnCombination",
    "SurdPair",
    "TraceQuery",
    "bernoulli_number",
    "case_contribution",
    "case_sum_polynomial",
    "char_poly",
    "chi_four_tuple",
    "closed_form_polynomial",
    "eigen_decompose",
    "enumerate_primitive_characters",
    "enumerate_quadruples",
    "gauss_sum",
    "generalized_bernoulli_number",
    "generalized_bernoulli_poly",
    "kronecker_character",
    "lambda_delta",
    "load_fixtures",
    "numeric_twisted_period",
    "parse_quad_surd",
    "petersson_delta_inverse",
    "quadruple_sum_polynomial",
    "recognize_surd",
    "residue_period",
    "sqrt_integer",
    "tau_coefficients",
    "trace_closed_form",
    "trace_from_periods",
    "twisted_lambda_ratio",
    "twisted_period",
    "twisted_period_of_combination",
    "verify_trace_numeric",
]
