"""Closed-form and quadrature evaluation of I(n) = int_0^inf ln(x)/(x^n+1) dx.

Three closed-form routes (trig, trigamma, differentiated gamma product)
plus a direct exp-sinh quadrature oracle, built on a from-scratch special
function layer and a deterministic double-exponential quadrature engine;
the identity chain behind the closed form is re-executed numerically by
the verify_* procedures.
"""

from .specfun import (
    DomainError,
    UnsupportedOrderError,
    MAX_DERIVATIVE_ORDER,
    CotPolynomial,
    lgamma,
    gamma_reflection_defect,
    digamma,
    polygamma,
    trigamma,
    cot_derivative_poly,
    cot_derivative,
)
from .quadrature import (
    QuadratureOutcome,
    integrate_finite,
    integrate_semi_infinite,
    integrate_bilateral,
)
from .routes import (
    Subject,
    VerificationReport,
    EvaluationRow,
    closed_form_trig,
    closed_form_trigamma,
    closed_form_gamma_derivative,
    intermediate_form,
    numeric_I,
    evaluate_all_routes,
    lemma1_integrand,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_theorem,
    limit_probe,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "UnsupportedOrderError",
    "MAX_DERIVATIVE_ORDER",
    "CotPolynomial",
    "lgamma",
    "gamma_reflection_defect",
    "digamma",
    "polygamma",
    "trigamma",
    "cot_derivative_poly",
    "cot_derivative",
    "QuadratureOutcome",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_bilateral",
    "Subject",
    "VerificationReport",
    "EvaluationRow",
    "closed_form_trig",
    "closed_form_trigamma",
    "closed_form_gamma_derivative",
    "intermediate_form",
    "numeric_I",
    "evaluate_all_routes",
    "lemma1_integrand",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_theorem",
    "limit_probe",
    "__version__",
]
