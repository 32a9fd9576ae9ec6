"""Closed-form and quadrature evaluation of I(n) = int_0^inf ln(x)/(x^n+1) dx.

Three closed-form routes (trig, trigamma, differentiated gamma product)
plus a direct exp-sinh quadrature oracle, built on a from-scratch special
function layer and a deterministic double-exponential quadrature engine;
the identity chain behind the closed form is re-executed numerically by
the verify_* procedures.
"""

from . import quadrature, routes, specfun
from .specfun import *
from .quadrature import *
from .routes import *

__version__ = "0.1.0"

__all__ = [*specfun.__all__, *quadrature.__all__, *routes.__all__, "__version__"]
