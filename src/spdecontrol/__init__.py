"""Insider stochastic control of SPDEs: conditional-density functionals,
forward solvers, maximum-principle verification, the wealth benchmark, and
nonlinear filtering reductions.  The package namespace is the union of the
library modules' ``__all__`` and the exceptions of ``errors``; each public
name is declared once, in its module."""

__version__ = "0.1.0"

from .donsker import *
from .errors import *
from .forward import *
from .maxprinciple import *
from .noise import *
from .portfolio import *
from .zakai import *
