"""Exact-arithmetic toolkit for the algebra of invariant differential
operators on the eight Capelli-type representations with one-dimensional
quotient: Bernstein-Sato polynomials with certificates, normal forms in
the quotient algebra generated by f, theta, Delta, and graded ladder
modules over it."""

from .algebra import (AElement, APresentation, a_add, a_mul, confluence_exhaustive,
                      confluence_fuzz, from_word)
from .bfunction import (BCertificate, compute_b, presentation_for, verify_all,
                        verify_annihilation, verify_table)
from .catalog import CaseInstance, CaseSpec, instantiate, list_cases
from .expr import eval_expr, fmt_expr, parse_expr
from .modules import (GradedModule, break_points, build_ladder, direct_sum,
                      equivalence_witness, psi_of_ladder, validate)
from .poly import MultiPoly, UniPoly, rational_roots
from .weyl import (NotProportional, TwistedElement, WeylOp, twisted_apply,
                   twisted_canonical, weyl_apply, weyl_mul)

__version__ = "0.1.0"

__all__ = [
    "AElement", "APresentation", "BCertificate", "CaseInstance", "CaseSpec",
    "GradedModule", "MultiPoly", "NotProportional", "TwistedElement", "UniPoly",
    "WeylOp", "a_add", "a_mul", "break_points", "build_ladder", "compute_b",
    "confluence_exhaustive", "confluence_fuzz", "direct_sum", "equivalence_witness",
    "eval_expr", "fmt_expr", "from_word", "instantiate", "list_cases",
    "parse_expr", "presentation_for", "psi_of_ladder", "rational_roots",
    "twisted_apply", "twisted_canonical", "validate", "verify_all",
    "verify_annihilation", "verify_table", "weyl_apply", "weyl_mul",
]
