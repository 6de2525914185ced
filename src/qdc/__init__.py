"""qdc: exact symbolic kernel for the q-deformed differential calculus on
the quantum supergroup GL_q(1|1), with a verification harness that reduces
every claimed identity to a zero residual over Q[q, q^-1]."""

from .ring import LaurentScalar, ONE, ZERO, Q, QINV, qp, lint, lfrac
from .kernel import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    normalize,
    apply_derivation,
    graded_commutator,
    check_local_confluence,
    graded_product,
    format_element,
)
from .parser import parse_expression, parse_ast, print_ast
from .catalog import get_catalog

__all__ = [
    "LaurentScalar", "ONE", "ZERO", "Q", "QINV", "qp", "lint", "lfrac",
    "Element", "Generator", "Presentation", "RewriteRule",
    "normalize", "apply_derivation", "graded_commutator",
    "check_local_confluence", "graded_product", "format_element",
    "parse_expression", "parse_ast", "print_ast",
    "get_catalog",
]
