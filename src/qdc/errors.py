"""Exception types shared across the kernel."""


class QdcError(Exception):
    """Base class for every error raised by this package."""


class ReductionBudgetError(QdcError):
    """Raised when a normalize call exceeds its rewrite-step budget.

    Exceeding the budget means a rule is mis-oriented, a presentation is
    broken or the input is very long.
    """


class ParseError(QdcError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownGeneratorError(ParseError):
    pass


class UnknownPresentationError(QdcError):
    pass


class UnknownFamilyError(QdcError):
    pass


class UnknownSuiteError(QdcError):
    pass


class CatalogFormatError(QdcError):
    pass


class NonHomogeneousError(QdcError):
    """An operation needed a parity-homogeneous element and did not get one."""


class MissingImageError(QdcError):
    """A derivation was applied to a generator it has no image for."""


class UnsupportedHopfImageError(QdcError):
    """Coproduct/counit/antipode requested for a generator outside their domain."""
