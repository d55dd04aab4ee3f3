"""Exception types shared across the package.

Every error raised on purpose derives from :class:`LieweylError` and carries a
short stable ``code`` used by the command line layer.  Input-shaped problems
(bad files, bad parameters) derive from :class:`InputError`; everything else is
a domain failure (the input was well-formed but the requested structure does
not exist or an internal cross-check failed).
"""


class LieweylError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class StructureError(LieweylError):
    """Malformed array shapes or indices."""

    code = "structure"


class NumericInputError(LieweylError):
    """Non-finite numbers (NaN or infinity) in numeric input."""

    code = "numeric-input"


class InvalidAlgebraError(LieweylError):
    """Structure constants violate antisymmetry or the Jacobi identity."""

    code = "invalid-algebra"
    violations: tuple = ()  # the failed laws, as ``algebra.validate`` reports them


class MetricError(LieweylError):
    """Metric matrix is not symmetric positive definite.

    ``law`` names the law that failed: ``"symmetric"`` or ``"positive-definite"``.
    """

    code = "metric"

    def __init__(self, message: str, law: str):
        super().__init__(message)
        self.law = law


class DimensionError(LieweylError):
    """Operation needs a higher dimension than the input provides."""

    code = "dimension"


class ConsistencyError(LieweylError):
    """Two independent internal computation routes disagree.

    This signals an implementation bug, never a property of the input.
    """

    code = "consistency"


class PreconditionError(LieweylError):
    """A documented mathematical precondition does not hold for the input."""

    code = "precondition"


class NotClosedError(PreconditionError):
    """The one-form must be closed for the requested operation."""

    code = "not-closed"


class NotAlmostAbelianError(LieweylError):
    """The algebra has no codimension-one abelian ideal."""

    code = "not-almost-abelian"


class NoNormalFormError(LieweylError):
    """No adapted orthonormal frame of the requested kind exists."""

    code = "no-normal-form"


class InputError(LieweylError):
    """Bad user-supplied parameters or files."""

    code = "input"


class MlaParseError(InputError):
    """Parse or validation failure in an MLA document.

    ``line`` is 1-based; line 0 marks document-level failures that cannot be
    pinned to a single line (e.g. a Jacobi identity violation).
    """

    def __init__(self, code: str, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.code = f"mla.{code}"
        self.line = line
