"""Exception hierarchy for the tensorgap package."""


class TensorGapError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(TensorGapError):
    """Two values from different coefficient fields were combined."""


class DimensionMismatchError(TensorGapError):
    """Shapes of matrices, tensors or map tuples are incompatible."""


class ZeroTensorError(TensorGapError):
    """An operation that presupposes a nonzero tensor received the zero tensor."""


class SearchBudgetError(TensorGapError):
    """A retrying randomized search exhausted its attempt budget."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts


class SearchSpaceTooLargeError(TensorGapError):
    """A brute-force enumeration would exceed the configured ceiling."""

    def __init__(self, message, size=None, ceiling=None):
        super().__init__(message)
        self.size = size
        self.ceiling = ceiling


class SingularCurveError(TensorGapError):
    """A certificate curve matrix has determinant identically zero."""


class DegenerateSpanError(TensorGapError):
    """A pair of tensors meant to span a plane is linearly dependent."""


class CertificateConstructionError(TensorGapError):
    """A constructed certificate failed its own verification; always a bug."""


class ClassificationInconsistencyError(TensorGapError):
    """A classification check failed.  Only the trichotomy's all-zero samples depend on
    the seed; rank-pattern, census-label and witness-verification failures do not."""


class DocumentFormatError(TensorGapError):
    """A tensor or certificate document is malformed."""

    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location
