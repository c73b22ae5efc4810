"""Exceptions shared across the engine.

Everything here signals a *recoverable* condition of the input data, with one
exception: InternalInconsistency means a formula was transcribed wrongly and
should never fire on a correct build.  ResonantParameter is a
NonGenericParameter, so whoever redraws or reports a point catches one type.
"""


class NonGenericParameter(Exception):
    """A side of an identity does not exist at the chosen parameter point.

    The caller is expected to resample the point; the locus of bad points is a
    finite union of hyperplanes.
    """


class ResonantParameter(NonGenericParameter):
    """The eigenfunction recursion hit (lam, lam) = s at lam != lam0.

    Generic highest weights never resonate; resampling fixes it.
    """


class InternalInconsistency(Exception):
    """A structural invariant failed (negative multiplicity, zero tangent weight).

    Indicates a bug in a character formula, not bad input.
    """
