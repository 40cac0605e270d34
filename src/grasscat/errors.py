"""Exception types shared across the library."""


class GrasscatError(Exception):
    """Base class for all library errors."""


class MismatchedAmbient(GrasscatError):
    """Two rims with different (k, n) were combined."""


class NotAlmostConsecutive(GrasscatError):
    """A rim-level syzygy or AR formula was asked for a rim that is not
    a union of two cyclic intervals with one singleton."""


class NotRankOne(GrasscatError):
    """Rank-1 identification was attempted on a representation that is not
    free of rank 1 at every vertex."""


class ProjectiveInput(GrasscatError):
    """Syzygy or orbit stepping was asked for a projective module, whose
    syzygy vanishes in the stable category, or an orbit was asked for a
    module with a projective summand, which no syzygy returns to."""


class TruncationUnstable(GrasscatError):
    """A t-adic answer its precision floor cannot certify, or a step that
    cannot be completed at the working truncation; a higher truncation may
    succeed."""
