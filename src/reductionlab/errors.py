"""Exception types shared by the library and the CLI."""


class DimensionMismatchError(ValueError):
    """Operator or state dimensions are inconsistent."""


class ValidationError(ValueError):
    """An object fails its construction invariants (non-unitary u, bad density operator, ...),
    or a label names no outcome (`quantum.outcome_index`)."""


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is below tolerance."""


class ParseError(ValueError):
    """A model or scenario file is syntactically or structurally malformed."""
