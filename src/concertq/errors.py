"""The library's two error types, in a module that imports nothing."""


class DomainError(ValueError):
    """A parameter or hypothesis violation (CLI exit code 1)."""


class ParseError(ValueError):
    """A malformed scenario or profile document (CLI exit code 2)."""
