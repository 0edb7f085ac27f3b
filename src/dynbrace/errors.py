"""Exception types shared across the package."""

#: Characters of a quoted value an error message shows before cutting it off.
QUOTE_LIMIT = 80


def quote(value) -> str:
    """``repr(value)``, cut to :data:`QUOTE_LIMIT` characters and ``...``, so a
    message about a value read from a file or argv stays one short line."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


class InputError(ValueError):
    """Malformed or inadmissible input data (bad table, unknown spec, non-closed family...)."""


class ResourceCapError(RuntimeError):
    """An enumeration or closure would exceed the configured cap."""

    def __init__(self, required: int, cap: int, what: str = "subsets"):
        self.required = required
        self.cap = cap
        super().__init__(f"would need {required} {what}, above the cap of {cap}")
