"""Exception types shared across the toolkit, and its one resource limit."""

# log2 of the most states an exhaustive sweep, cubes a minterm expansion, or
# branches or leaf assignments a deduction search may reach.
EXHAUSTIVE_LIMIT = 20


class PlaParseError(ValueError):
    """A .pla document could not be parsed (bad row, etc.)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PlaStructureError(PlaParseError):
    """Structural problem: missing/duplicated directives, row-count mismatch."""


class PlaLexicalError(PlaParseError):
    """A row contains a character outside the permitted alphabet."""


class ResourceLimitError(RuntimeError):
    """An exhaustive operation would exceed its configured budget."""


def check_limit(count: int, limit: int, what: str) -> None:
    """Raise ResourceLimitError, naming `what`, when count > 2^limit.

    The count is shifted down instead of 2^limit being built, so a huge
    limit costs no memory.
    """
    if (count - 1) >> limit > 0:
        raise ResourceLimitError(f"{what} exceed limit 2^{limit}")


def checked_count(digits: str, what: str) -> int:
    """The decimal string `digits` as an int: a count that 2^EXHAUSTIVE_LIMIT bounds.

    Past EXHAUSTIVE_LIMIT + 1 significant digits the count is at least
    10^(EXHAUSTIVE_LIMIT + 1) > 2^EXHAUSTIVE_LIMIT, so ResourceLimitError,
    naming `what`, is raised before int(), which refuses long strings.
    """
    digits = digits.lstrip("0")
    if len(digits) > EXHAUSTIVE_LIMIT + 1:
        raise ResourceLimitError(f"{what} of {len(digits)} digits exceeds limit 2^{EXHAUSTIVE_LIMIT}")
    return int(digits or "0")
