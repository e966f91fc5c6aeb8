"""Exception types shared across the package, and the integer check of its
arguments."""
import numbers


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation, at its `node` if named."""

    def __init__(self, message: str, node: str | None = None):
        super().__init__(f"{node}: {message}" if node else message)
        self.message = message
        self.node = node


class NotSemisimple(ValueError):
    """Complex length is undefined for parabolic group elements."""


class DegenerateElement(ValueError):
    """Complex length is undefined at plus/minus the identity."""


class UnknownGenerator(ValueError):
    """A word contains a letter that is not a declared generator."""

    def __init__(self, char: str, position: int):
        super().__init__(f"unknown generator {char!r} at position {position}")
        self.char = char
        self.position = position


class InvalidRepresentation(ValueError):
    """Generator images fail the defining relations beyond tolerance."""


class IllConditioned(RuntimeError):
    """A numerical rank decision could not be certified.

    Raised when the singular values of a linearized system cluster at the
    zero threshold instead of splitting into a clean kept/dropped gap.
    """


class ManifestError(ValueError):
    """A manifest file failed schema or group-membership validation."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.pointer = path


def is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
