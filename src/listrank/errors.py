"""Exception types and the value-type rule shared across the package."""

from dataclasses import fields

#: The value types a config value of each declared type takes: a float takes an int, neither a bool.
VALUE_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def check_field_types(config, error) -> None:
    """Raise ``error`` for the first field of the dataclass ``config`` whose
    value ``VALUE_TYPES`` refuses for the field's declared type."""
    for f in fields(config):
        value = getattr(config, f.name)
        if type(value) not in VALUE_TYPES[f.type]:
            raise error(f"{f.name} must be {f.type}, got {value!r}")


class ListRankError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ListRankError):
    """Base class for errors caused by the caller's input; the CLI exits 1 on these."""


class ValidationError(InvalidInputError):
    """Input data violates a documented invariant (bad counts, shapes, ranges)."""


class ConfigurationError(InvalidInputError):
    """A configuration value is out of its allowed range or unknown."""


class EmptyInputError(InvalidInputError):
    """An operation received an empty group / list / mask it cannot work on."""


class ContractError(InvalidInputError):
    """A caller broke an API contract (mismatched trace, wrong first token, ...)."""


class MissingIdError(InvalidInputError):
    """One or more referenced ids could not be resolved; the message names them."""


class ParseError(InvalidInputError):
    """A file could not be parsed; the message starts with ``line N: `` when
    the line is known."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")


class NonFiniteError(ListRankError):
    """Training diverged: a gradient or a parameter turned NaN/inf. The
    message names the parameter group and, raised by the training loop, the
    epoch and the step."""


class CheckpointError(InvalidInputError):
    """A checkpoint file is unreadable; the message names the failure (bad
    magic, version, truncation, length, hash or header field)."""


class StoreError(InvalidInputError):
    """An embedding-store file is unreadable or belongs to another checkpoint;
    the message names the failure."""
