"""Exception types shared across the package."""


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
    """One or more referenced ids could not be resolved."""

    def __init__(self, message: str, missing_ids: list[str]):
        super().__init__(message)
        self.missing_ids = missing_ids


class ParseError(InvalidInputError):
    """A file could not be parsed; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _where(epoch: int | None, step: int | None) -> str:
    return "" if epoch is None else f"epoch {epoch}, step {step}: "


class NonFiniteGradientError(ListRankError):
    """Training aborted because a gradient turned NaN/inf; names the parameter
    group and, raised by the training loop, the epoch and the step."""

    def __init__(self, param_name: str, epoch: int | None = None, step: int | None = None):
        super().__init__(f"{_where(epoch, step)}non-finite gradient in parameter group '{param_name}'")
        self.param_name = param_name


class NonFiniteParameterError(ListRankError):
    """Training aborted because an Adam update left a parameter NaN/inf; names
    the first such group, the epoch and the step."""

    def __init__(self, param_name: str, epoch: int, step: int):
        super().__init__(f"{_where(epoch, step)}the Adam update made parameter group '{param_name}' non-finite")
        self.param_name = param_name


class CheckpointError(InvalidInputError):
    """Base class for checkpoint file problems."""


class CheckpointHeaderError(CheckpointError):
    """Magic string or header block is corrupt/unreadable."""


class CheckpointVersionError(CheckpointError):
    """The file's format version is not supported by this reader."""


class CheckpointTruncatedError(CheckpointError):
    """The file is shorter or longer than its header implies."""


class CheckpointIntegrityError(CheckpointError):
    """The stored content hash does not match the payload."""


class StoreError(InvalidInputError):
    """Base class for embedding-store file problems."""


class StoreFormatError(StoreError):
    """Magic/version/layout of the store file is invalid."""


class StoreIntegrityError(StoreError):
    """The store's content hash does not match its bytes."""
