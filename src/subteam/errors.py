"""Shared exception types for data ingestion, search caps, and training."""


class ParseError(ValueError):
    """A data file line could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class RefusalError(RuntimeError):
    """An exact computation refused: past a size or budget cap, or its sum overflows float64."""


class ConvergenceError(RuntimeError):
    """An iterative kernel solve cannot converge under the configured decay."""


class NonFiniteLossError(RuntimeError):
    """Training produced a non-finite quantity."""

    def __init__(self, term: str, epoch: int, value: float):
        super().__init__(f"non-finite {term} at epoch {epoch}: {value!r}")
        self.term = term
        self.epoch = epoch
        self.value = value
