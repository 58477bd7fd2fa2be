"""Exception types shared across the toolkit."""


class SlumixError(Exception):
    """Base class for all toolkit errors."""


class CorpusFormatError(SlumixError):
    """A corpus file or record violates the expected format."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        if loc:
            message = f"{loc}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class LabelFormatError(SlumixError):
    """A semantic label cannot be serialized (delimiter or empty-field issue)."""


class PlanError(SlumixError):
    """A scheduling request is inconsistent (bad proportion, budget, epoch...)."""


class TrainError(SlumixError):
    """Training could not run against the given plan/corpus/recipe."""


class MetricsError(SlumixError):
    """Metric computation was asked for an invalid record set."""


class StatsError(SlumixError):
    """Aggregation or significance testing preconditions were violated."""


class ConfigError(SlumixError):
    """An experiment manifest or CLI configuration is invalid."""
