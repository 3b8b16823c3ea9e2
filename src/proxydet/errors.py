"""Exception hierarchy shared across the package."""


class ProxydetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ProxydetError, ValueError):
    """Invalid configuration: bad flag or config value, mapping, mode/label mismatch."""


class DataError(ProxydetError):
    """Malformed or inconsistent input data (file, line, and field named)."""


class TrainingError(ProxydetError):
    """Training aborted, e.g. a non-finite loss."""
