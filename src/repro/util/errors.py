"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A target-system or campaign configuration is invalid or incomplete."""


class TargetError(ReproError):
    """The target system (simulated test card / CPU) rejected an operation."""


class AssemblerError(ReproError):
    """Workload assembly failed (syntax error, unknown label, range)."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class DatabaseError(ReproError):
    """The campaign database rejected an operation."""


class CampaignError(ReproError):
    """A fault-injection campaign could not be configured or run."""


class NotImplementedByPort(TargetError):
    """A Framework abstract method was not implemented by the port.

    Corresponds to the "Write your code here!" stubs of Figure 3: using a
    port that has not filled in a building block required by the chosen
    fault-injection algorithm raises this error.
    """

    def __init__(self, port_name: str, method_name: str):
        self.port_name = port_name
        self.method_name = method_name
        super().__init__(
            f"target interface {port_name!r} does not implement "
            f"{method_name}(); fill in the Framework template method"
        )
