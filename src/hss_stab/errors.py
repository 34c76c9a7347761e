"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: configuration/validation and shape
errors exit with 2, numerical errors with 3 (see cli.py).
"""


class HssError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HssError):
    """Inconsistent matrix or vector dimensions."""


class ConfigurationError(HssError):
    """Invalid or inconsistent configuration (scenario, routing, transforms)."""


class ScenarioError(ConfigurationError):
    """Scenario file failed to parse or validate.

    ``field`` carries a dotted path to the offending entry when known.
    """

    def __init__(self, message, field=None, path=None):
        self.message = message
        self.field = field
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if field is not None:
            prefix += f"at '{field}': "
        super().__init__(prefix + message)


class TopologyError(ConfigurationError):
    """Grid topology is structurally invalid (disconnected, bad references)."""


class PhysicalParameterError(ConfigurationError):
    """Branch or shunt matrices violate their definiteness requirements."""


class WiringError(ConfigurationError):
    """Resource/grid port layouts do not line up node-for-node."""


class NumericalError(HssError):
    """A numerical routine failed or produced an unusable result."""


class WellPosednessError(NumericalError):
    """An algebraic feedback loop is singular and cannot be closed."""


class SingularOperatingPointError(NumericalError):
    """Reference-calculation Jacobians do not exist at the operating point."""


class PoleProximityError(NumericalError):
    """A transfer-function evaluation point is too close to a system pole."""

    def __init__(self, message, nearest_pole=None):
        self.nearest_pole = nearest_pole
        super().__init__(message)
