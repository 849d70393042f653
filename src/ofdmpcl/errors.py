"""Exception types raised across the package."""


class OfdmPclError(Exception):
    """Base class for all ofdmpcl errors."""


class OverlappingAllocation(OfdmPclError):
    """Two allocation tiles claim the same resource element."""


class OutOfBounds(OfdmPclError):
    """An allocation tile does not fit inside the resource grid."""


class UnknownUser(OfdmPclError):
    """Requested user id is not present in the grid's user table."""


class CoincidentNodes(OfdmPclError):
    """Two nodes share a position, so a propagation range is zero."""


class UnknownNode(OfdmPclError):
    """A node id referenced by a pair or scenario does not exist."""


class DelayExceedsCp(OfdmPclError):
    """A path delay reaches the cyclic-prefix duration; the cyclic channel
    model would no longer hold."""


class DopplerExceedsNarrowband(OfdmPclError, ValueError):
    """A path Doppler breaks the per-symbol constant-phase approximation."""


class DimensionMismatch(OfdmPclError):
    """Received frame and reference grid disagree in shape or numerology."""


class EmptyReference(OfdmPclError):
    """The reference grid owns no allocated elements."""


class NotchTooWide(OfdmPclError):
    """Clutter notch would zero more than half of the Doppler axis."""


class MapTooSmall(OfdmPclError):
    """Scattering map is smaller than the CFAR window."""


class NegativeExcess(OfdmPclError):
    """A detection's delay is negative relative to the line-of-sight peak."""


class NoConvergence(OfdmPclError):
    """Position solver failed to reduce the residual within its budget.

    ``fuse_position`` never raises it: its descent only takes steps that do
    not raise the cost. It stays while ``perfbench/tracing.py`` imports it.
    """


class AmbiguousFix(OfdmPclError):
    """Two position candidates fit the measurements almost equally well.

    Carries both candidates, lowest residual first.
    """

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = list(estimates)


class UnreadableMap(OfdmPclError):
    """Scattering-map file is truncated or has the wrong magic."""


class ScenarioError(OfdmPclError):
    """Scenario file failed validation.

    ``messages`` holds one human-readable diagnostic per problem, each
    anchored to a JSON path or line number.
    """

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
