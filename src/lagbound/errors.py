"""Exception types raised by the lagbound modules."""


class LagboundError(Exception):
    """Base class for all package errors."""


class ChartDegenerate(LagboundError):
    """Warp field hits zero inside the band: the normal chart is invalid at this width."""


class OutOfPatch(LagboundError):
    """A point violates the required margin inside the coordinate band."""


class DistortionExceeded(LagboundError):
    """Conformal factor leaves the declared distortion interval."""


class NoBracket(LagboundError):
    """Area functional does not change sign on the guaranteed bracket (internal inconsistency)."""


class PatchMismatch(LagboundError):
    """Operation requires both curves to live on the same patch."""


class ParamOutOfRange(LagboundError):
    """Family parameter outside its documented validity range."""


class StepTooLarge(LagboundError):
    """Integrator step fails the step-halving agreement test."""


class FrameDegenerate(LagboundError):
    """Gradient field too steep: |grad| >= 1 somewhere, frame normalization undefined."""


class ConfigError(LagboundError):
    """Invalid experiment configuration; message carries the offending location."""
