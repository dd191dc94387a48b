"""Exception types raised by the flow laboratory."""


class OTFlowError(Exception):
    """Base class for all errors raised by this package."""


# --- cost calculus ---

class DegenerateCross(OTFlowError):
    """Cross Hessian determinant fell below the invertibility margin."""


# --- domains and problem validation ---

class MassImbalance(OTFlowError):
    """Source and target measures carry different total mass."""


class DensityOutOfBounds(OTFlowError):
    """A density violates its declared lower/upper bounds."""


class BitwistFailure(OTFlowError):
    """The cross-Hessian determinant margin fell below tolerance on a sweep."""


# --- flow ---

class NotCConvex(OTFlowError):
    """Potential is not locally uniformly cost-convex; carries a witness node."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BoundaryIncompatible(OTFlowError):
    """Initial potential violates the second boundary condition."""


class ImageMismatch(OTFlowError):
    """Pushforward of the source boundary does not cover the target boundary."""


class NonPositiveDet(OTFlowError):
    """det of the transport Hessian lost positivity at some node."""


class ObliquenessLost(OTFlowError):
    """Boundary direction field became tangential beyond the obliqueness floor."""


class NewtonStall(OTFlowError):
    """Boundary projection Newton failed to reduce the residual."""


class StepRejected(OTFlowError):
    """Time step rejected after the maximum number of halvings."""


# --- linearized operator / Harnack series ---

class EllipticityLost(OTFlowError):
    """Inverse transport Hessian lost its uniform ellipticity bound."""


class NonPositiveTheta(OTFlowError):
    """Special linearized solution dropped below the positivity floor."""


class DegenerateDenominator(OTFlowError):
    """Harnack ratio denominator fell below the positivity floor."""


# --- pseudo-metric geometry ---

class MetricDegenerate(OTFlowError):
    """Pullback metric not positive definite where required."""


class DegenerateImage(OTFlowError):
    """Image boundary curve has velocity below the floor."""


# --- diagnostics ---

class NoDecayWindow(OTFlowError):
    """Rate fitting found no usable decay window in the series."""


# --- configuration ---

class ConfigError(OTFlowError):
    """Scenario configuration failed to parse or validate."""


class ScenarioNotFound(ConfigError):
    """No bundled scenario or config file by the requested name."""
