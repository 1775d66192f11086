"""Exception hierarchy shared by all spdecontrol modules."""


class SpdeControlError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateVariance(SpdeControlError):
    """Residual variance of the information variable is (numerically) zero."""


class QuadratureFailure(SpdeControlError):
    """Adaptive Fourier quadrature could not reach the requested tolerance."""


class UnknownMark(SpdeControlError):
    """A jump mark was requested that is not an atom of the Levy measure."""


class DivisionUnstable(SpdeControlError):
    """Conditional-density denominator below the safe division floor."""


class NonParabolic(SpdeControlError):
    """Second-order coefficient negative somewhere on the grid."""


class LinearSolveFailure(SpdeControlError):
    """The implicit banded system was singular or the solve did not finish."""


class ModelMismatch(SpdeControlError, ValueError):
    """Inputs describe different noise models, or a routine cannot handle the
    model it was given (a jump insider variable in a Brownian-only routine)."""


class ControlShapeMismatch(SpdeControlError, ValueError):
    """A control rule returned values whose shape fits neither its mode nor
    the block of paths and nodes it was evaluated on."""


class InadmissibleControl(SpdeControlError, ValueError):
    """A control rule produced a value outside its set U, an interval of
    reals, so a NaN or infinite value too; step is the first step that has
    one and value that step's first such value."""

    def __init__(self, message, step, value):
        super().__init__(message)
        self.step = step
        self.value = value


class CoefficientShapeMismatch(SpdeControlError, ValueError):
    """A coefficient of the forward equation returned values that do not fit
    the block of paths and nodes it was evaluated on, or would widen it."""


class StepTooLarge(SpdeControlError):
    """A perturbation size |a| >= 1, for which perturbed_policy's clamp no
    longer keeps the control in its set U."""


class DegenerateVolatility(SpdeControlError):
    """Volatility coefficient not bounded away from zero."""


class WealthNonpositive(SpdeControlError):
    """A wealth path hit a nonpositive value where log-utility is required."""


class MassCollapse(SpdeControlError):
    """Unnormalized filter density has (numerically) no mass left."""


class WeightDegeneracy(SpdeControlError):
    """Particle weights collapsed; effective sample size below threshold."""


class DegenerateCurvature(SpdeControlError):
    """Feedback-control denominator (curvature moment) too close to zero."""


class BoundaryViolation(SpdeControlError, ValueError):
    """A grid function that must vanish at the boundary does not."""


class ConfigError(SpdeControlError):
    """Experiment configuration failed schema or constraint validation."""


class NumericalCheckFailure(SpdeControlError):
    """A configured numerical acceptance check did not pass."""
