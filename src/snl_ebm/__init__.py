"""Training energy-based models by self-normalized likelihood ascent.

The package treats the log-normalizer as one extra scalar parameter b: the
objective mean u(x) - b - e^{-b} Z + 1 is maximized jointly in (model, b),
touches Z only linearly (so importance estimates of Z give unbiased
gradients), and recovers the true log-likelihood at b = log Z.

The top level exports the pipeline entry points; everything else is
imported from its module (``snl_ebm.objectives``, ``snl_ebm.datasets``, ...).
"""

from .errors import (
    ConfigError,
    DegenerateProposalError,
    EnergyEvaluationError,
    NonFiniteObjectiveError,
    SnlError,
    TrainingDivergedError,
)
from .evaluation import evaluate
from .models import GaussianMeanModel, MlpEnergy
from .proposals import (
    FittedGaussian,
    MdnProposal,
    StandardGaussian,
    UniformBox,
    fit_gaussian,
)
from .regression import (
    BilinearConditionalModel,
    ConditionalEnergyModel,
    NormalizerNet,
    RegressionTrainConfig,
    eval_regression_l_is,
    train_regression,
)
from .rng import PortableRng
from .training import TrainConfig, train_density

__version__ = "0.1.0"

__all__ = [
    "BilinearConditionalModel",
    "ConditionalEnergyModel",
    "ConfigError",
    "DegenerateProposalError",
    "EnergyEvaluationError",
    "FittedGaussian",
    "GaussianMeanModel",
    "MdnProposal",
    "MlpEnergy",
    "NonFiniteObjectiveError",
    "NormalizerNet",
    "PortableRng",
    "RegressionTrainConfig",
    "SnlError",
    "StandardGaussian",
    "TrainConfig",
    "TrainingDivergedError",
    "UniformBox",
    "eval_regression_l_is",
    "evaluate",
    "fit_gaussian",
    "train_density",
    "train_regression",
]
