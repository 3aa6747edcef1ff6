"""Binary classification from uncertain-similarity triplets and unlabeled
data: weak-supervision generation, corrected risk estimators, training, and
brute-force verification oracles."""

__version__ = "0.1.0"

from .core import ClassPrior, CorrectionKind, LabeledPool, WeakDataset
from .risk import RiskValue, Thetas, compute_thetas, empirical_risk

__all__ = [
    "ClassPrior",
    "CorrectionKind",
    "LabeledPool",
    "RiskValue",
    "Thetas",
    "WeakDataset",
    "compute_thetas",
    "empirical_risk",
    "__version__",
]
