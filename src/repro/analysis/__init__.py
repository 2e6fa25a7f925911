"""repro.analysis — the paper's §V use cases, implemented.

* :mod:`repro.analysis.features` + :mod:`repro.analysis.detection` —
  use case V-A1 ("Testing or Validating Defense Strategies"): extract
  windowed features from TServer-side packet captures of mixed
  benign/attack traffic and train a (from-scratch, numpy) logistic
  regression DDoS classifier;
* :mod:`repro.analysis.epidemic` — use case V-A2 ("Testing Mathematical
  Models of Botnet Spread"): run exploit-armed Mirai scanning
  propagation in DDoSim, read out the infection curve, and fit the SI
  epidemic model to it.
"""

from repro.analysis.detection import (
    DetectionMetrics,
    LogisticRegressionClassifier,
    train_test_split,
)
from repro.analysis.epidemic import (
    PropagationResult,
    fit_si_model,
    run_propagation_experiment,
    si_curve,
)
from repro.analysis.features import FEATURE_NAMES, windows_from_capture

__all__ = [
    "DetectionMetrics",
    "FEATURE_NAMES",
    "LogisticRegressionClassifier",
    "PropagationResult",
    "fit_si_model",
    "run_propagation_experiment",
    "si_curve",
    "train_test_split",
    "windows_from_capture",
]
