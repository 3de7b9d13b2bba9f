"""Congestion control / bandwidth estimation.

:class:`GoogCcController` is the realistic estimator (GCC);
:class:`OracleController` knows the true capacity and bounds the
comparison from above.
"""

from .gcc import (
    AimdRateControl,
    BandwidthUsage,
    GoogCcController,
    LossBasedEstimator,
    OveruseDetector,
    TrendlineEstimator,
)
from .interface import AckedBitrateEstimator, CongestionController
from .oracle import OracleController

__all__ = [
    "AckedBitrateEstimator",
    "AimdRateControl",
    "BandwidthUsage",
    "CongestionController",
    "GoogCcController",
    "LossBasedEstimator",
    "OracleController",
    "OveruseDetector",
    "TrendlineEstimator",
]
