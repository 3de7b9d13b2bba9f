"""repro — Adaptive Video Encoder for Network Bandwidth Drops in RTC.

A from-scratch Python reproduction of the SIGCOMM'25 poster by Meng,
Huang & Meng (HKUST): a complete simulated RTC stack (x264-like encoder
model, RTP transport with TWCC feedback, Google Congestion Control,
variable-capacity bottleneck) plus the paper's fast adaptive encoder
controller and the baselines it is compared against.

Quick start::

    from repro import (
        NetworkConfig, PolicyName, SessionConfig, run_session,
    )
    from repro.traces import generators
    from repro.units import mbps

    capacity = generators.step_drop(mbps(2.5), mbps(0.5), 10.0, 10.0)
    config = SessionConfig(
        network=NetworkConfig(capacity=capacity),
        policy=PolicyName.ADAPTIVE,
        duration=25.0,
    )
    result = run_session(config)
    print(result.mean_latency(), result.mean_displayed_ssim())
"""

from .pipeline import (
    MediaFlow,
    MultiFlowSession,
    NetworkConfig,
    PolicyName,
    ResultCache,
    RtcSession,
    SessionConfig,
    SessionPerf,
    SessionResult,
    VideoConfig,
    configure,
    jain_fairness,
    run_many,
    run_session,
)

__version__ = "1.0.0"

__all__ = [
    "MediaFlow",
    "MultiFlowSession",
    "NetworkConfig",
    "PolicyName",
    "RtcSession",
    "SessionConfig",
    "ResultCache",
    "SessionPerf",
    "SessionResult",
    "VideoConfig",
    "configure",
    "jain_fairness",
    "run_many",
    "run_session",
    "__version__",
]
