"""Several RTC calls sharing one bottleneck.

The fairness question the paper's reviewers would ask: when one call
adapts fast and the other doesn't, who gets the bandwidth — and does
fast adaptation *hurt* the competitor? :class:`MultiFlowSession` runs N
:class:`~repro.pipeline.flow.MediaFlow` instances (each with its own
encoder, congestion controller, and policy) over a single shared link.

Flows are distinguished on the wire by flow-name suffixes (``media#0``,
``media#1``, ...); captures are phase-offset so the flows don't encode
in lockstep.

A :class:`MultiFlowConfig` is a runnable cell of the execution fabric:
:func:`~repro.pipeline.parallel.run_many` runs it, caches its
:class:`MultiFlowResult` and shards it like a single session.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..netsim.aqm import CoDelQueue
from ..netsim.loss import IidLoss
from ..netsim.network import DuplexNetwork
from ..simcore.rng import RngStreams
from ..simcore.scheduler import Scheduler
from .config import PolicyName, SessionConfig
from .flow import MediaFlow
from .parallel import register_config_type
from .results import SessionResult


class MultiFlowSession:
    """N media flows over one shared bottleneck.

    Args:
        base_config: network + duration + seed template. Per-flow
            settings (policy, video, recovery) come from ``policies``
            or ``flow_configs``.
        policies: convenience — one policy per flow, all other settings
            shared. Mutually exclusive with ``flow_configs``.
        flow_configs: full per-flow :class:`SessionConfig` overrides
            (their network section is ignored — the shared one rules).
    """

    def __init__(
        self,
        base_config: SessionConfig,
        policies: list[PolicyName] | None = None,
        flow_configs: list[SessionConfig] | None = None,
    ) -> None:
        if (policies is None) == (flow_configs is None):
            raise ConfigError(
                "provide exactly one of policies= or flow_configs="
            )
        if policies is not None:
            flow_configs = [
                dataclasses.replace(base_config, policy=policy)
                for policy in policies
            ]
        assert flow_configs is not None
        if not flow_configs:
            raise ConfigError("need at least one flow")
        base_config.validate()

        self.config = base_config
        self.scheduler = Scheduler()
        self.rng = RngStreams(base_config.seed)

        net = base_config.network
        loss = None
        if net.iid_loss > 0:
            loss = IidLoss(net.iid_loss, self.rng)
        forward_queue = None
        if net.aqm == "codel":
            forward_queue = CoDelQueue(net.queue_bytes)
        self.network = DuplexNetwork(
            self.scheduler,
            net.capacity,
            net.propagation_delay,
            net.queue_bytes,
            forward_loss=loss,
            forward_queue=forward_queue,
        )

        self.flows: list[MediaFlow] = []
        for index, flow_config in enumerate(flow_configs):
            flow_config = dataclasses.replace(
                flow_config, network=net, duration=base_config.duration
            )
            flow_config.validate()
            offset = index / (
                len(flow_configs) * flow_config.video.fps
            )
            self.flows.append(
                MediaFlow(
                    self.scheduler,
                    self.network,
                    flow_config,
                    self.rng,
                    flow_suffix=f"#{index}",
                    capture_offset=offset,
                )
            )

    # ------------------------------------------------------------------
    def run(self) -> list[SessionResult]:
        """Run all flows to completion."""
        end = self.config.duration + self.config.grace_period
        self.scheduler.run_until(end)
        return [flow.finish() for flow in self.flows]


@dataclass(frozen=True)
class MultiFlowConfig:
    """One flow per policy over ``base``'s network, duration and seed."""

    base: SessionConfig
    policies: tuple[PolicyName, ...]

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a bad config.

        ``base.validate()`` checks the seed with
        :func:`~repro.pipeline.config.validate_seed`.
        """
        if not self.policies:
            raise ConfigError("need at least one flow")
        self.base.validate()


@dataclass(frozen=True)
class MultiFlowResult:
    """Every flow's :class:`SessionResult`, in flow order."""

    flows: tuple[SessionResult, ...]

    def to_dict(self) -> dict:
        """JSON-ready payload (lossless, as each flow's is)."""
        return {"flows": [flow.to_dict() for flow in self.flows]}

    @classmethod
    def from_dict(cls, payload: dict) -> "MultiFlowResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            tuple(SessionResult.from_dict(flow) for flow in payload["flows"])
        )


def _run_multiflow(config: MultiFlowConfig) -> MultiFlowResult:
    session = MultiFlowSession(config.base, policies=list(config.policies))
    return MultiFlowResult(tuple(session.run()))


def _multiflow_cost(config: MultiFlowConfig) -> float:
    """Wall cost scales with simulated time and the number of flows."""
    return float(config.base.duration) * len(config.policies)


register_config_type(
    MultiFlowConfig,
    run=_run_multiflow,
    from_dict=MultiFlowResult.from_dict,
    cost=_multiflow_cost,
)


def jain_fairness(shares: list[float]) -> float:
    """Jain's fairness index over per-flow throughput shares
    (1 = perfectly fair, 1/n = one flow takes everything)."""
    if not shares:
        raise ConfigError("need at least one share")
    array = np.asarray(shares, dtype=float)
    denom = len(array) * float((array**2).sum())
    if denom == 0:
        return 1.0
    return float(array.sum()) ** 2 / denom
