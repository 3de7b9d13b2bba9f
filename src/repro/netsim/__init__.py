"""Network simulation substrate.

Packets, bounded queues, loss models, the variable-capacity bottleneck
:class:`Link`, cross traffic, and the :class:`DuplexNetwork` an RTC
session runs over.
"""

from .crosstraffic import CbrCrossTraffic, PoissonCrossTraffic
from .link import Link, LinkStats, service_end_time
from .loss import GilbertElliott, IidLoss, LossModel, NoLoss
from .network import DuplexNetwork
from .packet import Packet
from .queue import DropTailQueue

__all__ = [
    "CbrCrossTraffic",
    "DropTailQueue",
    "DuplexNetwork",
    "GilbertElliott",
    "IidLoss",
    "Link",
    "LinkStats",
    "LossModel",
    "NoLoss",
    "Packet",
    "PoissonCrossTraffic",
    "service_end_time",
]
