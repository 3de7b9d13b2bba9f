"""Random packet-loss models.

Queue overflow loss is produced by the link itself; these models add
*channel* loss (corruption, interference) on top. Two classics:

* :class:`IidLoss` — every packet independently lost with probability p.
* :class:`GilbertElliott` — two-state bursty loss (good/bad channel).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..simcore.rng import RngStreams
from .packet import Packet


class LossModel:
    """Interface: decide whether a packet is lost in the channel."""

    def should_drop(self, packet: Packet) -> bool:
        """Return True to drop ``packet``."""
        raise NotImplementedError


class NoLoss(LossModel):
    """Lossless channel (queue overflow only)."""

    def should_drop(self, packet: Packet) -> bool:
        return False


class IidLoss(LossModel):
    """Independent loss with fixed probability."""

    def __init__(
        self, probability: float, rng: RngStreams, stream: str = "loss-iid"
    ) -> None:
        # probability 1.0 is a legitimate operating point: a total
        # blackout (used by the fault-injection subsystem).
        if not 0 <= probability <= 1:
            raise ConfigError(
                f"loss probability must be in [0, 1], got {probability!r}"
            )
        self._p = probability
        self._gen = rng.stream(stream)

    def should_drop(self, packet: Packet) -> bool:
        if self._p == 0:
            return False
        return bool(self._gen.random() < self._p)


class GilbertElliott(LossModel):
    """Two-state Markov loss: 'good' (low loss) and 'bad' (high loss).

    Args:
        p_good_to_bad: per-packet transition probability good→bad.
        p_bad_to_good: per-packet transition probability bad→good.
        loss_good: loss probability while in the good state.
        loss_bad: loss probability while in the bad state.
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float,
        loss_bad: float,
        rng: RngStreams,
        stream: str = "loss-ge",
    ) -> None:
        for name, value in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ]:
            if not 0 <= value <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
        self._p_gb = p_good_to_bad
        self._p_bg = p_bad_to_good
        self._loss = {True: loss_good, False: loss_bad}
        self._in_good = True
        self._gen = rng.stream(stream)

    @property
    def in_good_state(self) -> bool:
        """Current channel state (True = good)."""
        return self._in_good

    def should_drop(self, packet: Packet) -> bool:
        # State transition first, then loss draw in the new state.
        if self._in_good:
            if self._gen.random() < self._p_gb:
                self._in_good = False
        else:
            if self._gen.random() < self._p_bg:
                self._in_good = True
        return bool(self._gen.random() < self._loss[self._in_good])
