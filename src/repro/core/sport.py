"""SPorts: signal message ports of streamers (square notation).

SPorts are how streamers and capsules talk (rule W7): the capsule side is
an ordinary UML-RT port; the streamer side is an :class:`SPort` bound to a
protocol role.  The hybrid model bridges the two with a *boundary capsule*
(:class:`~repro.core.model.SPortBridge`) living on the capsule's
controller plus a pair of bounded channels crossing the thread boundary:

* capsule → streamer: the bridge receives the message under normal RTC
  dispatch and pushes it onto the inbound channel; the streamer's solver
  drains the channel at the next synchronisation point and feeds each
  message to :meth:`repro.core.streamer.Streamer.handle_signal`.
* streamer → capsule: the solver calls :meth:`SPort.send`; the message is
  queued on the outbound channel and the hybrid scheduler injects it into
  the discrete world at the next synchronisation point, timestamped with
  the continuous Time value.

This is exactly the paper's "communication mechanism of threads as a
channel between capsules and streamers".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.umlrt.protocol import ProtocolRole
from repro.umlrt.signal import Message, Priority

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import SPortBridge
    from repro.core.streamer import Streamer


class SPortError(Exception):
    """Raised on illegal SPort usage."""


class SPort:
    """A signal port on a streamer, bound to a protocol role (W3)."""

    def __init__(
        self,
        name: str,
        role: ProtocolRole,
        owner: Optional["Streamer"] = None,
    ) -> None:
        if role is None:
            raise SPortError(f"SPort {name!r} needs a protocol role (W3)")
        self.name = name
        self.role = role
        self.owner = owner
        self.bridge: Optional["SPortBridge"] = None
        #: messages awaiting injection into the discrete world
        self.outbound: List[Message] = []
        self.sent = 0
        self.received = 0

    @property
    def qualified_name(self) -> str:
        owner = self.owner.name if self.owner is not None else "<unowned>"
        return f"{owner}.{self.name}"

    @property
    def connected(self) -> bool:
        return self.bridge is not None

    # ------------------------------------------------------------------
    def send(
        self,
        signal: str,
        data: Any = None,
        priority: Priority = Priority.GENERAL,
    ) -> None:
        """Queue a signal for the capsule side (leaves at the next sync)."""
        if signal not in self.role.sends:
            raise SPortError(
                f"SPort {self.qualified_name} (role {self.role.name}) "
                f"cannot send {signal!r}; allowed: {sorted(self.role.sends)}"
            )
        if self.bridge is None:
            raise SPortError(
                f"SPort {self.qualified_name} is not connected to a capsule"
            )
        self.sent += 1
        self.outbound.append(
            Message(signal=signal, data=data, priority=priority)
        )

    def drain_inbound(self) -> List[Message]:
        """Messages from the capsule side since the last sync point."""
        if self.bridge is None:
            return []
        messages = self.bridge.to_streamer.drain()
        self.received += len(messages)
        return messages

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SPort({self.qualified_name}, role={self.role.name})"
