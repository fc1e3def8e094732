"""Flows and relays: the ``connect`` analogues for dataflow (Table 1).

A :class:`Flow` joins exactly one source DPort to one destination DPort and
enforces the paper's W1 subset rule at construction.  A :class:`Relay`
"generates two similar flows from a flow" (W2): it is a transparent fan-out
node with one input pad and exactly two output pads, all sharing the
source's flow type.

Legal flow endpoints (checked here syntactically; the deeper structural
rules live in :mod:`repro.check.model_rules`):

* source: an ``OUT`` DPort, an ``IN`` boundary DPort of an enclosing
  composite (seen from inside), a relay output pad, or a capsule relay
  DPort;
* destination: an ``IN`` DPort, an ``OUT`` boundary DPort of an enclosing
  composite, a relay input pad, or a capsule relay DPort.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.core.dport import Direction, DPort
from repro.core.flowtype import FlowType


class FlowError(Exception):
    """Raised for ill-typed or ill-structured flows."""


_FLOW_SEQ = itertools.count()


class Flow:
    """A directed, typed dataflow connection between two DPorts."""

    def __init__(self, source: DPort, target: DPort) -> None:
        if source is target:
            raise FlowError("flow source and target are the same DPort")
        if not source.flow_type.subset_of(target.flow_type):
            raise FlowError(
                f"flow type violation (W1): source "
                f"{source.qualified_name} carries "
                f"{source.flow_type.name!r} which is not a subset of "
                f"target {target.qualified_name}'s "
                f"{target.flow_type.name!r}"
            )
        self.source = source
        self.target = target
        self.seq = next(_FLOW_SEQ)
        self.transfers = 0
        # hot path: scalar-to-scalar flows copy one float
        self._fast = source._is_scalar and target._is_scalar

    def propagate(self) -> None:
        """Copy the source's record into the target.

        Under the W1 subset rule the source may carry *fewer* fields than
        the target declares; target-only fields keep their previous value
        (initially the flow type's defaults).
        """
        if self._fast:
            self.target._store_scalar(self.source._scalar_value)
        else:
            merged = self.target.peek()
            merged.update(self.source.peek())
            self.target._store(merged)
        self.transfers += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flow({self.source.qualified_name} -> "
            f"{self.target.qualified_name})"
        )


class Relay:
    """A fan-out point: one incoming flow, exactly two outgoing flows (W2).

    The relay exposes three pads that behave like DPorts:

    * ``input`` — an IN pad receiving the incoming flow;
    * ``out_a`` / ``out_b`` — OUT pads, each driving one outgoing flow.

    All three pads share the relay's flow type; propagation copies the
    input record to both outputs unchanged ("two *similar* flows").
    Chains of relays implement higher fan-out.
    """

    def __init__(self, name: str, flow_type: FlowType) -> None:
        self.name = name
        self.flow_type = flow_type
        self.input = DPort("in", Direction.IN, flow_type, owner=self)
        self.out_a = DPort("out_a", Direction.OUT, flow_type, owner=self)
        self.out_b = DPort("out_b", Direction.OUT, flow_type, owner=self)

    @property
    def pads(self) -> List[DPort]:
        return [self.input, self.out_a, self.out_b]

    def propagate(self) -> None:
        """Copy the input record to both output pads."""
        if self.input._is_scalar:
            value = self.input._scalar_value
            self.out_a._store_scalar(value)
            self.out_b._store_scalar(value)
        else:
            value = self.input.peek()
            self.out_a._store(value)
            self.out_b._store(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relay({self.name!r}, {self.flow_type.name})"


def fan_out(name: str, flow_type: FlowType, ways: int) -> List[Relay]:
    """Build a relay chain providing ``ways`` similar copies of one flow.

    Returns the relays; the first relay's ``input`` is the chain input and
    the usable outputs are each relay's ``out_a`` plus the last relay's
    ``out_b``.  ``ways`` must be at least 2 (a single consumer needs no
    relay).
    """
    if ways < 2:
        raise FlowError(f"fan_out needs ways >= 2, got {ways}")
    relays = [Relay(f"{name}{i}", flow_type) for i in range(ways - 1)]
    return relays


def wire_fan_out(
    relays: List[Relay], flows: Optional[List[Flow]] = None
) -> List[Flow]:
    """Chain ``relays`` by connecting each ``out_b`` to the next ``input``."""
    flows = flows if flows is not None else []
    for a, b in zip(relays, relays[1:]):
        flows.append(Flow(a.out_b, b.input))
    return flows


def fan_out_taps(relays: List[Relay]) -> List[DPort]:
    """The usable output pads of a relay chain built by :func:`fan_out`."""
    if not relays:
        return []
    taps = [relay.out_a for relay in relays]
    taps.append(relays[-1].out_b)
    return taps
