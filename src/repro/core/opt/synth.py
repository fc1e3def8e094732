"""Synthetic leaves and hops the optimizer injects into rewritten plans.

These are ordinary :class:`~repro.core.streamer.Streamer` leaves (so the
interpreter, the fingerprint, thread views and the static checker treat
them like any other node) with one twist: they *alias* the original
blocks' DPort objects instead of creating new pads.  Keeping the
original pads means every surviving :class:`~repro.core.network.
ResolvedEdge`, probe and observer keeps working untouched — only the
computation feeding the pads changes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dport import DPort
from repro.core.streamer import Streamer


class PadCopy:
    """A synthetic hop copying one pad into another (CSE rewiring).

    Exactly mirrors :meth:`repro.core.flow.Flow.propagate` — the scalar
    fast path and the record merge path — so a consumer rewired onto a
    CSE representative sees bit-identical values.
    """

    __slots__ = ("source", "target", "transfers", "_fast")

    def __init__(self, source: DPort, target: DPort) -> None:
        self.source = source
        self.target = target
        self.transfers = 0
        self._fast = source._is_scalar and target._is_scalar

    def propagate(self) -> None:
        if self._fast:
            self.target._store_scalar(self.source._scalar_value)
        else:
            merged = self.target.peek()
            merged.update(self.source.peek())
            self.target._store(merged)
        self.transfers += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PadCopy({self.source.qualified_name} -> "
            f"{self.target.qualified_name})"
        )


class FoldedBlock(Streamer):
    """A constant-folded boundary block.

    Replaces a time-invariant, stateless block whose inputs were proven
    constant: the frozen output values (produced once, at optimize time,
    by the *original* block's own ``compute_outputs`` — so they are
    bitwise what the unoptimized run would compute) are re-written to
    the original OUT pads every evaluation.  It keeps the original
    block's name, so code generators emit the same signal variables.
    """

    direct_feedthrough = False
    time_invariant = True

    def __init__(self, original: Streamer) -> None:
        super().__init__(original.name)
        self._origin_path = original.path()
        out_pads = [
            pad for pad in original.dports.values()
            if pad.is_out and not pad.relay_only
        ]
        self.dports = {pad.name: pad for pad in out_pads}
        frozen: List[Tuple[DPort, Any, bool]] = []
        for pad in out_pads:
            if pad._is_scalar:
                frozen.append((pad, float(pad._scalar_value), True))
            else:
                frozen.append((pad, dict(pad.peek()), False))
        self._frozen = tuple(frozen)
        # canonical value summary: enters the plan fingerprint via params
        self.params = {
            "folded": tuple(
                (pad.name, value if scalar else tuple(sorted(value.items())))
                for pad, value, scalar in self._frozen
            ),
        }

    def origin_path(self) -> str:
        return self._origin_path

    def scalar_values(self) -> List[Tuple[str, float]]:
        """``(port name, frozen value)`` for scalar pads (codegen)."""
        values: List[Tuple[str, float]] = []
        for pad, value, scalar in self._frozen:
            if not scalar:
                raise TypeError(
                    f"folded block {self._origin_path} holds a record "
                    f"flow on {pad.name!r}; no scalar literal exists"
                )
            values.append((pad.name, value))
        return values

    def path(self) -> str:
        return f"folded:{self._origin_path}"

    def compute_outputs(self, t: float, state: np.ndarray) -> None:
        for pad, value, scalar in self._frozen:
            if scalar:
                pad._store_scalar(value)
            else:
                pad._store(dict(value))


def stage_spec(leaf: Streamer, driven_port: Optional[DPort]):
    """The fusable-op description of one chain member.

    Returns ``("gain", k)``, ``("bias", b)`` or ``("sum", terms)`` where
    ``terms`` is a tuple of ``(sign, frozen_value_or_None)`` — ``None``
    marks the single flow-driven slot.  Raises ``TypeError`` for block
    types the fusion pass must not touch.
    """
    kind = type(leaf).__name__
    if kind == "Gain":
        return ("gain", float(leaf.params["k"]))
    if kind == "Bias":
        return ("bias", float(leaf.params["bias"]))
    if kind == "Sum":
        terms: List[Tuple[str, Optional[float]]] = []
        for index, sign in enumerate(str(leaf.params["signs"])):
            pad = leaf.dport(f"in{index + 1}")
            if pad is driven_port:
                terms.append((sign, None))
            else:
                # undriven slots never change at runtime: freeze them
                terms.append((sign, float(pad._scalar_value)))
        return ("sum", tuple(terms))
    raise TypeError(f"block type {kind!r} is not fusable")


def _compile_stage(spec):
    """An exact-float closure replaying one member's ``compute_outputs``
    arithmetic (the O1 bitwise-identity guarantee)."""
    kind = spec[0]
    if kind == "gain":
        k = spec[1]

        def run(value: float) -> float:
            return k * value

    elif kind == "bias":
        b = spec[1]

        def run(value: float) -> float:
            return value + b

    else:  # sum: replicate the signed accumulation in slot order
        terms = spec[1]

        def run(value: float) -> float:
            total = 0.0
            for sign, frozen in terms:
                term = value if frozen is None else frozen
                total += term if sign == "+" else -term
            return total

    return run


def _affine_of(spec) -> Tuple[float, float]:
    """The ``v -> a*v + b`` form of one stage (O2 re-association)."""
    kind = spec[0]
    if kind == "gain":
        return spec[1], 0.0
    if kind == "bias":
        return 1.0, spec[1]
    # sum with one driven slot: v -> sign*v + sum(±frozen)
    scale, offset = 0.0, 0.0
    for sign, frozen in spec[1]:
        signed = 1.0 if sign == "+" else -1.0
        if frozen is None:
            scale = signed
        else:
            offset += signed * frozen
    return scale, offset


class FusedChain(Streamer):
    """A linear chain of gain/bias/sum blocks collapsed into one node.

    The fused node reads the chain head's driven IN pad, applies each
    member's op and writes the chain tail's OUT pad — the same pads the
    original blocks owned, so the incoming and outgoing resolved edges
    keep working verbatim.  It takes the *tail's* name so code
    generators assign the same output signal variable the tail did.

    With ``reassociate=False`` (O1) each member's float ops are replayed
    exactly, in order — bitwise identical to the unfused plan for
    fixed-step runs.  With ``reassociate=True`` (O2) the affine stages
    are composed into a single ``a*v + b``.
    """

    direct_feedthrough = True
    time_invariant = True

    def __init__(
        self,
        members: Sequence[Streamer],
        specs: Sequence[Tuple],
        in_pad: DPort,
        out_pad: DPort,
        reassociate: bool = False,
    ) -> None:
        if len(members) != len(specs) or len(members) < 2:
            raise ValueError("fused chain needs >= 2 members with specs")
        tail = members[-1]
        super().__init__(tail.name)
        self._member_paths = tuple(leaf.path() for leaf in members)
        self.head_leaf = members[0]
        self.tail_leaf = tail
        self.in_pad = in_pad
        self.out_pad = out_pad
        self.reassociate = bool(reassociate)
        self.specs: Tuple[Tuple, ...] = tuple(specs)
        self.dports = {in_pad.name: in_pad, out_pad.name: out_pad}
        if self.reassociate:
            scale, offset = 1.0, 0.0
            for spec in self.specs:
                a, b = _affine_of(spec)
                scale, offset = a * scale, a * offset + b
            self.affine: Optional[Tuple[float, float]] = (scale, offset)
            self._stages = ()
        else:
            self.affine = None
            self._stages = tuple(_compile_stage(s) for s in self.specs)
        self.params = {
            "stages": self.specs,
            "reassociate": self.reassociate,
        }

    @property
    def member_paths(self) -> Tuple[str, ...]:
        return self._member_paths

    def path(self) -> str:
        return "fused:" + "+".join(self._member_paths)

    def compute_outputs(self, t: float, state: np.ndarray) -> None:
        value = self.in_pad.read_scalar()
        if self.affine is not None:
            value = self.affine[0] * value + self.affine[1]
        else:
            for stage in self._stages:
                value = stage(value)
        self.out_pad.write(float(value))

