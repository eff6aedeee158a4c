"""Pulse program representation shared by the sequence DSL and the engine.

A program is a flat list of pulse and delay events plus optional phase
cycles.  Angles and phases are radians, durations seconds.  Delays may be
symbolic (e.g. "tau") and must be bound to concrete durations before a
program can run; phase cycles are expanded into per-shot programs with the
cycle offsets added to the designated pulse's base phase.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Union


class UnboundSymbolError(ValueError):
    """A symbolic delay was not bound to a concrete duration."""


def _require_bound(missing: list[str] | tuple[str, ...]) -> None:
    if missing:
        raise UnboundSymbolError(f"unbound delay symbol(s): {', '.join(missing)}")


@dataclass(frozen=True)
class Pulse:
    """RF pulse event: finite with a ``duration_s``, hard without one.

    A finite pulse runs for its duration about the axis the detuning tilts;
    a hard pulse is a rotation by ``angle_rad`` about its in-plane phase
    axis.  ``simulate_4level`` runs finite pulses only and rejects a hard one.
    """

    angle_rad: float
    phase_rad: float
    duration_s: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle_rad) or not math.isfinite(self.phase_rad):
            raise ValueError("pulse angle and phase must be finite")
        if self.duration_s is not None and (
            not math.isfinite(self.duration_s) or self.duration_s <= 0
        ):
            raise ValueError(f"pulse duration must be > 0, got {self.duration_s!r}")


@dataclass(frozen=True)
class Delay:
    """Free-evolution event: either a concrete duration or a symbol."""

    duration_s: float | None = None
    symbol: str | None = None

    def __post_init__(self) -> None:
        if (self.duration_s is None) == (self.symbol is None):
            raise ValueError("delay needs exactly one of duration_s or symbol")
        if self.duration_s is not None and (
            not math.isfinite(self.duration_s) or self.duration_s < 0
        ):
            raise ValueError(f"delay duration must be >= 0, got {self.duration_s!r}")


Event = Union[Pulse, Delay]


@dataclass(frozen=True)
class PhaseCycle:
    """Per-shot phase offsets (radians) applied to one labelled pulse."""

    pulse_label: str
    offsets_rad: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.offsets_rad:
            raise ValueError("phase cycle needs at least one offset")
        if not all(math.isfinite(x) for x in self.offsets_rad):
            raise ValueError("phase cycle offsets must be finite")


@dataclass(frozen=True)
class PulseProgram:
    name: str
    events: tuple[Event, ...]
    cycles: tuple[PhaseCycle, ...] = ()

    def symbols(self) -> tuple[str, ...]:
        """Distinct unbound delay symbols, in order of first appearance."""
        seen: list[str] = []
        for ev in self.events:
            if isinstance(ev, Delay) and ev.symbol is not None and ev.symbol not in seen:
                seen.append(ev.symbol)
        return tuple(seen)

    def check_runnable(self) -> None:
        """Raise unless an engine can run this as is: no phase cycles left, every delay bound."""
        if self.cycles:
            raise ValueError("program still has phase cycles; expand with .shots() first")
        _require_bound(self.symbols())

    def bind(self, bindings: Mapping[str, float]) -> "PulseProgram":
        """Resolve symbolic delays; every symbol in the program must be bound."""
        _require_bound([s for s in self.symbols() if s not in bindings])
        events = tuple(
            Delay(duration_s=float(bindings[ev.symbol]))
            if isinstance(ev, Delay) and ev.symbol is not None
            else ev
            for ev in self.events
        )
        return replace(self, events=events)

    def shots(self) -> list["PulseProgram"]:
        """Expand phase cycles into concrete per-shot programs.

        Each cycle must designate exactly one pulse by label, and no two
        cycles the same one.  Multiple cycles combine as a cartesian product
        in declaration order; programs without cycles expand to a single shot.
        """
        labels = [cycle.pulse_label for cycle in self.cycles]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"duplicate cycle label {label!r}")
            hits = [ev for ev in self.events if isinstance(ev, Pulse) and ev.label == label]
            if len(hits) != 1:
                raise ValueError(
                    f"phase cycle {label!r} must match exactly one pulse, found {len(hits)}"
                )
        expanded = []
        offset_lists = [cycle.offsets_rad for cycle in self.cycles]
        for combo in itertools.product(*offset_lists):
            offsets = dict(zip(labels, combo))
            events = tuple(
                replace(ev, phase_rad=ev.phase_rad + offsets[ev.label])
                if isinstance(ev, Pulse) and ev.label in offsets
                else ev
                for ev in self.events
            )
            expanded.append(PulseProgram(name=self.name, events=events, cycles=()))
        return expanded

