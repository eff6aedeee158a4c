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


@dataclass(frozen=True)
class Pulse:
    """RF pulse event.

    ``duration_s`` is optional: when absent the engine derives the duration
    from the nominal angle and the calibrated Rabi frequency.
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

    def is_bound(self) -> bool:
        return not self.symbols()

    def bind(self, bindings: Mapping[str, float]) -> "PulseProgram":
        """Resolve symbolic delays; every symbol in the program must be bound."""
        missing = [s for s in self.symbols() if s not in bindings]
        if missing:
            raise UnboundSymbolError(f"unbound delay symbol(s): {', '.join(missing)}")
        events = tuple(
            Delay(duration_s=float(bindings[ev.symbol]))
            if isinstance(ev, Delay) and ev.symbol is not None
            else ev
            for ev in self.events
        )
        return replace(self, events=events)

    def shots(self) -> list["PulseProgram"]:
        """Expand phase cycles into concrete per-shot programs.

        Each cycle must designate exactly one pulse by label.  Multiple
        cycles combine as a cartesian product in declaration order; programs
        without cycles expand to a single shot.
        """
        for cycle in self.cycles:
            hits = [
                ev for ev in self.events
                if isinstance(ev, Pulse) and ev.label == cycle.pulse_label
            ]
            if len(hits) != 1:
                raise ValueError(
                    f"phase cycle {cycle.pulse_label!r} must match exactly one "
                    f"pulse, found {len(hits)}"
                )
        expanded = []
        offset_lists = [cycle.offsets_rad for cycle in self.cycles]
        for combo in itertools.product(*offset_lists):
            offsets = dict(zip((c.pulse_label for c in self.cycles), combo))
            events = tuple(
                replace(ev, phase_rad=ev.phase_rad + offsets[ev.label])
                if isinstance(ev, Pulse) and ev.label in offsets
                else ev
                for ev in self.events
            )
            expanded.append(PulseProgram(name=self.name, events=events, cycles=()))
        return expanded


def hahn_program() -> PulseProgram:
    """The phase-cycled Hahn echo: +-pi/2 : tau : pi : tau : pi/2.

    The first pulse carries a two-shot phase cycle {0, 180 deg}; adding
    180 deg to a pi/2 pulse is the same as inverting its rotation sense, so
    the two shots start with +pi/2 and -pi/2 respectively.
    """
    half = math.pi / 2.0
    return PulseProgram(
        name="hahn",
        events=(
            Pulse(angle_rad=half, phase_rad=0.0, label="p1"),
            Delay(symbol="tau"),
            Pulse(angle_rad=math.pi, phase_rad=0.0),
            Delay(symbol="tau"),
            Pulse(angle_rad=half, phase_rad=0.0),
        ),
        cycles=(PhaseCycle(pulse_label="p1", offsets_rad=(0.0, math.pi)),),
    )


def ramsey_program() -> PulseProgram:
    """Two pi/2 pulses separated by a symbolic delay tau."""
    half = math.pi / 2.0
    return PulseProgram(
        name="ramsey",
        events=(
            Pulse(angle_rad=half, phase_rad=0.0),
            Delay(symbol="tau"),
            Pulse(angle_rad=half, phase_rad=0.0),
        ),
    )
