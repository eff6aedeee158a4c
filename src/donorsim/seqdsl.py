"""Small text DSL for pulse sequences.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    program  :=  "seq" IDENT "{" stmt* "}"
    stmt     :=  cycle | pulse | delay
    cycle    :=  "cycle" IDENT "[" NUMBER ("," NUMBER)* "]" ";"
    pulse    :=  "pulse" IDENT? "angle=" NUMBER "phase=" NUMBER ("dur=" TIME)? ";"
    delay    :=  "delay" (TIME | IDENT) ";"
    TIME     :=  NUMBER ("ns" | "us" | "ms" | "s")

Angles and phases are degrees in source text and radians in compiled
programs.  A TIME literal attaches its unit directly to the number
("250us").  ``pretty_print`` emits a canonical form (one statement per
line, numbers without trailing zeros) and ``parse`` inverts it exactly:
``parse(pretty_print(ast))`` is structurally identical to ``ast``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Union

from .program import Delay, PhaseCycle, Pulse, PulseProgram

TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

KEYWORDS = ("seq", "cycle", "pulse", "delay")


class ParseError(ValueError):
    """Syntax or lexical error with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class CompileError(ValueError):
    """The AST failed validation and cannot be lowered to a program."""


@dataclass(frozen=True)
class TimeLiteral:
    value: float
    unit: str

    def __post_init__(self) -> None:
        if self.unit not in TIME_UNITS:
            raise ValueError(f"unknown time unit {self.unit!r}")
        if not math.isfinite(self.value):
            raise ValueError("time value must be finite")

    def seconds(self) -> float:
        return self.value * TIME_UNITS[self.unit]


# ``pos`` is the 1-based (line, col) of a statement's keyword.
@dataclass(frozen=True)
class CycleStmt:
    label: str
    phases_deg: tuple[float, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class PulseStmt:
    label: str | None
    angle_deg: float
    phase_deg: float
    duration: TimeLiteral | None = None
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class DelayStmt:
    duration: TimeLiteral | None = None
    symbol: str | None = None
    pos: tuple[int, int] = field(default=(0, 0), compare=False)

    def __post_init__(self) -> None:
        if (self.duration is None) == (self.symbol is None):
            raise ValueError("delay statement needs exactly one of duration or symbol")


Statement = Union[CycleStmt, PulseStmt, DelayStmt]


@dataclass(frozen=True)
class SequenceAst:
    name: str
    statements: tuple[Statement, ...]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


# --- lexer -----------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # IDENT NUMBER TIME PUNCT EOF
    text: str
    value: float | TimeLiteral | None
    pos: tuple[int, int]


# A number followed directly by a word is a TIME literal ("250us").
_TOKEN_RE = re.compile(r"""
      (?P<NEWLINE> \n )
    | (?P<SKIP> [ \t\r]+ | \#[^\n]* )
    | (?P<PUNCT> [{}\[\];,=] )
    | (?P<NUMBER> -?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)? ) (?P<UNIT> [A-Za-z_][A-Za-z0-9_]* )?
    | (?P<IDENT> [A-Za-z_][A-Za-z0-9_]* )
""", re.VERBOSE)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, pos = m.lastgroup, m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind == "UNIT":
            unit, value = m["UNIT"], float(m["NUMBER"])
            if unit not in TIME_UNITS:
                raise ParseError(
                    f"unknown unit {unit!r} (expected one of {sorted(TIME_UNITS)})",
                    line, m.start("UNIT") - line_start + 1,
                )
            if not math.isfinite(value):
                raise ParseError("time value must be finite", line, col)
            tokens.append(_Token("TIME", m[0], TimeLiteral(value, unit), (line, col)))
        elif kind == "NUMBER":
            value = float(m[0])
            if not math.isfinite(value):
                raise ParseError("number must be finite", line, col)
            tokens.append(_Token(kind, m[0], value, (line, col)))
        elif kind != "SKIP":
            tokens.append(_Token(kind, m[0], None, (line, col)))
    tokens.append(_Token("EOF", "", None, (line, pos - line_start + 1)))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        return ParseError(message, *(tok or self.peek()).pos)

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        """Consume the next token if it matches, else raise "expected WHAT".

        ``what`` defaults to the quoted ``text``.
        """
        if not self.at(kind, text):
            found = self.peek().text or "end of input"
            raise self.error(f"expected {what or repr(text)}, found {found!r}")
        return self.advance()

    def parse_sequence(self) -> SequenceAst:
        self.expect("IDENT", "seq")
        name = self.expect("IDENT", what="sequence name").text
        self.expect("PUNCT", "{")
        statements: list[Statement] = []
        while not self.at("PUNCT", "}"):
            if self.at("EOF"):
                raise self.error("unexpected end of input inside sequence body")
            statements.append(self.parse_statement())
        self.advance()
        return SequenceAst(name=name, statements=tuple(statements))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error(
                f"expected a statement keyword {KEYWORDS[1:]}, found {tok.text!r}"
            )
        if tok.text == "cycle":
            return self.parse_cycle()
        if tok.text == "pulse":
            return self.parse_pulse()
        if tok.text == "delay":
            return self.parse_delay()
        raise self.error(
            f"expected one of {KEYWORDS[1:]}, found {tok.text!r}"
        )

    def parse_cycle(self) -> CycleStmt:
        pos = self.advance().pos  # 'cycle'
        label = self.expect("IDENT", what="cycle label").text
        self.expect("PUNCT", "[")
        phases = [self.expect("NUMBER", what="phase offset").value]
        while self.at("PUNCT", ","):
            self.advance()
            phases.append(self.expect("NUMBER", what="phase offset").value)
        self.expect("PUNCT", "]")
        self.expect("PUNCT", ";")
        return CycleStmt(label=label, phases_deg=tuple(phases), pos=pos)

    def parse_pulse(self) -> PulseStmt:
        pos = self.advance().pos  # 'pulse'
        label = None
        if self.at("IDENT") and not self.at("IDENT", "angle"):
            label = self.advance().text
        values = []
        for key in ("angle", "phase"):
            self.expect("IDENT", key, what=f"'{key}='")
            self.expect("PUNCT", "=")
            values.append(self.expect("NUMBER", what="number").value)
        angle, phase = values
        duration = None
        if self.at("IDENT", "dur"):
            self.advance()
            self.expect("PUNCT", "=")
            if not self.at("TIME"):
                raise self.error(
                    f"expected time literal (e.g. 250us), found {self.peek().text!r}"
                )
            duration = self.advance().value
        self.expect("PUNCT", ";")
        return PulseStmt(
            label=label, angle_deg=angle, phase_deg=phase, duration=duration, pos=pos
        )

    def parse_delay(self) -> DelayStmt:
        pos = self.advance().pos  # 'delay'
        tok = self.peek()
        if tok.kind == "NUMBER":
            raise self.error("delay needs a unit (ns, us, ms or s) or a symbol")
        if tok.kind not in ("TIME", "IDENT"):
            raise self.error(f"expected time literal or symbol, found {tok.text!r}")
        self.advance()
        self.expect("PUNCT", ";")
        if tok.kind == "TIME":
            return DelayStmt(duration=tok.value, pos=pos)
        return DelayStmt(symbol=tok.text, pos=pos)


def parse(text: str) -> SequenceAst:
    """Parse exactly one sequence; raises ParseError with line:col positions."""
    parser = _Parser(_lex(text))
    ast = parser.parse_sequence()
    if parser.at("IDENT", "seq"):
        name = parser.tokens[parser.pos + 1]
        if name.kind == "IDENT" and name.text == ast.name:
            raise parser.error(f"duplicate sequence name {ast.name!r}", name)
        raise parser.error("multiple sequences in one document")
    if not parser.at("EOF"):
        raise parser.error(f"unexpected trailing input {parser.peek().text!r}")
    return ast


# --- validation ------------------------------------------------------------

def validate(ast: SequenceAst) -> list[Diagnostic]:
    """Structural checks beyond the grammar; returns diagnostics, never raises."""
    diags: list[Diagnostic] = []

    pulse_labels: dict[str, int] = {}
    for stmt in ast.statements:
        if isinstance(stmt, PulseStmt) and stmt.label:
            pulse_labels[stmt.label] = pulse_labels.get(stmt.label, 0) + 1

    seen_cycles: set[str] = set()
    for stmt in ast.statements:
        line, col = stmt.pos
        if isinstance(stmt, CycleStmt):
            if stmt.label in seen_cycles:
                diags.append(Diagnostic("error", f"duplicate cycle label {stmt.label!r}", line, col))
            seen_cycles.add(stmt.label)
            count = pulse_labels.get(stmt.label, 0)
            if count != 1:
                diags.append(Diagnostic(
                    "error",
                    f"cycle {stmt.label!r} must reference exactly one pulse, found {count}",
                    line, col,
                ))
            if any(not math.isfinite(p) for p in stmt.phases_deg):
                diags.append(Diagnostic("error", "cycle phases must be finite", line, col))
        elif isinstance(stmt, PulseStmt):
            if not 0.0 < stmt.angle_deg <= 360.0:
                diags.append(Diagnostic(
                    "error",
                    f"pulse angle must lie in (0, 360] degrees, got {stmt.angle_deg:g}",
                    line, col,
                ))
            if not math.isfinite(stmt.phase_deg):
                diags.append(Diagnostic("error", "pulse phase must be finite", line, col))
            if stmt.duration is not None and stmt.duration.seconds() <= 0:
                diags.append(Diagnostic("error", "pulse duration must be > 0", line, col))
        elif isinstance(stmt, DelayStmt):
            if stmt.duration is not None and stmt.duration.seconds() < 0:
                diags.append(Diagnostic("error", "delay duration must be >= 0", line, col))
            if stmt.symbol is not None and stmt.symbol in seen_cycles:
                diags.append(Diagnostic(
                    "warning",
                    f"delay symbol {stmt.symbol!r} shadows a cycle label",
                    line, col,
                ))
    for label, count in pulse_labels.items():
        if count > 1 and label not in seen_cycles:
            first = next(
                s for s in ast.statements if isinstance(s, PulseStmt) and s.label == label
            )
            line, col = first.pos
            diags.append(Diagnostic("warning", f"duplicate pulse label {label!r}", line, col))
    return diags


# --- lowering --------------------------------------------------------------

def compile(ast: SequenceAst, bindings: Mapping[str, float] | None = None) -> PulseProgram:  # noqa: A001
    """Lower an AST to a PulseProgram (degrees -> radians, TIME -> seconds).

    With ``bindings=None`` symbolic delays stay symbolic; passing a mapping
    (even an empty one) requests concrete timing, and any symbol missing
    from it raises UnboundSymbolError.
    """
    errors = [d for d in validate(ast) if d.severity == "error"]
    if errors:
        raise CompileError("; ".join(str(d) for d in errors))
    events: list[Pulse | Delay] = []
    for stmt in ast.statements:
        if isinstance(stmt, PulseStmt):
            events.append(Pulse(
                angle_rad=math.radians(stmt.angle_deg),
                phase_rad=math.radians(stmt.phase_deg),
                duration_s=stmt.duration.seconds() if stmt.duration else None,
                label=stmt.label,
            ))
        elif isinstance(stmt, DelayStmt):
            events.append(
                Delay(symbol=stmt.symbol) if stmt.symbol is not None
                else Delay(duration_s=stmt.duration.seconds())
            )
    cycles = tuple(
        PhaseCycle(
            pulse_label=stmt.label,
            offsets_rad=tuple(math.radians(p) for p in stmt.phases_deg),
        )
        for stmt in ast.statements if isinstance(stmt, CycleStmt)
    )
    program = PulseProgram(name=ast.name, events=tuple(events), cycles=cycles)
    return program if bindings is None else program.bind(bindings)


# --- canonical form --------------------------------------------------------

def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _format_time(lit: TimeLiteral) -> str:
    return f"{_format_number(lit.value)}{lit.unit}"


def _format_statement(stmt: Statement) -> str:
    if isinstance(stmt, CycleStmt):
        phases = ", ".join(_format_number(p) for p in stmt.phases_deg)
        return f"cycle {stmt.label} [{phases}];"
    if isinstance(stmt, PulseStmt):
        parts = ["pulse"]
        if stmt.label:
            parts.append(stmt.label)
        parts.append(f"angle={_format_number(stmt.angle_deg)}")
        parts.append(f"phase={_format_number(stmt.phase_deg)}")
        if stmt.duration is not None:
            parts.append(f"dur={_format_time(stmt.duration)}")
        return " ".join(parts) + ";"
    if stmt.symbol is not None:
        return f"delay {stmt.symbol};"
    return f"delay {_format_time(stmt.duration)};"


def pretty_print(ast: SequenceAst) -> str:
    """Canonical text: one statement per line; ``parse`` inverts it exactly."""
    if not ast.statements:
        return f"seq {ast.name} {{ }}\n"
    lines = [f"seq {ast.name} {{"]
    lines.extend(f"  {_format_statement(stmt)}" for stmt in ast.statements)
    lines.append("}")
    return "\n".join(lines) + "\n"


#: Canonical phase-cycled Hahn echo source text.
HAHN_TEXT = """\
seq hahn {
  cycle p1 [0, 180];
  pulse p1 angle=90 phase=0;
  delay tau;
  pulse angle=180 phase=0;
  delay tau;
  pulse angle=90 phase=0;
}
"""
