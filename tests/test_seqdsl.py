"""Sequence text format: lexing, parsing, validation, lowering, round-trips."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from donorsim.program import (
    Delay,
    PhaseCycle,
    Pulse,
    PulseProgram,
    UnboundSymbolError,
    hahn_program,
)
from donorsim.seqdsl import (
    HAHN_TEXT,
    TIME_UNITS,
    CompileError,
    CycleStmt,
    DelayStmt,
    Diagnostic,
    ParseError,
    PulseStmt,
    SequenceAst,
    TimeLiteral,
    compile as compile_seq,
    parse,
    pretty_print,
    validate,
)

# --- parsing basics ----------------------------------------------------------

def test_parse_hahn_text_structure():
    ast = parse(HAHN_TEXT)
    assert ast.name == "hahn"
    kinds = [type(s).__name__ for s in ast.statements]
    assert kinds == ["CycleStmt", "PulseStmt", "DelayStmt", "PulseStmt",
                     "DelayStmt", "PulseStmt"]
    cycle = ast.statements[0]
    assert cycle.label == "p1" and cycle.phases_deg == (0.0, 180.0)
    assert ast.statements[1].label == "p1"
    assert ast.statements[2].symbol == "tau"


def test_parse_is_whitespace_and_comment_insensitive():
    messy = (
        "seq hahn{cycle p1[0,180];# cycle the first pulse\n"
        "\tpulse p1 angle=90 phase=0 ;delay tau;\n"
        "pulse angle=180 phase=0;delay tau;pulse angle=90 phase=0;}"
    )
    assert parse(messy) == parse(HAHN_TEXT)


def test_parse_time_literals_and_durations():
    ast = parse("seq s { pulse angle=180 phase=0 dur=250us; delay 1.5ms; }")
    assert ast.statements[0].duration == TimeLiteral(250.0, "us")
    assert ast.statements[0].duration.seconds() == pytest.approx(250e-6)
    assert ast.statements[1].duration.seconds() == pytest.approx(1.5e-3)
    for unit, scale in TIME_UNITS.items():
        ast = parse(f"seq s {{ delay 2{unit}; }}")
        assert ast.statements[0].duration.seconds() == pytest.approx(2 * scale)


@pytest.mark.parametrize("text, line, col, fragment", [
    ("seq s { pulse angle=90 phase=0 }", 1, 32, "expected"),     # missing ';'
    ("seq s { delay 5; }", 1, 15, "needs a unit"),
    ("seq s { delay 5qq; }", 1, 16, "unknown unit"),
    ("seq s { wiggle; }", 1, 9, "expected"),
    ("seq s { pulse angle=90 phase=0; } seq t { }", 1, 35, "multiple sequences"),
    ("seq s { } seq s { }", 1, 15, "duplicate sequence name"),
    ("seq s { } trailing", 1, 11, "unexpected trailing input"),
    ("seq s { pulse angle=90", 1, 23, "end of input"),
    ("seq s { cycle a []; }", 1, 18, "expected"),                # empty phase list
    ("seq s { delay @; }", 1, 15, "unexpected character"),
    ("seq s { delay 1e999us; }", 1, 15, "finite"),
    ("seq s { pulse angle=90 phase=1e400; }", 1, 30, "number must be finite"),
    ("seq s { cycle p [0, -1e400]; }", 1, 21, "number must be finite"),
])
def test_parse_error_positions(text, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert err.line == line
    assert err.col == col
    assert fragment in err.message
    assert str(err).startswith(f"{line}:{col}:")


_TOKEN_TEXTS = st.sampled_from([
    "seq", "s", "{", "}", "pulse", "angle", "=", "90", "-1.5e2", ".5", "phase", "dur",
    "250us", "1e999us", "1e400", "-1e400", "5qq", "@", "-", "delay", "tau", "cycle", "[",
    "]", ",", ";", "\n", "# c\n",
])


@settings(max_examples=500)
@given(st.lists(_TOKEN_TEXTS, max_size=30), st.sampled_from(["", " "]))
def test_parse_raises_only_parse_error(tokens, sep):
    try:
        parse(sep.join(tokens))
    except ParseError:
        pass


def test_parse_error_position_on_later_line():
    text = "seq s {\n  pulse angle=90 phase=0;\n  delay 5;\n}"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (3, 9)


# --- round-trip --------------------------------------------------------------

def test_pretty_print_is_canonical_for_hahn():
    assert pretty_print(parse(HAHN_TEXT)) == HAHN_TEXT


def test_empty_sequence_roundtrip():
    text = "seq empty { }\n"
    assert pretty_print(parse(text)) == text


_IDENT = st.from_regex(r"[a-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TIMES = st.builds(TimeLiteral, value=_FINITE,
                   unit=st.sampled_from(sorted(TIME_UNITS)))
_STATEMENTS = st.one_of(
    st.builds(
        PulseStmt,
        label=st.one_of(st.none(), _IDENT.filter(lambda s: s != "angle")),
        angle_deg=_FINITE,
        phase_deg=_FINITE,
        duration=st.one_of(st.none(), _TIMES),
    ),
    st.builds(DelayStmt, duration=_TIMES),
    st.builds(DelayStmt, symbol=_IDENT),
    st.builds(
        CycleStmt,
        label=_IDENT,
        phases_deg=st.lists(_FINITE, min_size=1, max_size=4).map(tuple),
    ),
)
_ASTS = st.builds(
    SequenceAst,
    name=_IDENT,
    statements=st.lists(_STATEMENTS, max_size=6).map(tuple),
)


@settings(max_examples=200)
@given(_ASTS)
def test_roundtrip_parse_inverts_pretty_print(ast):
    assert parse(pretty_print(ast)) == ast


@given(_ASTS)
def test_pretty_print_is_idempotent(ast):
    text = pretty_print(ast)
    assert pretty_print(parse(text)) == text


# --- validation ----------------------------------------------------------------

def errors(text):
    return [d for d in validate(parse(text)) if d.severity == "error"]


def warnings_of(text):
    return [d for d in validate(parse(text)) if d.severity == "warning"]


def test_validate_clean_hahn_is_silent():
    assert validate(parse(HAHN_TEXT)) == []


def test_validate_cycle_must_match_exactly_one_pulse():
    missing = errors("seq s { cycle p [0, 180]; pulse angle=90 phase=0; }")
    assert len(missing) == 1 and "found 0" in missing[0].message
    doubled = errors(
        "seq s { cycle p [0]; pulse p angle=90 phase=0; pulse p angle=90 phase=0; }"
    )
    assert any("found 2" in d.message for d in doubled)


def test_validate_duplicate_cycle_label():
    diags = errors(
        "seq s { cycle p [0]; cycle p [90]; pulse p angle=90 phase=0; }"
    )
    assert any("duplicate cycle label" in d.message for d in diags)


@pytest.mark.parametrize("stmt, fragment", [
    ("pulse angle=0 phase=0;", "angle"),
    ("pulse angle=361 phase=0;", "angle"),
    ("pulse angle=-90 phase=0;", "angle"),
    ("pulse angle=90 phase=0 dur=-1us;", "duration"),
    ("delay -2us;", "duration"),
])
def test_validate_range_errors(stmt, fragment):
    diags = errors(f"seq s {{ {stmt} }}")
    assert len(diags) == 1
    assert fragment in diags[0].message


def test_validate_angle_boundaries_are_inclusive_exclusive():
    assert errors("seq s { pulse angle=360 phase=0; }") == []
    assert errors("seq s { delay 0us; }") == []


def test_validate_warnings():
    shadow = warnings_of(
        "seq s { cycle tau [0]; pulse tau angle=90 phase=0; delay tau; }"
    )
    assert any("shadows" in d.message for d in shadow)
    dup = warnings_of(
        "seq s { pulse a angle=90 phase=0; pulse a angle=180 phase=0; }"
    )
    assert any("duplicate pulse label" in d.message for d in dup)


# Hand-built statements whose values the IR may reject: NaN, inf, negative
# durations and empty cycles, on a few shared labels so cycles find their pulses.
_LABELS = st.sampled_from(["p", "q", "tau"])
_ANY_FLOAT = st.one_of(st.sampled_from([0.0, 90.0, 360.0, -1.0]), st.floats())
_ANY_TIMES = st.builds(TimeLiteral, value=st.floats(-10.0, 10.0),
                       unit=st.sampled_from(sorted(TIME_UNITS)))
_ANY_STATEMENTS = st.one_of(
    st.builds(PulseStmt, label=st.one_of(st.none(), _LABELS), angle_deg=_ANY_FLOAT,
              phase_deg=_ANY_FLOAT, duration=st.one_of(st.none(), _ANY_TIMES),
              pos=st.tuples(st.integers(1, 9), st.integers(1, 9))),
    st.builds(DelayStmt, duration=_ANY_TIMES),
    st.builds(DelayStmt, symbol=_LABELS),
    st.builds(CycleStmt, label=_LABELS,
              phases_deg=st.lists(_ANY_FLOAT, max_size=3).map(tuple)),
)


@settings(max_examples=300)
@given(st.lists(_ANY_STATEMENTS, max_size=5).map(tuple))
@example((CycleStmt("p", ()), PulseStmt("p", 90.0, 0.0)))
def test_validate_reports_an_error_exactly_when_compile_raises(statements):
    ast = SequenceAst(name="s", statements=statements)
    diags = validate(ast)
    try:
        compile_seq(ast)
    except CompileError as exc:
        errors = [str(d) for d in diags if d.severity == "error"]
        assert errors and str(exc) == "; ".join(errors)
    else:
        assert all(d.severity == "warning" for d in diags)


def test_empty_cycle_is_a_positioned_error():
    ast = SequenceAst(name="s", statements=(
        CycleStmt("p", (), pos=(2, 3)), PulseStmt("p", 90.0, 0.0, pos=(3, 3))))
    assert [str(d) for d in validate(ast)] == [
        "2:3: error: phase cycle needs at least one offset"]
    with pytest.raises(CompileError, match="^2:3: error: phase cycle needs at least one offset$"):
        compile_seq(ast)


@pytest.mark.parametrize("stmt, message", [
    (PulseStmt(None, 90.0, math.nan), "pulse angle and phase must be finite"),
    (PulseStmt(None, 90.0, 0.0, TimeLiteral(-1.0, "us")), "pulse duration must be > 0, got -1e-06"),
    (DelayStmt(TimeLiteral(-2.0, "ms")), "delay duration must be >= 0, got -0.002"),
    (CycleStmt("p", (0.0, math.inf)), "phase cycle offsets must be finite"),
])
def test_validate_reports_the_ir_message(stmt, message):
    ast = SequenceAst(name="s", statements=(PulseStmt("p", 90.0, 0.0), stmt))
    assert [(d.severity, d.message) for d in validate(ast)] == [("error", message)]


def test_diagnostic_str_and_position():
    assert str(Diagnostic("warning", "look here", 3, 7)) == "3:7: warning: look here"
    diags = validate(parse("seq s {\n  delay -2us;\n}"))
    assert (diags[0].line, diags[0].col) == (2, 3)


# --- lowering --------------------------------------------------------------------

def test_compile_hahn_equals_handwritten_program():
    assert compile_seq(parse(HAHN_TEXT)) == hahn_program()


def test_compile_converts_degrees_and_times():
    prog = compile_seq(parse(
        "seq s { pulse angle=90 phase=45 dur=250us; delay 1ms; }"
    ))
    pulse = prog.events[0]
    assert pulse.angle_rad == pytest.approx(math.pi / 2, rel=1e-15)
    assert pulse.phase_rad == pytest.approx(math.pi / 4, rel=1e-15)
    assert pulse.duration_s == pytest.approx(250e-6)
    assert prog.events[1] == Delay(duration_s=1e-3)


def test_compile_binding_modes():
    ast = parse("seq s { delay tau; }")
    symbolic = compile_seq(ast)
    assert symbolic.events[0] == Delay(symbol="tau")
    concrete = compile_seq(ast, bindings={"tau": 2.5e-3})
    assert concrete.events[0] == Delay(duration_s=2.5e-3)
    with pytest.raises(UnboundSymbolError):
        compile_seq(ast, bindings={})


@pytest.mark.parametrize("bindings, message", [
    ({}, "3:3: error: unbound delay symbol 'tau'; 5:3: error: unbound delay symbol 't2'"),
    ({"tau": 1e-3}, "5:3: error: unbound delay symbol 't2'"),
])
def test_unbound_symbols_name_their_first_delay(bindings, message):
    ast = parse("seq s {\n  pulse angle=90 phase=0;\n  delay tau;\n  delay tau;\n"
                "  delay t2;\n  delay 1ms;\n  delay t2;\n}")
    with pytest.raises(UnboundSymbolError) as exc:
        compile_seq(ast, bindings=bindings)
    assert str(exc.value) == message


def test_compile_rejects_invalid_ast_with_position():
    ast = parse("seq s {\n  cycle p [0];\n  pulse angle=90 phase=0;\n}")
    with pytest.raises(CompileError) as exc:
        compile_seq(ast)
    assert "2:3" in str(exc.value)
    assert "exactly one pulse" in str(exc.value)


def test_hahn_text_expands_to_two_inverted_shots():
    prog = compile_seq(parse(HAHN_TEXT), bindings={"tau": 2.5e-3})
    shots = prog.shots()
    assert len(shots) == 2
    assert shots[0].events[0].phase_rad == 0.0
    assert shots[1].events[0].phase_rad == pytest.approx(math.pi, rel=1e-15)
    # only the cycled pulse differs between the two shots
    assert shots[0].events[1:] == shots[1].events[1:]
    assert shots[0].events[1] == Delay(duration_s=2.5e-3)
    assert all(not s.cycles for s in shots)


def test_shots_rejects_two_cycles_on_one_label():
    program = PulseProgram(
        name="s", events=(Pulse(math.pi / 2, 0.0, label="a"),),
        cycles=(PhaseCycle("a", (0.0, math.pi)), PhaseCycle("a", (0.0, math.pi / 2))))
    with pytest.raises(ValueError, match="^duplicate cycle label 'a'$"):
        program.shots()


def test_ast_node_invariants():
    with pytest.raises(ValueError):
        TimeLiteral(1.0, "weeks")
    with pytest.raises(ValueError):
        DelayStmt(duration=TimeLiteral(1.0, "us"), symbol="tau")
    with pytest.raises(ValueError):
        DelayStmt()
    with pytest.raises(ValueError):
        Pulse(angle_rad=math.nan, phase_rad=0.0)
    with pytest.raises(ValueError):
        PhaseCycle("p", ())
    for offsets in ((math.nan,), (0.0, math.inf)):
        with pytest.raises(ValueError, match="offsets must be finite"):
            PhaseCycle("p", offsets)
