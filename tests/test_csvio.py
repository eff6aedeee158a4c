"""CSV format: deterministic rendering and bit-exact round-trips."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from donorsim.csvio import (
    COLUMNS_PREFIX,
    MAGIC,
    Series,
    emit_csv,
    format_value,
    read_csv,
    render_csv,
    roundtrip_equal,
)


def small_table():
    return ["tau_s", "echo"], np.array([[1e-3, 0.998], [0.12, 0.25]])


def test_render_has_magic_and_columns_header():
    cols, data = small_table()
    text = render_csv(cols, data)
    lines = text.splitlines()
    assert lines[0] == MAGIC
    assert lines[1] == COLUMNS_PREFIX + "tau_s, echo"
    assert len(lines) == 4
    assert text.endswith("\n")


def test_format_value_is_shortest_roundtrip():
    for x in (0.1, 1 / 3, 1e-300, 123456.789, -0.0):
        assert float(format_value(x)) == x
    assert format_value(0.1) == "0.1"


def test_roundtrip_bit_exact():
    cols, data = small_table()
    assert roundtrip_equal(cols, data)
    back_cols, back = read_csv(io.StringIO(render_csv(cols, data)))
    assert back_cols == cols
    assert np.array_equal(back, data)


@given(st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    min_size=1, max_size=20,
))
def test_roundtrip_bit_exact_property(rows):
    data = np.asarray(rows, dtype=float)
    assert roundtrip_equal(["a", "b", "c"], data)


def test_file_roundtrip_and_lf_terminators(tmp_path):
    cols, data = small_table()
    path = tmp_path / "out.csv"
    emit_csv(str(path), cols, data)
    raw = path.read_bytes()
    assert b"\r" not in raw
    back_cols, back = read_csv(str(path))
    assert back_cols == cols and np.array_equal(back, data)


def test_emit_to_stream():
    cols, data = small_table()
    buf = io.StringIO()
    emit_csv(buf, cols, data)
    assert buf.getvalue() == render_csv(cols, data)


def test_render_rejects_bad_input():
    with pytest.raises(ValueError) as exc:
        render_csv(["a", "b"], np.array([[1.0, np.nan]]))
    assert "row 0" in str(exc.value) and "'b'" in str(exc.value)
    with pytest.raises(ValueError):
        render_csv(["a"], np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        render_csv(["a,b"], np.array([[1.0]]))
    with pytest.raises(ValueError):
        render_csv(["a"], np.zeros((2, 2, 1)))


def test_read_rejects_foreign_or_corrupt_files(tmp_path):
    with pytest.raises(ValueError) as exc:
        read_csv(io.StringIO("x,y\n1,2\n"))
    assert "missing" in str(exc.value)
    with pytest.raises(ValueError):
        read_csv(io.StringIO(MAGIC + "\nno columns line\n"))
    good = MAGIC + "\n" + COLUMNS_PREFIX + "a, b\n"
    with pytest.raises(ValueError) as exc:
        read_csv(io.StringIO(good + "1.0\n"))
    assert "line 3" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        read_csv(io.StringIO(good + "1.0,zap\n"))
    assert "line 3" in str(exc.value)
    with pytest.raises(ValueError):
        read_csv(io.StringIO(good + "1.0,nan\n"))
    with pytest.raises(OSError):
        read_csv(str(tmp_path / "nope.csv"))


def test_read_skips_blank_and_comment_rows():
    cols, data = small_table()
    text = render_csv(cols, data)
    lines = text.splitlines()
    text = "\n".join(lines[:3] + ["", "# interlude"] + lines[3:]) + "\n"
    back_cols, back = read_csv(io.StringIO(text))
    assert np.array_equal(back, data)


def test_unwritable_path_raises_oserror_naming_path(tmp_path):
    cols, data = small_table()
    target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    with pytest.raises(OSError) as exc:
        emit_csv(target, cols, data)
    assert "out.csv" in str(exc.value)


def test_series_converts_and_defaults_to_one_shot():
    series = Series(x=[0, 1, 2], values=[1, 0.5, 0.25])
    assert series.x.dtype == series.values.dtype == np.float64
    assert series.shots == 1


@pytest.mark.parametrize("x, values, shots, message", [
    ([[0.0, 1.0]], [[1.0, 2.0]], 1, "1-d"),
    ([0.0, 1.0, 2.0], [1.0, 2.0], 1, "equal length"),
    ([0.0, 1.0], [1.0, np.nan], 1, "finite"),
    ([0.0, np.inf], [1.0, 2.0], 1, "finite"),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], 1, "strictly increasing"),
    ([1.0, 0.0], [1.0, 2.0], 1, "strictly increasing"),
    ([0.0, 1.0], [1.0, 2.0], 0, "shots"),
])
def test_series_rejects_invalid_data(x, values, shots, message):
    with pytest.raises(ValueError, match=message):
        Series(x=x, values=values, shots=shots)
