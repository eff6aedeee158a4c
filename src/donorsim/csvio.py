"""CSV emission and ingestion for experiment outputs.

Every file starts with two comment lines::

    # donor-spin-sim v1
    # columns: <name>, <name>, ...

followed by comma-separated data rows.  Column names carry their units
(e.g. ``tau_s``, ``offset_khz``) so downstream plots cannot silently mix
µT with mT.  Floats are written with ``repr``: the shortest decimal
string that parses back to exactly the same binary value, which makes
re-reading an emitted file bit-exact and file contents a deterministic
function of the data.  Line terminator is LF.  Non-finite values are
refused — a NaN in a data file is always an upstream bug.

``Series`` is the validated x/y result type the experiments return.  It
lives here because this module imports nothing else from the package, so
``pump`` and ``pulse`` can both use it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

MAGIC = "# donor-spin-sim v1"
COLUMNS_PREFIX = "# columns: "


@dataclass(frozen=True)
class Series:
    """Result values on a strictly increasing x axis.

    x carries the producing experiment's unit (seconds, kHz offsets, cm^-1
    detunings); ``shots`` is the number of shots behind every value (1 unless
    an estimator repeats shots per point).
    """

    x: np.ndarray
    values: np.ndarray
    shots: int = 1

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape:
            raise ValueError("x and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(values))):
            raise ValueError("series data must be finite")
        if x.size > 1 and not np.all(np.diff(x) > 0):
            raise ValueError("x must be strictly increasing")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)


def format_value(x: float) -> str:
    """Shortest decimal representation that round-trips to the same float."""
    return repr(float(x))


def render_csv(columns: Sequence[str], data: np.ndarray) -> str:
    """Format a table as CSV text (header comments + rows)."""
    table = np.atleast_2d(np.asarray(data, dtype=float))
    if table.ndim != 2:
        raise ValueError("data must be a 2-d table")
    if table.shape[1] != len(columns):
        raise ValueError(
            f"data has {table.shape[1]} columns but {len(columns)} names given"
        )
    if not np.all(np.isfinite(table)):
        bad = np.argwhere(~np.isfinite(table))[0]
        raise ValueError(
            f"non-finite value at row {bad[0]}, column {columns[bad[1]]!r}; refusing to write"
        )
    for name in columns:
        if "," in name or "\n" in name:
            raise ValueError(f"column name {name!r} may not contain ',' or newlines")
    lines = [MAGIC, COLUMNS_PREFIX + ", ".join(columns)]
    for row in table:
        # format_value per cell: tolist() gives Python floats, whose repr it is
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def write_text(target: str | TextIO, text: str) -> None:
    """Write text to a path or an open text stream.

    Paths are written as UTF-8 with LF terminators regardless of platform.
    An unwritable path surfaces as an OSError naming the path.
    """
    if isinstance(target, (str, bytes)):
        try:
            with open(target, "w", newline="\n", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {target!r}: {exc}") from exc
    else:
        target.write(text)


def emit_csv(target: str | TextIO, columns: Sequence[str], data: np.ndarray) -> None:
    """Write a table to a path or an open text stream (see ``write_text``)."""
    write_text(target, render_csv(columns, data))


def read_csv(source: str | TextIO) -> tuple[list[str], np.ndarray]:
    """Read a file produced by ``emit_csv``; returns (column names, values)."""
    if isinstance(source, (str, bytes)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read {source!r}: {exc}") from exc
    else:
        text = source.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ValueError(f"not a donor-spin-sim CSV file (missing {MAGIC!r} header)")
    if len(lines) < 2 or not lines[1].startswith(COLUMNS_PREFIX):
        raise ValueError("missing '# columns:' header line")
    columns = [c.strip() for c in lines[1][len(COLUMNS_PREFIX):].split(",")]
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(
                f"line {lineno}: expected {len(columns)} values, found {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    if rows and not np.all(np.isfinite(data)):
        raise ValueError("file contains non-finite values")
    return columns, data


def roundtrip_equal(columns: Sequence[str], data: np.ndarray) -> bool:
    """True when rendering then parsing reproduces the data bit-exactly."""
    buf = io.StringIO(render_csv(columns, data))
    _, back = read_csv(buf)
    return np.array_equal(back, np.atleast_2d(np.asarray(data, dtype=float)))
