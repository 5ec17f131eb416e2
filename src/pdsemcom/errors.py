"""Exception types shared across the pipeline, the CSV table reader whose
every complaint is a ParseError and its writer, the one whole-file writer,
the input checks whose every complaint is a ValueError, and the one seeded
substream generator."""

import csv
import io
import math
import os

import numpy as np


class PipelineError(Exception):
    """Base class for all pipeline errors."""


class EmptyObject(PipelineError):
    """An object ended up with no points (no diagram can be defined for it)."""


class ParseError(PipelineError):
    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def read_table(lines, header, converters, first_line: int = 1):
    """Yield (line number, converted fields) for each row of a CSV table.

    `lines` starts with the header line, which must equal `header` up to
    case and surrounding spaces; it is line `first_line` of its file. Blank
    rows are skipped. A missing or wrong header, an unreadable row, a row
    whose field count differs from len(converters), and a field that its
    converter rejects raise ParseError with the line number.
    """
    reader = csv.reader(lines)
    while True:
        lineno = first_line + reader.line_num
        try:
            row = next(reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"unreadable row: {exc}", lineno) from exc
        if lineno == first_line:
            if row is None or [h.strip().lower() for h in row] != list(header):
                raise ParseError(
                    f"expected header {','.join(header)}, got {row!r}", lineno)
        elif row is None:
            return
        elif row and (len(row) > 1 or row[0].strip()):
            if len(row) != len(converters):
                raise ParseError(
                    f"expected {len(converters)} fields, got {len(row)}", lineno)
            try:
                fields = tuple(conv(text) for conv, text in zip(converters, row))
            except (ValueError, OverflowError, PipelineError) as exc:
                raise ParseError(str(exc), lineno) from exc
            yield lineno, fields


def write_file(path, data: bytes) -> None:
    """Write `data` to `path` whole or not at all: into a new temporary file
    beside it, which is closed and then renamed onto `path`. On any error
    the temporary file is removed and `path` is left as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_table(path, header, rows) -> None:
    """Write `header`, then `rows`, as a CSV table with LF line ends (the
    dialect read_table reads, along with CRLF); the rows are all formatted
    before the file is written."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, buf.getvalue().encode())


def one_of(convert, allowed, what: str):
    """A converter for read_table: `convert`, then reject what is not in
    `allowed` with a ValueError."""
    def check(text: str):
        value = convert(text)
        if value not in allowed:
            raise ValueError(f"{what} must be one of {allowed}, got {value!r}")
        return value
    return check


def nonnegative_int(text: str) -> int:
    """A nonnegative integer object id; anything else is a ValueError."""
    value = int(text)
    if value < 0:
        raise ValueError(f"object id must be nonnegative, got {value}")
    return value


def finite(text: str) -> float:
    """A finite coordinate; NaN, inf and anything else is a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"coordinate must be finite, got {text.strip()!r}")
    return value


def nonnegative(text: str) -> float:
    """A finite, nonnegative coordinate; anything else is a ValueError."""
    value = finite(text)
    if value < 0.0:
        raise ValueError(
            f"coordinate must be nonnegative, got {text.strip()!r}")
    return value


def probability_vector(p, tol: float = 1e-9) -> np.ndarray:
    """`p` as a flat float array, checked to be a probability vector: a
    non-finite or negative entry, or a sum more than `tol` from 1, is a
    ValueError."""
    p = np.asarray(p, dtype=float).ravel()
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    total = float(np.sum(p))
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return p


def substream(seed: int, *key) -> np.random.Generator:
    """The Philox generator of substream `key` under `seed`: the same draws
    for the same (seed, key), whatever else was drawn before."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


class InconsistentLabel(PipelineError):
    """One object carries more than one class label."""


class BudgetExceeded(PipelineError):
    """Simplex enumeration hit the configured hard cap."""


class OutOfBox(PipelineError):
    """A coordinate lies outside the quantizer bounding box."""


class CorruptSymbol(PipelineError):
    """A cell index is invalid for the quantizer grid (post-channel damage)."""


class EmptyDensity(PipelineError):
    """No points were available to estimate a density from."""


class DecodeFailure(PipelineError):
    """Error-locator degree and root count disagree; block left uncorrected."""


class CapacityExceeded(PipelineError):
    """Requested error-correcting capability leaves no message bits, or a
    payload length or symbol count overflows its frame field."""


class TrainingDiverged(PipelineError):
    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class ShapeError(PipelineError):
    """Dimension or cardinality mismatch between two compared objects."""
