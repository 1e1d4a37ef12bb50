"""Small file-format helpers: key=value text, CSV and portable graymaps.

``write_csv`` (the one CSV writer) and ``write_pgm`` (the one graymap writer)
are the package's only file writers.  Each makes one plain binary write: the
umask sets the mode and no platform translates a newline.  A run's files need
no more, since ``harness.run_scenario`` swaps in a staging directory only once
every job has succeeded.  ``format_cell`` is the one CSV cell format: a float
is its Python repr, a bool ``true`` or ``false``, no value (None) an empty
cell.  ``read_pgm`` reads 8- and 16-bit graymaps, ascii (P2) or binary (P5);
``write_pgm`` writes a [0, 1] array as round(value * 65535) in 16-bit P5.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import ConfigError

_WHITESPACE = b" \t\n\r\x0b\x0c"
PGM_MAXVAL_LIMIT = 65535


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` text; ``#`` starts a comment, keys must be unique."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_kv_text(pairs: dict[str, object]) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs.items())


def format_cell(value) -> str:
    """One CSV cell: None empty, a bool true/false, a float its repr, a tuple a comma list."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(format_cell(item) for item in value)
    return str(value)


def write_csv(path: str | Path, rows) -> None:
    """Write ``rows`` as CSV, one line per row of comma-joined ``format_cell`` cells."""
    text = "".join(",".join(map(format_cell, row)) + "\n" for row in rows)
    Path(path).write_bytes(text.encode("utf-8"))


def _skip_header_filler(data: bytes, pos: int) -> int:
    while pos < len(data):
        if data[pos] in _WHITESPACE:
            pos += 1
        elif data[pos : pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        else:
            break
    return pos


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    pos = _skip_header_filler(data, pos)
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise ConfigError("truncated graymap header")
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        value = int(token)
    except ValueError:
        raise ConfigError(f"graymap header: bad {what} token {token!r}") from None
    return value, pos


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a P2 (ascii) or P5 (binary) graymap.

    Returns (samples, maxval) with samples an int array of shape (height, width).
    """
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ConfigError(f"unsupported graymap magic {magic!r} (want P2 or P5)")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ConfigError(f"graymap dimensions {width}x{height} invalid")
    if not (0 < maxval <= PGM_MAXVAL_LIMIT):
        raise ConfigError(f"graymap maxval {maxval} outside 1..{PGM_MAXVAL_LIMIT}")
    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise ConfigError("graymap: missing whitespace before binary raster")
        pos += 1
        itemsize = 2 if maxval > 255 else 1
        need = count * itemsize
        raster = data[pos : pos + need]
        if len(raster) < need:
            raise ConfigError("graymap: truncated binary raster")
        if data[pos + need :].strip(bytes(_WHITESPACE)):
            raise ConfigError("graymap: trailing data after raster")
        dtype = ">u2" if itemsize == 2 else np.uint8
        samples = np.frombuffer(raster, dtype=dtype).astype(np.int64).reshape(height, width)
    else:
        # a comment ends at its newline, which still separates the samples around it
        tokens = re.sub(rb"#[^\n]*", b"", data[pos:]).split()
        if len(tokens) != count:
            raise ConfigError(f"graymap: expected {count} samples, found {len(tokens)}")
        try:
            samples = np.array([int(t) for t in tokens], dtype=np.int64).reshape(height, width)
        except ValueError:
            raise ConfigError("graymap: non-integer sample") from None
    if samples.min() < 0 or samples.max() > maxval:
        raise ConfigError("graymap: sample outside [0, maxval]")
    return samples, maxval


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Write a finite 2-D [0, 1] array as 16-bit P5 samples round(value * 65535)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigError("graymap values must be 2-D")
    if not np.isfinite(values).all() or values.min() < 0.0 or values.max() > 1.0:
        raise ConfigError("graymap values must be finite and lie in [0, 1]")
    height, width = values.shape
    header = f"P5\n{width} {height}\n{PGM_MAXVAL_LIMIT}\n".encode("ascii")
    Path(path).write_bytes(header + np.rint(values * PGM_MAXVAL_LIMIT).astype(">u2").tobytes())
