"""The MGI image file format.

MGI is a deliberately small stand-in for DICOM: a text header plus a raw
16-bit pixel payload.  Byte layout::

    MGIMG 1\n
    key = value\n          (one per header entry, order preserved)
    \n
    <rows*cols*2 bytes of big-endian unsigned 16-bit pixels, row-major>

Header keys come from a controlled list; ``image.rows``, ``image.cols`` and
``image.bits`` are mandatory, ``image.bits`` is always 16, and the payload
length must match the declared shape exactly.  ``write_mgi`` and
``parse_mgi`` are mutual inverses on valid files, bit for bit, so a node
stores an already-anonymized upload as the bytes it received.  ``parse_mgi``
reads in one pass: it decodes the header block once, checks its lines in
order (the first bad one raises) and skips `MgiFile`'s checks, all made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gridbox.errors import (
    BadMagic,
    MgiFormatError,
    PayloadSizeMismatch,
    UnknownHeaderKey,
)

MAGIC = b"MGIMG 1"

HEADER_KEYS = (
    "patient.name",
    "patient.id",
    "patient.sex",
    "patient.birth_date",
    "study.id",
    "study.date",
    "series.id",
    "series.modality",
    "image.id",
    "image.laterality",
    "image.view",
    "image.rows",
    "image.cols",
    "image.bits",
    "image.dose_mgy",
    "site.id",
)
_KEYS = frozenset(HEADER_KEYS)

_REQUIRED = ("image.rows", "image.cols", "image.bits")


def _declared_shape(header: dict) -> tuple[int, int]:
    """Check the mandatory keys and ``image.bits``; return (rows, cols)."""
    for key in _REQUIRED:
        if key not in header:
            raise MgiFormatError(f"missing mandatory header key {key!r}")
    if header["image.bits"] != "16":
        raise MgiFormatError("image.bits must be 16")
    try:
        rows, cols = int(header["image.rows"]), int(header["image.cols"])
    except ValueError as e:
        raise MgiFormatError(f"non-integer image shape: {e}") from e
    if rows <= 0 or cols <= 0:
        raise MgiFormatError("image shape must be positive")
    return rows, cols


@dataclass
class MgiFile:
    """Parsed MGI file: ordered header map plus a rows×cols uint16 array."""

    header: dict = field(default_factory=dict)
    pixels: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.uint16))

    def __post_init__(self):
        self.header = dict(self.header)
        for key, value in self.header.items():
            if key not in _KEYS:
                raise UnknownHeaderKey(f"unknown header key {key!r}")
            if not isinstance(value, str) or "\n" in value:
                raise MgiFormatError(f"header value for {key!r} must be a single line")
        rows, cols = _declared_shape(self.header)
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint16:
            if not np.issubdtype(pixels.dtype, np.integer):
                raise MgiFormatError("pixels must be unsigned 16-bit integers")
            if pixels.size and (pixels.min() < 0 or pixels.max() > 0xFFFF):
                raise MgiFormatError("pixel values out of 16-bit range")
            pixels = pixels.astype(np.uint16)
        if pixels.shape != (rows, cols):
            raise MgiFormatError(
                f"pixel array is {pixels.shape}, header declares {(rows, cols)}")
        self.pixels = np.ascontiguousarray(pixels)

    def __eq__(self, other):
        return (isinstance(other, MgiFile)
                and list(self.header.items()) == list(other.header.items())
                and np.array_equal(self.pixels, other.pixels))

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.header.get(key, default)


def write_mgi(f: MgiFile) -> bytes:
    lines = [MAGIC]
    for key, value in f.header.items():
        lines.append(f"{key} = {value}".encode("utf-8"))
    lines.append(b"")
    return b"\n".join(lines) + b"\n" + f.pixels.astype(">u2").tobytes()


def parse_mgi(data: bytes) -> MgiFile:
    newline = data.find(b"\n")
    if newline < 0 or data[:newline] != MAGIC:
        raise BadMagic("not an MGI file")
    end = data.find(b"\n\n", newline)
    # with no blank line, the lines that end are checked before that is said
    block = data[newline + 1:end if end >= 0 else data.rfind(b"\n")]
    undecodable = None
    try:
        lines = block.decode("utf-8").split("\n") if block else []
    except UnicodeDecodeError as e:  # check the lines before the bad one first
        lines, undecodable = block[:e.start].decode("utf-8").split("\n")[:-1], e
    header: dict[str, str] = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if not sep or not key:
            raise MgiFormatError(f"malformed header line {line!r}")
        if key not in _KEYS:
            raise UnknownHeaderKey(f"unknown header key {key!r}")
        if key in header:
            raise MgiFormatError(f"duplicate header key {key!r}")
        header[key] = value
    if undecodable is not None:
        raise MgiFormatError(f"undecodable header line: {undecodable}") from undecodable
    if end < 0:
        raise MgiFormatError("header never ends (no blank line)")
    rows, cols = _declared_shape(header)
    payload = data[end + 2:]
    if len(payload) != rows * cols * 2:
        raise PayloadSizeMismatch(
            f"payload is {len(payload)} bytes, header declares {rows * cols * 2}")
    f = object.__new__(MgiFile)  # every check of __post_init__ was made above
    f.header = header
    f.pixels = np.frombuffer(payload, dtype=">u2").reshape(rows, cols).astype(np.uint16)
    return f
