"""Append-only line logs: the one framing of ``catalog.log``,
``registry.log`` and ``pseudonyms.log``.

A record is one UTF-8 line ended by a newline; its owner formats the lines
and parses them.  A line the parse rejects is fatal, except a last line with
no newline: that is an append a crash cut short, so replay drops it with a
warning and cuts the file back to the last whole line.  A last line that
parses is kept, and its newline is written.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from gridbox.errors import StorageError


def replay(path: Path, parse):
    """Yield ``parse(text)`` of each whole, non-empty line of ``path`` in
    order; a missing file yields nothing.  Only a failure of ``parse``
    becomes StorageError: what the caller raises applying a record is its own."""
    if not path.exists():
        return
    whole, torn = 0, False  # bytes up to the end of the last whole line
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            torn = not line.endswith(b"\n")
            if line != b"\n":
                try:
                    record = parse(line.rstrip(b"\n").decode("utf-8"))
                except Exception as e:
                    error = StorageError(f"corrupt log {path} at line {lineno}: {e}")
                    if not torn:
                        raise error from e
                    print(f"warning: {error}; dropped the unfinished last line",
                          file=sys.stderr)
                    os.truncate(path, whole)
                    return
                yield record
            whole += len(line)
    if torn:  # the last record was whole but for its newline
        with path.open("ab") as fh:
            fh.write(b"\n")


def append(path: Path, lines) -> None:
    """Append ``lines``, strings without their newlines, to ``path`` in one
    open and one write, then flush; no lines, no open."""
    text = "".join(f"{line}\n" for line in lines)
    if text:
        with path.open("a", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
