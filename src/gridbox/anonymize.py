"""Ingest-time anonymization of MGI files.

The transform replaces ``patient.name`` with a pseudonym, truncates
``patient.birth_date`` to its year, and swaps ``patient.id`` for a
site-minted global id.  Everything else — other header keys, their order,
and every pixel byte — is left untouched.

Both the pseudonym and the replacement id are keyed hashes of the original
patient id under the site secret, so re-ingesting the same source file on
the same site is a pure no-op, while nobody without the secret can link the
pseudonym back.  The original-id mapping goes into a site-local
:class:`PseudonymTable` that is never serialized onto the wire.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

from gridbox import applog
from gridbox.errors import MalformedFile
from gridbox.ids import GlobalId, IdMinter, looks_like_global_id
from gridbox.mgi import MgiFile

_PSEUDONYM_RE = re.compile(r"ANON-[0-9a-f]{12}")
_YEAR_RE = re.compile(r"\d{4}")
_DATE_RE = re.compile(r"(\d{4})-\d{2}-\d{2}")


def is_anonymized(f: MgiFile) -> bool:
    """True when the identifying header fields are already in the
    post-anonymization shape (so a second pass has nothing to do)."""
    name = f.get("patient.name", "")
    pid = f.get("patient.id", "")
    birth = f.get("patient.birth_date", "")
    return (bool(_PSEUDONYM_RE.fullmatch(name))
            and looks_like_global_id(pid) and GlobalId.parse(pid).kind == "patient"
            and bool(_YEAR_RE.fullmatch(birth)))


def birth_year_of(birth_date: str) -> str:
    if _YEAR_RE.fullmatch(birth_date):
        return birth_date
    m = _DATE_RE.fullmatch(birth_date)
    if not m:
        raise MalformedFile(f"unusable patient.birth_date {birth_date!r}")
    return m.group(1)


def anonymize(f: MgiFile, pseudonym: str, new_id: GlobalId,
              table: "PseudonymTable | None" = None) -> MgiFile:
    """Apply the transform; applying it to an already-anonymized file
    returns the input unchanged."""
    if is_anonymized(f):
        return f
    if not pseudonym:
        raise ValueError("pseudonym must be non-empty")
    for key in ("patient.name", "patient.id", "patient.birth_date"):
        if key not in f.header:
            raise MalformedFile(f"cannot anonymize without {key}")
    original_id = f.header["patient.id"]
    header = {}
    for key, value in f.header.items():
        if key == "patient.name":
            value = pseudonym
        elif key == "patient.id":
            value = str(new_id)
        elif key == "patient.birth_date":
            value = birth_year_of(value)
        header[key] = value
    if table is not None:
        table.record(original_id, new_id, pseudonym)
    return MgiFile(header, f.pixels)


def anonymize_for_site(f: MgiFile, minter: IdMinter,
                       table: "PseudonymTable | None" = None) -> MgiFile:
    """Anonymize keyed on the original patient id under the site secret."""
    if is_anonymized(f):
        return f
    original_id = f.get("patient.id")
    if not original_id:
        raise MalformedFile("cannot anonymize without patient.id")
    return anonymize(f, minter.pseudonym(original_id),
                     minter.mint_keyed("patient", original_id), table)


def _parse_entry(line: str) -> tuple[str, tuple[str, str]]:
    d = json.loads(line)
    return d["original"], (d["id"], d["pseudonym"])


class PseudonymTable:
    """Site-local original-id → (global id, pseudonym) map.

    Kept out of every wire message by construction: nothing in the package
    serializes this table except its own on-disk log, one JSON object per
    line (see :mod:`gridbox.applog`).
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._entries = dict(applog.replay(self._path, _parse_entry))
        self._lock = threading.Lock()

    def record(self, original_id: str, new_id: GlobalId, pseudonym: str) -> None:
        with self._lock:
            entry = (str(new_id), pseudonym)
            if self._entries.get(original_id) == entry:
                return
            self._entries[original_id] = entry
            applog.append(self._path, [json.dumps(
                {"original": original_id, "id": entry[0], "pseudonym": entry[1]})])

    def lookup(self, original_id: str) -> tuple[str, str] | None:
        with self._lock:
            return self._entries.get(original_id)

    def __len__(self) -> int:
        return len(self._entries)
