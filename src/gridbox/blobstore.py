"""Content-addressed blob store with two-level hash fanout.

Bytes live at ``store/<aa>/<bb>/<sha256>`` under the store root, where
``aa``/``bb`` are the first two hex byte pairs of the digest.  Writes go to
a temp file in the final directory and are renamed into place, so concurrent
writers of the same content are harmless and readers never observe a partial
blob.  A fan-out directory is made on demand, when the temp file cannot be
opened because it is missing.  ``put`` is idempotent: identical bytes yield
an identical :class:`~gridbox.records.FileRef`, including its global id,
which is minted as a keyed hash of the digest.  A caller that already holds
the bytes' ref from ``ref_for`` passes it to ``put``, so the bytes are
hashed once.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from gridbox.errors import CorruptBlob, NotFound, StorageError
from gridbox.ids import IdMinter
from gridbox.records import SHA256_RE, FileRef


class BlobStore:
    def __init__(self, root: str | Path, minter: IdMinter):
        self.root = Path(root) / "store"
        self.minter = minter
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)

    def _path(self, sha256: str) -> str:
        if not SHA256_RE.fullmatch(sha256):
            raise StorageError(f"not a sha256 hex digest: {sha256!r}")
        return f"{self._root}/{sha256[:2]}/{sha256[2:4]}/{sha256}"

    def ref_for(self, data: bytes) -> FileRef:
        sha = hashlib.sha256(data).hexdigest()
        return FileRef(id=self.minter.mint_keyed("file", sha), sha256=sha,
                       size=len(data), owner_site=self.minter.site)

    def put(self, data: bytes, ref: FileRef | None = None) -> FileRef:
        """Store ``data``; ``ref``, when given, is ``ref_for(data)``."""
        if not data:
            raise StorageError("refusing to store an empty blob")
        ref = ref or self.ref_for(data)
        path = self._path(ref.sha256)
        if not os.path.exists(path):
            parent = os.path.dirname(path)
            try:
                fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
            except FileNotFoundError:  # the first blob of this fan-out directory
                os.makedirs(parent, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return ref

    def get(self, ref: FileRef | str) -> bytes:
        sha = ref.sha256 if isinstance(ref, FileRef) else ref
        try:
            with open(self._path(sha), "rb", buffering=0) as fh:
                data = fh.read()
        except FileNotFoundError:
            raise NotFound(f"no blob {sha}") from None
        if hashlib.sha256(data).hexdigest() != sha:
            raise CorruptBlob(f"stored bytes no longer hash to {sha}")
        return data

    def has(self, sha256: str) -> bool:
        return os.path.exists(self._path(sha256))
