"""Site-scoped global identifiers.

Every record and file in the grid is named ``site:kind:hex32``.  The site code
is the short ASCII code of the node that minted the id, the kind names one of
the seven record families, and the local part is 128 bits rendered as 32 hex
characters.

Ids are minted keyed: ``mint_keyed`` derives the local part with an HMAC
over the site secret and a caller key, so re-processing the same source
record yields the same id: uploads stay idempotent, anonymization can run at
the acquisition workstation, and a restart re-derives identical ids without
a shared mutable table.
"""

from __future__ import annotations

import hmac
import re
from dataclasses import dataclass

KINDS = ("patient", "study", "series", "image", "file", "derived", "algorithm")

_SITE_RE = re.compile(r"[A-Z][A-Z0-9]{1,7}")
_HEX32_RE = re.compile(r"[0-9a-f]{32}")
_ID_RE = re.compile(rf"{_SITE_RE.pattern}:(?:{'|'.join(KINDS)}):{_HEX32_RE.pattern}")


def valid_site_code(site: str) -> bool:
    return bool(_SITE_RE.fullmatch(site))


@dataclass(frozen=True, order=True)
class GlobalId:
    site: str
    kind: str
    local: str

    def __post_init__(self):
        try:
            text = ":".join((self.site, self.kind, self.local))
        except TypeError:  # a part that is not text; the checks below say which
            text = ""
        if not _ID_RE.fullmatch(text):
            if not valid_site_code(self.site):
                raise ValueError(f"bad site code {self.site!r}")
            if self.kind not in KINDS:
                raise ValueError(f"bad id kind {self.kind!r}")
            if not _HEX32_RE.fullmatch(self.local):
                raise ValueError(f"bad local part {self.local!r}")
        # rendered once: catalogs key every record by the rendered id
        object.__setattr__(self, "_text", text)

    def __str__(self) -> str:
        return self._text

    @classmethod
    def parse(cls, text: str) -> "GlobalId":
        if not isinstance(text, str):
            raise ValueError(f"not a global id: {text!r}")
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"not a global id: {text!r}")
        return cls(parts[0], parts[1], parts[2])


def looks_like_global_id(text: str) -> bool:
    try:
        GlobalId.parse(text)
        return True
    except ValueError:
        return False


def id_kind(text: str) -> str | None:
    """Kind of a rendered id, or None if the string is not one."""
    try:
        return GlobalId.parse(text).kind
    except ValueError:
        return None


class IdMinter:
    """Mints ids for one site, keyed off the site secret."""

    def __init__(self, site: str, secret: bytes):
        if not valid_site_code(site):
            raise ValueError(f"bad site code {site!r}")
        self.site = site
        self._secret = secret

    def mint_keyed(self, kind: str, key: str) -> GlobalId:
        digest = hmac.digest(self._secret, f"{kind}:{key}".encode(), "sha256")
        return GlobalId(self.site, kind, digest.hex()[:32])

    def pseudonym(self, original_patient_id: str) -> str:
        """Stable opaque replacement for a patient name: ``ANON-<12 hex>``."""
        digest = hmac.digest(self._secret, b"pseudonym:" + original_patient_id.encode(),
                             "sha256")
        return "ANON-" + digest.hex()[:12]
