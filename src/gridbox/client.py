"""Workstation-side client for a grid node.

Wraps the framed protocol in typed calls and raises the same exception
types the node reports as error codes.  When constructed with a
:class:`~gridbox.config.SiteKey`, ``add_bytes`` anonymizes files *before*
they leave the workstation, so identifying fields never cross the wire even
inside ADD requests; nodes re-run the transform as a guard, which is a
no-op on anonymized input.

A node answers QUERY with the merged answer by column, as a peer answers
RQUERY: ``{"query", "origin", "ids", "fields"}``.  ``query_xml`` checks
that answer as a whole (`resultset.checked_part`) and renders the canonical
XML from it here, so the XML is never escaped into the JSON envelope.
``query`` returns the `ResultSet` that ``query_xml`` rendered, without
parsing the bytes back, when ``query_xml`` returned those very bytes.  The
CLI and the scenario runner call ``query`` and render the `ResultSet` it
returns, so ``ResultSet.from_xml`` runs only on bytes that ``query_xml``
did not render.
"""

from __future__ import annotations

from hashlib import sha256
from pathlib import Path

from gridbox.anonymize import anonymize_for_site
from gridbox.config import SiteKey, parse_address
from gridbox.errors import CorruptBlob, PeerUnreachable
from gridbox.ids import IdMinter
from gridbox.mgi import parse_mgi, write_mgi
from gridbox.query import parse_query, print_query
from gridbox.resultset import ResultSet, checked_part
from gridbox.wire import call


class NodeClient:
    _last_answer: tuple = (None, None)  # query_xml's last (bytes, ResultSet)

    def __init__(self, address: str | tuple[str, int], token: str = "",
                 site_key: SiteKey | None = None, timeout: float = 30.0):
        self.address = parse_address(address) if isinstance(address, str) else address
        self.token = token
        self.site_key = site_key
        self.timeout = timeout

    def _call(self, op: str, params: dict, binary: bytes = b"",
              timeout: float | None = None) -> tuple[dict, list, bytes]:
        return call(self.address, op, params, unreachable=PeerUnreachable,
                    token=self.token, binary=binary,
                    timeout=self.timeout if timeout is None else timeout)

    # --- services ---------------------------------------------------------------

    def auth(self, user: str, credential: str) -> str:
        result, _, _ = self._call("AUTH", {"user": user, "credential": credential})
        self.token = result["token"]
        return self.token

    def add_bytes(self, data: bytes) -> dict:
        if self.site_key is not None:
            minter = IdMinter(self.site_key.site, self.site_key.secret)
            data = write_mgi(anonymize_for_site(parse_mgi(data), minter))
        result, _, _ = self._call("ADD", {}, binary=data)
        return result

    def add_file(self, path: str | Path) -> dict:
        return self.add_bytes(Path(path).read_bytes())

    def retrieve(self, ident: str, timeout: float | None = None) -> bytes:
        result, _, data = self._call("RETRIEVE", {"id": ident},
                                     timeout=90.0 if timeout is None else timeout)
        if sha256(data).hexdigest() != result["sha256"]:
            raise CorruptBlob("retrieved bytes do not match the reported digest")
        return data

    def query_xml(self, text: str) -> tuple[bytes, list]:
        """The answer to ``text`` as canonical XML, rendered here from the
        columns the node sends, and the node's warnings.  SchemaViolation
        when the answer fails `checked_part`, such as one to another query
        or one holding a text that XML cannot carry.
        The bytes and the `ResultSet` they render are kept until the next
        query, so that `query` can return it without a parse."""
        result, warnings, _ = self._call("QUERY", {"text": text})
        q = parse_query(text)
        canonical = print_query(q)
        rs = ResultSet(canonical, result["origin"], checked_part(result, q, canonical))
        xml = rs.to_xml()
        self._last_answer = (xml, rs)
        return xml, warnings

    def query(self, text: str) -> tuple[ResultSet, list]:
        """The answer to ``text`` as the `ResultSet` that the bytes of
        ``query_xml`` mean, and the node's warnings.  When those bytes are the
        ones ``query_xml`` rendered, the result set it rendered them from is
        returned; other bytes, as an override or another thread may leave,
        are parsed.  Either way the client keeps no answer afterwards."""
        xml, warnings = self.query_xml(text)
        (rendered, rs), self._last_answer = self._last_answer, (None, None)
        return (rs if xml is rendered else ResultSet.from_xml(xml)), warnings

    def add_algorithm(self, name: str, source: str) -> tuple[dict, list]:
        result, warnings, _ = self._call("ADD_ALG", {"name": name, "source": source})
        return result, warnings

    def exec_algorithm(self, name: str, selector: str,
                       version: int | None = None) -> tuple[dict, list]:
        params = {"name": name, "selector": selector}
        if version is not None:
            params["version"] = version
        result, warnings, _ = self._call("EXEC_ALG", params)
        return result, warnings

    def stats(self) -> dict:
        result, _, _ = self._call("STATS", {})
        return result
