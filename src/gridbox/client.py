"""Workstation-side client for a grid node.

Wraps the framed protocol in typed calls and raises the same exception
types the node reports as error codes.  When constructed with a
:class:`~gridbox.config.SiteKey`, ``add_bytes`` anonymizes files *before*
they leave the workstation, so identifying fields never cross the wire even
inside ADD requests; nodes re-run the transform as a guard, which is a
no-op on anonymized input.

A node answers QUERY with its own part by column, as a peer answers
RQUERY, plus its site and the list of the peers whose RQUERY answers it
relays: ``{"query", "site", "ids", "fields", "relay"}``.  Those answers
follow on the wire as the peers sent them, undecoded by the node.
``query_xml`` decodes and checks each of them and the node's own part, as
a whole (`wire.read_relayed`, `resultset.checked_part`), words a peer's
failure as the node words the failures it meets (`errors.site_warning`),
merges the parts and renders the canonical XML here (`assemble`), so each
cell is decoded and checked once, and the XML is never escaped into a JSON
envelope.
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
from gridbox.errors import CorruptBlob, GridError, PeerUnreachable, SchemaViolation, site_warning
from gridbox.ids import IdMinter, valid_site_code
from gridbox.mgi import parse_mgi, write_mgi
from gridbox.query import parse_query, print_query
from gridbox.resultset import ResultSet, checked_part, merge
from gridbox.wire import call, read_relayed

CALL_TIMEOUT_S = 30.0  # wait for a node's answer
RETRIEVE_TIMEOUT_S = 90.0  # wait for RETRIEVE, which a node may relay from a peer


def _relay_entry(entry) -> bool:
    """Whether ``entry`` is a ``[site, address, request id]`` of a relay list."""
    return (type(entry) is list and len(entry) == 3 and set(map(type, entry)) == {str}
            and valid_site_code(entry[0]))


def assemble(text: str, result: dict, warnings: list,
             frames: list) -> tuple[ResultSet, list[str]]:
    """The answer to ``text`` and its warnings, from a node's QUERY answer
    ``result``, the node's ``warnings`` and the peers' RQUERY answer
    ``frames`` that it relayed (`GridNode.run_query`).

    The origin's own part is checked by `checked_part` for its ``site``,
    and ``relay`` must be a list of ``[site, address, request id]``; either
    failing is a SchemaViolation.  The k-th site of ``relay`` answered in
    the k-th frame, which is checked as `wire.receive` checks an answer
    (`wire.read_relayed`), then by `checked_part` for that site.  A site
    whose frame fails a check, is missing, or that ``relay`` names a second
    time (the origin's own site included), costs the warning the origin
    gives a peer that fails (`errors.site_warning`); frames past the
    relay's end are dropped.  The checked parts are merged."""
    q = parse_query(text)
    canonical = print_query(q)
    try:
        origin, relay = result["site"], result["relay"]
    except KeyError as e:
        raise SchemaViolation(f"the answer carries no part: {e!r}") from None
    parts = {origin: checked_part(result, q, canonical, origin)}
    if not (type(relay) is list and all(map(_relay_entry, relay))):
        raise SchemaViolation("the answer's relay is not a list of [site, address, id]")
    warnings, named = list(warnings), {origin}
    for k, (site, address, req_id) in enumerate(relay):
        try:
            if site in named:
                raise SchemaViolation(f"the answer names {site} twice")
            named.add(site)
            answer, _, _ = read_relayed(frames[k] if k < len(frames) else None, "RQUERY",
                                        address, req_id, PeerUnreachable)
            parts[site] = checked_part(answer, q, canonical, site)
        except GridError as e:
            warnings.append(site_warning(site, e))
    return merge(canonical, parts), sorted(warnings)


class NodeClient:
    _last_answer: tuple = (None, None)  # query_xml's last (bytes, ResultSet)

    def __init__(self, address: str | tuple[str, int], token: str = "",
                 site_key: SiteKey | None = None):
        self.address = parse_address(address) if isinstance(address, str) else address
        self.token = token
        self.site_key = site_key

    def _call(self, op: str, params: dict, binary: bytes = b"",
              timeout: float = CALL_TIMEOUT_S,
              relayed: list | None = None) -> tuple[dict, list, bytes]:
        return call(self.address, op, params, unreachable=PeerUnreachable,
                    token=self.token, binary=binary, timeout=timeout, relayed=relayed)

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

    def retrieve(self, ident: str) -> bytes:
        result, _, data = self._call("RETRIEVE", {"id": ident},
                                     timeout=RETRIEVE_TIMEOUT_S)
        if sha256(data).hexdigest() != result["sha256"]:
            raise CorruptBlob("retrieved bytes do not match the reported digest")
        return data

    def query_xml(self, text: str) -> tuple[bytes, list]:
        """The answer to ``text`` as canonical XML, rendered here from the
        parts the node sends and relays (`assemble`), and the warnings.
        SchemaViolation when the node's own part or its relay list fails a
        check, such as an answer to another query or a text that XML cannot
        carry; a relayed part that fails costs a warning instead.
        The bytes and the `ResultSet` they render are kept until the next
        query, so that `query` can return it without a parse."""
        frames: list = []
        result, warnings, _ = self._call("QUERY", {"text": text}, relayed=frames)
        rs, warnings = assemble(text, result, warnings, frames)
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
