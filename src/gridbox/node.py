"""The per-site grid node.

One :class:`GridNode` per site: it owns the site catalog, the blob store,
the pseudonym table, and a framed-protocol server exposing the six services
(authenticate, add, retrieve, query, add-algorithm, execute-algorithm) plus
the peer-facing ops RQUERY and PEER_FETCH and a STATS introspection op.

Federated queries and algorithm runs follow one scatter-gather pipeline,
on the thread that serves the request: parse, pick the remote sites from
the current VO membership, send each of them its one-hop request, run the
local part while they work, and read each answer as it arrives.  A site
that cannot be reached, or whose answer fails validation, costs a warning
instead of failing the whole request.  A site's part of a query is a
`Part`, its row ids plus one column per projected field; a peer sends it as
such in its RQUERY answer.  The origin does not decode those answers: its
QUERY answer holds its own part in the same form and names the peers it
relays, and their RQUERY answer frames follow it on the wire exactly as
they arrived.  The client checks each part as a whole, merges the parts
column by column and renders the XML (`client.assemble`).  An EXEC_ALG
answer is read and summed at the origin.  Each site writes the derived
records of its part of an algorithm run in one catalog write at the end of
that part, so a concurrent query sees none of them or all of them.  A peer
ADD_ALG or EXEC_ALG carries the algorithm as one ``algorithm`` value, the
record's `AlgorithmRecord.to_json` form.

Session tokens are self-certifying: ``user:issued:ttl:nonce:sig`` signed
with the VO key the registry hands out at node registration, so a token
minted by any node is honored VO-wide and every node can check expiry and
integrity without a session table.  Peer-to-peer requests are authenticated
by an HMAC over (site, op, request id) under the same key.
A handler takes ``(params, binary)`` and never checks its caller: that is
decided once per request, in `GridNode._serve`.
"""

from __future__ import annotations

import hmac
import secrets
import threading
import time
from dataclasses import dataclass
from datetime import date
from functools import partial
from hashlib import sha256

from gridbox import algorithms as alg
from gridbox.anonymize import PseudonymTable, anonymize_for_site, birth_year_of
from gridbox.blobstore import BlobStore
from gridbox.catalog import SiteCatalog
from gridbox.config import NodeConfig, parse_address
from gridbox.errors import (
    AlgorithmConflict,
    AuthFailed,
    ForeignSite,
    GridError,
    HopViolation,
    MalformedFile,
    MgiFormatError,
    NodeStopped,
    NotFound,
    PeerUnreachable,
    ProtocolError,
    QuerySyntaxError,
    RegistryUnreachable,
    SchemaViolation,
    UnknownAlgorithm,
    UnknownPeer,
    site_warning,
)
from gridbox.ids import GlobalId, IdMinter, looks_like_global_id, valid_site_code
from gridbox.mgi import MgiFile, parse_mgi, write_mgi
from gridbox.query import FormalQuery, decompose, parse_query, print_query
from gridbox.records import (
    SEXES,
    AlgorithmRecord,
    DerivedRecord,
    ImageRecord,
    PatientRecord,
    SeriesRecord,
    StudyRecord,
)
from gridbox.registry import RegistryClient
from gridbox.resultset import Part
from gridbox.wire import (
    Exchange,
    FramedServer,
    answer,
    finish_call,
    finish_relay,
    gather,
    host_port,
    same_secret,
    start_call,
    text_param,
)

_SHA_HEX = frozenset("0123456789abcdef")

TOKEN_TTL_S = 3600  # lifetime of the session tokens AUTH mints
# wait for a peer's ADD_ALG answer, and for all RQUERY or EXEC_ALG answers of
# one scatter together (GridNode._scatter)
QUERY_TIMEOUT_S = 10.0
RELAY_TIMEOUT_S = 60.0  # wait for a peer's PEER_FETCH answer, which carries a file
REGISTER_ATTEMPTS = 50  # registrations `start` tries, 0.1 s apart


# --- tokens and peer signatures ----------------------------------------------------

def sign_token(vo_key: bytes, user: str, issued: int, ttl: int, nonce: str) -> str:
    msg = f"token:{user}:{issued}:{ttl}:{nonce}".encode("utf-8")
    return hmac.digest(vo_key, msg, "sha256").hex()


def mint_token(vo_key: bytes, user: str, ttl: int, now: int | None = None) -> str:
    issued = int(time.time()) if now is None else now
    nonce = secrets.token_hex(32)
    return f"{user}:{issued}:{ttl}:{nonce}:{sign_token(vo_key, user, issued, ttl, nonce)}"


def verify_token(vo_key: bytes, token: str, now: float | None = None) -> str:
    """Return the user id carried by a valid token; AuthFailed otherwise."""
    if not token:
        raise AuthFailed("missing session token")
    parts = token.split(":")
    if len(parts) != 5:
        raise AuthFailed("malformed session token")
    user, issued_s, ttl_s, nonce, sig = parts
    try:
        issued, ttl = int(issued_s), int(ttl_s)
    except ValueError:
        raise AuthFailed("malformed session token") from None
    if not same_secret(sig, sign_token(vo_key, user, issued, ttl, nonce)):
        raise AuthFailed("forged or foreign session token")
    if (time.time() if now is None else now) > issued + ttl:
        raise AuthFailed("expired session token")
    return user


def peer_signature(vo_key: bytes, peer_site: str, op: str, req_id: str) -> str:
    msg = f"peer:{peer_site}:{op}:{req_id}".encode("utf-8")
    return hmac.digest(vo_key, msg, "sha256").hex()


def _check_hop(params: dict, what: str) -> None:
    """HopViolation unless ``hop`` is the JSON integer 1, not true or 1.0."""
    hop = params.get("hop")
    if type(hop) is not int or hop != 1:
        raise HopViolation(f"{what} must arrive with hop=1, got {hop!r}")


# --- the node ------------------------------------------------------------------------

@dataclass
class _Membership:
    members: dict  # site -> address string
    fetched_at: float


class GridNode:
    def __init__(self, config: NodeConfig):
        self.config = config
        self.site = config.site
        self.minter = IdMinter(config.site, config.secret)
        config.data_dir.mkdir(parents=True, exist_ok=True)
        self.catalog = SiteCatalog(config.site, config.data_dir)
        self.blobs = BlobStore(config.data_dir, self.minter)
        self.pseudonyms = PseudonymTable(config.data_dir / "pseudonyms.log")
        self.registry = RegistryClient(config.registry)
        self.vo_key: bytes = b""
        self._membership: _Membership | None = None
        # site -> {"name:version": record} to resend; handlers and the poller share it
        self._pending_gossip: dict[str, dict[str, AlgorithmRecord]] = {}
        self._gossip_lock = threading.Lock()
        self._server: FramedServer | None = None
        self._poller = None
        self._stopping = threading.Event()  # set once, by `stop`
        self._identity = self._load_identity()
        self._register_builtin()
        self._ops = {  # op -> (user handler, peer handler); `_serve` picks one
            "AUTH": (self._op_auth, None),
            "ADD": (self._op_add, None),
            "RETRIEVE": (self._op_retrieve, None),
            "QUERY": (self._op_query, None),
            "ADD_ALG": (self._op_add_alg, self._peer_add_alg),
            "EXEC_ALG": (self._op_exec_alg, self._peer_exec_alg),
            "RQUERY": (None, self._peer_rquery),
            "PEER_FETCH": (None, self._peer_fetch),
            "STATS": (self._op_stats, None),
        }

    # --- lifecycle -------------------------------------------------------------

    def _load_identity(self) -> str:
        path = self.config.data_dir / "identity.txt"
        if path.exists():
            return path.read_text().strip()
        identity = secrets.token_hex(16)
        path.write_text(identity + "\n")
        return identity

    def _register_builtin(self) -> None:
        program = alg.builtin_density()
        if self.catalog.algorithm(program.name, program.version) is None:
            rec = AlgorithmRecord(
                id=self.minter.mint_keyed("algorithm",
                                          f"{program.name}:{program.version}"),
                name=program.name, version=program.version,
                source=program.source_text, origin_site=self.site)
            self.catalog.upsert(rec)

    def start(self) -> None:
        host, port = self.config.listen
        self._server = FramedServer(host, port, self._handle)
        self._server.start()
        advertise_host = "127.0.0.1" if host in ("", "0.0.0.0") else host
        self.advertised = f"{advertise_host}:{self._server.address[1]}"
        last: Exception | None = None
        for _ in range(REGISTER_ATTEMPTS):
            try:
                members, vo_key = self.registry.register_node(
                    self.site, self.advertised, self._identity)
                self.vo_key = bytes.fromhex(vo_key)
                self._membership = _Membership(
                    {m["site"]: m["address"] for m in members}, time.time())
                break
            except RegistryUnreachable as e:
                last = e
                time.sleep(0.1)
        else:
            self._server.stop()
            raise RegistryUnreachable(
                f"could not register with {self.config.registry}: {last}")
        self._poller = threading.Thread(target=self._poll_loop,
                                        name=f"poll-{self.site}", daemon=True)
        self._poller.start()

    def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.stop()
        if self._poller is not None:
            self._poller.join(timeout=5)

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("node not started")
        return self._server.address

    @property
    def accountant(self):
        return self._server.accountant

    def _poll_loop(self) -> None:
        while not self._stopping.wait(self.config.refresh_interval_s):
            try:
                self._refresh_membership()
                self._retry_gossip()
            except GridError:
                pass  # registry briefly down; keep serving from cache

    # --- membership ----------------------------------------------------------------

    def _refresh_membership(self) -> None:
        members = self.registry.list_nodes()
        self._membership = _Membership(
            {m["site"]: m["address"] for m in members}, time.time())

    def membership(self, max_age: float | None = None) -> dict:
        """Site → address map from the cache `_poll_loop` refreshes; with
        ``max_age``, refreshed first when older than that.  A stale cache
        beats an unreachable registry."""
        cached = self._membership
        if cached is None or (max_age is not None
                              and time.time() - cached.fetched_at > max_age):
            try:
                self._refresh_membership()
            except RegistryUnreachable:
                if cached is None:
                    raise
        return dict(self._membership.members)

    def _peer_address(self, site: str) -> tuple[str, int]:
        members = self.membership()
        if site not in members:
            members = self.membership(max_age=0)
        if site not in members:
            raise UnknownPeer(f"no registered node for site {site}")
        return parse_address(members[site])

    # --- op plumbing ------------------------------------------------------------------

    def _handle(self, envelope: dict, binary: bytes) -> tuple[dict, bytes]:
        return answer(envelope, binary, self._serve)

    def _serve(self, req_id, op, token, params, binary):
        """Check the caller and run ``op``'s handler: the peer handler, which
        wants a VO member's signature, when the op has no user handler or the
        request carries ``peer_sig``; else the user handler, which wants a
        session token, except for AUTH, which is how a user gets one."""
        if not isinstance(op, str) or op not in self._ops:
            raise ProtocolError(f"unknown op {op!r}")
        user, peer = self._ops[op]
        if op == "AUTH":
            return user(params, binary)
        if not self.vo_key:
            raise AuthFailed("node is not registered with the VO yet")
        if peer is None or (user is not None and "peer_sig" not in params):
            verify_token(self.vo_key, token)
            return user(params, binary)
        site = text_param(params, "peer_site")
        sig = text_param(params, "peer_sig")
        if not valid_site_code(site) or not sig:
            raise AuthFailed("missing peer credentials")
        if not same_secret(sig, peer_signature(self.vo_key, site, op, req_id)):
            raise AuthFailed("bad peer signature")
        self._peer_address(site)  # UnknownPeer unless the site is a VO member
        return peer(params, binary)

    def _peer_send(self, site: str, op: str, extra: dict,
                   timeout: float = QUERY_TIMEOUT_S) -> Exchange:
        """Sign and write one peer request; `_peer_reply` reads its answer.
        PeerUnreachable when it cannot be written."""
        req_id = secrets.token_hex(8)
        params = dict(extra, peer_site=self.site,
                      peer_sig=peer_signature(self.vo_key, self.site, op, req_id))
        return start_call(self._peer_address(site), op, params,
                          unreachable=PeerUnreachable, req_id=req_id, timeout=timeout)

    @staticmethod
    def _peer_reply(exchange: Exchange) -> tuple[dict, bytes]:
        """The result and binary of a peer's answer; PeerUnreachable when it
        cannot be read, and the peer's own error when it answered one."""
        result, _, data = finish_call(exchange, PeerUnreachable)
        return result, data

    def _peer_request(self, site: str, op: str, extra: dict,
                      timeout: float = QUERY_TIMEOUT_S) -> tuple[dict, bytes]:
        return self._peer_reply(self._peer_send(site, op, extra, timeout))

    # --- AUTH ------------------------------------------------------------------------

    def _op_auth(self, params, binary):
        user = text_param(params, "user")
        credential = text_param(params, "credential")
        if not user or ":" in user:
            raise AuthFailed("unsuccessful user authentication")
        if not self.registry.verify_user(user, credential):
            raise AuthFailed("unsuccessful user authentication")
        tok = mint_token(self.vo_key, user, TOKEN_TTL_S)
        return {"token": tok, "user": user, "ttl": TOKEN_TTL_S}, [], b""

    # --- ADD -------------------------------------------------------------------------

    def _op_add(self, params, binary):
        if not binary:
            raise MalformedFile("ADD carries no file bytes")
        try:
            mgi = parse_mgi(binary)
        except MgiFormatError as e:
            raise MalformedFile(f"bad MGI file: {e.message}") from e
        anonymized = anonymize_for_site(mgi, self.minter, self.pseudonyms)
        # parse and write are inverses, so an unchanged file is the bytes sent
        data = binary if anonymized is mgi else write_mgi(anonymized)
        ref = self.blobs.ref_for(data)
        patient, study, series, image = self._records_from_header(anonymized, ref)
        self.blobs.put(data, ref)
        changed = self.catalog.ingest_tree(patient, [study], [series], [image])
        return {"file": ref.to_json(), "image": str(image.id),
                "changed": changed}, [], b""

    def _records_from_header(self, mgi: MgiFile, ref):
        def need(key: str) -> str:
            value = mgi.get(key)
            if not value:
                raise MalformedFile(f"header lacks {key}")
            return value

        declared_site = mgi.get("site.id")
        if declared_site and declared_site != self.site:
            raise MalformedFile(
                f"file is addressed to site {declared_site}, this is {self.site}")
        pid_text = need("patient.id")
        if not looks_like_global_id(pid_text):
            raise MalformedFile(f"patient.id {pid_text!r} is not anonymized")
        pid = GlobalId.parse(pid_text)
        if pid.kind != "patient":
            raise MalformedFile(f"patient.id {pid_text!r} is not a patient id")
        if pid.site != self.site:
            raise ForeignSite(
                f"patient {pid} was anonymized for {pid.site}, not {self.site}")
        sex = need("patient.sex")
        if sex not in SEXES:
            raise MalformedFile(f"patient.sex {sex!r} is not F/M")
        try:
            birth_year = int(birth_year_of(need("patient.birth_date")))
            study_date = date.fromisoformat(need("study.date"))
            rows, cols = int(need("image.rows")), int(need("image.cols"))
        except (ValueError, MgiFormatError) as e:
            raise MalformedFile(f"bad header field: {e}") from e
        dose_text = mgi.get("image.dose_mgy")
        try:
            dose = float(dose_text) if dose_text else None
        except ValueError as e:
            raise MalformedFile(f"bad image.dose_mgy: {e}") from e
        sid, series_id, image_id = need("study.id"), need("series.id"), need("image.id")
        study_gid = self.minter.mint_keyed("study", f"{pid}|{sid}")
        series_gid = self.minter.mint_keyed("series", f"{pid}|{sid}|{series_id}")
        image_gid = self.minter.mint_keyed(
            "image", f"{pid}|{sid}|{series_id}|{image_id}")
        try:
            patient = PatientRecord(pid, need("patient.name"), sex, birth_year)
            study = StudyRecord(study_gid, pid, study_date)
            series = SeriesRecord(series_gid, study_gid,
                                  mgi.get("series.modality") or "MG")
            image = ImageRecord(image_gid, series_gid, need("image.laterality"),
                                need("image.view"), rows, cols, ref, dose)
        except ValueError as e:
            raise MalformedFile(f"bad header field: {e}") from e
        return patient, study, series, image

    # --- RETRIEVE / PEER_FETCH ----------------------------------------------------------

    def _resolve_local_sha(self, ident: str) -> str:
        """Map a local global id or bare digest to a blob digest."""
        if looks_like_global_id(ident):
            gid = GlobalId.parse(ident)
            if gid.kind == "file":
                ref = self.catalog.file_by_id(ident)
                if ref is None:
                    raise NotFound(f"no file record {ident}")
                return ref.sha256
            record = self.catalog.lookup(gid)
            if record is None or getattr(record, "file", None) is None:
                raise NotFound(f"no stored file for {ident}")
            return record.file.sha256
        if len(ident) == 64 and set(ident) <= _SHA_HEX:
            if not self.blobs.has(ident):
                raise NotFound(f"no blob {ident}")
            return ident
        raise NotFound(f"{ident!r} is neither a global id nor a sha256 digest")

    def _op_retrieve(self, params, binary):
        ident = text_param(params, "id")
        warnings: list[str] = []
        if looks_like_global_id(ident):
            gid = GlobalId.parse(ident)
            if gid.site == self.site:
                data = self.blobs.get(self._resolve_local_sha(ident))
            else:
                result, data = self._peer_request(
                    gid.site, "PEER_FETCH", {"id": ident}, RELAY_TIMEOUT_S)
                if not data:
                    raise NotFound(f"{gid.site} returned no bytes for {ident}")
        elif len(ident) == 64 and set(ident) <= _SHA_HEX:
            data = self._fetch_sha_anywhere(ident, warnings)
        else:
            raise NotFound(f"{ident!r} is neither a global id nor a sha256 digest")
        return {"sha256": sha256(data).hexdigest(), "size": len(data)}, warnings, data

    def _fetch_sha_anywhere(self, sha: str, warnings: list[str]) -> bytes:
        if self.blobs.has(sha):
            return self.blobs.get(sha)
        for site in sorted(self.membership()):
            if site == self.site:
                continue
            try:
                _, data = self._peer_request(site, "PEER_FETCH", {"id": sha},
                                             RELAY_TIMEOUT_S)
                if data:
                    return data
            except NotFound:
                continue
            except (PeerUnreachable, GridError) as e:
                warnings.append(f"{site}: {e.message}")
        raise NotFound(f"no VO member stores blob {sha}")

    def _peer_fetch(self, params, binary):
        ident = text_param(params, "id")
        if looks_like_global_id(ident) and GlobalId.parse(ident).site != self.site:
            raise NotFound(f"{ident} is not owned by {self.site}")
        data = self.blobs.get(self._resolve_local_sha(ident))
        return {"sha256": sha256(data).hexdigest(), "size": len(data)}, [], data

    # --- QUERY / RQUERY ------------------------------------------------------------------

    def _local_resultset(self, q: FormalQuery) -> Part:
        """This site's part for ``q``: its row ids, sorted, and one column per
        projected field.  The benchmark's tracer times the local part under
        this method's name."""
        return self.catalog.select(q)

    def _scatter(self, q: FormalQuery, local, op: str, params: dict,
                 remote) -> tuple[dict, list[str]]:
        """The scatter-gather of QUERY and EXEC_ALG, on the calling thread.

        It writes ``op`` with ``params`` to each remote site that `decompose`
        picks from the membership, runs ``local(q)`` while they work, then
        runs ``remote(site, exchange)``, which reads a site's answer, for
        each site as its answer becomes readable.  The
        answers get QUERY_TIMEOUT_S in all, counted from the last send; a
        site still silent then is unreachable, and an answer that has begun
        to arrive gets QUERY_TIMEOUT_S for each read.  The sends go out one
        after another, so a dial that hangs delays the sends after it.

        Returns the answers by site, this one's first and the others in the
        order they were read, and a warning for each site whose send or
        answer raised a GridError, worded by `errors.site_warning`: such as
        a site that could not be reached or timed out, or an EXEC_ALG answer
        that is an error or fails the origin's check.  A relayed RQUERY
        answer is only read here, so its errors are worded at the client.
        Once `stop` has run, it raises NodeStopped and sends nothing."""
        if self._stopping.is_set():
            raise NodeStopped(f"node {self.site} is stopped")
        remotes = decompose(q, sorted(self.membership()), self.site)
        sent, warnings = {}, []
        try:
            for site in remotes:
                try:
                    sent[site] = self._peer_send(site, op, params, QUERY_TIMEOUT_S)
                except GridError as e:
                    warnings.append(site_warning(site, e))
            deadline = time.monotonic() + QUERY_TIMEOUT_S
            answers = {self.site: local(q)}
            for site, exchange in gather(sent, deadline):
                del sent[site]
                try:
                    answers[site] = remote(site, exchange)
                except GridError as e:
                    warnings.append(site_warning(site, e))
        finally:  # after a local part or a check that raised: drop the unread
            for exchange in sent.values():
                exchange.close()
        return answers, sorted(warnings)

    def run_query(self, query_text: str) -> tuple[dict, list[str], list[bytes]]:
        """The federated pipeline at the origin: the QUERY answer, its
        warnings, and the peers' RQUERY answer frames it relays, as they
        arrived.  The answer holds this site's part by column, as a peer's
        RQUERY answer does, and ``site``, this site's code; ``relay`` names,
        as ``[site, "host:port", request id]``, each peer whose frame follows,
        in the order the frames come.  No peer's answer is decoded or
        checked here: the client does both (`client.assemble`)."""
        q = parse_query(query_text)
        canonical = print_query(q)
        answers, warnings = self._scatter(q, self._local_resultset, "RQUERY",
                                          {"text": canonical, "hop": 1}, self._remote_query)
        part = answers.pop(self.site)
        relay = [[site, address, req_id] for site, (address, req_id, _) in answers.items()]
        return ({"query": canonical, "site": self.site, "ids": part.ids,
                 "fields": part.fields, "relay": relay},
                warnings, [frame for _, _, frame in answers.values()])

    def _remote_query(self, site: str, exchange: Exchange) -> tuple[str, str, bytes]:
        """One peer's RQUERY answer as the origin relays it: the peer's
        address, the request's id, and the answer's frame read by its length
        and never decoded (`wire.finish_relay`).  The benchmark's tracer
        times this read under this method's name."""
        return (host_port(exchange.key), exchange.req_id,
                finish_relay(exchange, PeerUnreachable))

    def _op_query(self, params, binary):
        return self.run_query(text_param(params, "text"))

    def _peer_rquery(self, params, binary):
        _check_hop(params, "RQUERY")
        q = parse_query(text_param(params, "text"))
        part = self._local_resultset(q)
        return {"query": print_query(q), "ids": part.ids, "fields": part.fields}, [], b""

    # --- ADD_ALG ----------------------------------------------------------------------

    def _register_algorithm(self, record: AlgorithmRecord) -> bool:
        existing = self.catalog.algorithm(record.name, record.version)
        if existing is not None:
            if existing.source != record.source:
                raise AlgorithmConflict(
                    f"{record.name} v{record.version} already registered "
                    "with different source")
            return False
        return self.catalog.upsert(record)

    def _op_add_alg(self, params, binary):
        name = text_param(params, "name")
        source = text_param(params, "source")
        if not alg.valid_name(name):
            raise QuerySyntaxError(f"algorithm name {name!r} must be a lowercase "
                                   "identifier")
        alg.parse_algorithm(source)  # syntax gate before anything registers
        record = self.catalog.add_algorithm_version(
            name, lambda version: AlgorithmRecord(
                id=self.minter.mint_keyed("algorithm", f"{name}:{version}"),
                name=name, version=version, source=source, origin_site=self.site))
        warnings = self._gossip_algorithm(record)
        return {"id": str(record.id), "version": record.version}, warnings, b""

    def _peer_add_alg(self, params, binary):
        record = self._algorithm_from_params(params)
        return {"registered": self._register_algorithm(record)}, [], b""

    def _algorithm_from_params(self, params: dict) -> AlgorithmRecord:
        """The record a peer sent under ``algorithm``, in its
        `AlgorithmRecord.to_json` form; ProtocolError unless it is one."""
        try:
            record = AlgorithmRecord.from_json(params["algorithm"])
        except (KeyError, TypeError, ValueError) as e:
            raise ProtocolError(f"bad algorithm envelope: {e}") from e
        alg.parse_algorithm(record.source)
        return record

    def _gossip_algorithm(self, record: AlgorithmRecord) -> list[str]:
        warnings = []
        for site in sorted(self.membership()):
            if site == self.site:
                continue
            try:
                self._send_algorithm(site, record)
            except GridError as e:
                warnings.append(f"{site} not updated: {e.message}")
                with self._gossip_lock:
                    self._pending_gossip.setdefault(site, {})[
                        f"{record.name}:{record.version}"] = record
        return warnings

    def _send_algorithm(self, site: str, record: AlgorithmRecord) -> None:
        self._peer_request(site, "ADD_ALG", {"algorithm": record.to_json()})

    def _retry_gossip(self) -> None:
        with self._gossip_lock:  # a copy, so that no send holds the lock
            queued = {site: list(pending.items())
                      for site, pending in self._pending_gossip.items()}
        for site, items in queued.items():
            for key, record in items:
                try:
                    self._send_algorithm(site, record)
                except GridError:
                    break  # site still down; keep the rest queued
                with self._gossip_lock:
                    pending = self._pending_gossip.get(site, {})
                    pending.pop(key, None)
                    if not pending:
                        self._pending_gossip.pop(site, None)

    # --- EXEC_ALG ----------------------------------------------------------------------

    def _selector_query(self, text: str) -> FormalQuery:
        q = parse_query(text)
        if q.target != "images":
            raise QuerySyntaxError("algorithm selectors must select images")
        return q

    def _execute_local(self, record: AlgorithmRecord, q: FormalQuery) -> int:
        """Run ``record`` over this site's images that ``q`` selects; returns
        how many derived records changed.  The pass's records land in one
        catalog write at its end, also when an image fails, so a concurrent
        query sees none of them or all of them."""
        program = alg.parse_algorithm(record.source, record.name,
                                      record.version, record.id)
        derived = []
        try:
            for image_id in self.catalog.select(q, ()).ids:
                image = self.catalog.require(image_id)
                mgi = parse_mgi(self.blobs.get(image.file))
                derived.append(DerivedRecord(
                    id=self.minter.mint_keyed(
                        "derived", f"{image.id}|{record.name}|{record.version}"),
                    image=image.id, algorithm=record.id,
                    scalars=alg.execute_on_image(program, mgi)))
        finally:  # the images done before a failure keep their records
            written = self.catalog.upsert_many(derived)
        return written

    def _op_exec_alg(self, params, binary):
        name, selector = text_param(params, "name"), text_param(params, "selector")
        version = params.get("version")
        if version is not None and type(version) is not int:  # not a bool or float
            raise ProtocolError(f"bad algorithm version {version!r}")
        record = self.catalog.algorithm(name, version)
        if record is None:
            raise UnknownAlgorithm(f"no algorithm {name!r}"
                                   + (f" v{version}" if version is not None else ""))
        q = self._selector_query(selector)
        per_site, warnings = self._scatter(
            q, partial(self._execute_local, record), "EXEC_ALG",
            {"algorithm": record.to_json(), "selector": print_query(q), "hop": 1},
            self._remote_exec)
        return {"written": sum(per_site.values()),
                "per_site": per_site}, warnings, b""

    def _peer_exec_alg(self, params, binary):
        _check_hop(params, "peer EXEC_ALG")
        record = self._algorithm_from_params(params)
        self._register_algorithm(record)
        local_record = self.catalog.algorithm(record.name, record.version)
        q = self._selector_query(text_param(params, "selector"))
        return {"written": self._execute_local(local_record, q)}, [], b""

    def _remote_exec(self, site: str, exchange: Exchange) -> int:
        """How many derived records a peer wrote, read from its EXEC_ALG
        ``exchange``."""
        result, _ = self._peer_reply(exchange)
        written = result.get("written") if isinstance(result, dict) else None
        if type(written) is not int:
            raise SchemaViolation(f"{site} answered EXEC_ALG without an integer "
                                  "written count")
        return written

    # --- STATS -------------------------------------------------------------------------

    def _op_stats(self, params, binary):
        return {
            "site": self.site,
            "catalog": self.catalog.stats(),
            "traffic": self._server.accountant.snapshot() if self._server else {},
            "membership": sorted(self.membership()),
            "algorithms": self.catalog.algorithm_versions(),
        }, [], b""
