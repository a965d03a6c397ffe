import gc
import json
import re
import secrets as pysecrets
import socket
import struct
import sys
import threading
import time
import weakref
from hashlib import sha256
from types import SimpleNamespace

import pytest

from conftest import (CREDENTIAL, USER, build_vo, make_image, make_image_bytes,
                      refuse_to_parse)
from gridbox import algorithms as alg
from gridbox import applog, blobstore, wire
from gridbox import client as client_module
from gridbox import node as node_module
from gridbox import resultset as resultset_module
from gridbox.anonymize import anonymize_for_site
from gridbox.catalog import SiteCatalog
from gridbox.cohort import spec_for_site, upload_site
from gridbox.errors import (
    AlgorithmSyntaxError,
    AnswerTooLarge,
    AuthFailed,
    CorruptBlob,
    NodeStopped,
    NotFound,
    PeerUnreachable,
    QuerySyntaxError,
    SchemaViolation,
    UnknownAlgorithm,
)
from gridbox.client import NodeClient, assemble
from gridbox.mgi import parse_mgi, write_mgi
from gridbox.query import parse_query
from gridbox.records import AlgorithmRecord, DerivedRecord
from gridbox.node import (
    GridNode,
    mint_token,
    peer_signature,
    sign_token,
    verify_token,
)
from gridbox.registry import RegistryClient
from gridbox.resultset import ResultSet
from gridbox.wire import recv_frame, request, send_frame

KEY = b"\x11" * 32


# --- session tokens ----------------------------------------------------------------

def test_token_roundtrip():
    token = mint_token(KEY, "alice", ttl=3600)
    assert verify_token(KEY, token) == "alice"


def test_token_expiry():
    token = mint_token(KEY, "alice", ttl=10, now=1000)
    assert verify_token(KEY, token, now=1010) == "alice"
    with pytest.raises(AuthFailed, match="expired"):
        verify_token(KEY, token, now=1011)


def test_token_wrong_key():
    token = mint_token(KEY, "alice", ttl=3600)
    with pytest.raises(AuthFailed, match="forged"):
        verify_token(b"\x22" * 32, token)


@pytest.mark.parametrize("mangle", [
    lambda t: "",
    lambda t: t + "x",
    lambda t: t.replace("alice", "mallory"),
    lambda t: "justonefield",
    lambda t: ":".join(["alice", "soon", "10", "aa", "bb"]),
])
def test_token_tampering(mangle):
    token = mint_token(KEY, "alice", ttl=3600)
    with pytest.raises(AuthFailed):
        verify_token(KEY, mangle(token))


def test_token_fields_are_bound_by_signature():
    sig = sign_token(KEY, "alice", 1000, 10, "aa")
    forged = f"alice:1000:999999:aa:{sig}"  # stretch the ttl
    with pytest.raises(AuthFailed):
        verify_token(KEY, forged, now=2000)


def test_peer_signature_binds_site_op_and_request():
    base = peer_signature(KEY, "CAM", "RQUERY", "r1")
    assert base != peer_signature(KEY, "UDI", "RQUERY", "r1")
    assert base != peer_signature(KEY, "CAM", "PEER_FETCH", "r1")
    assert base != peer_signature(KEY, "CAM", "RQUERY", "r2")


# --- AUTH over the wire ------------------------------------------------------------

def test_auth_rejects_bad_credentials(session_vo):
    client = NodeClient(session_vo.nodes["CAM"].address)
    with pytest.raises(AuthFailed):
        client.auth(USER, "not-the-password")
    with pytest.raises(AuthFailed):
        client.auth("nobody", CREDENTIAL)


def test_ops_refuse_missing_or_garbage_tokens(session_vo):
    address = session_vo.nodes["CAM"].address
    for token in ("", "garbage", mint_token(b"wrong" * 8, USER, 3600)):
        response, _ = request(address, "QUERY",
                              {"text": "select images where true"}, token=token)
        assert response["status"] == "error"
        assert response["error_code"] == "AuthFailed"


def test_auth_mints_an_hour_long_token(session_vo):
    response, _ = request(session_vo.nodes["CAM"].address, "AUTH",
                          {"user": USER, "credential": CREDENTIAL})
    assert response["result"]["ttl"] == node_module.TOKEN_TTL_S == 3600
    assert response["result"]["token"].split(":")[2] == "3600"


def test_a_token_signature_that_is_not_ascii_is_auth_failed(session_vo):
    """Before, `hmac.compare_digest` raised TypeError on it: Internal."""
    response, _ = request(session_vo.nodes["CAM"].address, "QUERY",
                          {"text": "select images where true"},
                          token=f"{USER}:1000:3600:aa:\u00e9")
    assert response["error_code"] == "AuthFailed"


# --- who may call each op ----------------------------------------------------------

# op -> its outcome with no credentials, a user token, a peer signature, both,
# and a user token with a forged peer signature: the error code, or the keys
# of the answer, which tell the user and the peer ADD_ALG and EXEC_ALG apart
CALLER_ROLES = {
    "AUTH": ("token,ttl,user",) * 5,
    "ADD": ("AuthFailed", "changed,file,image", "AuthFailed", "changed,file,image",
            "changed,file,image"),
    "RETRIEVE": ("AuthFailed", "sha256,size", "AuthFailed", "sha256,size", "sha256,size"),
    "QUERY": ("AuthFailed", "fields,ids,query,relay,site", "AuthFailed",
              "fields,ids,query,relay,site", "fields,ids,query,relay,site"),
    "ADD_ALG": ("AuthFailed", "id,version", "registered", "registered", "AuthFailed"),
    "EXEC_ALG": ("AuthFailed", "per_site,written", "written", "written", "AuthFailed"),
    "RQUERY": ("AuthFailed", "AuthFailed", "fields,ids,query", "fields,ids,query",
               "AuthFailed"),
    "PEER_FETCH": ("AuthFailed", "AuthFailed", "sha256,size", "sha256,size", "AuthFailed"),
    "STATS": ("AuthFailed", "algorithms,catalog,membership,site,traffic", "AuthFailed",
              "algorithms,catalog,membership,site,traffic",
              "algorithms,catalog,membership,site,traffic"),
}


def test_each_op_answers_the_callers_of_its_role(make_vo):
    """User ops want a token, peer ops a peer signature; ADD_ALG and EXEC_ALG
    take either, and a peer signature, good or forged, selects peer mode."""
    vo = make_vo()
    vo.client("CAM").add_bytes(make_image_bytes())
    cam = vo.nodes["CAM"]
    [image_id] = cam.catalog.select(parse_query("select images where true")).ids
    params = {
        "AUTH": {"user": USER, "credential": CREDENTIAL},
        "ADD": {}, "RETRIEVE": {"id": image_id}, "STATS": {},
        "QUERY": {"text": "select images where true"},
        "ADD_ALG": {"name": "nodemean", "source": "mean emit nm", "algorithm": ALGORITHM},
        "EXEC_ALG": {"name": "smf-density", "selector": "select images where true",
                     "algorithm": ALGORITHM, "hop": 1},
        "RQUERY": {"text": "select images where true", "hop": 1},
        "PEER_FETCH": {"id": image_id},
    }

    def outcome(op, token, sig):
        req_id = pysecrets.token_hex(8)
        signed = dict(params[op])
        if sig is not None:
            signed.update(peer_site="UDI",
                          peer_sig=sig or peer_signature(cam.vo_key, "UDI", op, req_id))
        response, _ = request(cam.address, op, signed, req_id=req_id,
                              token=vo.client("CAM").token if token else "",
                              binary=make_image_bytes() if op == "ADD" else b"")
        return response["error_code"] or ",".join(sorted(response["result"]))

    got = {op: tuple(outcome(op, token, sig) for token, sig in
                     [(False, None), (True, None), (False, ""), (True, ""),
                      (True, "00" * 32)])
           for op in CALLER_ROLES}
    assert got == CALLER_ROLES


# --- ADD ---------------------------------------------------------------------------

def test_add_ingests_and_is_idempotent(make_vo):
    vo = make_vo(sites=("CAM",))
    client = vo.client("CAM")
    first = client.add_bytes(make_image_bytes())
    assert first["changed"] == {"patient": 1, "study": 1, "series": 1, "image": 1}
    again = client.add_bytes(make_image_bytes())
    assert again["image"] == first["image"]
    assert again["changed"] == {"patient": 0, "study": 0, "series": 0, "image": 0}
    node = vo.nodes["CAM"]
    stored = node.blobs.get(first["file"]["sha256"])
    assert parse_mgi(stored).get("patient.name").startswith("ANON-")


def test_node_anonymizes_raw_uploads_as_a_guard(make_vo):
    vo = make_vo(sites=("CAM",))
    raw = make_image_bytes()  # patient.id is still "P-1001"
    response, _ = request(vo.nodes["CAM"].address, "ADD", {},
                          token=vo.client("CAM").token, binary=raw)
    assert response["status"] == "ok"
    stored = vo.nodes["CAM"].blobs.get(response["result"]["file"]["sha256"])
    header = parse_mgi(stored)
    assert header.get("patient.name").startswith("ANON-")
    assert header.get("patient.birth_date") == "1950"
    # the guard minted the same id the site key would have
    assert header.get("patient.id") == str(
        vo.nodes["CAM"].minter.mint_keyed("patient", "P-1001"))


def test_add_refuses_files_for_another_site(make_vo):
    vo = make_vo()
    minted_for_cam = write_mgi(anonymize_for_site(
        make_image(), vo.nodes["CAM"].minter))
    response, _ = request(vo.nodes["UDI"].address, "ADD", {},
                          token=vo.client("UDI").token, binary=minted_for_cam)
    assert response["error_code"] == "ForeignSite"


def test_add_checks_declared_site(make_vo):
    vo = make_vo(sites=("CAM",))
    data = make_image_bytes(site_id="UDI")
    response, _ = request(vo.nodes["CAM"].address, "ADD", {},
                          token=vo.client("CAM").token, binary=data)
    assert response["error_code"] == "MalformedFile"
    assert "addressed to site UDI" in response["result"]["message"]


@pytest.mark.parametrize("binary", [b"", b"not an MGI file",
                                    b"MGIMG 1\nimage.rows = 8\n"])
def test_add_rejects_garbage(make_vo, binary):
    vo = make_vo(sites=("CAM",))
    response, _ = request(vo.nodes["CAM"].address, "ADD", {},
                          token=vo.client("CAM").token, binary=binary)
    assert response["error_code"] == "MalformedFile"


def test_failed_add_leaves_no_trace(make_vo):
    vo = make_vo(sites=("CAM",))
    node = vo.nodes["CAM"]
    before = node.catalog.stats()
    raw = make_image_bytes(sex="X")  # invalid sex survives anonymization
    response, _ = request(node.address, "ADD", {},
                          token=vo.client("CAM").token,
                          binary=write_mgi(anonymize_for_site(parse_mgi(raw),
                                                              node.minter)))
    assert response["status"] == "error"
    assert node.catalog.stats() == before


def add_as_sent(node, token, data):
    """``node``'s answer to an ADD of exactly ``data``, sent as it is."""
    response, _ = request(node.address, "ADD", {}, token=token, binary=data)
    return response


def count_calls(monkeypatch, module, name) -> list:
    """The arguments of each call of ``module.name`` from now on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_add_of_an_anonymized_file_stores_the_bytes_sent(make_vo, monkeypatch):
    vo = make_vo(sites=("CAM",))
    node = vo.nodes["CAM"]
    sent = write_mgi(anonymize_for_site(make_image(), node.minter))
    writes = count_calls(monkeypatch, node_module, "write_mgi")
    response = add_as_sent(node, vo.client("CAM").token, sent)
    assert node.blobs.get(response["result"]["file"]["sha256"]) == sent
    assert writes == []  # the node wrote no file of its own


def test_raw_upload_stores_the_anonymized_rewrite(make_vo, monkeypatch):
    vo = make_vo(sites=("CAM",))
    node = vo.nodes["CAM"]
    raw = make_image_bytes()
    writes = count_calls(monkeypatch, node_module, "write_mgi")
    response = add_as_sent(node, vo.client("CAM").token, raw)
    stored = node.blobs.get(response["result"]["file"]["sha256"])
    assert stored == write_mgi(anonymize_for_site(parse_mgi(raw), node.minter))
    assert stored != raw and len(writes) == 1


def test_add_hashes_its_bytes_once(make_vo, monkeypatch):
    vo = make_vo(sites=("CAM",))
    node = vo.nodes["CAM"]
    sent = write_mgi(anonymize_for_site(make_image(), node.minter))
    hashed = []
    real = blobstore.hashlib.sha256
    monkeypatch.setattr(blobstore, "hashlib", SimpleNamespace(
        sha256=lambda data: hashed.append(bytes(data)) or real(data)))
    assert add_as_sent(node, vo.client("CAM").token, sent)["status"] == "ok"
    assert hashed == [sent]


@pytest.mark.parametrize("kw", [{"sex": "X"}, {"site_id": "UDI"}, {"view": "AP"}],
                         ids=["bad-sex", "other-site", "bad-view"])
def test_refused_add_stores_no_blob(make_vo, kw):
    vo = make_vo(sites=("CAM",))
    node = vo.nodes["CAM"]
    sent = write_mgi(anonymize_for_site(make_image(**kw), node.minter))
    assert add_as_sent(node, vo.client("CAM").token, sent)["status"] == "error"
    assert [path for path in node.blobs.root.rglob("*") if path.is_file()] == []


# --- RETRIEVE ----------------------------------------------------------------------

def manifest_image(session_vo, label):
    entry = next(q for q in session_vo.manifest["queries"] if q["label"] == label)
    return entry["rows"][0]


def test_retrieve_local_and_relayed(session_vo):
    gid = manifest_image(session_vo, "by-id-CAM")  # CAM-owned image
    local = session_vo.client("CAM").retrieve(gid)
    relayed = session_vo.client("UDI").retrieve(gid)
    assert local == relayed
    assert parse_mgi(local).get("image.bits") == "16"


def test_retrieve_by_bare_sha_searches_the_vo(session_vo):
    gid = manifest_image(session_vo, "by-id-UDI")
    data = session_vo.client("UDI").retrieve(gid)
    sha = sha256(data).hexdigest()
    assert session_vo.client("CAM").retrieve(sha) == data


def test_retrieve_unknown_ids(session_vo):
    client = session_vo.client("CAM")
    with pytest.raises(NotFound):
        client.retrieve("CAM:image:" + "0" * 32)
    with pytest.raises(NotFound):
        client.retrieve("f" * 64)
    with pytest.raises(NotFound):
        client.retrieve("not-an-identifier")


def test_each_call_waits_its_constant(make_vo, monkeypatch):
    """Peer RQUERY, EXEC_ALG and ADD_ALG wait QUERY_TIMEOUT_S, PEER_FETCH
    RELAY_TIMEOUT_S, the client 30 s but 90 s for RETRIEVE, the registry
    client 5 s.  A node writes every peer request through `start_call`;
    clients and the registry client go through `call`."""
    from gridbox import client as client_module
    from gridbox import registry as registry_module

    vo = make_vo()
    gid = vo.client("UDI").add_bytes(make_image_bytes())["image"]
    waits: dict[str, set] = {}

    def spy(real):
        def call(address, op, params, **kw):
            waits.setdefault(op, set()).add(kw["timeout"])
            return real(address, op, params, **kw)
        return call

    monkeypatch.setattr(node_module, "start_call", spy(node_module.start_call))
    for module in (client_module, registry_module):
        monkeypatch.setattr(module, "call", spy(module.call))
    cam = vo.client("CAM")
    cam.query("select images where true")
    cam.add_algorithm("typed", "mean emit typed")
    cam.exec_algorithm("typed", "select images where true")
    cam.retrieve(gid)
    RegistryClient(vo.registry.address).list_nodes()
    assert waits.pop("NODE_LIST") == {5.0}
    assert waits == {"QUERY": {30.0}, "RQUERY": {10.0}, "ADD_ALG": {30.0, 10.0},
                     "EXEC_ALG": {30.0, 10.0}, "RETRIEVE": {90.0},
                     "PEER_FETCH": {60.0}}


def test_peer_fetch_requires_peer_signature(session_vo):
    gid = manifest_image(session_vo, "by-id-CAM")
    response, _ = request(session_vo.nodes["CAM"].address, "PEER_FETCH",
                          {"id": gid}, token=session_vo.client("CAM").token)
    assert response["error_code"] == "AuthFailed"


# --- QUERY / RQUERY ----------------------------------------------------------------

def test_query_is_vantage_independent(session_vo):
    for entry in session_vo.manifest["queries"]:
        xml_cam, _ = session_vo.client("CAM").query_xml(entry["text"])
        xml_udi, _ = session_vo.client("UDI").query_xml(entry["text"])
        assert xml_cam == xml_udi
        rs = ResultSet.from_xml(xml_cam)
        assert sorted(r.id for r in rs.rows) == entry["rows"]


def test_query_reports_no_warnings_when_all_sites_answer(session_vo):
    _, warnings = session_vo.client("CAM").query("select images where true")
    assert warnings == []


def test_every_frame_is_the_standard_librarys_json(session_vo):
    """Over the manifest battery at every origin, every frame sent is its
    length, the bytes ``json.dumps`` writes for its envelope, then its
    binary section."""
    ops, wrong = [], []

    def check(frame):
        (length,) = struct.unpack(">I", frame[:4])
        envelope, binary = json.loads(frame[4:4 + length]), frame[4 + length:]
        payload = json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()
        ops.append(envelope.get("op", "answer"))
        if (frame != struct.pack(">I", len(payload)) + payload + binary
                or envelope["binary_len"] != len(binary)):
            wrong.append(frame[:4 + length])

    wire.add_capture_tap(check)
    try:
        for site in session_vo.nodes:
            for entry in session_vo.manifest["queries"]:
                session_vo.client(site).query_xml(entry["text"])
    finally:
        wire.remove_capture_tap(check)
    assert wrong == []
    assert {"QUERY", "RQUERY", "answer"} <= set(ops)


def rquery_envelope(node, text, hop, site=None, sig=None):
    req_id = pysecrets.token_hex(8)
    site = site or node.site
    params = {"text": text, "hop": hop, "peer_site": site,
              "peer_sig": sig or peer_signature(node.vo_key, site, "RQUERY", req_id)}
    return {"id": req_id, "op": "RQUERY", "token": "", "params": params}


def exchange(address, envelope):
    with socket.create_connection(address, timeout=5) as sock:
        send_frame(sock, envelope)
        response, _, _ = recv_frame(sock)
    return response


@pytest.mark.parametrize("hop", [2, True, 1.0, "1", None])
def test_rquery_rejects_multi_hop(session_vo, hop):
    """Only the JSON integer 1 is one hop; ``!= 1`` let true and 1.0 through."""
    cam = session_vo.nodes["CAM"]
    envelope = rquery_envelope(cam, "select images where true", hop=hop)
    response = exchange(cam.address, envelope)
    assert response["error_code"] == "HopViolation"


def test_rquery_rejects_bad_signature(session_vo):
    cam = session_vo.nodes["CAM"]
    envelope = rquery_envelope(cam, "select images where true", hop=1,
                               sig="00" * 32)
    response = exchange(cam.address, envelope)
    assert response["error_code"] == "AuthFailed"


def test_rquery_rejects_a_signature_that_is_not_ascii(session_vo):
    cam = session_vo.nodes["CAM"]
    envelope = rquery_envelope(cam, "select images where true", hop=1, sig="\u00e9")
    response = exchange(cam.address, envelope)
    assert response["error_code"] == "AuthFailed"


def test_rquery_rejects_unregistered_sites(session_vo):
    cam = session_vo.nodes["CAM"]
    envelope = rquery_envelope(cam, "select images where true", hop=1, site="ZZZ")
    response = exchange(cam.address, envelope)
    assert response["error_code"] == "UnknownPeer"


def test_rquery_answers_with_local_rows_only(session_vo):
    cam = session_vo.nodes["CAM"]
    envelope = rquery_envelope(cam, "select images where true", hop=1, site="UDI")
    result = exchange(cam.address, envelope)["result"]
    assert result["query"] == "select images where true"
    assert all(row_id.startswith("CAM:") for row_id in result["ids"])
    assert list(result["fields"]) == ["patient.id"]
    assert len(result["fields"]["patient.id"]) == len(result["ids"])


def test_rquery_at_hop1_answers_locally_and_never_fans_out(make_vo):
    vo = make_vo(sites=("CAM", "UDI", "LEE"))
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    cam = vo.nodes["CAM"]
    envelope = rquery_envelope(cam, "select images where true", hop=1, site="UDI")
    ids = exchange(cam.address, envelope)["result"]["ids"]
    assert len(ids) == 1 and ids[0].startswith("CAM:")
    assert [site for site, node in vo.nodes.items()
            if "RQUERY" in node.accountant.snapshot()] == ["CAM"]


# A tamper rewrites an honest RQUERY answer to ``select images where true``
# from a site holding two images: ids plus the one column, patient.id.

def reorder_rows(answer, order):
    """The answer's rows at the positions ``order`` names, in that order."""
    return dict(answer, ids=[answer["ids"][i] for i in order],
                fields={name: [column[i] for i in order]
                        for name, column in answer["fields"].items()})


def append_a_row(answer, row_id, patient_id):
    return dict(answer, ids=answer["ids"] + [row_id],
                fields={"patient.id": answer["fields"]["patient.id"] + [patient_id]})


def forge_a_row(answer):
    return append_a_row(answer, "LEE:image:" + "a" * 32, "LEE:patient:" + "b" * 32)


def answer_another_query(answer):
    return dict(answer, query="select images where false")


def add_an_unprojected_field(answer):
    return dict(answer, fields=dict(answer["fields"],
                                    **{"patient.name": ["ANON-1"] * len(answer["ids"])}))


def add_a_study_row(answer):
    return append_a_row(answer, "UDI:study:" + "c" * 32, "UDI:patient:" + "d" * 32)


def repeat_a_row(answer):
    return reorder_rows(answer, [0, 0, 1])


def swap_the_rows(answer):
    return reorder_rows(answer, [1, 0])


def shorten_a_column(answer):
    return dict(answer, fields={"patient.id": answer["fields"]["patient.id"][:1]})


def put_a_number_in_a_column(answer):
    return dict(answer, fields={"patient.id": [answer["fields"]["patient.id"][0], 7]})


def drop_the_projected_column(answer):
    return dict(answer, fields={})


def send_ids_as_an_object(answer):
    return dict(answer, ids=dict.fromkeys(answer["ids"]))


def send_fields_as_pairs(answer):
    return dict(answer, fields=list(answer["fields"].items()))


def relay_a_site_that_is_not_a_site_code(answer):
    return dict(answer, relay=[[site.lower(), *rest] for site, *rest in answer["relay"]])


def send_the_relay_as_an_object(answer):
    return dict(answer, relay={site: rest for site, *rest in answer["relay"]})


# texts that XML rejects, or normalises where they stand

def end_the_last_text_with(answer, char):
    column = answer["fields"]["patient.id"]
    return dict(answer, fields={"patient.id": column[:-1] + [column[-1] + char]})


def put_a_control_character_in_a_text(answer):
    return end_the_last_text_with(answer, "\x01")


def put_a_carriage_return_in_a_text(answer):
    return end_the_last_text_with(answer, "\r")


def put_a_noncharacter_in_a_text(answer):
    return end_the_last_text_with(answer, "\ufffe")


def put_a_lone_surrogate_in_a_text(answer):
    return end_the_last_text_with(answer, "\ud800")


def put_a_tab_in_an_id(answer):
    return dict(answer, ids=answer["ids"][:-1] + [answer["ids"][-1] + "\t"])


UNCARRIED = [put_a_control_character_in_a_text, put_a_carriage_return_in_a_text,
             put_a_noncharacter_in_a_text, put_a_lone_surrogate_in_a_text,
             put_a_tab_in_an_id]


@pytest.mark.parametrize("tamper", [forge_a_row, answer_another_query,
                                    add_an_unprojected_field, add_a_study_row,
                                    repeat_a_row, swap_the_rows, shorten_a_column,
                                    put_a_number_in_a_column, drop_the_projected_column,
                                    send_ids_as_an_object, send_fields_as_pairs,
                                    *UNCARRIED])
def test_bad_peer_part_is_dropped_with_a_warning(make_vo, tamper):
    vo = make_vo()
    vo.client("CAM").add_bytes(make_image_bytes())
    for image_id in ("IMG1", "IMG2"):
        vo.client("UDI").add_bytes(make_image_bytes(image_id=image_id))
    udi = vo.nodes["UDI"]
    _, honest = udi._ops["RQUERY"]

    def tampered(params, binary):
        answer, warnings, data = honest(params, binary)
        return tamper(answer), warnings, data

    udi._ops["RQUERY"] = (None, tampered)
    result, warnings = vo.client("CAM").query("select images where true")
    assert [r.id.split(":")[0] for r in result.rows] == ["CAM"]
    assert result.origin_sites == frozenset({"CAM"})
    assert len(warnings) == 1 and warnings[0].startswith("UDI refused: SchemaViolation:")


@pytest.mark.parametrize("answer", [
    lambda params: {},
    lambda params: {"query": params["text"], "ids": "x", "fields": {}},
], ids=["empty", "ids-not-a-list"])
def test_malformed_peer_query_answer_is_dropped_with_a_warning(make_vo, answer):
    vo = make_vo()
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    vo.nodes["UDI"]._ops["RQUERY"] = (None,
                                      lambda params, binary: (answer(params), [], b""))
    result, warnings = vo.client("CAM").query("select images where true")
    assert [r.id.split(":")[0] for r in result.rows] == ["CAM"]
    assert len(warnings) == 1 and warnings[0].startswith("UDI refused: SchemaViolation:")


@pytest.mark.parametrize("mangle", [
    lambda r: {k: v for k, v in r.items() if k != "result"},
    lambda r: dict(r, status="error", error_code="NotFound", result=["no"]),
    lambda r: dict(r, warnings=5),
], ids=["ok-without-result", "error-result-a-list", "warnings-a-number"])
def test_a_malformed_peer_envelope_is_one_unreachable_warning(make_vo, mangle):
    vo = make_vo()
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    server = vo.nodes["UDI"]._server
    serve = server.handler

    def mangled(envelope, binary):
        response, data = serve(envelope, binary)
        return (mangle(response) if envelope.get("op") == "RQUERY" else response), data

    server.handler = mangled
    result, warnings = vo.client("CAM").query("select images where true")
    assert [r.id.split(":")[0] for r in result.rows] == ["CAM"]
    assert len(warnings) == 1 and warnings[0].startswith("UDI unreachable: RQUERY to ")


def test_a_peer_reply_nested_too_deep_is_one_unreachable_warning(make_vo, monkeypatch):
    vo = make_vo()
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    server = vo.nodes["UDI"]._server
    serve, frame = server.handler, wire._frame
    too_deep = {}  # stands for the reply; framed as 100k nested arrays

    def answer(envelope, binary):
        response, data = serve(envelope, binary)
        return (too_deep if envelope.get("op") == "RQUERY" else response), data

    def framed(envelope, binary):
        if envelope is too_deep:
            payload = b"[" * 100_000
            return struct.pack(">I", len(payload)) + payload, len(payload)
        return frame(envelope, binary)

    server.handler = answer
    monkeypatch.setattr(wire, "_frame", framed)
    result, warnings = vo.client("CAM").query("select images where true")
    assert [r.id.split(":")[0] for r in result.rows] == ["CAM"]
    assert len(warnings) == 1 and warnings[0].startswith("UDI unreachable: RQUERY to ")
    assert "bad envelope" in warnings[0]


def test_a_peer_error_is_worded_with_its_code(make_vo):
    vo = make_vo()
    vo.client("CAM").add_bytes(make_image_bytes())

    def refuse(params, binary):
        raise AuthFailed("bad peer signature")

    vo.nodes["UDI"]._ops["RQUERY"] = (None, refuse)
    result, warnings = vo.client("CAM").query("select images where true")
    assert [r.id.split(":")[0] for r in result.rows] == ["CAM"]
    assert warnings == ["UDI refused: AuthFailed: bad peer signature"]


def assert_the_client_refuses(vo, capfd):
    """CAM's client raises SchemaViolation from both of its query calls, and
    nothing prints a traceback."""
    client = vo.client("CAM")
    with pytest.raises(SchemaViolation):
        client.query_xml("select images where true")
    with pytest.raises(SchemaViolation):
        client.query("select images where true")
    assert "Traceback" not in capfd.readouterr().err


def vo_with_two_cam_images(make_vo):
    vo = make_vo()
    for image_id in ("IMG1", "IMG2"):
        vo.client("CAM").add_bytes(make_image_bytes(image_id=image_id))
    return vo


@pytest.mark.parametrize("tamper", [forge_a_row, answer_another_query,
                                    add_an_unprojected_field, add_a_study_row,
                                    repeat_a_row, swap_the_rows, shorten_a_column,
                                    put_a_number_in_a_column, drop_the_projected_column,
                                    send_ids_as_an_object, send_fields_as_pairs,
                                    relay_a_site_that_is_not_a_site_code,
                                    send_the_relay_as_an_object, *UNCARRIED])
def test_the_client_refuses_a_tampered_query_answer(make_vo, capfd, tamper):
    """The RQUERY tampers, applied to CAM's own part of two images in its
    QUERY answer, and two to the list of the sites whose answers it relays.
    A text that XML cannot carry is refused, so query_xml never renders
    bytes that are not well-formed."""
    vo = vo_with_two_cam_images(make_vo)
    cam = vo.nodes["CAM"]
    honest, _ = cam._ops["QUERY"]

    def tampered(params, binary):
        answer, warnings, data = honest(params, binary)
        return tamper(answer), warnings, data

    cam._ops["QUERY"] = (tampered, None)
    assert_the_client_refuses(vo, capfd)


def test_the_client_refuses_the_answer_to_another_query(make_vo, capfd):
    vo = vo_with_two_cam_images(make_vo)
    cam = vo.nodes["CAM"]
    honest, _ = cam._ops["QUERY"]
    cam._ops["QUERY"] = (lambda params, binary: honest(
        dict(params, text="select images where image.laterality = L"), binary), None)
    assert_the_client_refuses(vo, capfd)


def test_a_query_answer_renders_the_origins_bytes(session_vo):
    """The client renders the XML from the columns it receives, and it is the
    document the origin's own merged answer renders, at every origin."""
    for site, node in session_vo.nodes.items():
        for entry in session_vo.manifest["queries"]:
            xml, _ = session_vo.client(site).query_xml(entry["text"])
            assert xml == assemble(entry["text"], *node.run_query(entry["text"]))[0].to_xml()


def recording_client(base: NodeClient):
    """A client with ``base``'s address and token, and the list of the
    (text, bytes) of each of its query_xml calls."""
    seen = []

    class Recording(NodeClient):
        def query_xml(self, text):
            xml, warnings = super().query_xml(text)
            seen.append((text, xml))
            return xml, warnings

    return Recording(base.address, token=base.token), seen


def test_query_goes_through_query_xml(session_vo):
    """A subclass that overrides query_xml sees every query call, which is
    how a caller can keep the bytes of each answer."""
    client, seen = recording_client(session_vo.client("CAM"))
    texts = [entry["text"] for entry in session_vo.manifest["queries"]]
    for text in texts:
        result, _ = client.query(text)
        assert result.to_xml() == seen[-1][1]
    assert [text for text, _ in seen] == texts


# projects derived.nm, which no image of the session's cohort holds
NO_ROW_HOLDS = "select images where patient.sex = F or derived.nm >= 0"


def test_query_returns_the_answer_it_rendered_without_a_parse(session_vo, monkeypatch):
    """At every origin, query() answers each text of the battery with the
    result set its query_xml bytes mean, and does so without parsing them."""
    texts = [entry["text"] for entry in session_vo.manifest["queries"]] + [NO_ROW_HOLDS]
    clients = {}
    for site in session_vo.nodes:
        clients[site], seen = recording_client(session_vo.client(site))
        got = [clients[site].query(text)[0] for text in texts]
        assert got == [ResultSet.from_xml(xml) for _, xml in seen]
        # the null column the XML leaves out, which equality ignores
        assert got[-1].part.fields["derived.nm"] == [None] * len(got[-1].part)
        assert "derived.nm" not in ResultSet.from_xml(seen[-1][1]).part.fields
    refuse_to_parse(monkeypatch)
    for client in clients.values():
        for text in texts:
            client.query(text)


def test_query_of_a_derived_field_some_rows_lack(seeded_vo, monkeypatch):
    client = seeded_vo.client("CAM")
    client.add_algorithm("nodemean", "mean emit nm")
    client.exec_algorithm("nodemean", "select images where image.laterality = L")
    text = "select images where derived.nm >= 0 or image.laterality = R"
    answers = {}
    for site in seeded_vo.nodes:
        recording, seen = recording_client(seeded_vo.client(site))
        answers[site], _ = recording.query(text)
        assert answers[site] == ResultSet.from_xml(seen[-1][1])
        column = answers[site].part.fields["derived.nm"]
        assert column.count(None) == 2 and len(column) == 5  # the R images
    refuse_to_parse(monkeypatch)
    assert seeded_vo.client("UDI").query(text)[0] == answers["UDI"]


def test_query_parses_bytes_that_query_xml_did_not_render(session_vo):
    """An override that returns the bytes of another answer, or a copy of
    the bytes rendered, gets the parse of what it returned."""
    texts = [entry["text"] for entry in session_vo.manifest["queries"]]
    other = "select images where patient.sex = F"

    class Other(NodeClient):
        def query_xml(self, text):
            xml, _ = super().query_xml(other)
            _, warnings = super().query_xml(text)  # rendered last, so kept
            return xml, warnings

    class Copy(NodeClient):
        def query_xml(self, text):
            xml, warnings = super().query_xml(text)
            return bytes(bytearray(xml)), warnings

    base = session_vo.client("CAM")
    want, _ = base.query(other)
    for text in texts:
        assert Other(base.address, token=base.token).query(text)[0] == want
        got, _ = Copy(base.address, token=base.token).query(text)
        assert got == base.query(text)[0] and got.query_text == text
    assert want != base.query(texts[0])[0]


def test_threads_sharing_a_client_each_get_their_own_answers(session_vo):
    """More threads than cores share one client, each asking its own text,
    with frequent switches between them: every answer is its own text's."""
    client = session_vo.client("UDI")
    want = {entry["text"]: ResultSet.from_xml(client.query_xml(entry["text"])[0])
            for entry in session_vo.manifest["queries"]}
    got = {text: [] for text in want}

    def ask(text):
        for _ in range(50):
            got[text].append(client.query(text)[0])

    threads = [threading.Thread(target=ask, args=(text,)) for text in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for text, answers in got.items():
        assert len(answers) == 50 and all(rs == want[text] for rs in answers)


def test_the_client_keeps_no_answer_after_query(session_vo):
    rs, _ = session_vo.client("CAM").query("select images where true")
    assert len(rs.part) > 0
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


def test_dead_site_becomes_a_warning(make_vo):
    vo = make_vo()
    vo.client("CAM").add_bytes(make_image_bytes())
    cam = vo.client("CAM")
    vo.stop_node("UDI")
    result, warnings = cam.query("select images where true")
    assert len(result.rows) == 1
    assert len(warnings) == 1
    assert warnings[0].startswith("UDI unreachable:")


BROAD = "select images where patient.sex = F"  # every image make_image_bytes makes


def dials_to(monkeypatch, address) -> list:
    """The connections any thread opens to ``address`` from now on."""
    seen = []
    real = socket.create_connection

    def counting(to, *args, **kwargs):
        if tuple(to) == tuple(address):
            seen.append(tuple(to))
        return real(to, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return seen


def upload_images(client, n: int) -> None:
    for i in range(n):
        client.add_bytes(make_image_bytes(image_id=f"IMG{i}", patient_id=f"P-{i}"))


def test_a_query_answer_too_large_for_a_frame_is_answer_too_large(make_vo, monkeypatch):
    """12 rows of XML pass 1 kB; the connection that carried the refusal
    answers the next query."""
    vo = make_vo()
    upload_images(vo.client("CAM"), 12)
    cam = vo.client("CAM")
    cam.query(BROAD)  # the client's connection to CAM is now pooled
    dials = dials_to(monkeypatch, vo.nodes["CAM"].address)
    limit = wire.MAX_ENVELOPE
    monkeypatch.setattr(wire, "MAX_ENVELOPE", 1024)
    with pytest.raises(AnswerTooLarge, match=r"QUERY answer: envelope too large \(\d+ bytes\)"):
        cam.query(BROAD)
    monkeypatch.setattr(wire, "MAX_ENVELOPE", limit)
    result, warnings = cam.query(BROAD)
    assert len(result.rows) == 12 and warnings == []
    assert dials == []


def test_a_peer_answer_too_large_is_not_called_unreachable(make_vo, monkeypatch):
    """CAM's RQUERY part of 12 rows passes 1 kB while UDI's own answer,
    without it, fits: UDI answers with a warning that says why CAM is
    missing, and its pooled connection to CAM answers the next RQUERY."""
    vo = make_vo()
    upload_images(vo.client("CAM"), 12)
    udi = vo.client("UDI")
    udi.query(BROAD)  # UDI's connection to CAM is now pooled
    dials = dials_to(monkeypatch, vo.nodes["CAM"].address)
    limit = wire.MAX_ENVELOPE
    monkeypatch.setattr(wire, "MAX_ENVELOPE", 1024)
    result, warnings = udi.query(BROAD)
    assert len(result.rows) == 0
    assert len(warnings) == 1
    assert warnings[0].startswith("CAM answer too large: RQUERY answer: envelope too large (")
    monkeypatch.setattr(wire, "MAX_ENVELOPE", limit)
    result, warnings = udi.query(BROAD)
    assert len(result.rows) == 12 and warnings == []
    assert dials == []


def test_each_part_needs_only_a_frame_of_its_own(make_vo, monkeypatch):
    """CAM's and UDI's parts of 6 rows each fit in 1 kB, and the merged
    answer of 12 rows would not: UDI relays CAM's part, and the client gets
    every row with no warning."""
    vo = make_vo()
    for site in vo.nodes:
        upload_images(vo.client(site), 6)
    udi = vo.client("UDI")
    whole, _ = udi.query(BROAD)
    merged = {"query": BROAD, "ids": whole.part.ids, "fields": whole.part.fields}
    monkeypatch.setattr(wire, "MAX_ENVELOPE", 1024)
    assert len(wire.encode_envelope(merged)) > wire.MAX_ENVELOPE
    result, warnings = udi.query(BROAD)
    assert result == whole and len(result.rows) == 12
    assert warnings == []


def test_the_origin_decodes_checks_and_merges_no_peer_answer(make_vo, monkeypatch):
    """During a QUERY at CAM, the thread that serves it decodes only the
    request, and runs no checked_part or merge: the client decodes and
    checks each of the three sites' parts, and merges them."""
    vo = make_vo(sites=("CAM", "LEE", "UDI"))
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    client = vo.client("CAM")
    calls = []

    def spy(name, fn):
        def spying(*args, **kwargs):
            calls.append((name, threading.current_thread().name, args[0]))
            return fn(*args, **kwargs)
        return spying

    monkeypatch.setattr(json, "loads", spy("loads", json.loads))
    for module in (resultset_module, client_module):
        for name in ("checked_part", "merge"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    result, warnings = client.query("select images where true")
    assert len(result.rows) == 3 and warnings == []
    origin = f"conn-{vo.nodes['CAM'].address[1]}"
    at_origin = [(name, arg) for name, thread, arg in calls if thread == origin]
    assert [name for name, _ in at_origin] == ["loads"]
    assert '"op":"QUERY"' in at_origin[0][1]
    here = threading.current_thread().name
    assert sorted(name for name, thread, _ in calls if thread == here) == [
        "checked_part"] * 3 + ["loads"] * 3 + ["merge"]


def test_the_origin_relays_each_peer_answer_byte_for_byte(make_vo):
    """Each RQUERY answer frame a peer sends, CAM sends again after its
    QUERY answer, unchanged."""
    vo = make_vo(sites=("CAM", "LEE", "UDI"))
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    client = vo.client("CAM")
    sent = []
    wire.add_capture_tap(sent.append)
    try:
        client.query("select images where true")
    finally:
        wire.remove_capture_tap(sent.append)
    parts = [frame for frame in sent if b'"ids":' in frame and b'"relay":' not in frame]
    assert len(parts) == 4 and len(set(parts)) == 2
    assert all(parts.count(frame) == 2 for frame in parts)


# A relay tamper rewrites CAM's QUERY answer and the frames it relays, of
# UDI's one image, and names the warning the client gives for UDI.

def relay_undecodable_json(answer, frames):
    return answer, [struct.pack(">I", 8) + b"not json"]


def relay_nesting_too_deep(answer, frames):
    return answer, [struct.pack(">I", 100_000) + b"[" * 100_000]


def relay_another_request_id(answer, frames):
    return dict(answer, relay=[[site, address, "0" * 16]
                               for site, address, _ in answer["relay"]]), frames


def relay_a_binary_len(answer, frames):
    payload = wire.encode_envelope(dict(json.loads(frames[0][4:]), binary_len=5))
    return answer, [struct.pack(">I", len(payload)) + payload]


def relay_a_site_twice(answer, frames):
    return dict(answer, relay=answer["relay"] * 2), frames * 2


def relay_fewer_frames_than_listed(answer, frames):
    return answer, frames[:-1]


AT = r"RQUERY to [\d.]+:\d+: "  # the text that names where the origin sent RQUERY
# each relay tamper -> the pattern of the one warning it costs
RELAY_FAULTS = {
    relay_undecodable_json: "UDI unreachable: " + AT + "bad envelope: ",
    relay_nesting_too_deep: "UDI unreachable: " + AT + "bad envelope: ",
    relay_another_request_id: "UDI unreachable: " + AT + "response id does not match request id$",
    relay_a_binary_len: "UDI unreachable: " + AT + "a relayed answer has binary_len 5, not 0$",
    relay_a_site_twice: "UDI refused: SchemaViolation: the answer names UDI twice$",
    relay_fewer_frames_than_listed: "UDI unreachable: " + AT + "the origin relayed no answer$",
}


@pytest.mark.parametrize("tamper", list(RELAY_FAULTS))
def test_a_bad_relayed_frame_is_one_warning(make_vo, monkeypatch, capfd, tamper):
    """The client keeps CAM's own part and any part that checks out, words
    the fault as the origin would, prints no traceback, and pools its
    connection to CAM, since it read every frame CAM announced."""
    vo = make_vo()
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    cam = vo.nodes["CAM"]
    honest, _ = cam._ops["QUERY"]

    def tampered(params, binary):
        answer, warnings, frames = honest(params, binary)
        answer, frames = tamper(answer, frames)
        return answer, warnings, frames

    cam._ops["QUERY"] = (tampered, None)
    client = vo.client("CAM")
    dials = dials_to(monkeypatch, cam.address)
    for _ in range(2):
        result, warnings = client.query("select images where true")
        expected_rows = ["CAM", "UDI"] if tamper is relay_a_site_twice else ["CAM"]
        assert [r.id.split(":")[0] for r in result.rows] == expected_rows
        assert len(warnings) == 1 and re.match(RELAY_FAULTS[tamper], warnings[0]), warnings
    assert dials == []
    assert "Traceback" not in capfd.readouterr().err


def threads_of(vo):
    """A test for the threads of ``vo``: those of its servers and their
    connections, and its nodes' pollers; a node has no others, since it
    scatters on the thread that serves the request.  Threads of other VOs
    alive in the process, such as the session VO's, fail it."""
    ports = [vo.registry.address[1], *(node.address[1] for node in vo.nodes.values())]
    names = {f"{role}-{port}" for port in ports for role in ("server", "conn")}
    pollers = {node._poller for node in vo.nodes.values()}
    return lambda thread: thread.name in names or thread in pollers


def test_stopped_vos_leave_no_threads(tmp_path):
    """Connection threads and pollers end with the VO."""
    owned = []
    for n in range(3):
        vo = build_vo(tmp_path / f"vo{n}")
        owned.append(threads_of(vo))
        try:
            vo.client("CAM").add_bytes(make_image_bytes())
            result, warnings = vo.client("UDI").query("select images where true")
            assert len(result.rows) == 1 and warnings == []
        finally:
            vo.stop()

    def left():
        return [t.name for t in threading.enumerate() if any(ours(t) for ours in owned)]

    deadline = time.monotonic() + 5
    while left() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert left() == []


def test_stopped_node_refuses_to_fan_out_with_a_typed_error(make_vo, monkeypatch, capsys):
    """Once `stop` has run, a QUERY or EXEC_ALG at the node raises
    NodeStopped before any peer request is written."""
    vo = make_vo()
    node, token = vo.nodes["CAM"], vo.client("CAM").token
    sent = []
    monkeypatch.setattr(GridNode, "_peer_send", lambda self, *args: sent.append(args))
    node.stop()
    with pytest.raises(NodeStopped):
        node.run_query("select images where true")
    for op, params in (("QUERY", {"text": "select images where true"}),
                       ("EXEC_ALG", {"name": "smf-density",
                                     "selector": "select images where true"})):
        envelope = {"id": "q1", "op": op, "token": token, "params": params}
        response, _ = node._handle(envelope, b"")
        assert response["error_code"] == "NodeStopped"
    assert sent == []
    assert "Traceback" not in capsys.readouterr().err


def test_a_scatter_starts_no_thread(make_vo, monkeypatch):
    """The origin sends, runs its local part and reads the answers on the
    thread that serves the request: no thread is started from there."""
    vo = make_vo(sites=("CAM", "LEE", "UDI"))
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    serving = f"conn-{vo.nodes['CAM'].address[1]}"
    starters, start = [], threading.Thread.start

    def recording_start(thread):
        starters.append(threading.current_thread().name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    result, warnings = vo.client("CAM").query("select images where true")
    got, exec_warnings = vo.client("CAM").exec_algorithm("smf-density",
                                                         "select images where true")
    assert len(result.rows) == 3 and warnings == []
    assert got["per_site"] == {"CAM": 1, "LEE": 1, "UDI": 1} and exec_warnings == []
    assert serving not in starters


def spy_on_the_scatter(monkeypatch) -> list:
    """Record, in order, each scatter request a node has written, as
    ``("sent", node, op, site)``, and each start of a node's local part,
    as ``("local", node)``."""
    events = []
    send, local_query, local_exec = (GridNode._peer_send, GridNode._local_resultset,
                                     GridNode._execute_local)

    def recording_send(self, site, op, extra, *args):
        exchange = send(self, site, op, extra, *args)
        if op in ("RQUERY", "EXEC_ALG"):
            events.append(("sent", self.site, op, site))
        return exchange

    def recording_local_query(self, q):
        events.append(("local", self.site))
        return local_query(self, q)

    def recording_local_exec(self, record, q):
        events.append(("local", self.site))
        return local_exec(self, record, q)

    monkeypatch.setattr(GridNode, "_peer_send", recording_send)
    monkeypatch.setattr(GridNode, "_local_resultset", recording_local_query)
    monkeypatch.setattr(GridNode, "_execute_local", recording_local_exec)
    return events


@pytest.mark.parametrize("op", ["RQUERY", "EXEC_ALG"])
def test_every_peer_request_is_written_before_the_local_part_starts(make_vo, monkeypatch,
                                                                   op):
    """Before, the origin ran its local part to the end and only then sent
    the peers their requests, so its own work never overlapped theirs."""
    vo = make_vo(sites=("CAM", "LEE", "UDI"))
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    events = spy_on_the_scatter(monkeypatch)
    client = vo.client("CAM")
    if op == "RQUERY":
        result, warnings = client.query("select images where true")
        assert len(result.rows) == 3
    else:
        got, warnings = client.exec_algorithm("smf-density", "select images where true")
        assert got["per_site"] == {"CAM": 1, "LEE": 1, "UDI": 1}
    assert warnings == []
    assert [event for event in events if event[1] == "CAM"] == [
        ("sent", "CAM", op, "LEE"), ("sent", "CAM", op, "UDI"), ("local", "CAM")]


def hang(node, op: str, release: threading.Event) -> None:
    """Make ``node``'s peer handler for ``op`` wait for ``release``."""
    user, peer = node._ops[op]

    def hung(params, binary):
        release.wait(30)
        return peer(params, binary)

    node._ops[op] = (user, hung)


@pytest.fixture
def release():
    """An event the hung handlers wait for; set at teardown, so that their
    threads end."""
    event = threading.Event()
    yield event
    event.set()


TIMEOUT_S = 1.0  # QUERY_TIMEOUT_S in the hung-peer tests
LARGE_PART_ROWS = 40_000  # ~4 MB of RQUERY answer


def answer_a_large_part(node) -> None:
    """Make ``node`` answer RQUERY ``select images where true`` with a
    well-formed part of LARGE_PART_ROWS rows."""
    user, peer = node._ops["RQUERY"]
    ids = [f"{node.site}:image:{n:032x}" for n in range(LARGE_PART_ROWS)]
    patients = [f"{node.site}:patient:{n:032x}" for n in range(LARGE_PART_ROWS)]

    def large(params, binary):
        answer, warnings, data = peer(params, binary)
        return dict(answer, ids=ids, fields={"patient.id": patients}), warnings, data

    node._ops["RQUERY"] = (user, large)


def test_a_hung_peer_costs_one_timeout_and_a_large_answer_still_arrives(
        make_vo, monkeypatch, release):
    """LEE's RQUERY handler hangs past QUERY_TIMEOUT_S while UDI answers a
    large part: CAM reads UDI's part in full as soon as it arrives, not
    after LEE's wait, and reports LEE unreachable, about one timeout after
    it sent."""
    monkeypatch.setattr(node_module, "QUERY_TIMEOUT_S", TIMEOUT_S)
    vo = make_vo(sites=("CAM", "LEE", "UDI"))
    vo.client("CAM").add_bytes(make_image_bytes())
    hang(vo.nodes["LEE"], "RQUERY", release)
    answer_a_large_part(vo.nodes["UDI"])
    reads, read = [], GridNode._remote_query

    def timed_read(node, site, *args):
        try:
            return read(node, site, *args)
        finally:
            reads.append((site, time.monotonic() - started))

    monkeypatch.setattr(GridNode, "_remote_query", timed_read)
    started = time.monotonic()
    result, warnings = vo.client("CAM").query("select images where true")
    elapsed = time.monotonic() - started
    assert [site for site, _ in reads] == ["UDI", "LEE"]
    assert reads[0][1] < 0.5 * TIMEOUT_S
    assert len(result.rows) == 1 + LARGE_PART_ROWS
    assert result.origin_sites == frozenset({"CAM", "UDI"})
    assert len(warnings) == 1
    assert warnings[0].startswith("LEE unreachable: RQUERY to ")
    assert warnings[0].endswith(": timed out")
    assert TIMEOUT_S <= elapsed < 1.8 * TIMEOUT_S


def test_a_hung_peer_exec_costs_one_timeout(make_vo, monkeypatch, release):
    monkeypatch.setattr(node_module, "QUERY_TIMEOUT_S", TIMEOUT_S)
    vo = make_vo(sites=("CAM", "LEE", "UDI"))
    for site in vo.nodes:
        vo.client(site).add_bytes(make_image_bytes())
    hang(vo.nodes["LEE"], "EXEC_ALG", release)
    started = time.monotonic()
    got, warnings = vo.client("CAM").exec_algorithm("smf-density",
                                                    "select images where true")
    elapsed = time.monotonic() - started
    assert got["per_site"] == {"CAM": 1, "UDI": 1}
    assert len(warnings) == 1
    assert warnings[0].startswith("LEE unreachable: EXEC_ALG to ")
    assert TIMEOUT_S <= elapsed < 1.8 * TIMEOUT_S


def test_two_hung_peers_cost_one_timeout_together(make_vo, monkeypatch, release):
    """QUERY_TIMEOUT_S is one wait for all the peers of a scatter, not one
    wait per peer in turn."""
    monkeypatch.setattr(node_module, "QUERY_TIMEOUT_S", TIMEOUT_S)
    vo = make_vo(sites=("CAM", "LEE", "NOR", "UDI"))
    vo.client("UDI").add_bytes(make_image_bytes())
    for site in ("LEE", "NOR"):
        hang(vo.nodes[site], "RQUERY", release)
    started = time.monotonic()
    result, warnings = vo.client("CAM").query("select images where true")
    elapsed = time.monotonic() - started
    assert [r.id.split(":")[0] for r in result.rows] == ["UDI"]
    assert [w.split(" ", 2)[:2] for w in warnings] == [["LEE", "unreachable:"],
                                                       ["NOR", "unreachable:"]]
    assert TIMEOUT_S <= elapsed < 1.8 * TIMEOUT_S


@pytest.mark.parametrize("op", [["QUERY"], {"op": "QUERY"}], ids=["list", "object"])
def test_an_op_that_is_not_a_known_name_is_a_protocol_error(session_vo, op):
    """Before, an op that is a JSON list or object raised out of the node's
    handler, and the connection closed without an answer."""
    response, _ = request(session_vo.nodes["CAM"].address, op, {},
                          token=session_vo.client("CAM").token)
    assert response["error_code"] == "ProtocolError"


@pytest.mark.parametrize("params", [[1], "x", 5], ids=["list", "string", "number"])
@pytest.mark.parametrize("op", ["QUERY", "AUTH", "NODE_LIST", "USER_ADD"])
def test_params_that_are_not_an_object_are_a_protocol_error(session_vo, capsys, op, params):
    vo = session_vo
    to_registry = op in ("NODE_LIST", "USER_ADD")
    address = vo.registry_address if to_registry else vo.nodes["CAM"].address
    response, _ = request(address, op, params, token=vo.client("CAM").token)
    assert response["status"] == "error"
    assert response["error_code"] == "ProtocolError"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"user": "alice", "credential": None},
                                    {"user": 5, "credential": "pw"}],
                         ids=["null-credential", "number-user"])
def test_auth_refuses_a_user_or_credential_that_is_not_a_string(session_vo, params):
    response, _ = request(session_vo.nodes["CAM"].address, "AUTH", params)
    assert response["error_code"] == "ProtocolError"


TEXT_PARAMS = {
    "QUERY": {"text": "select images where true"},
    "RQUERY": {"text": "select images where true", "hop": 1},
    "ADD_ALG": {"name": "typed", "source": "mean emit typed"},
    "EXEC_ALG": {"name": "smf-density", "selector": "select images where true"},
    "RETRIEVE": {"id": "f" * 64},
    "PEER_FETCH": {"id": "f" * 64},
}


@pytest.mark.parametrize("value", [None, 12345, ["hidden"]], ids=["null", "number", "list"])
@pytest.mark.parametrize("op,name", [
    ("QUERY", "text"), ("RQUERY", "text"), ("ADD_ALG", "name"), ("ADD_ALG", "source"),
    ("EXEC_ALG", "name"), ("EXEC_ALG", "selector"), ("RETRIEVE", "id"),
    ("PEER_FETCH", "id"), ("RQUERY", "peer_site"), ("RQUERY", "peer_sig"),
])
def test_node_text_params_that_are_not_strings_are_a_protocol_error(session_vo, op, name,
                                                                   value):
    """Before, ``str()`` coerced them: a null query text was the query "None"."""
    node = session_vo.nodes["CAM"]
    req_id, token, params = pysecrets.token_hex(8), session_vo.client("CAM").token, {}
    if op in ("RQUERY", "PEER_FETCH"):
        token, params = "", {"peer_site": "UDI",
                             "peer_sig": peer_signature(node.vo_key, "UDI", op, req_id)}
    params.update(TEXT_PARAMS[op])
    params[name] = value
    response = exchange(node.address, {"id": req_id, "op": op, "token": token,
                                       "params": params})
    assert response["error_code"] == "ProtocolError"
    assert response["result"]["message"] == (
        f"{name} must be a string, not {type(value).__name__}")


# --- ADD_ALG -----------------------------------------------------------------------

def test_algorithm_registration_and_gossip(make_vo):
    vo = make_vo()
    got, warnings = vo.client("CAM").add_algorithm("nodemean", "mean emit nm")
    assert got["version"] == 1
    assert warnings == []
    # synchronously gossiped to the other site
    assert vo.nodes["UDI"].catalog.algorithm("nodemean").source == "mean emit nm"
    got, _ = vo.client("CAM").add_algorithm("nodemean", "max emit nm")
    assert got["version"] == 2
    assert vo.nodes["UDI"].catalog.algorithm("nodemean").version == 2


def test_failed_gossip_is_queued_and_retried(make_vo, monkeypatch):
    vo = make_vo(sites=("CAM", "UDI", "LEE"), refresh_interval_s=30)
    cam, down = vo.nodes["CAM"], {"UDI"}
    send = cam._send_algorithm

    def send_unless_down(site, record):
        if site in down:
            raise PeerUnreachable(f"{site} is down")
        send(site, record)

    monkeypatch.setattr(cam, "_send_algorithm", send_unless_down)
    _, warnings = vo.client("CAM").add_algorithm("nodemean", "mean emit nm")
    assert len(warnings) == 1 and warnings[0].startswith("UDI not updated")
    assert vo.nodes["LEE"].catalog.algorithm("nodemean") is not None
    assert vo.nodes["UDI"].catalog.algorithm("nodemean") is None

    cam._retry_gossip()  # UDI still down: the record stays queued
    assert list(cam._pending_gossip) == ["UDI"]
    down.clear()
    cam._retry_gossip()
    assert vo.nodes["UDI"].catalog.algorithm("nodemean").source == "mean emit nm"
    assert cam._pending_gossip == {}


def test_gossip_queue_loses_no_record_to_a_concurrent_retry(make_vo, monkeypatch):
    vo = make_vo(sites=("CAM", "UDI"), refresh_interval_s=30)
    cam = vo.nodes["CAM"]
    records = [AlgorithmRecord(cam.minter.mint_keyed("algorithm", f"g:{v}"), "g", v,
                               "mean emit g", "CAM") for v in range(1, 20001)]
    tried, delivered = set(), set()

    def fail_first_send(site, record):
        if record.version not in tried:
            tried.add(record.version)
            raise PeerUnreachable(f"{site} is down")
        delivered.add(record.version)

    monkeypatch.setattr(cam, "_send_algorithm", fail_first_send)
    stop = threading.Event()

    def retry_until_stopped():
        while not stop.is_set():
            cam._retry_gossip()

    def gossip(chunk):
        for record in chunk:
            cam._gossip_algorithm(record)

    retrier = threading.Thread(target=retry_until_stopped)
    handlers = [threading.Thread(target=gossip, args=(records[i::4],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        retrier.start()
        for thread in handlers:
            thread.start()
        for thread in handlers:
            thread.join(timeout=30)
    finally:
        stop.set()
        retrier.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not retrier.is_alive() and not any(t.is_alive() for t in handlers)
    cam._retry_gossip()
    assert delivered == {record.version for record in records}
    assert cam._pending_gossip == {}


def test_algorithm_rejects_bad_source_and_name(session_vo):
    client = session_vo.client("CAM")
    with pytest.raises(AlgorithmSyntaxError):
        client.add_algorithm("bad", "fraction_above\nemit x")
    with pytest.raises(QuerySyntaxError):
        client.add_algorithm("Not-Valid", "mean emit m")


def test_algorithm_name_with_a_trailing_newline_is_refused(session_vo):
    """``re.match`` with ``$`` took "density\\n" for a lowercase identifier."""
    with pytest.raises(QuerySyntaxError):
        session_vo.client("CAM").add_algorithm("density\n", "mean emit m")
    assert "density\n" not in session_vo.nodes["CAM"].catalog.algorithm_versions()


def test_peer_algorithm_conflict(make_vo):
    vo = make_vo()
    vo.client("CAM").add_algorithm("nodemean", "mean emit nm")
    udi = vo.nodes["UDI"]
    req_id = pysecrets.token_hex(8)
    params = {
        "algorithm": {"id": "CAM:algorithm:" + "0" * 32, "name": "nodemean",
                      "version": 1, "source": "max emit nm", "origin_site": "CAM"},
        "peer_site": "CAM", "peer_sig": peer_signature(udi.vo_key, "CAM", "ADD_ALG", req_id),
    }
    response = exchange(udi.address, {"id": req_id, "op": "ADD_ALG",
                                      "token": "", "params": params})
    assert response["error_code"] == "AlgorithmConflict"


# --- EXEC_ALG ----------------------------------------------------------------------

@pytest.fixture
def seeded_vo(make_vo):
    """Two sites, five hand-placed images with known L/R lateralities."""
    vo = make_vo()
    for n, lat in enumerate(["L", "L", "R"]):
        vo.client("CAM").add_bytes(make_image_bytes(
            patient_id=f"P-C{n}", image_id=f"I{n}", laterality=lat))
    for n, lat in enumerate(["L", "R"]):
        vo.client("UDI").add_bytes(make_image_bytes(
            patient_id=f"P-U{n}", image_id=f"I{n}", laterality=lat))
    return vo


def test_exec_alg_fans_out_and_counts(seeded_vo):
    client = seeded_vo.client("CAM")
    client.add_algorithm("nodemean", "mean emit nm")
    got, warnings = client.exec_algorithm(
        "nodemean", "select images where image.laterality = L")
    assert got["written"] == 3
    assert got["per_site"] == {"CAM": 2, "UDI": 1}
    assert warnings == []
    # repeated execution recomputes the same scalars; nothing new is written
    again, _ = client.exec_algorithm(
        "nodemean", "select images where image.laterality = L")
    assert again["written"] == 0
    result, _ = client.query("select images where derived.nm >= 0")
    assert len(result.rows) == 3


def count_appends(monkeypatch) -> list:
    """Record the path of every applog append from now on."""
    paths, real_append = [], applog.append

    def counting_append(path, lines):
        paths.append(path)
        real_append(path, lines)

    monkeypatch.setattr(applog, "append", counting_append)
    return paths


def test_exec_pass_appends_to_each_site_log_once(seeded_vo, monkeypatch):
    logs = sorted(node.config.data_dir / "catalog.log"
                  for node in seeded_vo.nodes.values())
    appends = count_appends(monkeypatch)
    got, _ = seeded_vo.client("CAM").exec_algorithm("smf-density",
                                                    "select images where true")
    assert got["per_site"] == {"CAM": 3, "UDI": 2}
    assert sorted(appends) == logs
    appends.clear()
    again, _ = seeded_vo.client("UDI").exec_algorithm("smf-density",
                                                      "select images where true")
    assert again["written"] == 0 and appends == []  # nothing changed, nothing written


def test_exec_pass_log_bytes_match_upserts_one_by_one(make_vo, tmp_path):
    """A pass's one append writes the bytes that an upsert per image writes."""
    vo = make_vo()
    for site in vo.nodes:
        upload_site(vo.client(site), spec_for_site(site, seed=7, n_patients=3))
    q = parse_query("select images where true")
    reference = {}
    for site, node in vo.nodes.items():
        reference[site] = tmp_path / f"ref-{site}"
        reference[site].mkdir()
        (reference[site] / "catalog.log").write_bytes(
            (node.config.data_dir / "catalog.log").read_bytes())
    got, _ = vo.client("CAM").exec_algorithm("smf-density", "select images where true")
    assert got["written"] > 0 and set(got["per_site"]) == set(vo.nodes)
    program = alg.builtin_density()
    for site, node in vo.nodes.items():
        cat = SiteCatalog(site, reference[site])
        record = cat.algorithm(program.name, program.version)
        for image_id in cat.select(q).ids:
            image = cat.require(image_id)
            cat.upsert(DerivedRecord(
                id=node.minter.mint_keyed(
                    "derived", f"{image.id}|{record.name}|{record.version}"),
                image=image.id, algorithm=record.id,
                scalars=alg.execute_on_image(program, parse_mgi(node.blobs.get(image.file)))))
        assert sha256((node.config.data_dir / "catalog.log").read_bytes()).hexdigest() \
            == sha256((reference[site] / "catalog.log").read_bytes()).hexdigest()


def single_site_with_images(make_vo, n=3):
    """A VO of one site, CAM, holding ``n`` images."""
    vo = make_vo(sites=("CAM",))
    for i in range(n):
        vo.client("CAM").add_bytes(make_image_bytes(patient_id=f"P-C{i}", image_id=f"I{i}"))
    return vo


def test_pass_cut_in_its_last_line_loses_only_that_record(make_vo, capsys):
    node = single_site_with_images(make_vo).nodes["CAM"]
    q = parse_query("select images where true")
    assert node._execute_local(node.catalog.algorithm("smf-density"), q) == 3
    node.stop()
    log = node.config.data_dir / "catalog.log"
    whole = log.read_bytes()
    start = whole.rstrip(b"\n").rfind(b"\n") + 1
    assert whole[start:].startswith(b"UPSERT derived ")
    log.write_bytes(whole[:(start + len(whole)) // 2])

    again = GridNode(node.config)
    try:
        assert "dropped the unfinished last line" in capsys.readouterr().err
        assert again.catalog.stats()["derived"] == 2
        assert again.catalog.audit() == []
        assert again._execute_local(again.catalog.algorithm("smf-density"), q) == 1
        assert log.read_bytes() == whole
    finally:
        again.stop()


def test_an_exec_pass_builds_no_text_column(make_vo):
    """A pass reads only the ids of the images its selector picks; the
    second pass writes nothing, so its select's table is still there."""
    node = single_site_with_images(make_vo).nodes["CAM"]
    q = parse_query("select images where patient.sex = F or study.date > 1900-01-01")
    record = node.catalog.algorithm("smf-density")
    assert [node._execute_local(record, q) for _ in range(2)] == [3, 0]
    assert set(node.catalog._columns.texts) == {"image.id", "patient.id"}


def test_corrupt_blob_keeps_the_records_of_earlier_images(make_vo):
    vo = single_site_with_images(make_vo)
    node = vo.nodes["CAM"]
    cam = node.catalog
    images = [cam.require(image_id)
              for image_id in cam.select(parse_query("select images where true")).ids]
    sha = images[1].file.sha256
    (node.blobs.root / sha[:2] / sha[2:4] / sha).write_bytes(b"not the image")
    with pytest.raises(CorruptBlob):
        vo.client("CAM").exec_algorithm("smf-density", "select images where true")
    reopened = SiteCatalog("CAM", node.config.data_dir)
    for catalog in (cam, reopened):
        assert [len(catalog.derived_for(image.id)) for image in images] == [1, 0, 0]


@pytest.mark.parametrize("answer", [{}, {"written": "many"}], ids=["empty", "text"])
def test_malformed_peer_exec_answer_is_dropped_with_a_warning(seeded_vo, answer):
    udi = seeded_vo.nodes["UDI"]
    user, _ = udi._ops["EXEC_ALG"]
    udi._ops["EXEC_ALG"] = (user, lambda params, binary: (answer, [], b""))
    got, warnings = seeded_vo.client("CAM").exec_algorithm(
        "smf-density", "select images where image.laterality = L")
    assert got == {"written": 2, "per_site": {"CAM": 2}}
    assert len(warnings) == 1 and warnings[0].startswith("UDI refused: SchemaViolation:")


def test_exec_alg_version_pinning(seeded_vo):
    client = seeded_vo.client("CAM")
    client.add_algorithm("nodemean", "mean emit nm")
    client.add_algorithm("nodemean", "max emit nm")
    got, _ = client.exec_algorithm("nodemean", "select images where true",
                                   version=1)
    assert got["written"] == 5
    node = seeded_vo.nodes["CAM"]
    derived = [d for img in node.catalog.images()
               for d in node.catalog.derived_for(img.id)]
    assert {node.catalog.require(d.algorithm).version for d in derived} == {1}


def test_exec_alg_guards(session_vo):
    client = session_vo.client("CAM")
    with pytest.raises(UnknownAlgorithm):
        client.exec_algorithm("no-such-alg", "select images where true")
    with pytest.raises(QuerySyntaxError, match="select images"):
        client.exec_algorithm("smf-density", "select patients where true")


@pytest.mark.parametrize("version", ["abc", [1], 1.9, True],
                         ids=["text", "list", "float", "bool"])
def test_exec_alg_rejects_a_malformed_version(session_vo, version):
    cam = session_vo.nodes["CAM"]
    response, _ = request(cam.address, "EXEC_ALG", {
        "name": "smf-density", "selector": "select images where true",
        "version": version}, token=session_vo.client("CAM").token)
    assert response["error_code"] == "ProtocolError"
    req_id = pysecrets.token_hex(8)
    response = peer_algorithm_request(cam, "EXEC_ALG",
                                      algorithm=dict(ALGORITHM, version=version))
    assert response["error_code"] == "ProtocolError"


ALGORITHM = {"id": "UDI:algorithm:" + "0" * 32, "name": "nodemean", "version": 1,
             "source": "mean emit nm", "origin_site": "UDI"}


def peer_algorithm_request(node, op, **params):
    """``node``'s answer to a peer-mode ``op`` from UDI with ``params``."""
    req_id = pysecrets.token_hex(8)
    if op == "EXEC_ALG":
        params = {"hop": 1, "selector": "select images where true", **params}
    return exchange(node.address, {"id": req_id, "op": op, "token": "", "params": dict(
        params, peer_site="UDI", peer_sig=peer_signature(node.vo_key, "UDI", op, req_id))})


@pytest.mark.parametrize("hop", [2, True, 1.0, "1", None])
def test_peer_exec_alg_rejects_multi_hop(session_vo, hop):
    response = peer_algorithm_request(session_vo.nodes["CAM"], "EXEC_ALG",
                                      algorithm=ALGORITHM, hop=hop)
    assert response["error_code"] == "HopViolation"


@pytest.mark.parametrize("params", [
    {}, {"algorithm": "nodemean"}, {"algorithm": ["UDI:algorithm:" + "0" * 32]},
    {"algorithm": {key: value for key, value in ALGORITHM.items() if key != "source"}},
    {"algorithm": dict(ALGORITHM, id="nodemean")}, {"algorithm": dict(ALGORITHM, id=7)},
    {"algorithm": dict(ALGORITHM, version="abc")}, {"algorithm": dict(ALGORITHM, name=7)},
    {"algorithm": dict(ALGORITHM, source=["mean emit nm"])},
    {"algorithm": dict(ALGORITHM, origin_site=None)},
    {"algorithm": dict(ALGORITHM, version=1.9)}, {"algorithm": dict(ALGORITHM, version=True)},
], ids=["missing", "text", "list", "no-source", "bad-id", "number-id", "text-version",
        "number-name", "list-source", "null-origin", "float-version", "bool-version"])
@pytest.mark.parametrize("op", ["ADD_ALG", "EXEC_ALG"])
def test_peer_algorithm_envelope_is_checked(session_vo, op, params):
    response = peer_algorithm_request(session_vo.nodes["CAM"], op, **params)
    assert response["error_code"] == "ProtocolError"


# --- STATS and membership ----------------------------------------------------------

def test_stats_shape(make_vo):
    vo = make_vo(sites=("CAM",))
    vo.client("CAM").add_bytes(make_image_bytes())
    stats = vo.client("CAM").stats()
    assert stats["site"] == "CAM"
    assert stats["membership"] == ["CAM"]
    assert stats["catalog"]["images"] == 1
    assert stats["algorithms"] == {"smf-density": [1]}
    assert stats["traffic"]["ADD"]["frames"] == 2
    assert stats["traffic"]["ADD"]["binary_bytes"] > 0


def test_stale_membership_survives_registry_outage(make_vo):
    vo = make_vo(sites=("CAM",), refresh_interval_s=30)
    node = vo.nodes["CAM"]
    vo.registry.stop()
    time.sleep(0.1)
    assert node.membership() == {"CAM": node.advertised}
    # and queries still run against the cached membership
    text = "select images where true"
    result, warnings = assemble(text, *node.run_query(text))
    assert warnings == []
    assert result.rows == ()


def test_a_silent_registry_stays_off_the_query_path(make_vo):
    vo = make_vo(refresh_interval_s=30)
    vo.client("UDI").add_bytes(make_image_bytes())
    cam = vo.nodes["CAM"]
    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen(8)  # the kernel accepts connections; nothing ever answers
    try:
        cam.registry = RegistryClient(silent.getsockname())
        cam._membership.fetched_at -= 60  # older than refresh_interval_s
        started = time.monotonic()
        text = "select images where true"
        result, warnings = assemble(text, *cam.run_query(text))
        elapsed = time.monotonic() - started
    finally:
        silent.close()  # ends any registry call still waiting on it
    assert elapsed < 1 and warnings == []
    assert [r.id.split(":")[0] for r in result.rows] == ["UDI"]
