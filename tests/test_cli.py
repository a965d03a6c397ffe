import json
from hashlib import sha256

import pytest

from conftest import CREDENTIAL, USER, make_image_bytes, refuse_to_parse
from gridbox.cli import exit_code_for, main
from gridbox.errors import (
    AuthFailed,
    MalformedFile,
    NotFound,
    PeerUnreachable,
    QuerySyntaxError,
    TypeMismatch,
    UnknownAlgorithm,
)
from gridbox.resultset import ResultSet


def addr(vo, site="CAM"):
    host, port = vo.nodes[site].address
    return f"{host}:{port}"


def creds(vo, site="CAM"):
    return ["--node", addr(vo, site), "--user", USER, "--credential", CREDENTIAL]


def key_file(tmp_path, vo, site="CAM"):
    path = tmp_path / f"{site.lower()}.key"
    path.write_text(f"site = {site}\nsecret = {vo.secrets[site].hex()}\n")
    return str(path)


@pytest.mark.parametrize("error,code", [
    (PeerUnreachable("x"), 3),
    (ConnectionRefusedError(), 3),
    (AuthFailed("x"), 4),
    (QuerySyntaxError("x"), 5),
    (TypeMismatch("x"), 5),
    (NotFound("x"), 6),
    (UnknownAlgorithm("x"), 6),
    (MalformedFile("x"), 7),
    (RuntimeError("x"), 1),
])
def test_exit_codes(error, code):
    assert exit_code_for(error) == code


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_auth_prints_a_usable_token(session_vo, capsys, monkeypatch):
    assert main(["auth", *creds(session_vo)]) == 0
    token = capsys.readouterr().out.strip()
    assert token.count(":") == 4
    monkeypatch.setenv("GRIDBOX_NODE", addr(session_vo))
    monkeypatch.setenv("GRIDBOX_TOKEN", token)
    assert main(["stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["site"] == "CAM"


def test_auth_failure_exits_4(session_vo, capsys):
    code = main(["auth", "--node", addr(session_vo),
                 "--user", USER, "--credential", "wrong"])
    assert code == 4
    assert "error [AuthFailed]" in capsys.readouterr().err


def test_missing_node_address_is_an_auth_error(capsys, monkeypatch):
    monkeypatch.delenv("GRIDBOX_NODE", raising=False)
    monkeypatch.delenv("GRIDBOX_TOKEN", raising=False)
    assert main(["stats"]) == 4


def test_unreachable_node_exits_3(capsys):
    code = main(["auth", "--node", "127.0.0.1:1", "--user", USER,
                 "--credential", CREDENTIAL])
    assert code == 3


def test_add_then_retrieve_roundtrip(make_vo, tmp_path, capsys):
    vo = make_vo(sites=("CAM",))
    raw = make_image_bytes()
    src = tmp_path / "img.mgi"
    src.write_bytes(raw)
    code = main(["add", *creds(vo), "--secret-file", key_file(tmp_path, vo),
                 str(src)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("added CAM:image:")
    image_id = line.split()[1]

    out = tmp_path / "back.mgi"
    assert main(["retrieve", *creds(vo), image_id, "--out", str(out)]) == 0
    data = out.read_bytes()
    # what came back is the anonymized form of what we sent
    assert b"Canary" not in data
    assert sha256(data).hexdigest() in line


def test_query_prints_xml_and_summary(session_vo, tmp_path, capsys):
    out = tmp_path / "result.xml"
    code = main(["query", *creds(session_vo),
                 "select images where patient.sex = F", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    rs = ResultSet.from_xml(out.read_bytes())
    images, patients = rs.summary
    assert printed == f"images={images} patients={patients}"
    entry = next(q for q in session_vo.manifest["queries"]
                 if q["label"] == "all-female")
    assert images == entry["images"]


def test_query_parses_no_xml_it_rendered(session_vo, tmp_path, capsys, monkeypatch):
    """The --out file holds the bytes query_xml renders, and the summary
    line is the one they declare, with no parse of them."""
    text = "select images where patient.sex = F"
    want, _ = session_vo.client("CAM").query_xml(text)
    images, patients = ResultSet.from_xml(want).summary
    refuse_to_parse(monkeypatch)
    out = tmp_path / "result.xml"
    assert main(["query", *creds(session_vo), text, "--out", str(out)]) == 0
    assert out.read_bytes() == want
    assert capsys.readouterr().out.strip() == f"images={images} patients={patients}"


def test_query_syntax_error_exits_5(session_vo, capsys):
    assert main(["query", *creds(session_vo), "select images wheere x"]) == 5
    assert "error [QuerySyntax]" in capsys.readouterr().err


def test_retrieve_unknown_id_exits_6(session_vo, capsys):
    assert main(["retrieve", *creds(session_vo), "CAM:image:" + "0" * 32]) == 6


def test_add_alg_from_stdin_and_exec(make_vo, tmp_path, capsys, monkeypatch):
    vo = make_vo(sites=("CAM",))
    src = tmp_path / "img.mgi"
    src.write_bytes(make_image_bytes())
    main(["add", *creds(vo), "--secret-file", key_file(tmp_path, vo), str(src)])
    capsys.readouterr()

    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("mean emit m\n"))
    assert main(["add-alg", *creds(vo), "climean", "-"]) == 0
    assert "registered climean v1" in capsys.readouterr().out

    code = main(["exec-alg", *creds(vo), "climean",
                 "select images where true"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "written=1 CAM=1"

    assert main(["exec-alg", *creds(vo), "nosuch", "select images where true"]) == 6


def test_gen_cohort_writes_the_manifest(make_vo, tmp_path, capsys):
    vo = make_vo()
    out = tmp_path / "manifest.json"
    argv = ["gen-cohort", "--seed", "9", "--patients", "3",
            "--user", USER, "--credential", CREDENTIAL,
            "--out", str(out)]
    for site in vo.nodes:
        argv += ["--vo", f"{site}={addr(vo, site)}",
                 "--key", key_file(tmp_path, vo, site)]
    assert main(argv) == 0
    manifest = json.loads(out.read_text())
    assert set(manifest["sites"]) == {"CAM", "UDI"}
    err = capsys.readouterr().err
    assert "CAM: uploaded" in err and "UDI: uploaded" in err

    # node state agrees with the manifest the command printed
    for site in vo.nodes:
        stats = vo.client(site).stats()["catalog"]
        assert stats["images"] == manifest["sites"][site]["images"]

    # and the same seed yields the same manifest (without re-upload effects)
    out2 = tmp_path / "manifest2.json"
    assert main([a if a != str(out) else str(out2) for a in argv]) == 0
    assert json.loads(out2.read_text()) == manifest


def test_gen_cohort_requires_matching_keys(make_vo, tmp_path, capsys):
    vo = make_vo(sites=("CAM",))
    code = main(["gen-cohort", "--seed", "1", "--patients", "1",
                 "--user", USER, "--credential", CREDENTIAL,
                 "--vo", f"CAM={addr(vo)}", "--vo", f"UDI={addr(vo)}",
                 "--key", key_file(tmp_path, vo, "CAM")])
    assert code == 7
    assert "no site key file for UDI" in capsys.readouterr().err
