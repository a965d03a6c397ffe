import pytest

from gridbox.config import RegistryConfig
from gridbox.errors import (
    AuthFailed,
    DuplicateSiteDifferentIdentity,
    ProtocolError,
    RegistryUnreachable,
    StorageError,
)
from gridbox.registry import RegistryClient, VoRegistry, credential_digest
from gridbox.wire import request


@pytest.fixture
def registry(tmp_path):
    reg = VoRegistry(RegistryConfig(("127.0.0.1", 0), tmp_path / "reg"))
    reg.start()
    yield reg
    reg.stop()


def test_membership_sorted_and_updated(registry):
    registry.register_node("UDI", "udi.example:7001", "id-udi")
    members = registry.register_node("CAM", "cam.example:7001", "id-cam")
    assert [m["site"] for m in members] == ["CAM", "UDI"]
    # re-registration with a new address is a refresh, not a conflict
    members = registry.register_node("CAM", "cam.example:9999", "id-cam")
    assert members[0]["address"] == "cam.example:9999"


def test_same_site_different_identity_rejected(registry):
    registry.register_node("CAM", "a:1", "genuine")
    with pytest.raises(DuplicateSiteDifferentIdentity):
        registry.register_node("CAM", "b:2", "impostor")


@pytest.mark.parametrize("site,identity", [("cam", "x"), ("TOOLONGSITE", "x"),
                                           ("CAM", "")])
def test_bad_registrations(registry, site, identity):
    with pytest.raises(ProtocolError):
        registry.register_node(site, "a:1", identity)


def test_vo_key_and_state_survive_restart(tmp_path):
    cfg = RegistryConfig(("127.0.0.1", 0), tmp_path / "reg")
    first = VoRegistry(cfg)
    first.register_node("CAM", "a:1", "id-cam")
    first.add_user("alice", "wonderland")
    key, admin = first.vo_key, first.admin_token

    second = VoRegistry(cfg)
    assert second.vo_key == key
    assert second.admin_token == admin
    assert second.membership() == first.membership()
    assert second.verify_user("alice", "wonderland")


def test_corrupt_log_refuses_to_start(tmp_path):
    cfg = RegistryConfig(("127.0.0.1", 0), tmp_path / "reg")
    VoRegistry(cfg)
    with (tmp_path / "reg" / "registry.log").open("a") as fh:
        fh.write("GARBAGE\n")
    with pytest.raises(StorageError, match="line"):
        VoRegistry(cfg)


def test_user_verification(registry):
    registry.add_user("alice", "wonderland")
    assert registry.verify_user("alice", "wonderland") is True
    assert registry.verify_user("alice", "Wonderland") is False
    assert registry.verify_user("bob", "wonderland") is False
    registry.add_user("carol", "pw", enabled=False)
    assert registry.verify_user("carol", "pw") is False
    # replacing an entry rotates the salt but keeps verification working
    registry.add_user("alice", "newpass")
    assert registry.verify_user("alice", "wonderland") is False
    assert registry.verify_user("alice", "newpass") is True


def test_digest_is_salted():
    assert credential_digest("s1", "pw") != credential_digest("s2", "pw")


@pytest.mark.parametrize("user", ["", "Alice", "a b", "-dash"])
def test_bad_user_ids(registry, user):
    with pytest.raises(ProtocolError):
        registry.add_user(user, "pw")


# --- over the wire -----------------------------------------------------------------

def test_client_roundtrip(registry):
    client = RegistryClient(registry.address)
    members, key = client.register_node("CAM", "cam:7001", "id-cam")
    assert members == [{"site": "CAM", "address": "cam:7001"}]
    assert key == registry.vo_key
    assert client.list_nodes() == members

    client.add_user(registry.admin_token, "alice", "wonderland", home_site="CAM")
    assert client.verify_user("alice", "wonderland") is True
    assert client.verify_user("alice", "nope") is False


def test_user_add_needs_admin_token(registry):
    client = RegistryClient(registry.address)
    with pytest.raises(AuthFailed):
        client.add_user("forged", "alice", "wonderland")
    assert client.verify_user("alice", "wonderland") is False


def test_an_admin_token_that_is_not_ascii_is_auth_failed(registry):
    """Before, `hmac.compare_digest` raised TypeError on it: Internal."""
    response, _ = request(registry.address, "USER_ADD",
                          {**USER_ADD, "admin_token": "\u00e9"})
    assert response["error_code"] == "AuthFailed"
    assert "mallory" not in registry._users


@pytest.mark.parametrize("enabled", ["false", 0, None], ids=["string", "number", "null"])
def test_user_add_refuses_an_enabled_that_is_not_a_bool(registry, enabled):
    response, _ = request(registry.address, "USER_ADD", {
        "admin_token": registry.admin_token, "user": "mallory", "credential": "pw",
        "enabled": enabled})
    assert response["error_code"] == "ProtocolError"
    assert "mallory" not in registry._users


USER_ADD = {"user": "mallory", "credential": "pw", "home_site": "CAM"}
NODE_REG = {"site": "CAM", "address": "cam:7001", "identity": "id-cam"}


@pytest.mark.parametrize("value", [None, 5, ["h", 1]], ids=["null", "number", "list"])
@pytest.mark.parametrize("op,name", [("USER_ADD", n) for n in [*USER_ADD, "admin_token"]]
                         + [("NODE_REG", n) for n in NODE_REG]
                         + [("USER_VERIFY", "user"), ("USER_VERIFY", "credential")])
def test_text_params_that_are_not_strings_are_a_protocol_error(registry, op, name, value):
    """Before, ``str()`` coerced them: a null credential became the password
    "None" and a list address registered "['h', 1]"."""
    params = {**{"USER_ADD": USER_ADD, "NODE_REG": NODE_REG}.get(op, {}), name: value}
    if op == "USER_ADD":
        params.setdefault("admin_token", registry.admin_token)
    response, _ = request(registry.address, op, params)
    assert response["error_code"] == "ProtocolError"
    assert "mallory" not in registry._users and registry.membership() == []


@pytest.mark.parametrize("address", ["", "cam", "cam:port"])
def test_node_reg_refuses_an_address_that_is_not_host_port(registry, address):
    with pytest.raises(ProtocolError):
        RegistryClient(registry.address).register_node("CAM", address, "id-cam")
    assert registry.membership() == []


def test_node_reg_refuses_a_site_code_with_a_trailing_newline(registry):
    """``re.match`` with ``$`` let "CAM\\n" register as a site."""
    response, _ = request(registry.address, "NODE_REG", {**NODE_REG, "site": "CAM\n"})
    assert response["error_code"] == "ProtocolError"
    assert registry.membership() == []


def test_user_add_refuses_a_user_id_with_a_trailing_newline(registry):
    response, _ = request(registry.address, "USER_ADD", {
        **USER_ADD, "user": "bob\n", "admin_token": registry.admin_token})
    assert response["error_code"] == "ProtocolError"
    assert "bob\n" not in registry._users


def test_wire_errors_carry_types(registry):
    client = RegistryClient(registry.address)
    client.register_node("CAM", "a:1", "genuine")
    with pytest.raises(DuplicateSiteDifferentIdentity):
        client.register_node("CAM", "b:2", "impostor")


def test_unreachable_registry(tmp_path):
    reg = VoRegistry(RegistryConfig(("127.0.0.1", 0), tmp_path / "reg"))
    reg.start()
    address = reg.address
    reg.stop()
    client = RegistryClient(address)
    with pytest.raises(RegistryUnreachable):
        client.list_nodes()


def test_admin_token_file_written(tmp_path):
    reg = VoRegistry(RegistryConfig(("127.0.0.1", 0), tmp_path / "reg"))
    text = (tmp_path / "reg" / "admin_token.txt").read_text()
    assert text.strip() == reg.admin_token
