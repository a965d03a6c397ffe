import re
from pathlib import Path

import pytest

from gridbox.config import (
    NodeConfig,
    RegistryConfig,
    SiteKey,
    parse_address,
    parse_kv_file,
)
from gridbox.errors import MalformedFile

NODE_FILE = """\
# node settings
site = CAM
listen = 0.0.0.0:7001

registry = registry.example:7000
data_dir = /var/lib/gridbox
secret = 40404040404040404040404040404040
refresh_interval_s = 60
"""


def test_kv_parsing(tmp_path):
    path = tmp_path / "node.conf"
    path.write_text("a = 1\n#skip\n\n b=2 \nc = x = y\n")
    assert parse_kv_file(path) == {"a": "1", "b": "2", "c": "x = y"}


def test_kv_line_without_equals(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("a = 1\njust words\n")
    with pytest.raises(MalformedFile, match="2"):
        parse_kv_file(path)


@pytest.mark.parametrize("text,want", [
    ("localhost:7001", ("localhost", 7001)),
    (":7001", ("127.0.0.1", 7001)),
    ("10.0.0.5:80", ("10.0.0.5", 80)),
])
def test_parse_address(text, want):
    assert parse_address(text) == want


@pytest.mark.parametrize("text", ["7001", "host:", "host:port"])
def test_parse_address_rejects(text):
    with pytest.raises(MalformedFile):
        parse_address(text)


def test_node_config_from_file(tmp_path):
    path = tmp_path / "node.conf"
    path.write_text(NODE_FILE)
    cfg = NodeConfig.from_file(path)
    assert cfg.site == "CAM"
    assert cfg.listen == ("0.0.0.0", 7001)
    assert cfg.registry == ("registry.example", 7000)
    assert cfg.secret == b"\x40" * 16
    assert cfg.refresh_interval_s == 60.0
    path.write_text(NODE_FILE.replace("refresh_interval_s = 60\n", ""))
    assert NodeConfig.from_file(path).refresh_interval_s == 5.0  # default


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("site = CAM\n", ""),
    lambda t: t.replace("CAM", "cam"),
    lambda t: t.replace("CAM", "TOOLONGCODE"),
    lambda t: t.replace("40" * 16, "zz"),
    lambda t: t.replace("40" * 16, ""),
    lambda t: t.replace("60", "sixty"),  # refresh_interval_s = sixty
    lambda t: t.replace("0.0.0.0:7001", "7001"),
])
def test_bad_node_configs(tmp_path, mangle):
    path = tmp_path / "node.conf"
    path.write_text(mangle(NODE_FILE))
    with pytest.raises(MalformedFile) as raised:
        NodeConfig.from_file(path)
    assert "unknown key" not in raised.value.message  # a declared key is wrong


def test_registry_config(tmp_path):
    path = tmp_path / "registry.conf"
    path.write_text("listen = :7000\ndata_dir = reg\n")
    cfg = RegistryConfig.from_file(path)
    assert cfg.listen == ("127.0.0.1", 7000)
    assert str(cfg.data_dir) == "reg"
    with pytest.raises(MalformedFile):
        RegistryConfig.from_mapping({"listen": ":7000"})


NODE_MAPPING = {"site": "CAM", "listen": ":7001", "registry": ":7000",
                "data_dir": "cam", "secret": "40" * 16}
REGISTRY_MAPPING = {"listen": ":7000", "data_dir": "reg"}
NODE_CONFIG = {"site": "CAM", "listen": ("127.0.0.1", 7001), "registry": ("127.0.0.1", 7000),
               "data_dir": Path("cam"), "secret": b"\x40" * 16}


@pytest.mark.parametrize("interval", ["nan", "inf", "-inf", "0.1", "0", "-1"])
def test_a_refresh_interval_below_half_a_second_is_refused(interval):
    """A NaN wait returns at once and the poller spins; an infinite one
    raises in the poller thread and ends it; a short one floods the registry."""
    with pytest.raises(MalformedFile, match="refresh_interval_s"):
        NodeConfig.from_mapping(dict(NODE_MAPPING, refresh_interval_s=interval))
    with pytest.raises(MalformedFile, match="refresh_interval_s"):
        NodeConfig(**dict(NODE_CONFIG, refresh_interval_s=float(interval)))


@pytest.mark.parametrize("interval", ["0.5", "5", "3600"])
def test_a_refresh_interval_from_half_a_second_is_kept(interval):
    cfg = NodeConfig.from_mapping(dict(NODE_MAPPING, refresh_interval_s=interval))
    assert cfg.refresh_interval_s == float(interval)
    assert NodeConfig(**dict(NODE_CONFIG, refresh_interval_s=float(interval))) == cfg


@pytest.mark.parametrize("cls,values,typo", [
    (NodeConfig, NODE_MAPPING, "refresh_intervall_s"),
    (NodeConfig, NODE_MAPPING, "query_timeout_s"),  # a removed setting
    (NodeConfig, NODE_MAPPING, "token_ttl_s"),
    (RegistryConfig, REGISTRY_MAPPING, "lissen"),
])
def test_unknown_keys_are_refused(tmp_path, cls, values, typo):
    with pytest.raises(MalformedFile, match=typo):
        cls.from_mapping(dict(values, **{typo: "0.5"}))
    path = tmp_path / "typo.conf"
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    path.write_text(text + f"{typo} = 0.5\n")
    with pytest.raises(MalformedFile, match=typo):
        cls.from_file(path)
    path.write_text(text)
    assert cls.from_file(path) == cls.from_mapping(values)


def test_readme_config_files_parse(tmp_path):
    """Every config file the README quick tour writes is one a node or the
    registry accepts."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^cat > (\S+\.cfg) <<EOF\n(.*?)^EOF$", readme,
                        re.MULTILINE | re.DOTALL)
    assert [name for name, _ in blocks] == ["registry.cfg", "node-cam.cfg",
                                            "node-udi.cfg"]
    for name, body in blocks:
        path = tmp_path / name
        path.write_text(body.replace("$PWD", str(tmp_path)))
        cls = RegistryConfig if name == "registry.cfg" else NodeConfig
        cfg = cls.from_file(path)
        assert cfg.data_dir.parent == tmp_path


def test_site_key_file(tmp_path):
    path = tmp_path / "cam.key"
    path.write_text("site = CAM\nsecret = deadbeef\n")
    key = SiteKey.from_file(path)
    assert key == SiteKey("CAM", b"\xde\xad\xbe\xef")
    assert "deadbeef" not in repr(key)  # secrets stay out of logs


@pytest.mark.parametrize("text", [
    "secret = deadbeef\n",
    "site = CAM\n",
    "site = CAM\nsecret = xyz\n",
    "site = c!m\nsecret = deadbeef\n",
    "site = CAM\nsecret =\n",
])
def test_bad_site_key_files(tmp_path, text):
    path = tmp_path / "bad.key"
    path.write_text(text)
    with pytest.raises(MalformedFile):
        SiteKey.from_file(path)
