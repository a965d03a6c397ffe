"""Configuration files.

Node and registry processes read line-oriented ``key = value`` files (blank
lines and ``#`` comments allowed).  The file is the only way to set a node or
a registry: a key is one of the fields of `NodeConfig` or `RegistryConfig`,
and a key that the class does not declare is refused, so a misspelled key
fails at start instead of leaving a default in place.  Values that no
deployment changes are constants of the module that uses them, such as
``node.TOKEN_TTL_S`` and ``node.QUERY_TIMEOUT_S``.

The same format serves as the *site key file* a workstation uses for
client-side anonymization; it needs only ``site`` and ``secret``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from gridbox.errors import MalformedFile
from gridbox.ids import valid_site_code


def parse_kv_file(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise MalformedFile(f"{path}:{lineno}: expected 'key = value'")
        out[key.strip()] = value.strip()
    return out


def _refuse_unknown(cls, values: dict[str, str], what: str) -> None:
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise MalformedFile(f"{what} config has unknown key "
                            + ", ".join(map(repr, unknown)))


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise MalformedFile(f"address {text!r} must be host:port")
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError as e:
        raise MalformedFile(f"bad port in {text!r}") from e


# the shortest wait between two membership refreshes a node accepts
MIN_REFRESH_INTERVAL_S = 0.5


@dataclass
class NodeConfig:
    site: str
    listen: tuple[str, int]
    registry: tuple[str, int]
    data_dir: Path
    secret: bytes
    refresh_interval_s: float = 5.0

    def __post_init__(self):
        if not valid_site_code(self.site):
            raise MalformedFile(f"bad site code {self.site!r}")
        self.data_dir = Path(self.data_dir)
        if not self.secret:
            raise MalformedFile("site secret must be non-empty")
        if not MIN_REFRESH_INTERVAL_S <= self.refresh_interval_s < math.inf:
            raise MalformedFile(f"refresh_interval_s must be a number of seconds from "
                                f"{MIN_REFRESH_INTERVAL_S}, not {self.refresh_interval_s}")

    @classmethod
    def from_mapping(cls, values: dict[str, str]) -> "NodeConfig":
        _refuse_unknown(cls, values, "node")
        try:
            return cls(
                site=values["site"],
                listen=parse_address(values["listen"]),
                registry=parse_address(values["registry"]),
                data_dir=Path(values["data_dir"]),
                secret=bytes.fromhex(values["secret"]),
                refresh_interval_s=float(values.get("refresh_interval_s", "5")),
            )
        except KeyError as e:
            raise MalformedFile(f"node config is missing {e.args[0]!r}") from e
        except ValueError as e:
            raise MalformedFile(f"bad node config value: {e}") from e

    @classmethod
    def from_file(cls, path: str | Path) -> "NodeConfig":
        return cls.from_mapping(parse_kv_file(path))


@dataclass
class RegistryConfig:
    listen: tuple[str, int]
    data_dir: Path

    def __post_init__(self):
        self.data_dir = Path(self.data_dir)

    @classmethod
    def from_mapping(cls, values: dict[str, str]) -> "RegistryConfig":
        _refuse_unknown(cls, values, "registry")
        try:
            return cls(listen=parse_address(values["listen"]),
                       data_dir=Path(values["data_dir"]))
        except KeyError as e:
            raise MalformedFile(f"registry config is missing {e.args[0]!r}") from e

    @classmethod
    def from_file(cls, path: str | Path) -> "RegistryConfig":
        return cls.from_mapping(parse_kv_file(path))


@dataclass
class SiteKey:
    """What a workstation needs for client-side anonymization."""

    site: str
    secret: bytes = field(repr=False)

    @classmethod
    def from_file(cls, path: str | Path) -> "SiteKey":
        values = parse_kv_file(path)
        try:
            key = cls(values["site"], bytes.fromhex(values["secret"]))
        except KeyError as e:
            raise MalformedFile(f"site key file is missing {e.args[0]!r}") from e
        except ValueError as e:
            raise MalformedFile(f"bad site key value: {e}") from e
        if not valid_site_code(key.site) or not key.secret:
            raise MalformedFile("site key file needs a site code and a hex secret")
        return key
