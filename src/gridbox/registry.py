"""The VO registry: the central node every site registers with.

It answers four framed-protocol ops:

* ``NODE_REG``    — register/refresh a site node; returns the membership
                    list plus the VO key (shared secret for token signing
                    and peer authentication).
* ``NODE_LIST``   — current membership snapshot.
* ``USER_VERIFY`` — check a clinician credential (salted digests,
                    constant-time compare).
* ``USER_ADD``    — create/replace a user entry; gated by the admin token.

State is an append-only log (``registry.log``) replayed at startup, so a
restarted registry remembers the same VO key, membership, and users; see
:mod:`gridbox.applog` for what a bad or torn line means.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import re
import secrets
import threading
import time
from dataclasses import asdict, dataclass

from gridbox import applog
from gridbox.config import RegistryConfig, parse_address
from gridbox.errors import (
    AuthFailed,
    DuplicateSiteDifferentIdentity,
    MalformedFile,
    ProtocolError,
    RegistryUnreachable,
)
from gridbox.ids import valid_site_code
from gridbox.wire import FramedServer, answer, call, same_secret, text_param

_USER_RE = re.compile(r"[a-z0-9][a-z0-9_.\-]*")


def credential_digest(salt: str, credential: str) -> str:
    return hashlib.sha256((salt + ":" + credential).encode("utf-8")).hexdigest()


@dataclass
class NodeDescriptor:
    site: str
    address: str
    identity: str
    registered_at: int


@dataclass
class UserEntry:
    user: str
    salt: str
    digest: str
    home_site: str = ""
    enabled: bool = True


# a NODE or USER line holds its entry's fields as a JSON object
_PARSE_PAYLOAD = {"VOKEY": str, "ADMIN": str,
                  "NODE": lambda text: NodeDescriptor(**json.loads(text)),
                  "USER": lambda text: UserEntry(**json.loads(text))}


def _parse_line(line: str) -> tuple[str, object]:
    verb, payload = line.split(" ", 1)
    if verb not in _PARSE_PAYLOAD:
        raise ValueError(f"unknown verb {verb!r}")
    return verb, _PARSE_PAYLOAD[verb](payload)


class VoRegistry:
    def __init__(self, config: RegistryConfig):
        self.config = config
        self._lock = threading.RLock()
        self._nodes: dict[str, NodeDescriptor] = {}
        self._users: dict[str, UserEntry] = {}
        self.vo_key: str = ""
        self.admin_token: str = ""
        self._log_path = config.data_dir / "registry.log"
        self._server: FramedServer | None = None
        config.data_dir.mkdir(parents=True, exist_ok=True)
        for verb, value in applog.replay(self._log_path, _parse_line):
            if verb == "VOKEY":
                self.vo_key = value
            elif verb == "ADMIN":
                self.admin_token = value
            elif verb == "NODE":
                self._nodes[value.site] = value
            else:
                self._users[value.user] = value
        first = []
        if not self.vo_key:
            self.vo_key = secrets.token_hex(32)
            first.append(f"VOKEY {self.vo_key}")
        if not self.admin_token:
            self.admin_token = secrets.token_hex(16)
            first.append(f"ADMIN {self.admin_token}")
        applog.append(self._log_path, first)
        # convenience copy so harnesses can bootstrap users
        (config.data_dir / "admin_token.txt").write_text(self.admin_token + "\n")

    # --- service -----------------------------------------------------------------

    def start(self) -> None:
        host, port = self.config.listen
        self._server = FramedServer(host, port, self._handle)
        self._server.start()

    def stop(self) -> None:
        if self._server is not None:
            self._server.stop()

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("registry not started")
        return self._server.address

    def membership(self) -> list[dict]:
        with self._lock:
            return [{"site": d.site, "address": d.address}
                    for d in sorted(self._nodes.values(), key=lambda d: d.site)]

    def register_node(self, site: str, address: str, identity: str) -> list[dict]:
        if not valid_site_code(site):
            raise ProtocolError(f"bad site code {site!r}")
        if not identity:
            raise ProtocolError("missing identity material")
        try:
            parse_address(address)
        except MalformedFile as e:
            raise ProtocolError(f"bad node address: {e.message}") from e
        with self._lock:
            existing = self._nodes.get(site)
            if existing is not None and existing.identity != identity:
                raise DuplicateSiteDifferentIdentity(
                    f"site {site} is already registered with different identity")
            if existing is None:
                desc = NodeDescriptor(site, address, identity, int(time.time()))
            else:
                desc = NodeDescriptor(site, address, identity, existing.registered_at)
            if existing != desc:
                self._nodes[site] = desc
                applog.append(self._log_path,
                              [f"NODE {json.dumps(asdict(desc), sort_keys=True)}"])
            return self.membership()

    def add_user(self, user: str, credential: str, home_site: str = "",
                 enabled: bool = True) -> None:
        if not _USER_RE.fullmatch(user):
            raise ProtocolError(f"bad user id {user!r}")
        salt = secrets.token_hex(8)
        entry = UserEntry(user, salt, credential_digest(salt, credential),
                          home_site, enabled)
        with self._lock:
            self._users[user] = entry
            applog.append(self._log_path,
                          [f"USER {json.dumps(asdict(entry), sort_keys=True)}"])

    def verify_user(self, user: str, credential: str) -> bool:
        with self._lock:
            entry = self._users.get(user)
        if entry is None:
            # burn the same work as a real comparison
            hmac.compare_digest(credential_digest("x", credential),
                                credential_digest("y", credential))
            return False
        ok = hmac.compare_digest(entry.digest,
                                 credential_digest(entry.salt, credential))
        return ok and entry.enabled

    # --- wire handler ---------------------------------------------------------------

    def _handle(self, envelope: dict, binary: bytes) -> tuple[dict, bytes]:
        return answer(envelope, binary, self._serve)

    def _serve(self, req_id, op, token, params, binary):
        if op == "NODE_REG":
            members = self.register_node(text_param(params, "site"),
                                         text_param(params, "address"),
                                         text_param(params, "identity"))
            return {"membership": members, "vo_key": self.vo_key}, [], b""
        if op == "NODE_LIST":
            return {"membership": self.membership()}, [], b""
        if op == "USER_VERIFY":
            ok = self.verify_user(text_param(params, "user"),
                                  text_param(params, "credential"))
            return {"ok": ok}, [], b""
        if op == "USER_ADD":
            supplied = text_param(params, "admin_token")
            if not same_secret(supplied, self.admin_token):
                raise AuthFailed("bad admin token")
            enabled = params.get("enabled", True)
            if not isinstance(enabled, bool):
                raise ProtocolError(f"enabled must be true or false, got {enabled!r}")
            self.add_user(text_param(params, "user"),
                          text_param(params, "credential"),
                          text_param(params, "home_site"), enabled)
            return {"ok": True}, [], b""
        raise ProtocolError(f"unknown registry op {op!r}")


class RegistryClient:
    """Thin wire client for registry ops; all failures to reach the registry
    surface as RegistryUnreachable."""

    def __init__(self, address: tuple[str, int], timeout: float = 5.0):
        self.address = address
        self.timeout = timeout

    def _call(self, op: str, params: dict) -> dict:
        result, _, _ = call(self.address, op, params,
                            unreachable=RegistryUnreachable, timeout=self.timeout)
        return result

    def register_node(self, site: str, address: str,
                      identity: str) -> tuple[list[dict], str]:
        result = self._call("NODE_REG", {"site": site, "address": address,
                                         "identity": identity})
        return result["membership"], result["vo_key"]

    def list_nodes(self) -> list[dict]:
        return self._call("NODE_LIST", {})["membership"]

    def verify_user(self, user: str, credential: str) -> bool:
        return bool(self._call("USER_VERIFY",
                               {"user": user, "credential": credential})["ok"])

    def add_user(self, admin_token: str, user: str, credential: str,
                 home_site: str = "", enabled: bool = True) -> None:
        self._call("USER_ADD", {"admin_token": admin_token, "user": user,
                                "credential": credential, "home_site": home_site,
                                "enabled": enabled})
