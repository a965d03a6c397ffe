"""The in-process VO the benchmark drives: one registry plus one node per
site on loopback ports, built the way ``tests/conftest.build_vo`` builds it.

Every site shares this interpreter, so the numbers measure CPU cost per
layer on one host, and the benchmark can wrap layer calls from outside.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from gridbox.client import NodeClient
from gridbox.config import NodeConfig, RegistryConfig, SiteKey
from gridbox.node import GridNode
from gridbox.registry import RegistryClient, VoRegistry

USER, CREDENTIAL = "bench", "bench-credential"
REFRESH_INTERVAL_S = 0.5  # as in tests/conftest.build_vo
START_REPEATS = 30  # VO start-ups per run; a single start is too short to read steadily


class CheckedClient(NodeClient):
    """A NodeClient that keeps the XML bytes of its last answer, so the
    benchmark can check answers byte for byte without a second request."""

    last_xml: bytes | None = None

    def query_xml(self, text: str) -> tuple[bytes, list]:
        self.last_xml = None
        xml, warnings = super().query_xml(text)
        self.last_xml = xml
        return xml, warnings


class Vo:
    def __init__(self, root: Path, sites: tuple, secrets: dict):
        self.root = root
        self.sites = sites
        self.registry = VoRegistry(RegistryConfig(listen=("127.0.0.1", 0),
                                                  data_dir=root / "registry"))
        self.registry.start()
        self.nodes: dict[str, GridNode] = {}
        try:
            admin = (root / "registry" / "admin_token.txt").read_text().strip()
            RegistryClient(self.registry.address).add_user(admin, USER, CREDENTIAL)
            for site in sites:
                node = GridNode(NodeConfig(
                    site=site, listen=("127.0.0.1", 0),
                    registry=self.registry.address,
                    data_dir=root / f"node-{site.lower()}", secret=secrets[site],
                    refresh_interval_s=REFRESH_INTERVAL_S))
                node.start()
                self.nodes[site] = node
            for site in sites:
                # nodes registered early learn of later joiners on refresh
                self.nodes[site].membership(max_age=0)
            self.clients = {site: self.client(site, SiteKey(site, secrets[site]))
                            for site in sites}
        except BaseException:
            self.stop()
            raise

    def client(self, site: str, site_key: SiteKey | None = None) -> CheckedClient:
        client = CheckedClient(self.nodes[site].address, site_key=site_key)
        client.auth(USER, CREDENTIAL)
        return client

    def catalogs(self) -> list:
        return [self.nodes[site].catalog for site in self.sites]

    def disk_bytes(self, names: tuple = ("catalog.log", "pseudonyms.log", "store")) -> int:
        """Bytes under each node's data directory with one of ``names``."""
        total = 0
        for site in self.sites:
            node_dir = self.root / f"node-{site.lower()}"
            for name in names:
                path = node_dir / name
                if path.is_file():
                    total += path.stat().st_size
                elif path.is_dir():
                    total += sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
        return total

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()
        self.registry.stop()


def start_vo(workdir: Path, sites: tuple, secrets: dict) -> tuple[Vo, float]:
    """Start ``START_REPEATS`` fresh VOs, keep the last, and return it with
    the median start-up time."""
    times = []
    vo = None
    for i in range(START_REPEATS):
        if vo is not None:
            vo.stop()
            shutil.rmtree(vo.root, ignore_errors=True)
        t0 = time.perf_counter()
        vo = Vo(workdir / f"vo{i}", sites, secrets)
        times.append(time.perf_counter() - t0)
    times.sort()
    return vo, times[len(times) // 2]
