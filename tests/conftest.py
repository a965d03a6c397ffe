import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gridbox.client import NodeClient
from gridbox.config import NodeConfig, RegistryConfig, SiteKey
from gridbox.mgi import MgiFile, write_mgi
from gridbox.node import GridNode
from gridbox.registry import RegistryClient, VoRegistry
from gridbox.resultset import ResultSet

settings.register_profile("grid", deadline=None)
settings.load_profile("grid")

USER, CREDENTIAL = "alice", "wonderland"


def header_for(patient_id="P-1001", name="Canary-Jane Doe", birth="1950-03-14",
               sex="F", study_id="S1", study_date="2001-05-20", series_id="SER1",
               image_id="IMG1", laterality="L", view="CC", rows=8, cols=8,
               dose="1.25", site_id=None):
    h = {
        "patient.id": patient_id,
        "patient.name": name,
        "patient.birth_date": birth,
        "patient.sex": sex,
        "study.id": study_id,
        "study.date": study_date,
        "series.id": series_id,
        "series.modality": "MG",
        "image.id": image_id,
        "image.laterality": laterality,
        "image.view": view,
        "image.rows": str(rows),
        "image.cols": str(cols),
        "image.bits": "16",
    }
    if dose is not None:
        h["image.dose_mgy"] = dose
    if site_id is not None:
        h["site.id"] = site_id
    return h


def make_image(pixels=None, **kw):
    if pixels is None:
        rows, cols = kw.get("rows", 8), kw.get("cols", 8)
        pixels = np.arange(rows * cols, dtype=np.uint16).reshape(rows, cols)
    kw.setdefault("rows", pixels.shape[0])
    kw.setdefault("cols", pixels.shape[1])
    return MgiFile(header_for(**kw), pixels)


def make_image_bytes(pixels=None, **kw) -> bytes:
    return write_mgi(make_image(pixels, **kw))


@dataclass
class LiveVo:
    """An in-process VO: one registry plus real nodes on loopback ports."""

    root: Path
    registry: VoRegistry
    admin_token: str
    nodes: dict = field(default_factory=dict)    # site -> GridNode
    clients: dict = field(default_factory=dict)  # site -> authed NodeClient
    secrets: dict = field(default_factory=dict)  # site -> bytes

    @property
    def registry_address(self):
        return self.registry.address

    def client(self, site: str) -> NodeClient:
        return self.clients[site]

    def key(self, site: str) -> SiteKey:
        return SiteKey(site, self.secrets[site])

    def stop_node(self, site: str) -> None:
        self.nodes.pop(site).stop()
        self.clients.pop(site, None)

    def stop(self) -> None:
        for site in list(self.nodes):
            self.stop_node(site)
        self.registry.stop()


def build_vo(root: Path, sites=("CAM", "UDI"), refresh_interval_s=0.5) -> LiveVo:
    root = Path(root)
    registry = VoRegistry(RegistryConfig(listen=("127.0.0.1", 0),
                                         data_dir=root / "registry"))
    registry.start()
    admin_token = (root / "registry" / "admin_token.txt").read_text().strip()
    RegistryClient(registry.address).add_user(admin_token, USER, CREDENTIAL)
    vo = LiveVo(root, registry, admin_token)
    for index, site in enumerate(sites):
        secret = bytes([0x40 + index]) * 16
        vo.secrets[site] = secret
        config = NodeConfig(site=site, listen=("127.0.0.1", 0),
                            registry=registry.address,
                            data_dir=root / f"node-{site.lower()}",
                            secret=secret,
                            refresh_interval_s=refresh_interval_s)
        node = GridNode(config)
        node.start()
        vo.nodes[site] = node
    for site in sites:
        # nodes registered earlier only learn of later joiners on refresh
        vo.nodes[site].membership(max_age=0)
    for site in sites:
        client = NodeClient(vo.nodes[site].address, site_key=vo.key(site))
        client.auth(USER, CREDENTIAL)
        vo.clients[site] = client
    return vo


def refuse_to_parse(monkeypatch):
    """Make every ResultSet.from_xml call fail the test."""
    def refuse(cls, data):
        raise AssertionError("ResultSet.from_xml was called")

    monkeypatch.setattr(ResultSet, "from_xml", classmethod(refuse))


@pytest.fixture
def make_vo(tmp_path):
    """Factory fixture: build_vo variants that are torn down afterwards."""
    built = []

    def factory(sites=("CAM", "UDI"), **kw):
        vo = build_vo(tmp_path / f"vo{len(built)}", sites, **kw)
        built.append(vo)
        return vo

    yield factory
    for vo in built:
        vo.stop()


@pytest.fixture(scope="session")
def session_vo():
    """A shared 2-node VO with a small uploaded cohort, for read-only tests."""
    from gridbox.cohort import spec_for_site, upload_site

    root = Path(tempfile.mkdtemp(prefix="gridbox-session-vo-"))
    vo = build_vo(root)
    specs = {site: spec_for_site(site, seed=5, n_patients=6) for site in vo.nodes}
    from gridbox.cohort import manifest_for
    vo.manifest = manifest_for(specs, vo.secrets)
    vo.specs = specs
    for site in vo.nodes:
        upload_site(vo.client(site), specs[site])
    yield vo
    vo.stop()
    shutil.rmtree(root, ignore_errors=True)
