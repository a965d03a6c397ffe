"""Catalog record types: the patient/study/series/image hierarchy plus
derived-data rows and blob references.

Records are immutable dataclasses with a flat JSON form used by the catalog
log and the wire envelopes.  Ids are rendered strings in JSON; dates are ISO.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date

from gridbox.ids import GlobalId

SEXES = ("F", "M")
LATERALITIES = ("L", "R")
VIEWS = ("CC", "MLO")
BIRTH_YEAR_FLOOR = 1900
SHA256_RE = re.compile(r"[0-9a-f]{64}")  # a blob's content address


def _require_kind(gid: GlobalId, kind: str) -> None:
    if gid.kind != kind:
        raise ValueError(f"expected a {kind} id, got {gid}")


@dataclass(frozen=True)
class FileRef:
    """Content address of a stored blob: hash, size and owning site."""

    id: GlobalId
    sha256: str
    size: int
    owner_site: str

    def __post_init__(self):
        _require_kind(self.id, "file")
        if not SHA256_RE.fullmatch(self.sha256):
            raise ValueError(f"bad sha256 {self.sha256!r}")
        if self.size <= 0:
            raise ValueError("empty blobs are not stored")
        if self.owner_site != self.id.site:
            raise ValueError("file ref owner must match the id's site")

    def to_json(self) -> dict:
        return {"id": str(self.id), "sha256": self.sha256, "size": self.size,
                "owner_site": self.owner_site}

    @classmethod
    def from_json(cls, d: dict) -> "FileRef":
        return cls(GlobalId.parse(d["id"]), d["sha256"], int(d["size"]), d["owner_site"])


@dataclass(frozen=True)
class PatientRecord:
    id: GlobalId
    pseudonym: str
    sex: str
    birth_year: int

    def __post_init__(self):
        _require_kind(self.id, "patient")
        if self.sex not in SEXES:
            raise ValueError(f"sex must be one of {SEXES}, got {self.sex!r}")
        if not BIRTH_YEAR_FLOOR <= self.birth_year <= date.today().year:
            raise ValueError(f"birth_year {self.birth_year} out of range")
        if not self.pseudonym:
            raise ValueError("pseudonym must be non-empty")

    def to_json(self) -> dict:
        return {"id": str(self.id), "pseudonym": self.pseudonym, "sex": self.sex,
                "birth_year": self.birth_year}

    @classmethod
    def from_json(cls, d: dict) -> "PatientRecord":
        return cls(GlobalId.parse(d["id"]), d["pseudonym"], d["sex"], int(d["birth_year"]))


@dataclass(frozen=True)
class StudyRecord:
    id: GlobalId
    patient: GlobalId
    date: date

    def __post_init__(self):
        _require_kind(self.id, "study")
        _require_kind(self.patient, "patient")

    def to_json(self) -> dict:
        return {"id": str(self.id), "patient": str(self.patient),
                "date": self.date.isoformat()}

    @classmethod
    def from_json(cls, d: dict) -> "StudyRecord":
        return cls(GlobalId.parse(d["id"]), GlobalId.parse(d["patient"]),
                   date.fromisoformat(d["date"]))


@dataclass(frozen=True)
class SeriesRecord:
    id: GlobalId
    study: GlobalId
    modality: str = "MG"

    def __post_init__(self):
        _require_kind(self.id, "series")
        _require_kind(self.study, "study")

    def to_json(self) -> dict:
        return {"id": str(self.id), "study": str(self.study), "modality": self.modality}

    @classmethod
    def from_json(cls, d: dict) -> "SeriesRecord":
        return cls(GlobalId.parse(d["id"]), GlobalId.parse(d["study"]),
                   d.get("modality", "MG"))


@dataclass(frozen=True)
class ImageRecord:
    id: GlobalId
    series: GlobalId
    laterality: str
    view: str
    rows: int
    cols: int
    file: FileRef
    dose_mgy: float | None = None

    def __post_init__(self):
        _require_kind(self.id, "image")
        _require_kind(self.series, "series")
        if self.laterality not in LATERALITIES:
            raise ValueError(f"laterality must be one of {LATERALITIES}")
        if self.view not in VIEWS:
            raise ValueError(f"view must be one of {VIEWS}")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("rows and cols must be positive")
        if self.dose_mgy is not None and self.dose_mgy < 0:
            raise ValueError("dose_mgy must be non-negative")
        if self.file.owner_site != self.id.site:
            raise ValueError("image file must be owned by the image's site")

    def to_json(self) -> dict:
        d = {"id": str(self.id), "series": str(self.series),
             "laterality": self.laterality, "view": self.view,
             "rows": self.rows, "cols": self.cols, "file": self.file.to_json()}
        if self.dose_mgy is not None:
            d["dose_mgy"] = self.dose_mgy
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ImageRecord":
        dose = d.get("dose_mgy")
        return cls(GlobalId.parse(d["id"]), GlobalId.parse(d["series"]),
                   d["laterality"], d["view"], int(d["rows"]), int(d["cols"]),
                   FileRef.from_json(d["file"]),
                   float(dose) if dose is not None else None)


@dataclass(frozen=True)
class DerivedRecord:
    """Per-image computed scalars from one algorithm run; at most one record
    per (image, algorithm) pair — re-execution overwrites."""

    id: GlobalId
    image: GlobalId
    algorithm: GlobalId
    scalars: dict = field(hash=False)

    def __post_init__(self):
        _require_kind(self.id, "derived")
        _require_kind(self.image, "image")
        _require_kind(self.algorithm, "algorithm")
        if not self.scalars:
            raise ValueError("derived record must carry at least one scalar")

    def to_json(self) -> dict:
        return {"id": str(self.id), "image": str(self.image),
                "algorithm": str(self.algorithm), "scalars": dict(self.scalars)}

    @classmethod
    def from_json(cls, d: dict) -> "DerivedRecord":
        return cls(GlobalId.parse(d["id"]), GlobalId.parse(d["image"]),
                   GlobalId.parse(d["algorithm"]),
                   {k: float(v) for k, v in d["scalars"].items()})


@dataclass(frozen=True)
class AlgorithmRecord:
    """Registered pipeline program as persisted in the catalog log."""

    id: GlobalId
    name: str
    version: int
    source: str
    origin_site: str

    def __post_init__(self):
        _require_kind(self.id, "algorithm")
        if not all(isinstance(text, str)
                   for text in (self.name, self.source, self.origin_site)):
            raise TypeError("algorithm name, source and origin site must be text")
        if type(self.version) is not int:  # a bool or a float is no version
            raise TypeError(f"algorithm version {self.version!r} is not an integer")
        if self.version < 1:
            raise ValueError("algorithm versions start at 1")

    def to_json(self) -> dict:
        return {"id": str(self.id), "name": self.name, "version": self.version,
                "source": self.source, "origin_site": self.origin_site}

    @classmethod
    def from_json(cls, d: dict) -> "AlgorithmRecord":
        return cls(GlobalId.parse(d["id"]), d["name"], d["version"],
                   d["source"], d["origin_site"])


RECORD_TYPES = {
    "patient": PatientRecord,
    "study": StudyRecord,
    "series": SeriesRecord,
    "image": ImageRecord,
    "derived": DerivedRecord,
    "algorithm": AlgorithmRecord,
}
