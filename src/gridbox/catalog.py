"""Per-site metadata catalog.

Holds the patient/study/series/image tree, derived results, and algorithm
registrations for one site.  All writes go through :meth:`SiteCatalog.upsert`,
which validates referential integrity and appends an ``UPSERT <kind> <json>``
line to the catalog log; a catalog opened on an existing directory replays
the log to recover its state.

Query execution (`select`) walks image rows joined up to their patient,
evaluates the predicate tree from :mod:`gridbox.query`, and projects
canonical string values.
"""

from __future__ import annotations

import json
import threading
from datetime import date
from pathlib import Path

from gridbox.errors import (
    AlgorithmConflict,
    DanglingParent,
    ForeignSite,
    NotFound,
    StorageError,
)
from gridbox.ids import GlobalId
from gridbox.query import (
    And,
    BoolLit,
    Comparison,
    FormalQuery,
    Not,
    Or,
    ROW_KIND,
    RangeTest,
    projection,
)
from gridbox.records import (
    RECORD_TYPES,
    AlgorithmRecord,
    DerivedRecord,
    ImageRecord,
    PatientRecord,
    SeriesRecord,
    StudyRecord,
)
from gridbox.resultset import Row

_KIND_OF_TYPE = {cls: kind for kind, cls in RECORD_TYPES.items()}
# kinds whose records must be minted by the catalog's own site; algorithm
# records travel between sites and keep their origin in the id
_OWNED_KINDS = ("patient", "study", "series", "image", "derived")

_PARENT_FIELD = {"study": "patient", "series": "study", "image": "series"}


def canonical_value(value) -> str:
    """Single string form used in rows and result sets."""
    if isinstance(value, bool):
        raise TypeError("boolean has no canonical field form")
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, GlobalId)):
        return str(value)
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {value!r}")


class _ImageContext:
    """An image joined to its ancestors, ready for predicate evaluation."""

    __slots__ = ("image", "series", "study", "patient", "derived")

    def __init__(self, image, series, study, patient, derived):
        self.image = image
        self.series = series
        self.study = study
        self.patient = patient
        self.derived = derived  # list[DerivedRecord]

    def static_value(self, attr: str):
        if attr == "patient.sex":
            return self.patient.sex
        if attr == "patient.age":
            return self.study.date.year - self.patient.birth_year
        if attr == "patient.id":
            return self.patient.id
        if attr == "study.date":
            return self.study.date
        if attr == "image.laterality":
            return self.image.laterality
        if attr == "image.view":
            return self.image.view
        if attr == "image.id":
            return self.image.id
        if attr == "image.dose_mgy":
            return self.image.dose_mgy
        raise KeyError(attr)

    def derived_values(self, name: str) -> list[float]:
        return [rec.scalars[name] for rec in self.derived if name in rec.scalars]


def _compare(x, op: str, v) -> bool:
    if isinstance(x, GlobalId):
        x = str(x)
    if op == "=":
        return x == v
    if op == "!=":
        return x != v
    if op == "<":
        return x < v
    if op == "<=":
        return x <= v
    if op == ">":
        return x > v
    if op == ">=":
        return x >= v
    raise ValueError(f"bad operator {op!r}")


def _evaluate(expr, ctx: _ImageContext) -> bool:
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Not):
        return not _evaluate(expr.inner, ctx)
    if isinstance(expr, And):
        return all(_evaluate(p, ctx) for p in expr.parts)
    if isinstance(expr, Or):
        return any(_evaluate(p, ctx) for p in expr.parts)
    if isinstance(expr, Comparison):
        if expr.attr.startswith("derived."):
            vals = ctx.derived_values(expr.attr.split(".", 1)[1])
            return any(_compare(x, expr.op, expr.value) for x in vals)
        x = ctx.static_value(expr.attr)
        if x is None:  # absent value satisfies nothing, not even !=
            return False
        return _compare(x, expr.op, expr.value)
    if isinstance(expr, RangeTest):
        if expr.attr.startswith("derived."):
            vals = ctx.derived_values(expr.attr.split(".", 1)[1])
            return any(expr.lo <= x <= expr.hi for x in vals)
        x = ctx.static_value(expr.attr)
        if x is None:
            return False
        return expr.lo <= x <= expr.hi
    raise TypeError(f"not an expression node: {expr!r}")


class SiteCatalog:
    """Metadata catalog for one site, optionally persisted to ``data_dir``."""

    def __init__(self, site: str, data_dir: str | Path | None = None):
        self.site = site
        self._lock = threading.RLock()
        self._records: dict[str, dict[str, object]] = {k: {} for k in RECORD_TYPES}
        self._files: dict[str, object] = {}  # file gid -> FileRef
        self._derived_by_image: dict[str, list[DerivedRecord]] = {}
        self._algorithms: dict[str, dict[int, AlgorithmRecord]] = {}
        self._log_path: Path | None = None
        if data_dir is not None:
            data_dir = Path(data_dir)
            data_dir.mkdir(parents=True, exist_ok=True)
            self._log_path = data_dir / "catalog.log"
            self._replay()

    # --- persistence ---------------------------------------------------------

    def _replay(self) -> None:
        if self._log_path is None or not self._log_path.exists():
            return
        with self._log_path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    verb, kind, payload = line.split(" ", 2)
                    if verb != "UPSERT":
                        raise ValueError(f"unknown verb {verb!r}")
                    record = RECORD_TYPES[kind].from_json(json.loads(payload))
                except Exception as e:
                    raise StorageError(
                        f"corrupt catalog log at line {lineno}: {e}") from e
                self._apply(kind, record, log=False)

    def _log(self, kind: str, record) -> None:
        if self._log_path is None:
            return
        line = f"UPSERT {kind} {json.dumps(record.to_json(), sort_keys=True)}\n"
        with self._log_path.open("a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()

    # --- writes ----------------------------------------------------------------

    def _check_parent(self, kind: str, record) -> None:
        if kind in _PARENT_FIELD:
            parent = getattr(record, _PARENT_FIELD[kind])
            if self.lookup(parent) is None:
                raise DanglingParent(f"{record.id} references missing {parent}")
        elif kind == "derived":
            if self.lookup(record.image) is None:
                raise DanglingParent(f"{record.id} references missing {record.image}")
            if self.lookup(record.algorithm) is None:
                raise DanglingParent(
                    f"{record.id} references unregistered {record.algorithm}")

    def _apply(self, kind: str, record, log: bool) -> bool:
        key = str(record.id)
        if kind in _OWNED_KINDS and record.id.site != self.site:
            raise ForeignSite(
                f"{record.id} was minted by {record.id.site}, not {self.site}")
        self._check_parent(kind, record)
        if kind == "algorithm":
            prior = self._algorithms.get(record.name, {}).get(record.version)
            if prior is not None and prior.source != record.source:
                raise AlgorithmConflict(
                    f"{record.name} v{record.version} already registered "
                    "with different source")
        existing = self._records[kind].get(key)
        if existing == record:
            return False
        self._records[kind][key] = record
        if kind == "derived":
            bucket = self._derived_by_image.setdefault(str(record.image), [])
            if existing is not None:
                bucket[:] = [r for r in bucket if str(r.id) != key]
            bucket.append(record)
        if kind == "image":
            self._files[str(record.file.id)] = record.file
        if kind == "algorithm":
            self._algorithms.setdefault(record.name, {})[record.version] = record
        if log:
            self._log(kind, record)
        return True

    def upsert(self, record) -> bool:
        """Insert or replace one record; returns True when anything changed."""
        kind = _KIND_OF_TYPE[type(record)]
        with self._lock:
            return self._apply(kind, record, log=True)

    def ingest_tree(self, patient: PatientRecord, studies: list[StudyRecord],
                    series: list[SeriesRecord],
                    images: list[ImageRecord]) -> dict[str, int]:
        """Upsert one patient tree in dependency order.

        Returns the number of records that actually changed per kind, so a
        repeated ingest of identical data reports all zeros.
        """
        with self._lock:
            batch_ids = {str(patient.id)}
            batch_ids.update(str(r.id) for r in studies)
            batch_ids.update(str(r.id) for r in series)
            for rec, parent in ([(s, s.patient) for s in studies]
                                + [(s, s.study) for s in series]
                                + [(i, i.series) for i in images]):
                if str(parent) not in batch_ids and self.lookup(parent) is None:
                    raise DanglingParent(f"{rec.id} references missing {parent}")
            changed = {"patient": 0, "study": 0, "series": 0, "image": 0}
            changed["patient"] += self._apply("patient", patient, log=True)
            for s in studies:
                changed["study"] += self._apply("study", s, log=True)
            for s in series:
                changed["series"] += self._apply("series", s, log=True)
            for im in images:
                changed["image"] += self._apply("image", im, log=True)
            return changed

    # --- reads ------------------------------------------------------------------

    def lookup(self, gid: GlobalId | str):
        key = str(gid)
        kind = key.split(":", 2)[1] if key.count(":") >= 2 else ""
        table = self._records.get(kind)
        if table is None:
            return None
        return table.get(key)

    def require(self, gid: GlobalId | str):
        rec = self.lookup(gid)
        if rec is None:
            raise NotFound(f"no record {gid}")
        return rec

    def algorithm(self, name: str, version: int | None = None) -> AlgorithmRecord | None:
        versions = self._algorithms.get(name)
        if not versions:
            return None
        return versions.get(version) if version is not None else versions[max(versions)]

    def algorithm_versions(self) -> dict[str, list[int]]:
        """Registered versions of every algorithm, by name."""
        with self._lock:
            return {name: sorted(versions)
                    for name, versions in sorted(self._algorithms.items())}

    def add_algorithm_version(self, name: str, make) -> AlgorithmRecord:
        """Store ``make(version)`` as the next version of ``name`` and return it;
        the version is allocated and stored under one lock."""
        with self._lock:
            latest = self.algorithm(name)
            record = make(1 if latest is None else latest.version + 1)
            self.upsert(record)
            return record

    def images(self) -> list[ImageRecord]:
        return sorted(self._records["image"].values(), key=lambda r: str(r.id))

    def derived_for(self, image: GlobalId | str) -> list[DerivedRecord]:
        return list(self._derived_by_image.get(str(image), []))

    def file_by_id(self, gid: GlobalId | str):
        """FileRef carried by some image record, keyed by file gid."""
        return self._files.get(str(gid))

    # --- query execution -----------------------------------------------------------

    def _contexts(self) -> list[_ImageContext]:
        out = []
        for image in self.images():
            series: SeriesRecord = self.require(image.series)
            study: StudyRecord = self.require(series.study)
            patient: PatientRecord = self.require(study.patient)
            out.append(_ImageContext(image, series, study, patient,
                                     self._derived_by_image.get(str(image.id), [])))
        return out

    @staticmethod
    def _project(ctx: _ImageContext, attrs: tuple) -> dict:
        fields = {}
        for attr in attrs:
            if attr.startswith("derived."):
                vals = ctx.derived_values(attr.split(".", 1)[1])
                if vals:  # report the largest scalar; omit when absent
                    fields[attr] = canonical_value(max(vals))
                continue
            value = ctx.static_value(attr)
            if value is not None:
                fields[attr] = canonical_value(value)
        return fields

    def select(self, q: FormalQuery) -> list[Row]:
        """Evaluate a parsed query over this catalog; rows come back sorted by id."""
        attrs, kind = projection(q), ROW_KIND[q.target]
        with self._lock:
            contexts = self._contexts()
        rows: dict[str, Row] = {}
        for ctx in contexts:
            if not _evaluate(q.expr, ctx):
                continue
            row_id = str(getattr(ctx, kind).id)
            if row_id not in rows:  # first image in id order represents the group
                rows[row_id] = Row(row_id, self._project(ctx, attrs))
        return [rows[k] for k in sorted(rows)]

    # --- bookkeeping -------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            files = {}
            for image in self._records["image"].values():
                files[image.file.sha256] = image.file.size
            return {
                "site": self.site,
                "patients": len(self._records["patient"]),
                "studies": len(self._records["study"]),
                "series": len(self._records["series"]),
                "images": len(self._records["image"]),
                "derived": len(self._records["derived"]),
                "algorithms": sum(len(v) for v in self._algorithms.values()),
                "stored_bytes": sum(files.values()),
            }

    def audit(self) -> list[str]:
        """Full referential-integrity walk; an empty list means healthy."""
        problems = []
        with self._lock:
            for kind in ("study", "series", "image"):
                for rec in self._records[kind].values():
                    parent = getattr(rec, _PARENT_FIELD[kind])
                    if self.lookup(parent) is None:
                        problems.append(f"{rec.id}: missing parent {parent}")
            for rec in self._records["derived"].values():
                if self.lookup(rec.image) is None:
                    problems.append(f"{rec.id}: missing image {rec.image}")
                if self.lookup(rec.algorithm) is None:
                    problems.append(f"{rec.id}: missing algorithm {rec.algorithm}")
            for kind in _OWNED_KINDS:
                for rec in self._records[kind].values():
                    if rec.id.site != self.site:
                        problems.append(f"{rec.id}: foreign record in {self.site}")
        return problems
