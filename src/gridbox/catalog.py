"""Per-site metadata catalog.

Holds the patient/study/series/image tree, derived results, and algorithm
registrations for one site.  Every write goes through ``SiteCatalog._apply``,
which validates referential integrity.  :meth:`SiteCatalog.upsert`,
:meth:`SiteCatalog.upsert_many` and :meth:`SiteCatalog.ingest_tree` share one
write path: it applies their records in order under one lock hold, then
appends the ones that changed to the catalog log as ``UPSERT <kind> <json>``
lines in one write, including those that landed before a record failed.
One site's derived records from an EXEC_ALG pass go through one such write
at the end of that site's part, so a concurrent query sees none of them or
all of them.  A catalog opened on an existing directory replays the log to
recover its state; :mod:`gridbox.applog` frames the lines and decides what
a bad or torn line means.

Queries run over an *image table*: one row per image, joined to its study
and patient, in image-id order.  It keeps numpy columns for the static
attributes (category codes, date ordinals, ages, doses with a presence
mask, and a rank per id that orders rows as their id strings do),
``(row, value)`` pairs for each ``derived.<name>`` scalar, and, as Python
lists, the id string of each row's image, study and patient and the
canonical text of each projected field, None where the value is absent.
The id strings are made when the table is built and are also the texts of
``image.id`` and ``patient.id``; the text column of any other field is
built over all rows by the first select that projects it.  Any write that
changes a record drops the table with all its columns, and the next
`select` builds it again from the records, so a run of writes costs one
build.  `select` evaluates the parsed query as boolean masks over the
numpy columns, then gathers the ids and each projected field's texts of
the matched rows from the lists: the numpy columns decide which rows match
and never what a field says.  It returns them as a `Part`: the row ids
plus one column per projected field.  No `Row` is built here:
`resultset.merge` joins the sites' parts column by column, and the answer
stays in columns until its XML is written.
"""

from __future__ import annotations

import json
import operator
import threading
from datetime import date
from pathlib import Path

import numpy as np

from gridbox import applog
from gridbox.errors import (
    AlgorithmConflict,
    DanglingParent,
    ForeignSite,
    NotFound,
)
from gridbox.ids import GlobalId
from gridbox.query import (
    STATIC_ATTRS,
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
from gridbox.resultset import Part

_KIND_OF_TYPE = {cls: kind for kind, cls in RECORD_TYPES.items()}
# kinds whose records must be minted by the catalog's own site; algorithm
# records travel between sites and keep their origin in the id
_OWNED_KINDS = ("patient", "study", "series", "image", "derived")

_PARENT_FIELD = {"study": "patient", "series": "study", "image": "series"}


def _parse_line(line: str) -> tuple[str, object]:
    verb, kind, payload = line.split(" ", 2)
    if verb != "UPSERT":
        raise ValueError(f"unknown verb {verb!r}")
    return kind, RECORD_TYPES[kind].from_json(json.loads(payload))


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


# `canonical_value` of a value of exactly one of these types; any other type,
# bool and subclasses included, goes through `canonical_value` itself
_CANONICAL_OF_TYPE = {str: str, int: str, float: repr, date: date.isoformat,
                      GlobalId: str}

# how an image row, (image, study, patient), reaches each static attribute
_STATIC_VALUE = {
    "patient.sex": lambda image, study, patient: patient.sex,
    "patient.age": lambda image, study, patient: study.date.year - patient.birth_year,
    "patient.id": lambda image, study, patient: patient.id,
    "study.date": lambda image, study, patient: study.date,
    "image.laterality": lambda image, study, patient: image.laterality,
    "image.view": lambda image, study, patient: image.view,
    "image.id": lambda image, study, patient: image.id,
    "image.dose_mgy": lambda image, study, patient: image.dose_mgy,
}

_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_EXACT_INT = 2 ** 53  # larger ints may change value on conversion to float64


def _test(op, column: np.ndarray, value) -> np.ndarray:
    """``op(x, value)`` for every x of ``column``, as Python compares them."""
    if isinstance(value, int) and abs(value) > _EXACT_INT:
        return np.fromiter((op(x, value) for x in column.tolist()), bool, len(column))
    return op(column, value)


def _canonical(value) -> str | None:
    """`canonical_value` of ``value``, None for None."""
    if value is None:
        return None
    return _CANONICAL_OF_TYPE.get(type(value), canonical_value)(value)


def _ranks(ids: list[str]) -> tuple[np.ndarray, dict[str, int]]:
    """Each id's rank among the distinct ids, per row, and the rank of each
    id; ordering rows by rank orders them by id string."""
    rank_of = {text: rank for rank, text in enumerate(sorted(set(ids)))}
    return np.array([rank_of[text] for text in ids], np.int64), rank_of


class _Columns:
    """The image table at one moment, from ``(image, study, patient)`` rows
    in image-id order, with everything a select projects ready to gather:
    ``ids`` holds each row's image, study and patient id string, made with
    the table, and ``texts`` holds one canonical-text column per projected
    field, None where the value is absent.  ``image.id`` and ``patient.id``
    share the id strings; the first select that projects any other field
    builds its column over all rows, so a value with no canonical form in
    any row, matched or not, fails every select that projects its field.
    Apart from filling ``texts`` the table never changes after it is built,
    so a select evaluates it without the catalog lock; two selects that
    race to fill one column both compute the same list."""

    def __init__(self, rows: list[tuple], derived_by_image: dict[str, list]):
        self.rows = rows
        self.n = len(rows)
        self.column: dict[str, np.ndarray] = {}
        self.present: dict[str, np.ndarray] = {}  # real attr -> value not absent
        self.rank_of: dict[str, dict[str, int]] = {}  # id attr -> {id: rank}
        self.texts: dict[str, list] = {}
        for attr, (typ, extra) in STATIC_ATTRS.items():
            values = [_STATIC_VALUE[attr](*row) for row in rows]
            if typ == "cat":
                codes = {v: code for code, v in enumerate(extra)}
                self.column[attr] = np.array([codes[v] for v in values], np.int8)
            elif typ == "int":
                self.column[attr] = np.array(values, np.int64)
            elif typ == "date":
                self.column[attr] = np.array([v.toordinal() for v in values], np.int64)
            elif typ == "real":
                self.present[attr] = np.array([v is not None for v in values], bool)
                self.column[attr] = np.array(
                    [np.nan if v is None else v for v in values], np.float64)
            else:  # id
                self.texts[attr] = list(map(str, values))
                self.column[attr], self.rank_of[attr] = _ranks(self.texts[attr])
        study_ids = [str(study.id) for _, study, _ in rows]
        self.ids = {"image": self.texts["image.id"], "study": study_ids,
                    "patient": self.texts["patient.id"]}
        self.group = {"image": self.column["image.id"], "study": _ranks(study_ids)[0],
                      "patient": self.column["patient.id"]}
        # "derived.<name>" -> (row of each value, the values) and the largest
        # value of each row (None where the row has none), as max() picks it
        pairs: dict[str, tuple[list, list]] = {}
        for row, image_id in enumerate(self.ids["image"]):
            for record in derived_by_image.get(image_id, ()):
                for name, value in record.scalars.items():
                    at_rows, values = pairs.setdefault(f"derived.{name}", ([], []))
                    at_rows.append(row)
                    values.append(value)
        self.derived: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.largest: dict[str, list] = {}
        for attr, (at_rows, values) in pairs.items():
            self.derived[attr] = (np.array(at_rows, np.int64),
                                  np.array(values, np.float64))
            largest = [None] * self.n
            for row, value in zip(at_rows, values):
                if largest[row] is None or value > largest[row]:
                    largest[row] = value
            self.largest[attr] = largest

    def _code(self, attr: str, value):
        """A query value in the units of ``attr``'s column."""
        typ, extra = STATIC_ATTRS.get(attr, ("real", None))
        if typ == "cat":
            return extra.index(value)
        if typ == "date":
            return value.toordinal()
        if typ == "id":
            return self.rank_of[attr].get(value, -1)
        return value

    def _where(self, attr: str, test) -> np.ndarray:
        """Rows where ``test(column)`` holds for ``attr``.  An absent value
        passes no test, ``!=`` included; a ``derived.`` test holds for a
        row when any of its values passes."""
        if attr.startswith("derived."):
            hit = np.zeros(self.n, bool)
            if attr in self.derived:
                at_rows, values = self.derived[attr]
                hit[at_rows[test(values)]] = True
            return hit
        hit = test(self.column[attr])
        return hit & self.present[attr] if attr in self.present else hit

    def mask(self, expr) -> np.ndarray:
        if isinstance(expr, BoolLit):
            return np.full(self.n, expr.value)
        if isinstance(expr, Not):
            return ~self.mask(expr.inner)
        if isinstance(expr, And):
            return np.logical_and.reduce([self.mask(p) for p in expr.parts])
        if isinstance(expr, Or):
            return np.logical_or.reduce([self.mask(p) for p in expr.parts])
        if isinstance(expr, Comparison):
            op, value = _OPS[expr.op], self._code(expr.attr, expr.value)
            return self._where(expr.attr, lambda col: _test(op, col, value))
        if isinstance(expr, RangeTest):
            lo, hi = self._code(expr.attr, expr.lo), self._code(expr.attr, expr.hi)
            return self._where(expr.attr, lambda col: _test(operator.ge, col, lo)
                               & _test(operator.le, col, hi))
        raise TypeError(f"not an expression node: {expr!r}")

    def _text_column(self, attr: str) -> list | None:
        """The canonical text of ``attr`` for every row, built on first use;
        None for a ``derived.`` field no row has."""
        column = self.texts.get(attr)
        if column is None:
            if attr.startswith("derived."):
                largest = self.largest.get(attr)  # report the largest scalar
                if largest is None:
                    return None
                column = list(map(_canonical, largest))
            else:
                value = _STATIC_VALUE[attr]
                column = list(map(_canonical, (value(*row) for row in self.rows)))
            self.texts[attr] = column
        return column

    def select(self, kind: str, expr, attrs: tuple) -> Part:
        """The ids of the rows of ``kind`` matching ``expr``, sorted, and the
        column of texts of each of ``attrs`` for those rows; a study or
        patient is represented by its first matching image in image-id order."""
        matched = np.flatnonzero(self.mask(expr))  # in image-id order
        _, first = np.unique(self.group[kind][matched], return_index=True)
        picked = matched[first].tolist()
        fields = {}
        for attr in attrs:
            column = self._text_column(attr)
            fields[attr] = ([None] * len(picked) if column is None
                            else list(map(column.__getitem__, picked)))
        return Part(list(map(self.ids[kind].__getitem__, picked)), fields)


class SiteCatalog:
    """Metadata catalog for one site, optionally persisted to ``data_dir``."""

    def __init__(self, site: str, data_dir: str | Path | None = None):
        self.site = site
        self._lock = threading.RLock()
        self._records: dict[str, dict[str, object]] = {k: {} for k in RECORD_TYPES}
        self._files: dict[str, object] = {}  # file gid -> FileRef
        self._derived_by_image: dict[str, list[DerivedRecord]] = {}
        self._algorithms: dict[str, dict[int, AlgorithmRecord]] = {}
        self._columns: _Columns | None = None  # None: build at the next select
        self._log_path: Path | None = None
        if data_dir is not None:
            data_dir = Path(data_dir)
            data_dir.mkdir(parents=True, exist_ok=True)
            self._log_path = data_dir / "catalog.log"
            for kind, record in applog.replay(self._log_path, _parse_line):
                self._apply(kind, record)

    # --- persistence ---------------------------------------------------------

    def _log(self, changed: list[tuple[str, object]]) -> None:
        """Append one ``UPSERT`` line per ``(kind, record)`` in a single write."""
        if self._log_path is not None:
            applog.append(self._log_path, (
                f"UPSERT {kind} {json.dumps(record.to_json(), sort_keys=True)}"
                for kind, record in changed))

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

    def _apply(self, kind: str, record) -> bool:
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
        self._columns = None
        return True

    def _image_rows(self) -> list[tuple[ImageRecord, StudyRecord, PatientRecord]]:
        """Each image joined to its study and patient, in image-id order."""
        series, studies = self._records["series"], self._records["study"]
        patients, rows = self._records["patient"], []
        for image in self.images():
            study = studies[str(series[str(image.series)].study)]
            rows.append((image, study, patients[str(study.patient)]))
        return rows

    def _write(self, records) -> list[tuple[str, object]]:
        """Apply ``records`` in order under one lock hold, then log the ones
        that changed in one append; returns them as ``(kind, record)``.  A
        record that fails stops the write, and what landed before it is
        logged all the same."""
        with self._lock:
            written = []
            try:
                for record in records:
                    kind = _KIND_OF_TYPE[type(record)]
                    if self._apply(kind, record):
                        written.append((kind, record))
            finally:
                if written:
                    self._log(written)
            return written

    def upsert(self, record) -> bool:
        """Insert or replace one record; returns True when anything changed."""
        return bool(self._write([record]))

    def upsert_many(self, records) -> int:
        """Upsert ``records`` in order as one write; returns how many changed."""
        return len(self._write(records))

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
            for kind, _ in self._write([patient, *studies, *series, *images]):
                changed[kind] += 1
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

    def select(self, q: FormalQuery, fields: tuple | None = None) -> Part:
        """Evaluate a parsed query over this catalog: the matching row ids,
        sorted, and one column per name in ``fields``, by default those in
        ``projection(q)``."""
        with self._lock:
            if self._columns is None:
                self._columns = _Columns(self._image_rows(), self._derived_by_image)
            columns = self._columns
        return columns.select(ROW_KIND[q.target], q.expr,
                              projection(q) if fields is None else fields)

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
