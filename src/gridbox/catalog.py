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
The id strings are also the texts of ``image.id`` and ``patient.id``; the
text column of any other field is built over all rows by the first select
that projects it.  A write leaves the table standing and notes what the
next `select` must fold in: a new image joins a pending list, and a derived
record marks its image's derived values stale.  New patient, study, series
and algorithm records change no row.  A *changed* patient, study, series or
image empties the table, and the next select takes every image.  That
select builds a new table from the last one, making static values, id
strings and texts for the pending rows only and merging them in by image id,
and indexes the stale derived values again; its Python work grows with what
was written since the last select, not with the site.  `select` evaluates
the parsed query as boolean masks over the numpy columns, then gathers the
ids and each projected field's texts of the matched rows from the lists:
the numpy columns decide which rows match and never what a field says.  It
returns them as a `Part`: the row ids plus one column per projected field.
No `Row` is built here: `resultset.merge` joins the sites' parts column by
column, and the answer stays in columns until its XML is written.
"""

from __future__ import annotations

import json
import operator
import threading
from datetime import date
from pathlib import Path
from types import SimpleNamespace

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


# the numpy type of each static attribute's column, by the attribute's type
_DTYPE = {"cat": np.int8, "int": np.int64, "date": np.int64, "real": np.float64,
          "id": np.int64}
_KINDS = ("image", "study", "patient")


def _static_texts(attr: str, rows) -> list:
    """The canonical text of static ``attr`` for each of ``rows``."""
    value = _STATIC_VALUE[attr]
    return list(map(_canonical, (value(*row) for row in rows)))


def _merge_ranks(rank_of: dict, ranks: np.ndarray, new_ids: list):
    """Ranks once ``new_ids`` join the ids that ``rank_of`` ranks, where
    ``ranks`` holds an existing row's rank: the new rank of each distinct id,
    in rank order, the existing rows' ranks renumbered, and the rank of each
    of ``new_ids``.  Ordering rows by rank orders them by id string."""
    fresh = set(new_ids).difference(rank_of)
    if fresh:
        merged = sorted([*rank_of, *sorted(fresh)])  # a merge of two sorted runs
        merged_rank_of = dict(zip(merged, range(len(merged))))
        ranks = np.fromiter(map(merged_rank_of.__getitem__, rank_of), np.int64,
                            len(rank_of))[ranks]
        rank_of = merged_rank_of
    return rank_of, ranks, np.fromiter(map(rank_of.__getitem__, new_ids), np.int64,
                                       len(new_ids))


def _permuted(old: list, new: list, order: list | None) -> list:
    """``old + new`` in ``order`` (None: as it stands), as a new list."""
    return old + new if order is None else list(map((old + new).__getitem__, order))


# the fields of an image table with no rows, which a first build extends
_EMPTY = SimpleNamespace(
    rows=[], n=0, texts={}, derived={}, largest={},
    column={attr: np.empty(0, _DTYPE[typ]) for attr, (typ, _) in STATIC_ATTRS.items()},
    present={attr: np.empty(0, bool) for attr, (typ, _) in STATIC_ATTRS.items()
             if typ == "real"},
    rank_of={kind: {} for kind in _KINDS}, ids={kind: [] for kind in _KINDS},
    group={kind: np.empty(0, np.int64) for kind in _KINDS})
_NO_PAIRS = (np.empty(0, np.int64), np.empty(0, np.float64))


class _Columns:
    """The image table at one moment, from ``(image, study, patient)`` rows
    in image-id order, with everything a select projects ready to gather:
    ``ids`` holds each row's image, study and patient id string, and
    ``texts`` holds one canonical-text column per projected field, None
    where the value is absent.  ``image.id`` and ``patient.id`` share the id
    strings; the first select that projects any other field builds its
    column over all rows, so a value with no canonical form in any row,
    matched or not, fails every select that projects its field.

    A table is built as an earlier table, ``base`` (None: the empty table),
    extended with the rows of new images and with the derived records of the
    images in ``touched`` indexed again; the first build extends the empty
    table.  The new rows' static values and id strings are made here, merged
    into ``base``'s in image-id order, and every text column ``base`` has
    built is extended with the new rows' texts only; ``base`` itself is left
    as it was.  Apart from filling ``texts`` a table never changes after it
    is built, so a select evaluates it without the catalog lock; two selects
    that race to fill one column both compute the same list."""

    def __init__(self, rows: list[tuple], derived_by_image: dict[str, list],
                 base: _Columns | None = None, touched=()):
        base = _EMPTY if base is None else base
        texts = dict(base.texts)  # a copy: selects on base may still add to it
        if rows:
            order, where = self._merge_static(base, rows, texts)
        else:
            order, where = None, np.arange(base.n)
            self.rows, self.n, self.column, self.present = (
                base.rows, base.n, base.column, base.present)
            self.rank_of, self.ids, self.group = base.rank_of, base.ids, base.group
        self._index_derived(base, order, where, derived_by_image, touched, texts)
        self.texts = texts

    def _merge_static(self, base, rows: list[tuple], texts: dict):
        """Merge ``rows`` into ``base``'s static columns, id strings and
        static text columns.  Returns the order of ``base``'s rows followed
        by ``rows`` that puts them in image-id order, and the row each of
        them moves to."""
        self.n = n = base.n + len(rows)
        new_ids = {"image": [str(image.id) for image, _, _ in rows],
                   "study": [str(study.id) for _, study, _ in rows],
                   "patient": [str(patient.id) for _, _, patient in rows]}
        every = base.ids["image"] + new_ids["image"]
        order = sorted(range(n), key=every.__getitem__)
        at = np.array(order, np.int64)
        self.rows = _permuted(base.rows, rows, order)
        self.ids = {kind: _permuted(base.ids[kind], new_ids[kind], order)
                    for kind in _KINDS}
        # an image's rank is its row; a study's or a patient's comes from
        # merging the sorted distinct ids
        self.rank_of = {"image": dict(zip(self.ids["image"], range(n)))}
        self.group = {"image": np.arange(n, dtype=np.int64)}
        for kind in ("study", "patient"):
            self.rank_of[kind], old, new = _merge_ranks(
                base.rank_of[kind], base.group[kind], new_ids[kind])
            self.group[kind] = np.concatenate((old, new))[at]
        self.column: dict[str, np.ndarray] = {}
        self.present: dict[str, np.ndarray] = {}  # real attr -> value not absent
        for attr, (typ, extra) in STATIC_ATTRS.items():
            if typ == "id":
                self.column[attr] = self.group[extra]
                continue
            values = [_STATIC_VALUE[attr](*row) for row in rows]
            if typ == "cat":
                codes = {v: code for code, v in enumerate(extra)}
                values = [codes[v] for v in values]
            elif typ == "date":
                values = [v.toordinal() for v in values]
            elif typ == "real":
                self.present[attr] = np.concatenate((
                    base.present[attr], np.array([v is not None for v in values], bool)))[at]
                values = [np.nan if v is None else v for v in values]
            self.column[attr] = np.concatenate((
                base.column[attr], np.array(values, _DTYPE[typ])))[at]
        for attr, column in texts.items():
            if attr in STATIC_ATTRS and STATIC_ATTRS[attr][0] != "id":
                texts[attr] = _permuted(column, _static_texts(attr, rows), order)
        texts["image.id"], texts["patient.id"] = self.ids["image"], self.ids["patient"]
        where = np.empty(n, np.int64)
        where[at] = np.arange(n)
        return order, where

    def _index_derived(self, base, order: list | None, where: np.ndarray,
                       derived_by_image: dict, touched, texts: dict) -> None:
        """``base``'s ``derived.<name>`` pairs, largest values and text
        columns, carried to this table's rows, with the rows of new images
        and of ``touched`` images indexed again from ``derived_by_image``.
        ``where`` holds the row each of ``base``'s rows moves to.  Pairs stay
        in row order, and a row's pairs in the order of its records and their
        scalars."""
        image_rank = base.rank_of["image"]  # an image's rank is its row
        again = np.union1d(
            where[np.array([image_rank[key] for key in touched if key in image_rank],
                           np.int64)],
            where[base.n:])
        rows, image_ids = again.tolist(), self.ids["image"]
        pairs: dict[str, tuple[list, list]] = {}
        for row in rows:
            for record in derived_by_image.get(image_ids[row], ()):
                for name, value in record.scalars.items():
                    at_rows, values = pairs.setdefault(f"derived.{name}", ([], []))
                    at_rows.append(row)
                    values.append(value)
        added = self.n - base.n
        # "derived.<name>" -> (row of each value, the values) and the largest
        # value of each row (None where the row has none), as max() picks it
        self.derived: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.largest: dict[str, list] = {}
        for attr in sorted(base.derived.keys() | pairs.keys()):
            old_rows, old_values = base.derived.get(attr, _NO_PAIRS)
            old_rows = where[old_rows]
            keep = ~np.isin(old_rows, again)
            new_rows, new_values = pairs.get(attr, ([], []))
            at_rows = np.concatenate((old_rows[keep], np.array(new_rows, np.int64)))
            if not len(at_rows):
                continue  # its last value was replaced
            by_row = np.argsort(at_rows, kind="stable")
            self.derived[attr] = (at_rows[by_row], np.concatenate((
                old_values[keep], np.array(new_values, np.float64)))[by_row])
            largest = _permuted(base.largest.get(attr, [None] * base.n),
                                [None] * added, order)
            for row in rows:
                largest[row] = None
            for row, value in zip(new_rows, new_values):
                if largest[row] is None or value > largest[row]:
                    largest[row] = value
            self.largest[attr] = largest
        for attr, column in list(texts.items()):
            if not attr.startswith("derived."):
                continue
            del texts[attr]
            largest = self.largest.get(attr)
            if largest is None:
                continue  # no row has it any more
            column = _permuted(column, [None] * added, order)
            try:
                for row in rows:
                    column[row] = _canonical(largest[row])
            except TypeError:
                continue  # the next select that projects it fails on it again
            texts[attr] = column

    def _code(self, attr: str, value):
        """A query value in the units of ``attr``'s column."""
        typ, extra = STATIC_ATTRS.get(attr, ("real", None))
        if typ == "cat":
            return extra.index(value)
        if typ == "date":
            return value.toordinal()
        if typ == "id":
            return self.rank_of[extra].get(value, -1)
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
                column = _static_texts(attr, self.rows)
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
        # the image table as of the last select (None: no rows), the ids of
        # the images written since (None: every image, after a changed
        # record reset the table) and the images whose derived records changed
        self._columns: _Columns | None = None
        self._pending: list[str] | None = None
        self._touched: set[str] = set()
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
            if existing is not None:
                image = str(existing.image)
                self._derived_by_image[image] = [
                    r for r in self._derived_by_image[image] if str(r.id) != key]
                self._touched.add(image)
            image = str(record.image)
            self._derived_by_image.setdefault(image, []).append(record)
            self._touched.add(image)
        elif kind == "algorithm":
            self._algorithms.setdefault(record.name, {})[record.version] = record
        elif existing is not None:  # a changed patient, study, series or image
            self._columns = self._pending = None
        elif kind == "image" and self._pending is not None:
            self._pending.append(key)
        if kind == "image":
            self._files[str(record.file.id)] = record.file
        return True

    def _image_rows(self, keys=None) -> list[tuple[ImageRecord, StudyRecord, PatientRecord]]:
        """Each image of ``keys`` (None: every image) joined to its study and
        patient, in image-id order."""
        images, series = self._records["image"], self._records["series"]
        studies, patients, rows = self._records["study"], self._records["patient"], []
        for key in sorted(images if keys is None else keys):
            image = images[key]
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
        kind = gid.kind if isinstance(gid, GlobalId) else (
            key.split(":", 2)[1] if key.count(":") >= 2 else "")
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
            if self._pending is None or self._pending or self._touched:
                self._columns = _Columns(self._image_rows(self._pending),
                                         self._derived_by_image, self._columns,
                                         self._touched)
                self._pending, self._touched = [], set()
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
