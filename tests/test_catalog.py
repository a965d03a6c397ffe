import dataclasses
import itertools
import re
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridbox import applog
from gridbox import catalog as catalog_module
from gridbox.anonymize import PseudonymTable
from gridbox.catalog import SiteCatalog, _Columns, canonical_value
from gridbox.config import RegistryConfig
from gridbox.errors import (
    AlgorithmConflict,
    DanglingParent,
    ForeignSite,
    NotFound,
    StorageError,
)
from gridbox.ids import GlobalId, IdMinter
from gridbox.query import parse_query, projection
from gridbox.records import (
    AlgorithmRecord,
    DerivedRecord,
    FileRef,
    ImageRecord,
    PatientRecord,
    SeriesRecord,
    StudyRecord,
)
from gridbox import registry as registry_module
from gridbox.registry import VoRegistry

MINTER = IdMinter("CAM", b"\x0c" * 16)


def gid(kind, n, site="CAM"):
    return GlobalId(site, kind, f"{n:032x}")


def build_tree(cat, n, sex="F", birth_year=1950, study_date=date(2001, 5, 20),
               laterality="L", view="CC", dose=1.25, site="CAM"):
    """One patient/study/series/image chain, everything numbered ``n``."""
    patient = PatientRecord(gid("patient", n, site), f"ANON-{n:012x}", sex, birth_year)
    study = StudyRecord(gid("study", n, site), patient.id, study_date)
    series = SeriesRecord(gid("series", n, site), study.id)
    ref = FileRef(gid("file", n, site), f"{n:064x}", 128, site)
    image = ImageRecord(gid("image", n, site), series.id, laterality, view,
                        8, 8, ref, dose)
    cat.ingest_tree(patient, [study], [series], [image])
    return patient, study, series, image


def algorithm_record(n=1, name="alg", version=1, source="mean emit m", site="CAM"):
    return AlgorithmRecord(gid("algorithm", n, site), name, version, source, site)


def select_ids(cat, text):
    return cat.select(parse_query(text)).ids


# --- writes -----------------------------------------------------------------------

def test_upsert_reports_change(tmp_path):
    cat = SiteCatalog("CAM", tmp_path)
    p = PatientRecord(gid("patient", 1), "ANON-000000000001", "F", 1950)
    assert cat.upsert(p) is True
    assert cat.upsert(p) is False
    changed = PatientRecord(gid("patient", 1), "ANON-000000000001", "F", 1951)
    assert cat.upsert(changed) is True
    assert cat.lookup(p.id).birth_year == 1951


def test_parent_must_exist():
    cat = SiteCatalog("CAM")
    with pytest.raises(DanglingParent):
        cat.upsert(StudyRecord(gid("study", 1), gid("patient", 99), date(2001, 1, 1)))


def test_ingest_tree_is_atomic_on_bad_parent():
    cat = SiteCatalog("CAM")
    patient = PatientRecord(gid("patient", 1), "ANON-000000000001", "F", 1950)
    orphan_series = SeriesRecord(gid("series", 1), gid("study", 42))
    with pytest.raises(DanglingParent):
        cat.ingest_tree(patient, [], [orphan_series], [])
    assert cat.lookup(patient.id) is None  # nothing of the batch landed


def test_ingest_tree_counts_changes():
    cat = SiteCatalog("CAM")
    patient, study, series, image = build_tree(cat, 1)
    again = cat.ingest_tree(patient, [study], [series], [image])
    assert again == {"patient": 0, "study": 0, "series": 0, "image": 0}


def test_foreign_records_rejected():
    cat = SiteCatalog("CAM")
    with pytest.raises(ForeignSite):
        cat.upsert(PatientRecord(gid("patient", 1, "UDI"),
                                 "ANON-000000000001", "F", 1950))


def test_algorithms_may_come_from_other_sites():
    cat = SiteCatalog("CAM")
    rec = algorithm_record(site="UDI")
    assert cat.upsert(rec) is True
    assert cat.algorithm("alg").origin_site == "UDI"


def test_algorithm_conflict_same_version_different_source():
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record(source="mean emit m"))
    with pytest.raises(AlgorithmConflict):
        cat.upsert(algorithm_record(n=2, source="max emit m"))
    # identical re-registration is a no-op, not a conflict
    assert cat.upsert(algorithm_record()) is False


def test_algorithm_latest_version_wins():
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record(n=1, version=1))
    cat.upsert(algorithm_record(n=2, version=3, source="max emit m"))
    assert cat.algorithm("alg").version == 3
    assert cat.algorithm("alg", 1).version == 1
    assert cat.algorithm_versions() == {"alg": [1, 3]}


def test_add_algorithm_version_allocates_the_next_version():
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record(n=1, version=1))
    got = cat.add_algorithm_version(
        "alg", lambda v: algorithm_record(n=2, version=v, source="max emit m"))
    assert got.version == 2
    assert cat.algorithm("alg") == got


def test_replay_restores_everything(tmp_path):
    cat = SiteCatalog("CAM", tmp_path)
    build_tree(cat, 1)
    cat.upsert(algorithm_record())
    cat.upsert(DerivedRecord(gid("derived", 1), gid("image", 1),
                             gid("algorithm", 1), {"m": 4.5}))
    again = SiteCatalog("CAM", tmp_path)
    assert again.stats() == cat.stats()
    assert again.lookup(gid("image", 1)) == cat.lookup(gid("image", 1))
    assert again.derived_for(gid("image", 1)) == cat.derived_for(gid("image", 1))
    assert again.algorithm("alg") == cat.algorithm("alg")
    assert again.audit() == []


def test_corrupt_log_is_loud(tmp_path):
    cat = SiteCatalog("CAM", tmp_path)
    build_tree(cat, 1)
    with (tmp_path / "catalog.log").open("a") as fh:
        fh.write("UPSERT patient {not json}\n")
    with pytest.raises(StorageError):
        SiteCatalog("CAM", tmp_path)


# The catalog log, the registry log and the pseudonym log share one framing
# (gridbox.applog); each case below runs over all three.

@dataclasses.dataclass(frozen=True)
class LogOwner:
    """How to open the owner of one log on a data directory, write its n-th
    entry (whose line is the last one written) and read its state."""

    name: str  # the log's file name in the data directory
    open: Callable
    write: Callable
    state: Callable


def record_pseudonym(table, n):
    original = f"P-{n}"
    table.record(original, MINTER.mint_keyed("patient", original),
                 MINTER.pseudonym(original))


LOGS = [
    LogOwner("catalog.log", lambda d: SiteCatalog("CAM", d), build_tree,
             lambda cat: (cat.stats(), cat.images(), cat.audit())),
    LogOwner("registry.log",
             lambda d: VoRegistry(RegistryConfig(("127.0.0.1", 0), d)),
             lambda reg, n: reg.register_node(f"S{n}", f"host:{n}", f"id-{n}"),
             lambda reg: (reg.vo_key, reg.admin_token, reg.membership())),
    LogOwner("pseudonyms.log", lambda d: PseudonymTable(d / "pseudonyms.log"),
             record_pseudonym,
             lambda table: (len(table), [table.lookup(f"P-{n}") for n in (1, 2, 3)])),
]
each_log = pytest.mark.parametrize("log", LOGS, ids=lambda log: log.name)


@each_log
def test_bad_line_before_a_torn_last_line_is_loud(tmp_path, log):
    log.write(log.open(tmp_path), 1)
    path = tmp_path / log.name
    lines = path.read_bytes().count(b"\n")
    with path.open("ab") as fh:
        fh.write(b"{not a record}\n{half")
    with pytest.raises(StorageError, match=rf"{re.escape(log.name)} at line {lines + 1}:"):
        log.open(tmp_path)


@each_log
def test_torn_last_line_is_dropped_and_the_log_stays_appendable(tmp_path, capsys, log):
    owner = log.open(tmp_path)
    log.write(owner, 1)
    log.write(owner, 2)
    path = tmp_path / log.name
    whole = path.read_bytes()
    start = whole.rstrip(b"\n").rfind(b"\n") + 1  # the last line, of entry 2
    path.write_bytes(whole[:(start + len(whole)) // 2])

    again = log.open(tmp_path)
    err = capsys.readouterr().err
    assert log.name in err and "dropped the unfinished last line" in err
    assert path.read_bytes() == whole[:start]
    assert log.state(again) != log.state(owner)
    log.write(again, 2)
    # only the torn record was lost, so only its line is written again
    assert path.read_bytes().count(b"\n") == whole.count(b"\n")
    assert log.state(log.open(tmp_path)) == log.state(owner)


@each_log
def test_last_line_cut_before_its_newline_is_kept(tmp_path, log):
    owner = log.open(tmp_path)
    log.write(owner, 1)
    path = tmp_path / log.name
    whole = path.read_bytes()
    path.write_bytes(whole[:-1])

    again = log.open(tmp_path)
    assert log.state(again) == log.state(owner)
    assert path.read_bytes() == whole
    log.write(again, 2)
    assert log.state(log.open(tmp_path)) == log.state(again)


@each_log
def test_a_crash_at_any_byte_of_the_last_append_recovers(tmp_path, monkeypatch, log):
    """Cut the log at every byte offset of its last append and reopen it:
    the audit is clean, the state is that of the log cut after some whole
    line, and re-running the cut write restores the file byte for byte."""
    monkeypatch.setattr(registry_module, "time", SimpleNamespace(time=lambda: 1.7e9))
    owner = log.open(tmp_path / "whole")
    log.write(owner, 1)
    path = tmp_path / "whole" / log.name
    before = len(path.read_bytes())
    log.write(owner, 2)
    whole, final = path.read_bytes(), log.state(owner)
    reopened = tmp_path / "cut" / log.name

    def reopen(data: bytes):
        reopened.parent.mkdir(exist_ok=True)
        reopened.write_bytes(data)
        return log.open(reopened.parent)

    line_ends = [before] + [at + 1 for at in range(before, len(whole)) if whole[at] == ord("\n")]
    prefix_states = [log.state(reopen(whole[:end])) for end in line_ends]
    for cut in range(before, len(whole)):
        again = reopen(whole[:cut])
        assert getattr(again, "audit", list)() == []
        assert log.state(again) in prefix_states
        if log.state(again) != final:
            log.write(again, 2)
        assert reopened.read_bytes() == whole, cut


def test_ingest_tree_appends_its_lines_in_one_open(tmp_path, monkeypatch):
    cat = SiteCatalog("CAM", tmp_path)
    opened, real_open = [], Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if self.name == "catalog.log":
            opened.append(mode)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    build_tree(cat, 1)
    build_tree(cat, 1)  # unchanged: nothing to write
    assert opened == ["a"]
    assert len((tmp_path / "catalog.log").read_text().splitlines()) == 4


def test_records_before_a_failing_image_are_logged(tmp_path):
    cat = SiteCatalog("CAM", tmp_path)
    patient = PatientRecord(gid("patient", 1), "ANON-000000000001", "F", 1950)
    study = StudyRecord(gid("study", 1), patient.id, date(2001, 5, 20))
    series = SeriesRecord(gid("series", 1), study.id)
    ref = FileRef(gid("file", 1, "UDI"), f"{1:064x}", 128, "UDI")
    foreign = ImageRecord(gid("image", 1, "UDI"), series.id, "L", "CC", 8, 8, ref, 1.0)
    with pytest.raises(ForeignSite):
        cat.ingest_tree(patient, [study], [series], [foreign])
    image = dataclasses.replace(foreign, id=gid("image", 1),
                                file=FileRef(gid("file", 1), f"{1:064x}", 128, "CAM"))
    assert cat.ingest_tree(patient, [study], [series], [image])["image"] == 1

    reopened = SiteCatalog("CAM", tmp_path)
    assert reopened.stats() == cat.stats()
    assert reopened.lookup(image.id) == image


def derived_record(n, value, image=None):
    """Derived record ``n`` of algorithm 1 on image ``n`` (or ``image``)."""
    return DerivedRecord(gid("derived", n), gid("image", n if image is None else image),
                         gid("algorithm", 1), {"m": value})


def test_upsert_many_is_one_write_of_what_changed(tmp_path, monkeypatch):
    cat = SiteCatalog("CAM", tmp_path)
    for n in (1, 2, 3):
        build_tree(cat, n)
    cat.upsert(algorithm_record())
    appended, real_append = [], applog.append

    def recording_append(path, lines):
        appended.append(list(lines))
        real_append(path, appended[-1])

    monkeypatch.setattr(applog, "append", recording_append)

    assert cat.upsert_many([derived_record(n, 0.5) for n in (1, 2, 3)]) == 3
    # one unchanged, one changed: only the changed one is logged
    assert cat.upsert_many([derived_record(1, 0.5), derived_record(2, 0.9)]) == 1
    assert cat.upsert_many([derived_record(3, 0.5)]) == 0  # no change, no append
    assert [[line.split(" ", 2)[1] for line in lines] for lines in appended] \
        == [["derived"] * 3, ["derived"]]
    assert select_ids(cat, "select images where derived.m > 0.6") == [str(gid("image", 2))]
    again = SiteCatalog("CAM", tmp_path)
    assert [again.derived_for(gid("image", n)) for n in (1, 2, 3)] \
        == [cat.derived_for(gid("image", n)) for n in (1, 2, 3)]


def test_upsert_many_logs_the_records_before_a_failure(tmp_path):
    cat = SiteCatalog("CAM", tmp_path)
    for n in (1, 2):
        build_tree(cat, n)
    cat.upsert(algorithm_record())
    batch = [derived_record(1, 0.5), derived_record(9, 0.5), derived_record(2, 0.5)]
    with pytest.raises(DanglingParent):
        cat.upsert_many(batch)  # image 9 does not exist
    assert cat.derived_for(gid("image", 1)) == [batch[0]]
    assert cat.derived_for(gid("image", 2)) == []
    again = SiteCatalog("CAM", tmp_path)
    assert again.derived_for(gid("image", 1)) == [batch[0]]
    assert again.stats() == cat.stats() and again.audit() == []


def test_require_raises(tmp_path):
    cat = SiteCatalog("CAM")
    with pytest.raises(NotFound):
        cat.require(gid("patient", 9))


# --- evaluation semantics -----------------------------------------------------------

def test_age_is_study_year_minus_birth_year():
    cat = SiteCatalog("CAM")
    build_tree(cat, 1, birth_year=1950, study_date=date(2001, 5, 20))
    assert select_ids(cat, "select images where patient.age = 51") \
        == [str(gid("image", 1))]
    assert select_ids(cat, "select images where patient.age = 50") == []


def test_missing_dose_never_matches():
    cat = SiteCatalog("CAM")
    build_tree(cat, 1, dose=None)
    build_tree(cat, 2, dose=1.0)
    assert select_ids(cat, "select images where image.dose_mgy < 99") \
        == [str(gid("image", 2))]
    # != is not an escape hatch for absent values
    assert select_ids(cat, "select images where image.dose_mgy != 1.0") == []
    assert select_ids(cat, "select images where not image.dose_mgy = 1.0") \
        == [str(gid("image", 1))]


def test_derived_any_match_and_max_projection():
    cat = SiteCatalog("CAM")
    build_tree(cat, 1)
    cat.upsert(algorithm_record(n=1, name="a", source="mean emit density"))
    cat.upsert(algorithm_record(n=2, name="b", source="max emit density"))
    cat.upsert(DerivedRecord(gid("derived", 1), gid("image", 1),
                             gid("algorithm", 1), {"density": 0.2}))
    cat.upsert(DerivedRecord(gid("derived", 2), gid("image", 1),
                             gid("algorithm", 2), {"density": 0.7}))
    assert select_ids(cat, "select images where derived.density < 0.3") \
        == [str(gid("image", 1))]
    assert select_ids(cat, "select images where derived.density > 0.5") \
        == [str(gid("image", 1))]
    q = parse_query("select images where derived.density > 0")
    rows = cat.select(q).rows()
    assert rows[0].fields["derived.density"] == "0.7"  # the max scalar


def test_absent_derived_field_omitted_from_projection():
    cat = SiteCatalog("CAM")
    build_tree(cat, 1)
    q = parse_query("select images where derived.density > 0 or patient.sex = F")
    rows = cat.select(q).rows()
    assert len(rows) == 1
    assert "derived.density" not in rows[0].fields
    assert rows[0].fields["patient.sex"] == "F"


def test_patient_target_groups_rows():
    cat = SiteCatalog("CAM")
    patient, study, series, _ = build_tree(cat, 1)
    ref = FileRef(gid("file", 9), f"{9:064x}", 128, "CAM")
    cat.upsert(ImageRecord(gid("image", 9), series.id, "R", "MLO", 8, 8, ref))
    ids = select_ids(cat, "select patients where patient.sex = F")
    assert ids == [str(patient.id)]
    ids = select_ids(cat, "select studies where patient.sex = F")
    assert ids == [str(study.id)]


def test_projection_values_are_canonical_text():
    cat = SiteCatalog("CAM")
    build_tree(cat, 1, dose=1.25, study_date=date(2001, 5, 20))
    q = parse_query("select images where image.dose_mgy > 0 and patient.age > 0 "
                    "and study.date > 1990-01-01")
    rows = cat.select(q).rows()
    fields = rows[0].fields
    assert fields["image.dose_mgy"] == "1.25"
    assert fields["patient.age"] == "51"
    assert fields["study.date"] == "2001-05-20"


def test_canonical_value_forms():
    assert canonical_value(1.25) == "1.25"
    assert canonical_value(51) == "51"
    assert canonical_value(date(2001, 5, 20)) == "2001-05-20"
    assert canonical_value("F") == "F"


def test_stats_count_distinct_blobs():
    cat = SiteCatalog("CAM")
    build_tree(cat, 1)
    build_tree(cat, 2)
    st1 = cat.stats()
    assert (st1["patients"], st1["images"]) == (2, 2)
    assert st1["stored_bytes"] == 256


# --- randomized evaluation vs brute-force oracle ----------------------------------

sexes = st.sampled_from(["F", "M"])
lateralities = st.sampled_from(["L", "R"])
views = st.sampled_from(["CC", "MLO"])


def scrambled(k):
    """A distinct id number for each k, in an order unlike k's, so that id
    order and insertion order differ."""
    return k * 0x9E3779B1 % 2 ** 32


doses = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.0]),
                  st.floats(0.05, 5).map(lambda x: round(x, 3)))
densities = st.floats(0, 1).map(lambda x: round(x, 4))


@st.composite
def catalogs(draw):
    """Patients with 1-3 studies of 1-3 images each.  Each image carries 0,
    1 or 2 derived records, one per algorithm version; version 2 also emits
    ``spots``."""
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record(n=1, version=1))
    cat.upsert(algorithm_record(n=2, version=2, source="max emit m"))
    numbers = (scrambled(k) for k in itertools.count(1))
    for _ in range(draw(st.integers(1, 5))):
        n = next(numbers)
        patient = PatientRecord(gid("patient", n), f"ANON-{n:012x}", draw(sexes),
                                draw(st.integers(1920, 1970)))
        studies, series, images = [], [], []
        for _ in range(draw(st.integers(1, 3))):
            n = next(numbers)
            studies.append(StudyRecord(gid("study", n), patient.id,
                                       draw(st.dates(date(1995, 1, 1), date(2005, 12, 31)))))
            series.append(SeriesRecord(gid("series", n), studies[-1].id))
            for _ in range(draw(st.integers(1, 3))):
                n = next(numbers)
                ref = FileRef(gid("file", n), f"{n:064x}", 128, "CAM")
                images.append(ImageRecord(gid("image", n), series[-1].id, draw(lateralities),
                                          draw(views), 8, 8, ref, draw(doses)))
        cat.ingest_tree(patient, studies, series, images)
        for image in images:
            for version in draw(st.sampled_from([(), (1,), (2,), (1, 2), (2, 1)])):
                scalars = {"density": draw(densities)}
                if version == 2:
                    scalars["spots"] = float(draw(st.integers(0, 4)))
                cat.upsert(DerivedRecord(gid("derived", next(numbers)), image.id,
                                         gid("algorithm", version), scalars))
    return cat


QUERY_POOL = [
    "select images where true",
    "select patients where patient.sex = F",
    "select images where patient.age in [50,60] and image.laterality = L",
    "select images where image.view = CC or image.dose_mgy < 1.0",
    "select studies where study.date >= 2000-01-01",
    "select images where not patient.sex = M and image.dose_mgy != 1.0",
    "select images where derived.density > 0.5",
    "select patients where derived.density in [0.2,0.8] or patient.age > 70",
    "select images where not (image.laterality = L or image.view = MLO)",
    "select images where patient.age in [40,49] and not image.dose_mgy >= 2.0",
    "select images where image.dose_mgy != 1.0",
    "select studies where image.dose_mgy != 0.5 and image.view = MLO",
    "select patients where not image.dose_mgy != 2.0",
    "select images where not derived.density in [0.2,0.6]",
    "select studies where not derived.density in [0.1,0.9] or patient.sex = M",
    "select patients where derived.spots >= 2 and not derived.density < 0.5",
    "select studies where study.date in [1998-01-01,2001-12-31] and derived.density < 0.5",
    f"select images where patient.id = {gid('patient', scrambled(1))}",
    f"select studies where image.id != {gid('image', scrambled(3))} and derived.spots = 1",
    # beyond what float64 holds exactly
    "select images where image.dose_mgy != 9007199254740993",
    f"select patients where patient.age < 1{'0' * 400} and derived.density < 1{'0' * 400}",
]


def checked_select(cat, q):
    """``cat.select(q)``, its rows checked against the oracle and its ids
    checked to be strictly increasing, as resultset.merge relies on."""
    part = cat.select(q)
    assert all(a < b for a, b in zip(part.ids, part.ids[1:])), q.source_text
    assert part.rows() == oracles.expected_rows(q, [cat]), q.source_text
    return part


@settings(max_examples=100)
@given(catalogs(), st.sampled_from(QUERY_POOL))
def test_select_matches_bruteforce_oracle(cat, text):
    q = parse_query(text)
    part = checked_select(cat, q)
    assert list(part.fields) == list(projection(q))


@settings(max_examples=30)
@given(catalogs(), st.data())
def test_select_stays_exact_across_the_query_pool_and_writes(cat, data):
    """Every query of the pool, twice over one image table, then again after
    writes that change a projected value; nothing a select leaves behind on
    the table may show in a later answer."""
    queries = [parse_query(text) for text in QUERY_POOL]

    def check():
        for q in queries:
            checked_select(cat, q)

    check()
    table = cat._columns
    check()
    assert cat._columns is table  # the second pass read the same table
    image = data.draw(st.sampled_from(cat.images()))
    patient = cat.require(cat.require(cat.require(image.series).study).patient)
    # a value larger than any drawn becomes the image's derived.density
    cat.upsert(DerivedRecord(gid("derived", 2 ** 32 + 1), image.id,
                             gid("algorithm", 1), {"density": 1.5}))
    cat.upsert(dataclasses.replace(patient, sex="M" if patient.sex == "F" else "F"))
    check()


def test_select_stays_exact_across_writes_and_reopen(tmp_path):
    cat = SiteCatalog("CAM", tmp_path)
    cat.upsert(algorithm_record(n=1, version=1))
    cat.upsert(algorithm_record(n=2, version=2, source="max emit m"))
    patient, study, series, image = build_tree(cat, 1, dose=None)
    build_tree(cat, 2, sex="M", birth_year=1930, laterality="R", view="MLO", dose=2.0)
    queries = [parse_query(text) for text in QUERY_POOL]

    def check(catalog):
        for q in queries:
            checked_select(catalog, q)

    check(cat)
    build_tree(cat, 3, study_date=date(1999, 2, 3), dose=0.5)
    check(cat)
    cat.upsert(DerivedRecord(gid("derived", 1), image.id, gid("algorithm", 1),
                             {"density": 0.3}))
    check(cat)
    cat.upsert(DerivedRecord(gid("derived", 1), image.id, gid("algorithm", 1),
                             {"density": 0.9, "spots": 2.0}))
    check(cat)
    cat.upsert(dataclasses.replace(patient, sex="M"))
    cat.upsert(dataclasses.replace(study, date=date(1999, 12, 31)))
    check(cat)
    # a new image in an existing series, after the table was rebuilt
    ref = FileRef(gid("file", 9), f"{9:064x}", 128, "CAM")
    cat.upsert(ImageRecord(gid("image", 9), series.id, "R", "CC", 8, 8, ref, 1.0))
    cat.upsert(DerivedRecord(gid("derived", 9), gid("image", 9), gid("algorithm", 2),
                             {"density": 0.6, "spots": 1.0}))
    check(cat)

    reopened = SiteCatalog("CAM", tmp_path)
    for q in queries:
        assert checked_select(reopened, q) == cat.select(q), q.source_text


@settings(max_examples=30)
@given(catalogs(), st.sampled_from(["images", "studies", "patients"]))
def test_select_gathers_no_row_one_row_and_every_row(cat, target):
    """The gather of the matched rows, which takes one item, or none, by
    other means than it takes several; every field is projected."""
    every = len(oracles.expected_ids(parse_query(f"select {target} where true"), [cat]))
    image = cat.images()[0]
    for where, rows in (("false", 0), (f"image.id = {image.id}", 1), ("true", every)):
        q = parse_query(f"select {target} where {where} or patient.sex = F and false"
                        " or image.view = CC and false or derived.density > 2")
        part = checked_select(cat, q)
        assert len(part) == rows
        assert [len(column) for column in part.fields.values()] == [rows] * len(part.fields)


# --- text columns: built on first use, extended by later builds ------------------

EVERY_FIELD = [parse_query(
    f"select {target} where patient.sex = F or patient.age > 60 or study.date < 1998-01-01"
    " or image.laterality = L or image.view = CC or image.dose_mgy > 1"
    " or derived.density > 0.5 or derived.spots >= 2"
    f" or image.id = {gid('image', scrambled(3))} or patient.id = {gid('patient', scrambled(1))}")
    for target in ("images", "studies", "patients")]


def check_every_field(cat):
    for q in EVERY_FIELD:
        assert cat.select(q).rows() == oracles.expected_rows(q, [cat]), q.source_text


@settings(max_examples=40)
@given(catalogs(), st.data())
def test_text_columns_die_with_the_table(cat, data):
    """Selects that project every kind of field, interleaved with ingests,
    derived writes and patient changes, each checked against the oracle: a
    text column built before a write never shows in an answer after it."""
    numbers = (scrambled(k) for k in itertools.count(1000))

    def derived_write(value=None):
        images = data.draw(st.lists(st.sampled_from(cat.images()), min_size=1,
                                    max_size=3, unique_by=lambda image: str(image.id)))
        records = []
        for image in images:
            scalars = {"density": data.draw(densities) if value is None else value}
            existing = cat.derived_for(image.id)
            if existing:
                records.append(dataclasses.replace(data.draw(st.sampled_from(existing)),
                                                   scalars=scalars))
            else:
                records.append(DerivedRecord(gid("derived", next(numbers)), image.id,
                                             gid("algorithm", 1), scalars))
        cat.upsert_many(records)

    def patient_write():
        image = data.draw(st.sampled_from(cat.images()))
        patient = cat.require(cat.require(cat.require(image.series).study).patient)
        cat.upsert(dataclasses.replace(patient, sex=data.draw(sexes),
                                       birth_year=data.draw(st.integers(1920, 1970))))

    def ingest():
        patients = sorted(cat._records["patient"].values(), key=lambda p: str(p.id))
        patient = data.draw(st.one_of(st.sampled_from(patients), st.builds(
            lambda sex, year: PatientRecord(gid("patient", n := next(numbers)),
                                            f"ANON-{n:012x}", sex, year),
            sexes, st.integers(1920, 1970))))
        n = next(numbers)
        study = StudyRecord(gid("study", n), patient.id,
                            data.draw(st.dates(date(1995, 1, 1), date(2005, 12, 31))))
        series = SeriesRecord(gid("series", n), study.id)
        images = []
        for _ in range(data.draw(st.integers(1, 2))):
            n = next(numbers)
            images.append(ImageRecord(gid("image", n), series.id, data.draw(lateralities),
                                      data.draw(views), 8, 8,
                                      FileRef(gid("file", n), f"{n:064x}", 128, "CAM"),
                                      data.draw(doses)))
        cat.ingest_tree(patient, [study], [series], images)

    derived_write()  # so that some row has a derived.density
    check_every_field(cat)
    assert "derived.density" in cat._columns.texts  # built before the write
    derived_write(value=2.0)  # above every drawn density: the value changes
    check_every_field(cat)
    steps = {"derived": derived_write, "patient": patient_write, "ingest": ingest,
             "select": lambda: check_every_field(cat)}
    for name in data.draw(st.lists(st.sampled_from(sorted(steps)), max_size=6)):
        steps[name]()
    check_every_field(cat)


@settings(max_examples=30)
@given(catalogs(), st.sampled_from(QUERY_POOL))
def test_a_select_that_projects_no_field_builds_no_text_column(cat, text):
    q = parse_query(text)
    part = cat.select(q, ())
    assert part.fields == {}
    assert set(cat._columns.texts) == {"image.id", "patient.id"}  # the id strings
    assert part.ids == cat.select(q).ids


def test_concurrent_first_selects_on_a_fresh_table_agree():
    """Threads that make the first select on a fresh table race to build its
    text columns; every one of them gets the oracle's answer."""
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record())
    for n in range(1, 201):
        build_tree(cat, n, sex="FM"[n % 2], birth_year=1920 + n % 50,
                   study_date=date(1995 + n % 11, 1 + n % 12, 1 + n % 28),
                   laterality="LR"[n % 2], view=("CC", "MLO")[n % 3 % 2],
                   dose=(None, 0.5, 1.5, 2.0)[n % 4])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            cat.upsert_many([derived_record(n, (n * 7 + round_) % 10 / 10)
                             for n in range(1, 201, 3)])
            for q in EVERY_FIELD:
                barrier, parts = threading.Barrier(8), [None] * 8

                def first_select(i):
                    barrier.wait(timeout=10)
                    parts[i] = cat.select(q)

                threads = [threading.Thread(target=first_select, args=(i,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert parts[0].rows() == oracles.expected_rows(q, [cat]), q.source_text
                assert all(part == parts[0] for part in parts)
    finally:
        sys.setswitchinterval(interval)


def test_a_value_with_no_canonical_form_fails_the_select_that_projects_it():
    cat = SiteCatalog("CAM")
    build_tree(cat, 1)
    cat.upsert(algorithm_record())
    cat.upsert(DerivedRecord(gid("derived", 1), gid("image", 1), gid("algorithm", 1),
                             {"flag": True}))
    q = parse_query("select images where derived.flag > 0")
    for _ in range(2):  # a failed build leaves no column behind
        with pytest.raises(TypeError):
            cat.select(q)
    assert cat.select(q, ()).ids == [str(gid("image", 1))]


# --- the image table is extended in place ------------------------------------------

def assert_table_is_fresh(cat):
    """``cat``'s image table equals one built afresh from its records."""
    table, fresh = cat._columns, _Columns(cat._image_rows(), cat._derived_by_image)
    assert (table.n, table.rows, table.ids) == (fresh.n, fresh.rows, fresh.ids)
    for name in ("column", "present", "group"):
        got, want = getattr(table, name), getattr(fresh, name)
        assert got.keys() == want.keys(), name
        for key, array in want.items():
            assert got[key].dtype == array.dtype, (name, key)
            np.testing.assert_array_equal(got[key], array, err_msg=f"{name} {key}")
    assert table.rank_of == fresh.rank_of
    assert [list(ranks) for ranks in table.rank_of.values()] == \
        [list(ranks) for ranks in fresh.rank_of.values()]  # in rank order
    assert table.derived.keys() == fresh.derived.keys()
    for attr, (at_rows, values) in fresh.derived.items():
        got_rows, got_values = table.derived[attr]
        assert (got_rows.dtype, got_values.dtype) == (at_rows.dtype, values.dtype), attr
        assert (got_rows.tolist(), got_values.tolist()) == (at_rows.tolist(),
                                                            values.tolist()), attr
    assert table.largest == fresh.largest
    for attr, column in table.texts.items():
        assert column == fresh._text_column(attr), attr


@settings(max_examples=100, deadline=None)
@given(catalogs(), st.data())
def test_an_extended_table_equals_a_fresh_build(cat, data):
    """Selects that project every field, interleaved with new trees, new
    images in existing series, changed records, derived writes that add or
    replace, algorithm registrations and reopens: after each select the
    table equals one built from the catalog's records."""
    numbers = (scrambled(k) for k in itertools.count(2000))
    with tempfile.TemporaryDirectory() as data_dir:
        drawn, cat = cat, SiteCatalog("CAM", data_dir)
        for kind in ("algorithm", "patient", "study", "series", "image", "derived"):
            cat.upsert_many(sorted(drawn._records[kind].values(), key=lambda r: str(r.id)))

        def pick(kind):
            return data.draw(st.sampled_from(
                sorted(cat._records[kind].values(), key=lambda r: str(r.id))))

        def new_image(series):
            n = next(numbers)
            return ImageRecord(gid("image", n), series, data.draw(lateralities),
                               data.draw(views), 8, 8,
                               FileRef(gid("file", n), f"{n:064x}", 128, "CAM"),
                               data.draw(doses))

        def new_tree():
            if data.draw(st.booleans()):
                patient = pick("patient")
            else:
                n = next(numbers)
                patient = PatientRecord(gid("patient", n), f"ANON-{n:012x}",
                                        data.draw(sexes), data.draw(st.integers(1920, 1970)))
            n = next(numbers)
            study = StudyRecord(gid("study", n), patient.id,
                                data.draw(st.dates(date(1995, 1, 1), date(2005, 12, 31))))
            series = SeriesRecord(gid("series", n), study.id)
            images = [new_image(series.id) for _ in range(data.draw(st.integers(1, 3)))]
            cat.ingest_tree(patient, [study], [series], images)

        def image_in_existing_series():
            cat.upsert(new_image(pick("series").id))

        def change():
            kind = data.draw(st.sampled_from(["patient", "study", "series", "image"]))
            record = pick(kind)
            if kind == "patient":
                record = dataclasses.replace(record, sex=data.draw(sexes),
                                             birth_year=data.draw(st.integers(1920, 1970)))
            elif kind == "study":
                record = dataclasses.replace(
                    record, date=data.draw(st.dates(date(1995, 1, 1), date(2005, 12, 31))))
            elif kind == "series":
                record = dataclasses.replace(record, study=pick("study").id)
            else:
                record = dataclasses.replace(record, series=pick("series").id,
                                             laterality=data.draw(lateralities),
                                             dose_mgy=data.draw(doses))
            cat.upsert(record)

        def derived_write():
            records = []
            for _ in range(data.draw(st.integers(1, 3))):
                scalars = {"density": data.draw(densities)}
                if data.draw(st.booleans()):
                    scalars["spots"] = float(data.draw(st.integers(0, 4)))
                if cat._records["derived"] and data.draw(st.booleans()):
                    records.append(dataclasses.replace(pick("derived"), scalars=scalars))
                else:
                    records.append(DerivedRecord(
                        gid("derived", next(numbers)), pick("image").id,
                        gid("algorithm", data.draw(st.sampled_from([1, 2]))), scalars))
            cat.upsert_many(records)

        def algorithm():
            cat.add_algorithm_version("alg", lambda version: algorithm_record(
                n=next(numbers), version=version, source=f"mean emit v{version}"))

        def reopen():
            nonlocal cat
            cat = SiteCatalog("CAM", data_dir)

        def select():
            check_every_field(cat)
            assert_table_is_fresh(cat)

        steps = {"tree": new_tree, "image": image_in_existing_series, "change": change,
                 "derived": derived_write, "algorithm": algorithm, "reopen": reopen,
                 "select": select}
        # a changed record or a reopen starts the table again, so they are rarer
        weighted = [*steps, "tree", "image", "derived", "derived", "select", "select"]
        select()
        for name in data.draw(st.lists(st.sampled_from(weighted), min_size=3, max_size=12)):
            steps[name]()
        select()


def count_joined_rows(cat, monkeypatch) -> list:
    """The number of rows each join of ``cat`` makes from now on."""
    joined, join = [], cat._image_rows

    def counted(keys=None):
        rows = join(keys)
        joined.append(len(rows))
        return rows

    monkeypatch.setattr(cat, "_image_rows", counted)
    return joined


def test_a_select_after_an_upload_joins_only_the_new_images(monkeypatch):
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record())
    for n in range(1, 41):
        build_tree(cat, n, sex="FM"[n % 2], study_date=date(1995 + n % 11, 1, 1 + n % 28),
                   dose=(None, 0.5, 1.5)[n % 3])
    cat.upsert_many([derived_record(n, n / 40) for n in range(1, 41, 2)])
    check_every_field(cat)  # builds the table and every text column
    joined = count_joined_rows(cat, monkeypatch)
    texts_of = []
    static_texts = catalog_module._static_texts
    monkeypatch.setattr(catalog_module, "_static_texts",
                        lambda attr, rows: texts_of.append(len(rows)) or static_texts(attr, rows))
    for n in range(41, 45):
        build_tree(cat, n, laterality="R")
    ref = FileRef(gid("file", 45), f"{45:064x}", 128, "CAM")  # into an existing series
    cat.upsert(ImageRecord(gid("image", 45), gid("series", 7), "L", "MLO", 8, 8, ref, None))
    check_every_field(cat)
    assert joined == [5]
    # each static text column built before the upload is extended with 5 texts
    assert texts_of == [5] * 6  # sex, age, date, laterality, view and dose
    assert_table_is_fresh(cat)


def test_a_derived_write_keeps_the_static_columns(monkeypatch):
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record())
    for n in range(1, 21):
        build_tree(cat, n, dose=(None, 2.0)[n % 2])
    check_every_field(cat)
    table = cat._columns
    joined = count_joined_rows(cat, monkeypatch)
    cat.upsert_many([derived_record(n, n / 20) for n in (3, 8, 13)])
    check_every_field(cat)
    assert joined == [0]
    assert cat._columns is not table
    for attr in ("study.date", "image.dose_mgy", "patient.id"):
        assert cat._columns.column[attr] is table.column[attr]
    assert cat._columns.present is table.present
    assert cat._columns.ids is table.ids
    assert cat._columns.texts["study.date"] is table.texts["study.date"]
    assert_table_is_fresh(cat)


def test_a_changed_record_makes_the_next_select_take_every_image(monkeypatch):
    cat = SiteCatalog("CAM")
    trees = [build_tree(cat, n) for n in range(1, 11)]
    check_every_field(cat)
    joined = count_joined_rows(cat, monkeypatch)
    cat.upsert(algorithm_record())  # a new algorithm leaves the table alone
    build_tree(cat, 11)
    cat.upsert(dataclasses.replace(trees[4][1], date=date(1999, 9, 9)))
    build_tree(cat, 12)
    check_every_field(cat)
    assert joined == [12]
    assert_table_is_fresh(cat)


def test_selects_on_an_old_table_race_the_build_of_the_next():
    """Readers select every field while a writer uploads trees, whose ids
    fall between the old ones, and writes derived records, so each new
    table is built from one that other threads are still reading and
    filling.  Every answer's texts belong to its own rows, and the last
    table equals a fresh build."""
    cat = SiteCatalog("CAM")
    cat.upsert(algorithm_record())
    numbers = [scrambled(k) for k in range(1, 161)]
    for n in numbers[:60]:
        build_tree(cat, n, sex="FM"[n % 2], dose=(None, 0.5, 1.5)[n % 3])
    errors, done = [], threading.Event()

    def read():
        try:
            while not done.is_set():
                part = cat.select(EVERY_FIELD[0])  # images; no record here changes
                assert part.ids == sorted(part.ids) == part.fields["image.id"]
                assert part.fields["image.laterality"] == [
                    cat.lookup(image).laterality for image in part.ids]
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        for i in range(60, 160):
            build_tree(cat, numbers[i], laterality="LR"[i % 2])
            cat.upsert_many([DerivedRecord(gid("derived", n), gid("image", n),
                                           gid("algorithm", 1), {"density": i % 10 / 10})
                             for n in numbers[i - 5:i + 1]])
            time.sleep(0.005)  # for the readers to build a table and race on it
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert errors == []
    check_every_field(cat)
    assert_table_is_fresh(cat)
